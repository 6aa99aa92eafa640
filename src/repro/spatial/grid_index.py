"""Uniform grid spatial index — the reproduction's R-Tree substitute.

The paper builds an R-Tree on ``monumentList.monument_location`` so the
Nearby Monuments UDF can run as an *index nested-loop* spatial join
(§ 4.3.4 case 3, § 7.2). A uniform grid gives the same access pattern:
points are bucketed into fixed-size cells; a circle query touches only
the cells that intersect its bounding box, then refines by distance.

``GridIndex.index_points`` is the build side (run once over the
reference dataset, analogous to creating the index); ``index_join`` is
the probe side (per enriched batch). The naive alternative — a full
cross join refined by distance — is ``naive_spatial_join``, used for the
paper's "Naive Nearby Monuments" variant.
"""
import math

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.spatial.geometry import point_in_circle
from repro.synth_data import WORLD


class GridIndex:
    """A uniform grid over the coordinate world ``[0, WORLD)^2`` with
    square cells.

    ``cell_size`` should be on the order of the query radius: larger
    cells mean fewer join keys but more refinement work, exactly the
    R-Tree node-size trade-off.
    """

    def __init__(self, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        self.n_cells_per_axis = max(1, math.ceil(WORLD / self.cell_size))

    def index_points(self, df: DataFrame, lat_col: str, lon_col: str) -> DataFrame:
        """Build side: tag each reference point with its grid cell id
        (row-major); points on the world edge clamp into the last cell."""
        n = F.lit(self.n_cells_per_axis)
        cell = F.lit(self.cell_size)
        r = F.least(F.floor(F.col(lat_col) / cell).cast("long"), n - 1)
        c = F.least(F.floor(F.col(lon_col) / cell).cast("long"), n - 1)
        return df.withColumn("_cell", r * n + c)

    def probe_cells(self, df: DataFrame, lat_col: str, lon_col: str,
                    radius: float) -> DataFrame:
        """Probe side: explode each probe row to the ids of the cells that
        intersect its circle's bounding box."""
        n = F.lit(self.n_cells_per_axis)
        cell = F.lit(self.cell_size)
        rad = F.lit(float(radius))
        r_lo = F.greatest(F.lit(0), F.floor((F.col(lat_col) - rad) / cell).cast("long"))
        r_hi = F.least(n - 1, F.floor((F.col(lat_col) + rad) / cell).cast("long"))
        c_lo = F.greatest(F.lit(0), F.floor((F.col(lon_col) - rad) / cell).cast("long"))
        c_hi = F.least(n - 1, F.floor((F.col(lon_col) + rad) / cell).cast("long"))
        rows = F.explode(F.sequence(r_lo, r_hi)).alias("_cell_r")
        out = df.select("*", rows)
        cols = F.explode(F.sequence(c_lo, c_hi)).alias("_cell_c")
        out = out.select("*", cols)
        return out.withColumn("_cell", F.col("_cell_r") * n + F.col("_cell_c")).drop(
            "_cell_r", "_cell_c"
        )

    def index_join(self, probe: DataFrame, probe_lat: str, probe_lon: str,
                   indexed: DataFrame, ref_lat: str, ref_lon: str,
                   radius: float) -> DataFrame:
        """Index nested-loop spatial join: probe rows × reference points
        within ``radius``. ``indexed`` must come from :meth:`index_points`.
        Output keeps all probe and reference columns (minus ``_cell``).
        """
        probed = self.probe_cells(probe, probe_lat, probe_lon, radius)
        joined = probed.join(indexed, on="_cell", how="inner")
        refined = joined.where(
            point_in_circle(
                F.col(ref_lat), F.col(ref_lon),
                F.col(probe_lat), F.col(probe_lon), radius,
            )
        )
        return refined.drop("_cell")


def naive_spatial_join(probe: DataFrame, probe_lat: str, probe_lon: str,
                       ref: DataFrame, ref_lat: str, ref_lon: str,
                       radius: float) -> DataFrame:
    """Scan-based spatial join: cross join refined by distance.

    This is what the planner does with no spatial index — the paper's
    "Naive Nearby Monuments" case. Cost is |probe| × |ref|. Partition
    counts are bounded on both sides because Spark's cartesian product
    spawns |left parts| × |right parts| tasks, which would swamp small
    batches in scheduling overhead.
    """
    probe = probe.repartition(8)
    ref = ref.coalesce(8)
    return probe.crossJoin(ref).where(
        point_in_circle(
            F.col(ref_lat), F.col(ref_lon),
            F.col(probe_lat), F.col(probe_lon), radius,
        )
    )
