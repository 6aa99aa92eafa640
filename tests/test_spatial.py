"""Spatial substrate: geometry expressions and the grid index."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro import synth_data
from repro.spatial.geometry import (
    euclidean_distance, point_in_circle, point_in_rectangle, sql_distance,
)
from repro.spatial.grid_index import GridIndex, naive_spatial_join

coord = st.floats(min_value=0.0, max_value=179.999, allow_nan=False)


# -- pure-python grid math ----------------------------------------------------

def test_grid_requires_positive_cell():
    with pytest.raises(ValueError):
        GridIndex(cell_size=0)
    with pytest.raises(ValueError):
        GridIndex(cell_size=-1.5)


def test_grid_cell_count():
    g = GridIndex(cell_size=1.5)
    assert g.n_cells_per_axis == 120


def test_cell_id_corners():
    g = GridIndex(cell_size=1.5)
    assert g.cell_id(0.0, 0.0) == 0
    assert g.cell_id(0.0, 1.5) == 1
    assert g.cell_id(1.5, 0.0) == 120
    # world edge clamps into the last cell instead of overflowing
    assert g.cell_id(180.0, 180.0) == 120 * 120 - 1


@settings(max_examples=200, deadline=None)
@given(lat=coord, lon=coord)
def test_cell_id_in_range(lat, lon):
    g = GridIndex(cell_size=1.5)
    cid = g.cell_id(lat, lon)
    assert 0 <= cid < g.n_cells_per_axis**2


@settings(max_examples=200, deadline=None)
@given(lat=coord, lon=coord, radius=st.floats(min_value=0.01, max_value=10.0))
def test_covering_cells_contains_center(lat, lon, radius):
    g = GridIndex(cell_size=1.5)
    assert g.cell_id(lat, lon) in g.covering_cells(lat, lon, radius)


@settings(max_examples=100, deadline=None)
@given(lat=coord, lon=coord, plat=coord, plon=coord,
       radius=st.floats(min_value=0.01, max_value=10.0))
def test_covering_cells_complete(lat, lon, plat, plon, radius):
    """Any point within radius of the query lies in a covering cell."""
    g = GridIndex(cell_size=1.5)
    if (plat - lat) ** 2 + (plon - lon) ** 2 <= radius**2:
        assert g.cell_id(plat, plon) in g.covering_cells(lat, lon, radius)


def test_covering_cells_bounded():
    g = GridIndex(cell_size=1.5)
    cells = g.covering_cells(90.0, 90.0, 1.5)
    # bbox of a 1.5-radius circle spans at most 3x3 cells of size 1.5
    assert 1 <= len(cells) <= 9


# -- Spark column expressions -------------------------------------------------

def test_euclidean_distance_matches_numpy(spark):
    pdf = pd.DataFrame(
        {"a1": [0.0, 3.0], "o1": [0.0, 4.0], "a2": [3.0, 0.0], "o2": [4.0, 0.0]}
    )
    df = spark.createDataFrame(pdf).select(
        euclidean_distance(F.col("a1"), F.col("o1"), F.col("a2"), F.col("o2"))
        .alias("d")
    )
    got = [r.d for r in df.collect()]
    assert got == pytest.approx([5.0, 5.0])


def test_point_in_circle_boundary_inclusive(spark):
    pdf = pd.DataFrame({"lat": [0.0, 0.0], "lon": [1.5, 1.5001]})
    df = spark.createDataFrame(pdf).select(
        point_in_circle(F.col("lat"), F.col("lon"), F.lit(0.0), F.lit(0.0), 1.5)
        .alias("hit")
    )
    assert [r.hit for r in df.collect()] == [True, False]


def test_point_in_rectangle_half_open(spark):
    pdf = pd.DataFrame(
        {"lat": [0.0, 0.0, 2.0, 1.0], "lon": [0.0, 2.0, 0.0, 1.0]}
    )
    df = spark.createDataFrame(pdf).select(
        point_in_rectangle(
            F.col("lat"), F.col("lon"),
            F.lit(0.0), F.lit(0.0), F.lit(2.0), F.lit(2.0),
        ).alias("hit")
    )
    # lower/left edges inclusive, upper/right exclusive
    assert [r.hit for r in df.collect()] == [True, False, False, True]


def test_sql_distance_text():
    s = sql_distance("a", "b", "c", "d")
    assert "sqrt" in s and "(a - c)" in s and "(b - d)" in s


def test_index_join_equals_naive_join(spark):
    """The index is an access-path change only — same result set."""
    monuments = synth_data.monuments_pdf(ref_scale=0.004, seed=31)
    probes = synth_data.tweets_pdf(80, seed=32)[["id", "latitude", "longitude"]]
    m_sdf = spark.createDataFrame(monuments)
    p_sdf = spark.createDataFrame(probes)
    g = GridIndex(cell_size=1.5)
    via_index = g.index_join(
        p_sdf, "latitude", "longitude",
        g.index_points(m_sdf, "monument_lat", "monument_lon"),
        "monument_lat", "monument_lon", 1.5,
    ).select("id", "monument_id")
    naive = naive_spatial_join(
        p_sdf, "latitude", "longitude", m_sdf,
        "monument_lat", "monument_lon", 1.5,
    ).select("id", "monument_id")
    assert sorted(map(tuple, via_index.collect())) == sorted(
        map(tuple, naive.collect())
    )


def test_index_join_no_duplicates(spark):
    """A reference point is matched at most once per probe (single home cell)."""
    monuments = synth_data.monuments_pdf(ref_scale=0.002, seed=33)
    probes = synth_data.tweets_pdf(40, seed=34)[["id", "latitude", "longitude"]]
    g = GridIndex(cell_size=1.5)
    out = g.index_join(
        spark.createDataFrame(probes), "latitude", "longitude",
        g.index_points(
            spark.createDataFrame(monuments), "monument_lat", "monument_lon"
        ),
        "monument_lat", "monument_lon", 1.5,
    ).select("id", "monument_id")
    rows = [tuple(r) for r in out.collect()]
    assert len(rows) == len(set(rows))


def test_index_points_adds_cell_column(spark):
    m = spark.createDataFrame(synth_data.monuments_pdf(ref_scale=0.001))
    out = GridIndex(cell_size=1.5).index_points(m, "monument_lat", "monument_lon")
    assert "_cell" in out.columns
    cells = [r._cell for r in out.select("_cell").collect()]
    assert all(0 <= c < 120 * 120 for c in cells)
