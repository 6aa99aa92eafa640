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
from repro.synth_data import WORLD

coord = st.floats(min_value=0.0, max_value=179.999, allow_nan=False)


# -- grid math ----------------------------------------------------------------

GRID = GridIndex(cell_size=1.5)


def _home_and_cover(spark, rows, radius):
    """One Spark job over ``rows`` of ``(p_lat, p_lon, q_lat, q_lon)``: per
    row, the home cell of point p (``index_points``) and the set of cells
    covering the circle of ``radius`` around q (``probe_cells``)."""
    pdf = pd.DataFrame(rows, columns=["p_lat", "p_lon", "q_lat", "q_lon"])
    homed = GRID.index_points(
        spark.createDataFrame(pdf.rename_axis("pid").reset_index()),
        "p_lat", "p_lon",
    ).withColumnRenamed("_cell", "home")
    out = GRID.probe_cells(homed, "q_lat", "q_lon", radius).select(
        "pid", "home", "_cell"
    ).collect()
    home, cover = {}, {i: set() for i in range(len(rows))}
    for r in out:
        home[r.pid] = r.home
        cover[r.pid].add(r._cell)
    return [(home[i], cover[i]) for i in range(len(rows))]


@st.composite
def _query_and_nearby(draw):
    """A circle in the world and points drawn from its bounding box."""
    lat, lon = draw(coord), draw(coord)
    radius = draw(st.floats(min_value=0.01, max_value=10.0))
    off = st.floats(min_value=-radius, max_value=radius)
    pts = [(lat + a, lon + b) for a, b in draw(
        st.lists(st.tuples(off, off), min_size=1, max_size=40)
    )]
    return lat, lon, radius, [
        (a, b) for a, b in pts if 0 <= a <= WORLD and 0 <= b <= WORLD
    ]


def test_grid_requires_positive_cell():
    with pytest.raises(ValueError):
        GridIndex(cell_size=0)
    with pytest.raises(ValueError):
        GridIndex(cell_size=-1.5)


def test_grid_cell_count():
    assert GRID.n_cells_per_axis == 120


def test_cell_id_corners(spark):
    corners = [(0.0, 0.0), (0.0, 1.5), (1.5, 0.0), (180.0, 180.0)]
    got = _home_and_cover(spark, [p + p for p in corners], 0.01)
    # the world edge clamps into the last cell instead of overflowing
    assert [home for home, _ in got] == [0, 1, 120, 120 * 120 - 1]


@settings(max_examples=5, deadline=None)
@given(points=st.lists(st.tuples(coord, coord), min_size=1, max_size=50),
       radius=st.floats(min_value=0.01, max_value=10.0))
def test_cell_id_in_range(spark, points, radius):
    n_cells = GRID.n_cells_per_axis**2
    for home, cover in _home_and_cover(spark, [p + p for p in points], radius):
        assert 0 <= home < n_cells
        assert all(0 <= c < n_cells for c in cover)


@settings(max_examples=5, deadline=None)
@given(points=st.lists(st.tuples(coord, coord), min_size=1, max_size=50),
       radius=st.floats(min_value=0.01, max_value=10.0))
def test_covering_cells_contains_center(spark, points, radius):
    for home, cover in _home_and_cover(spark, [p + p for p in points], radius):
        assert home in cover


@settings(max_examples=10, deadline=None)
@given(case=_query_and_nearby())
def test_covering_cells_complete(spark, case):
    """Any point within radius of the query lies in a covering cell."""
    lat, lon, radius, points = case
    inside = [(a, b) for a, b in points
              if (a - lat) ** 2 + (b - lon) ** 2 <= radius**2]
    if inside:
        rows = [(a, b, lat, lon) for a, b in inside]
        for home, cover in _home_and_cover(spark, rows, radius):
            assert home in cover


def test_covering_cells_bounded(spark):
    [(_, cover)] = _home_and_cover(spark, [(90.0, 90.0, 90.0, 90.0)], 1.5)
    # bbox of a 1.5-radius circle spans at most 3x3 cells of size 1.5
    assert 1 <= len(cover) <= 9


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
