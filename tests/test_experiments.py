"""Experiment harnesses: small-configuration integration runs per table."""
import pytest

from repro.experiments import (
    calibration, t24_basic, t25_udf, t27_updates, t28_refscale,
    t29_complexity, t30_speedup, t31_scaleout,
)
from repro.experiments.common import Workbench, format_table


def test_t24_simulated_shapes(spark):
    df = t24_basic.run_simulated(spark)
    assert list(df["nodes"]) == list(t24_basic.NODES)
    # static flat, balanced static linear, balanced dynamic grows
    assert df["static"].nunique() == 1
    assert df["balanced_static"].iloc[-1] > 10 * df["balanced_static"].iloc[0]
    bd = df["balanced_dynamic_16X"]
    assert bd.iloc[-1] > bd.iloc[0]
    # balanced dynamic trails balanced static everywhere (per-batch overhead)
    assert (df["balanced_dynamic_16X"] <= df["balanced_static"]).all()


def test_t24_refresh_rates_ordering(spark):
    df = t24_basic.run_refresh_rates(spark)
    r = dict(zip(df["batch"], df["refresh_rate_jobs_s"]))
    assert r["1X"] > r["4X"] > r["16X"] > 0


def test_t24_measured_quick(spark):
    df = t24_basic.run_measured(spark, quick=True)
    assert (df["throughput_rec_s"] > 0).all()
    assert list(zip(df["framework"], df["batch"])) == [
        ("static", "16X"), ("dynamic", "1X"), ("dynamic", "4X"),
        ("dynamic", "16X"),
    ]


def test_t25_quick_single_udf(spark):
    df = t25_udf.run(spark, quick=True, udf_names=["safety_rating"])
    assert len(df) == 3  # static_java + dynamic_java 1X + dynamic_sqlpp 1X
    assert set(df["mode"]) == {"static_java", "dynamic_java", "dynamic_sqlpp"}
    assert (df["throughput_rec_s"] > 0).all()
    periods = t25_udf.refresh_periods(df)
    assert len(periods) == 1 and periods["1X"].iloc[0] > 0


def test_t27_quick_single_udf(spark):
    df = t27_updates.run(
        spark, quick=True, udf_names=["safety_rating"], rates=(0, 400)
    )
    assert len(df) == 2
    no_upd = df[df["update_rate"] == 0].iloc[0]
    assert no_upd["pct_of_no_update"] == pytest.approx(100.0)
    upd = df[df["update_rate"] == 400].iloc[0]
    assert upd["updates_sent"] > 0
    assert upd["throughput_rec_s"] > 0


def test_t28_quick(spark):
    df = t28_refscale.run(spark, quick=True, udf_names=["safety_rating"])
    assert len(df) == len(t28_refscale.STEPS)
    assert (df["safety_rating"] > 0).all()


def test_t29_quick(spark):
    df = t29_complexity.run(spark, quick=True, udf_names=["worrisome_tweets"])
    assert len(df) == 1
    assert df["throughput_rec_s"].iloc[0] > 0


def test_t30_quick(spark):
    df = t30_speedup.run(
        spark, quick=True, udf_names=["safety_rating", "fuzzy_suspects"]
    )
    assert set(df["udf"]) == {"safety_rating", "fuzzy_suspects"}
    assert (df[["speedup_1X", "speedup_4X", "speedup_16X"]] > 0).all().all()


def test_t31_quick(spark):
    df = t31_scaleout.run(spark, quick=True, udf_names=["nearby_monuments"])
    assert list(df["nodes"]) == list(t31_scaleout.NODES)
    assert (df["nearby_monuments"] > 0).all()


def test_calibration_quick_no_cache(spark, tmp_path, monkeypatch):
    import repro.experiments.calibration as cal_mod

    monkeypatch.setattr(
        cal_mod, "_cache_path", lambda: str(tmp_path / "cal.json")
    )
    cal, costs = calibration.run_calibration(
        spark, udf_names=["safety_rating"], quick=True
    )
    assert "safety_rating" in costs
    assert not (tmp_path / "cal.json").exists()  # quick never caches


def test_workbench_builds_and_closes(spark):
    wb = Workbench(spark, ("safety_ratings",), ref_scale=0.01)
    try:
        assert "safety_ratings" in wb.stores
        s1, s2 = wb.fresh_sink(), wb.fresh_sink()
        assert s1.path != s2.path
    finally:
        wb.close()
    import os

    assert not os.path.exists(wb.base_dir)


def test_format_table_markdown():
    import pandas as pd

    md = format_table(pd.DataFrame({"a": [1.23456], "b": ["x"]}), "Title")
    assert md.startswith("## Title")
    assert "| a | b |" in md
    assert "| 1.2 | x |" in md
