"""Experiment harnesses: small-configuration integration runs per table,
and the one table runner."""
import dataclasses
import importlib.util
import json
import os
import sys

import pytest

from repro.cluster import calibrate
from repro.experiments import (
    common, t24_basic, t25_udf, t27_updates, t28_refscale, t29_complexity,
    t30_speedup, t31_scaleout,
)
from repro.experiments.common import Workbench, format_table

JOBS_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "jobs")


@pytest.fixture(scope="module")
def quick_cal(spark):
    """One quick calibration shared by the simulated-table tests."""
    return calibrate.RunCalibration(spark, quick=True)


def test_t24_simulated_shapes(quick_cal):
    df = t24_basic.run_simulated(quick_cal.machine)
    assert list(df["nodes"]) == list(t24_basic.NODES)
    # static flat, balanced static linear, balanced dynamic grows
    assert df["static"].nunique() == 1
    assert df["balanced_static"].iloc[-1] > 10 * df["balanced_static"].iloc[0]
    bd = df["balanced_dynamic_16X"]
    assert bd.iloc[-1] > bd.iloc[0]
    # balanced dynamic trails balanced static everywhere (per-batch overhead)
    assert (df["balanced_dynamic_16X"] <= df["balanced_static"]).all()


@pytest.fixture(scope="module")
def t24_measured(spark):
    """One quick measured T24a run shared by the T24a and T24c tests."""
    return t24_basic.run_measured(spark, quick=True)


def test_t24_refresh_rates_ordering(t24_measured):
    # T24c is a view of the T24a runs: bigger batches, fewer jobs/s
    df = t24_basic.refresh_rates(t24_measured)
    r = dict(zip(df["batch"], df["refresh_rate_jobs_s"]))
    assert r["1X"] > r["4X"] > r["16X"] > 0


def test_t24_measured_quick(t24_measured):
    df = t24_measured
    assert (df["throughput_rec_s"] > 0).all()
    assert list(df["batch"]) == ["1X", "4X", "16X"]


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


def test_t28_quick(quick_cal):
    df = t28_refscale.run(quick_cal, udf_names=["safety_rating"])
    assert len(df) == len(t28_refscale.STEPS)
    assert (df["safety_rating"] > 0).all()


def test_t29_quick(spark):
    df = t29_complexity.run(spark, quick=True, udf_names=["worrisome_tweets"])
    assert len(df) == 1
    assert df["throughput_rec_s"].iloc[0] > 0


def test_t30_quick(quick_cal):
    df = t30_speedup.run(
        quick_cal, udf_names=["safety_rating", "fuzzy_suspects"]
    )
    assert set(df["udf"]) == {"safety_rating", "fuzzy_suspects"}
    assert (df[["speedup_1X", "speedup_4X", "speedup_16X"]] > 0).all().all()


def test_t31_quick(quick_cal):
    df = t31_scaleout.run(quick_cal, udf_names=["nearby_monuments"])
    assert list(df["nodes"]) == list(t31_scaleout.NODES)
    assert (df["nearby_monuments"] > 0).all()


def _load_runner(monkeypatch):
    """``jobs/tables.py`` as a module."""
    spec = importlib.util.spec_from_file_location(
        "tables_runner", os.path.join(JOBS_DIR, "tables.py")
    )
    runner = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the runner adds jobs/
    spec.loader.exec_module(runner)
    return runner


def test_runner_calibrates_once_per_process(spark, tmp_path, monkeypatch):
    """Quick T24 + T28 + T30 through ``jobs/tables.py`` write every table,
    measure the machine once and each UDF once, though T28's UDFs are
    also T30's."""
    runner = _load_runner(monkeypatch)
    monkeypatch.setattr(common, "results_dir", lambda: str(tmp_path))
    calls = {"machine": 0, "udfs": []}
    measure_machine = calibrate.calibrate_machine
    measure_udf = calibrate.calibrate_udf

    def count_machine(spark):
        calls["machine"] += 1
        return measure_machine(spark)

    def count_udf(spark, udf, *args, **kw):
        calls["udfs"].append(udf.name)
        return measure_udf(spark, udf, *args, **kw)

    monkeypatch.setattr(calibrate, "calibrate_machine", count_machine)
    monkeypatch.setattr(calibrate, "calibrate_udf", count_udf)

    assert runner.parse_args(["T24", "T28", "T30", "--quick"]).quick
    cal = runner.run_tables(spark, ["T24", "T28", "T30"], quick=True)

    names = ("t24_measured", "t24_simulated", "t24_refresh_rates", "t28",
             "t30")
    assert sorted(os.listdir(tmp_path)) == sorted(
        f"{n}.{ext}" for n in names for ext in ("md", "csv")
    )
    assert calls["machine"] == 1
    assert sorted(calls["udfs"]) == sorted(t30_speedup.UDF_NAMES)
    assert set(t28_refscale.UDF_NAMES) < set(t30_speedup.UDF_NAMES)
    assert set(cal.udfs) == set(t30_speedup.UDF_NAMES)
    # a full run records the constants; nothing reads them back
    cal.save(str(tmp_path / "calibration.json"))
    with open(tmp_path / "calibration.json") as f:
        saved = json.load(f)
    assert saved["machine"] == dataclasses.asdict(cal.machine)
    assert set(saved["udfs"]) == set(cal.udfs)


def test_runner_saves_calibration_only_for_every_simulated_table(
        tmp_path, monkeypatch):
    """A full run of a subset of the simulated tables leaves
    ``calibration.json`` as it was; a run of all of them rewrites it.
    Harnesses, session and machine fit are fakes: no Spark runs."""
    runner = _load_runner(monkeypatch)
    machine = calibrate.Calibration(1e-6, 2e-6, 0.01)

    class FakeSpark:
        def stop(self):
            pass

    def harness(spark, cal, quick):
        cal.machine  # every simulated table reads the machine constants
        return []

    monkeypatch.setattr(runner, "get_spark", lambda app: FakeSpark())
    monkeypatch.setattr(runner, "TABLES", dict.fromkeys(runner.TABLES, harness))
    monkeypatch.setattr(calibrate, "calibrate_machine", lambda spark: machine)
    monkeypatch.setattr(common, "results_dir", lambda: str(tmp_path))
    saved = tmp_path / "calibration.json"
    saved.write_text('{"udfs": {"safety_rating": {}}}')
    for subset in (["T24"], ["T28", "T30"], ["T24", "T28", "T30"], ["T31"]):
        monkeypatch.setattr(sys, "argv", ["tables.py", *subset])
        runner.main()
        assert saved.read_text() == '{"udfs": {"safety_rating": {}}}', subset
    monkeypatch.setattr(sys, "argv", ["tables.py", "T31", "T24", "T30", "T28"])
    runner.main()
    assert json.loads(saved.read_text()) == {
        "machine": dataclasses.asdict(machine), "udfs": {}}


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
