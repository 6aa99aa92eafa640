"""``jobs/bench.py``'s summary of ``ingest_bench/run.py`` output (no Spark,
no runs: the outputs are canned in the format ``run.py`` prints)."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "jobs" / "bench.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _stdout(seed, trace, e2e, layers=None, sha="abc123", correct=True):
    """What run.py prints: facts, the two tables, the closing JSON."""
    facts = {"workload": "java_16x", "seed": seed, "trace": trace,
             "git_sha": sha, "nproc": 4, "measured_batches": 40,
             "batch_size": 6720, "spark_driver_mem": "1g", "problems": []}
    if trace:
        facts.update(path_self_time_sum_s=0.118, path_vs_refresh_p50_pct=2.5)
    lines = [json.dumps({"facts": facts})]
    for title, table in (("end-to-end", e2e), ("per-layer", layers or {})):
        lines.append(f"# {title}")
        lines += [f"{name:40s} {value:16.6f} {unit:6s} n={n}"
                  for name, (value, unit, n) in sorted(table.items())]
    lines.append(json.dumps({"correct": correct, "attempted": 40,
                             "failed": 0, "metrics": {}}))
    return "\n".join(lines) + "\n"


def _e2e(k):
    return {"throughput_rps": (50_000.0 + 1000 * k, "rec/s", 268800),
            "refresh_p50_s": (0.10 + 0.01 * k, "s", 40),
            "refresh_tail_s": (0.12 + 0.01 * k, "s", 40),
            "refresh_tail_pct": (75.0, "%", 40),
            "setup_s": (0.02, "s", 5),
            "peak_rss_mb": (800.0 + 10 * k, "MB", 1)}


LAYERS = {"feed.parse_s": (0.061, "s", 20),
          "lsm_store.snapshot_pdf_s": (0.019, "s", 20),
          "predeploy.spark_jobs": (0.0, "count", 20)}


def test_parse_run_reads_both_tables():
    run = _bench().parse_run(_stdout(1, 1, _e2e(0), LAYERS))
    assert run["correct"] is True
    assert run["facts"]["git_sha"] == "abc123"
    assert run["end-to-end"]["throughput_rps"] == (50_000.0, "rec/s", 268800)
    assert run["per-layer"] == LAYERS


def test_summary_takes_medians_and_quartiles_of_the_runs():
    bench = _bench()
    # run order is not value order: the summary sorts
    runs = [bench.parse_run(_stdout(s, 0, _e2e(k)))
            for s, k in zip(range(1, 6), (3, 0, 4, 1, 2))]
    traced = bench.parse_run(_stdout(1, 1, _e2e(0), LAYERS))
    out = bench.summarize("java_16x", SPEC["end_to_end"], runs, traced,
                          SPEC["per_layer"])
    assert set(out["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    thr = out["end_to_end"]["throughput_rps"]
    assert (thr["q1"], thr["median"], thr["q3"]) == (51_000, 52_000, 53_000)
    assert thr["runs"] == [53_000, 50_000, 54_000, 51_000, 52_000]
    assert thr["unit"] == "rec/s" and thr["better"] == "higher"
    assert out["end_to_end"]["refresh_p50_s"]["median"] == pytest.approx(0.12)
    assert out["runs"] == 5 and out["seeds"] == [1, 2, 3, 4, 5]
    assert out["nproc"] == 4 and out["git_sha"] == "abc123"
    layers = out["traced_run"]["per_layer"]
    assert layers["predeploy.spark_jobs"] == {
        "value": 0.0, "unit": "count", "samples": 20, "listed": True}
    assert layers["lsm_store.snapshot_pdf_s"]["listed"] is False
    assert out["traced_run"]["path_self_time_sum_s"] == 0.118
    json.dumps(out)  # what main() writes


def test_summary_refuses_runs_of_different_commits():
    bench = _bench()
    runs = [bench.parse_run(_stdout(s, 0, _e2e(s), sha=f"sha{s % 2}"))
            for s in range(1, 4)]
    traced = bench.parse_run(_stdout(1, 1, _e2e(0), LAYERS, sha="sha1"))
    with pytest.raises(ValueError, match="different commits"):
        bench.summarize("java_16x", SPEC["end_to_end"], runs, traced,
                        SPEC["per_layer"])
