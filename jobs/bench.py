#!/usr/bin/env python
"""Write ``BENCH_<workload>.json``: the ingestion benchmark's end-to-end
metrics over repeated runs, and one traced run's per-layer metrics.

Run, from anywhere::

    python jobs/bench.py [--runs 5] [--out-dir .] [WORKLOAD ...]

With no workload named, every workload of ``BENCHMARK.json`` is run. Each
workload gets ``--runs`` untraced runs of ``ingest_bench/run.py`` (seeds
1..N) and then one ``--trace 1`` run (seed 1), one after another, so no
two runs share the cores; each run lasts ``BENCHMARK.json``'s
``run_seconds``. The file holds each end-to-end metric's median,
quartiles and per-run values, the run count, the machine's ``nproc``, the
git sha the runs report, and the traced run's per-layer medians with the
sum of the computing-job path's self times. A run that fails its checks
stops the script before anything is written: a figure from an incorrect
run measures nothing.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "ingest_bench", "run.py")


def parse_run(stdout: str) -> dict:
    """One ``run.py`` output: ``{"facts", "correct", "end-to-end",
    "per-layer"}``; each table maps every metric printed under its
    ``# <table>`` heading to ``(value, unit, samples)``."""
    lines = stdout.strip().splitlines()
    run = {"correct": json.loads(lines[-1])["correct"],
           "end-to-end": {}, "per-layer": {}}
    table = None
    for line in lines:
        if line.startswith('{"facts"'):
            run["facts"] = json.loads(line)["facts"]
        elif line.startswith("# "):
            table = run[line[2:]]
        elif table is not None:
            parts = line.split()  # name, value, unit, n=<samples>
            if len(parts) == 4 and parts[3].startswith("n="):
                table[parts[0]] = (float(parts[1]), parts[2],
                                   int(parts[3][2:]))
    return run


def quartiles(values: list) -> dict:
    """Median and quartiles, interpolated inside the sample's range."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(workload: str, end_to_end: list, runs: list, traced: dict,
              per_layer: list) -> dict:
    """The ``BENCH_<workload>.json`` content from parsed untraced ``runs``
    and one parsed ``traced`` run; ``end_to_end`` and ``per_layer`` are
    ``BENCHMARK.json``'s metric lists."""
    shas = {r["facts"]["git_sha"] for r in runs + [traced]}
    if len(shas) != 1:
        raise ValueError(f"runs of different commits: {sorted(shas)}")
    metrics = {}
    for m in end_to_end:
        values = [r["end-to-end"][m["name"]][0] for r in runs]
        metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                              **quartiles(values), "runs": values}
    listed = {m["name"] for m in per_layer}
    layers = {name: {"value": v, "unit": unit, "samples": n,
                     "listed": name in listed}
              for name, (v, unit, n) in sorted(traced["per-layer"].items())}
    facts = traced["facts"]
    return {
        "workload": workload,
        "git_sha": shas.pop(),
        "nproc": facts["nproc"],
        "runs": len(runs),
        "seeds": [r["facts"]["seed"] for r in runs],
        "measured_batches": facts["measured_batches"],
        "batch_size": facts["batch_size"],
        "spark_driver_mem": facts["spark_driver_mem"],
        "end_to_end": metrics,
        "traced_run": {
            "seed": facts["seed"],
            "path_self_time_sum_s": facts["path_self_time_sum_s"],
            "path_vs_refresh_p50_pct": facts["path_vs_refresh_p50_pct"],
            "per_layer": layers,
        },
    }


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    print("+", " ".join(cmd[1:]), flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: "
                         f"exit {proc.returncode}")
    run = parse_run(proc.stdout)
    if not run["correct"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed")
    return run


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    ap.add_argument("--runs", type=int, default=5,
                    help="untraced runs per workload (at least 3)")
    ap.add_argument("--out-dir", default=ROOT)
    args = ap.parse_args(argv)
    if args.runs < 3:
        ap.error("--runs must be at least 3")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in args.workloads or [w["name"] for w in spec["workloads"]]:
        runs = [run_once(workload, seed, spec["run_seconds"], 0)
                for seed in range(1, args.runs + 1)]
        traced = run_once(workload, 1, spec["run_seconds"], 1)
        out = os.path.join(args.out_dir, f"BENCH_{workload}.json")
        with open(out, "w") as f:
            json.dump(summarize(workload, spec["end_to_end"], runs, traced,
                                spec["per_layer"]), f, indent=2)
            f.write("\n")
        print(f"wrote {out}", flush=True)


if __name__ == "__main__":
    main()
