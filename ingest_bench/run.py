"""Ingestion benchmark: one feed with one enrichment UDF through the
decoupled pipeline (intake job -> per-batch computing job -> storage job).

Usage, from the repository root::

    python3 ingest_bench/run.py --workload sqlpp_fresh --seed 1 \\
        --seconds 20 --trace 0

The load is a closed loop: the intake thread replays pre-generated frames
into the bounded intake holder as fast as it accepts them, so the
computing job sets the pace. On ``sqlpp_updates`` a second thread, the
update client, upserts a fixed quota after each snapshot. Warm-up batches
run first; the next ``round(seconds * batches_per_s)`` batches are
measured. Every stored batch is then checked against the DuckDB oracle.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` times every
layer boundary on alternate measured batches, writes the spans as JSON
lines under ``.bench_out/``, and prints the per-layer metrics; the batches
between the traced ones give the tracing overhead. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. The exit code is non-zero if any check failed.

``repro`` and pyspark are imported inside functions: ``prepare_env`` must
put ``src/`` on the path and set the JVM's environment first.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from checks import check_feed
from load import UpdateClient, watch_store
from probes import (BATCH, Recorder, instrumented, self_times, spark_counts,
                    traced_udf)
from workloads import REF_NAME, WORKLOADS, make_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Set-up (bulk load + deploy) runs once before the feed, on a cold JVM,
#: and this many times more after it; set-up time is the median of all of
#: them, so it reads the warm cost a long-running system pays per feed.
WARM_SETUP_ROUNDS = 4
#: Driver heap. The largest working set (a 50K-row reference table and
#: 6720-row batches) fits well inside it. With ``jobs/_common``'s 8g
#: default the JVM grows its heap by GC heuristics, and the quartile spread
#: of peak RSS over five runs of one feed was 30 %; with 1g it was 3-12 %
#: (4-core container).
DRIVER_MEM = "1g"
#: The tail is the highest percentile with at least this many samples
#: beyond it.
TAIL_BEYOND = 10


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def prepare_env(work: str) -> None:
    """Keep Spark, the JVM and temp files inside ``work``, and pin the
    session to ``jobs/_common.get_spark``'s defaults except the heap."""
    for sub in ("spark-local", "tmp"):
        os.makedirs(os.path.join(work, sub))
    for var in ("PYSPARK_SUBMIT_ARGS", "SPARK_MASTER",
                "SPARK_SHUFFLE_PARTITIONS"):
        os.environ.pop(var, None)
    os.environ["SPARK_DRIVER_MEM"] = DRIVER_MEM
    os.environ["SPARK_LOCAL_DIRS"] = os.path.join(work, "spark-local")
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    os.environ["JAVA_TOOL_OPTIONS"] = (
        f"-Djava.io.tmpdir={os.path.join(work, 'tmp')} -XX:-UsePerfData")
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "jobs")]


# -- statistics and run facts -------------------------------------------------

def summary(values, unit: str) -> tuple:
    """``(median, unit, sample count)``."""
    values = list(values)
    return statistics.median(values), unit, len(values)


def tail(values) -> tuple:
    """``(value, percentile)`` of the highest percentile with
    ``TAIL_BEYOND`` samples beyond it."""
    s = sorted(values)
    n = len(s)
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def cpu_times() -> list:
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def steal_pct(t0: list, t1: list) -> float:
    d = [b - a for a, b in zip(t0, t1)]
    return 100.0 * d[7] / max(1, sum(d))


def vm_hwm_mb(pid) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def git_sha() -> str | None:
    """HEAD of the checkout, if it is a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as f:
            return f.read().strip()
    except OSError:
        return None


# -- the run ------------------------------------------------------------------

def stop_spark(spark) -> None:
    """Stop the session and wait for its JVM to exit."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on stdin EOF
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def set_up(spark, w, inputs, path: str, times: dict):
    """Feed start: bulk-load a fresh reference store and, for SQL++, deploy
    the predeployed job over it. Appends the times to ``times`` and
    returns the store."""
    from repro.core.predeploy import PredeployedJob
    from repro.enrich.udfs import SAFETY_RATING
    from repro.storage.lsm_store import LsmStore

    store = LsmStore(os.path.join(path, REF_NAME), inputs.key)
    t0 = time.perf_counter()
    store.bulk_load(spark, inputs.ref)
    t1 = time.perf_counter()
    if not w.java:
        PredeployedJob(spark, SAFETY_RATING,
                       lambda: {REF_NAME: store.snapshot(spark)}).deploy()
    t2 = time.perf_counter()
    times["lsm_store.bulk_load_s"].append(t1 - t0)
    times["predeploy.deploy_s"].append(t2 - t1)
    times["setup_s"].append(t2 - t0)
    return store


def feed(spark, w, inputs, store, work: str, traced: set):
    """Run the feed; returns the recorder and the sink."""
    from repro.core.pipeline import DecoupledPipeline
    from repro.enrich.java_udfs import SafetyRatingJava
    from repro.enrich.udfs import SAFETY_RATING
    from repro.storage.sink import StorageSink

    rec = Recorder(spark, traced)

    class Sink(StorageSink):
        """Stamps when each batch is stored (one consumer: FIFO order)."""

        def append_pdf_local(self, pdf):
            k = self.batches_written
            rec.set_batch(k)
            with rec.span("sink.append"):
                n = super().append_pdf_local(pdf)
            rec.append_end[k] = time.perf_counter()
            rec.count("sink.rows", n)
            return n

    sink = Sink(spark, os.path.join(work, "sink"), key="id")
    client = UpdateClient(rec, store, inputs.updates)
    watch_store(rec, store, client)
    udf = SafetyRatingJava() if w.java else SAFETY_RATING
    if traced:
        udf = traced_udf(rec, udf)
    pipeline = DecoupledPipeline(spark, udf, {REF_NAME: store}, sink)
    client.start()
    try:
        with instrumented(rec, inputs.frames):
            stats = pipeline.run(inputs.n_batches * w.batch_size,
                                 batch_size=w.batch_size)
    finally:
        client.stop()
    if stats.batches_stored != inputs.n_batches:
        raise RuntimeError(f"stored {stats.batches_stored} batches of "
                           f"{inputs.n_batches}")
    return rec, sink


def end_to_end(w, rec, measured: list) -> dict:
    """``{name: (value, unit, samples)}`` from the stamps of the measured
    batches; refresh times only from batches without spans."""
    refresh = [rec.push_end[i] - rec.parse_start[i] for i in measured
               if i not in rec.traced]
    elapsed = rec.append_end[measured[-1]] - rec.parse_start[measured[0]]
    records = len(measured) * w.batch_size
    out = {
        "throughput_rps": (records / elapsed, "rec/s", records),
        "refresh_p50_s": summary(refresh, "s"),
    }
    if len(refresh) > 2 * TAIL_BEYOND:
        value, pct = tail(refresh)
        if value < out["refresh_p50_s"][0]:
            raise RuntimeError("refresh tail below its median")
        out["refresh_tail_s"] = (value, "s", len(refresh))
        out["refresh_tail_pct"] = (pct, "%", len(refresh))
    if rec.upsert_end:
        out["visibility_p50_s"] = summary(
            (rec.append_end[i + 1] - rec.upsert_end[i] for i in measured
             if i + 1 in rec.append_end), "s")
    return out


def on_path(spans) -> set:
    """Ids of the spans under a batch root: the computing-job path."""
    parent = {s[0]: s[4] for s in spans}
    name = {s[0]: s[1] for s in spans}
    keep = set()
    for sid in parent:
        p = sid
        while p and name[p] != BATCH:
            p = parent[p]
        if p:
            keep.add(sid)
    return keep


def per_layer(spark, rec, store, measured: list) -> tuple:
    """``({name: (value, unit, samples)}, names on the computing-job
    path)``: medians over the traced batches of each span's self time per
    batch, and of the counts taken at the same boundaries."""
    traced = sorted(rec.traced)
    path_ids = on_path(rec.spans)
    out, path = {}, set()
    for want_path in (True, False):
        table = self_times([s for s in rec.spans
                            if (s[0] in path_ids) == want_path])
        for name in sorted({n for per in table.values() for n in per}):
            out[f"{name}_s"] = summary(
                (table.get(b, {}).get(name, 0.0) for b in traced), "s")
            if want_path:
                path.add(f"{name}_s")
    for name, values in rec.samples.items():
        out[name] = summary((v for _, v in values), "count")
    out["lsm_store.buffered_updates"] = summary(
        (rec.buffered[i] for i in measured), "count")
    out["lsm_store.disk_components"] = (
        sum(d.startswith("component-") for d in os.listdir(store.path)),
        "count", 1)
    counts = spark_counts(spark, traced)
    for k, what in enumerate(("jobs", "stages", "tasks")):
        out[f"predeploy.spark_{what}"] = summary(
            (c[k] for c in counts.values()), "count")
    return out, path


def tracing_overhead_pct(rec, measured: list) -> tuple:
    """Each traced batch against the mean of its untraced neighbours (a
    linear drift in batch cost cancels), as a median percentage."""
    r = {i: rec.push_end[i] - rec.parse_start[i] for i in measured}
    ratios = [r[i] / ((r[i - 1] + r[i + 1]) / 2) for i in sorted(rec.traced)
              if i - 1 in r and i + 1 in r]
    return 100.0 * (statistics.median(ratios) - 1.0), "%", len(ratios)


def bench(args, work: str) -> tuple:
    """One run: ``(end-to-end metrics, per-layer metrics, run facts,
    (attempted, failed))``."""
    from _common import get_spark

    w = WORKLOADS[args.workload]
    n_measured = w.measured_batches(args.seconds)
    n = w.warmup_batches + n_measured
    measured = list(range(w.warmup_batches, n))
    traced = set(measured[1::2]) if args.trace else set()
    phases, clock = {}, [time.perf_counter()]

    def phase(name):
        now = time.perf_counter()
        phases[name] = round(now - clock[0], 2)
        clock[0] = now

    inputs = make_inputs(w, args.seed, n)
    phase("inputs_s")
    spark = get_spark("ingest-bench")
    try:
        jvm_pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
        phase("spark_start_s")
        setup = {"setup_s": [], "lsm_store.bulk_load_s": [],
                 "predeploy.deploy_s": []}
        store = set_up(spark, w, inputs, os.path.join(work, "refs"), setup)
        phase("set_up_s")
        cpu0 = cpu_times()
        rec, sink = feed(spark, w, inputs, store, work, traced)
        cpu1 = cpu_times()
        phase("feed_s")
        rss = vm_hwm_mb("self") + vm_hwm_mb(jvm_pid)
        for r in range(WARM_SETUP_ROUNDS):
            set_up(spark, w, inputs, os.path.join(work, f"refs-{r}"), setup)
        phase("warm_set_up_s")
        layers, path = (per_layer(spark, rec, store, measured)
                        if args.trace else ({}, set()))
        conf = dict(spark.sparkContext.getConf().getAll())
    finally:
        stop_spark(spark)
    phase("spark_stop_s")
    attempted, failed, problems = check_feed(
        inputs, sink.path, rec.buffered, sink.rows_written)
    phase("checks_s")

    metrics = end_to_end(w, rec, measured)
    metrics["setup_s"] = summary(setup.pop("setup_s"), "s")
    metrics["peak_rss_mb"] = (rss, "MB", 1)
    for name, values in setup.items():
        if not (w.java and name == "predeploy.deploy_s"):
            layers[name] = summary(values, "s")
    facts = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "feed_cpu_steal_pct": round(steal_pct(cpu0, cpu1), 3),
        "warmup_batches": w.warmup_batches, "measured_batches": n_measured,
        "batch_size": w.batch_size, "update_quota": w.update_quota,
        "driver_vm_hwm_mb": round(vm_hwm_mb("self"), 1),
        "spark_driver_mem": DRIVER_MEM,
        "spark_conf": {k: v for k, v in sorted(conf.items())
                       if not k.startswith(("spark.app.", "spark.driver.port",
                                            "spark.executor.id"))},
        "phases_s": phases,
        "problems": problems,
    }
    if args.trace:
        layers["trace.overhead_pct"] = tracing_overhead_pct(rec, measured)
        path_sum = sum(layers[k][0] for k in path)
        facts["path_self_time_sum_s"] = path_sum
        facts["path_vs_refresh_p50_pct"] = round(
            100.0 * (path_sum / metrics["refresh_p50_s"][0] - 1.0), 2)
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        rec.write_jsonl(os.path.join(
            out_dir, f"trace-{w.name}-seed{args.seed}.jsonl"))
    return metrics, layers, facts, (attempted, failed)


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    work = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    prepare_env(work)
    try:
        metrics, layers, facts, (attempted, failed) = bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"facts": facts}))
    for title, table in (("end-to-end", metrics), ("per-layer", layers)):
        print(f"# {title}")
        for name, (value, unit, n) in sorted(table.items()):
            print(f"{name:40s} {value:16.6f} {unit:6s} n={n}")
    for problem in facts["problems"]:
        print(f"FAILED: {problem}")
    wanted, source = ((spec["per_layer"], layers) if args.trace
                      else (spec["end_to_end"], metrics))
    correct = failed == 0 and not facts["problems"]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": source[m["name"]][0],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
