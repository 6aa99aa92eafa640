"""Calibration: measure the cost constants the cluster simulator uses.

The cluster-size sweeps (Figs 24, 28, 30, 31) ran on up to 24 physical
nodes; this reproduction runs on one machine. Per DESIGN.md § 4
the sweeps run on :class:`~repro.cluster.simulator.SimulatedCluster`,
whose inputs are **measured here** on the same code paths the fixed-size
experiments execute for real:

* per-record intake cost (tweet generation + JSON serialization — the
  stand-in for socket receive),
* per-record parse cost (NDJSON → typed records),
* per-invocation Spark job dispatch latency (empty job round-trip),
* per-UDF cost decomposition, via controlled two-point fits:
  - ``record_us``   — slope over batch size (per-record enrichment work),
  - ``state_s``     — the part of the fixed per-invocation cost that
    scales with reference-data size (intermediate-state rebuild),
    obtained by re-measuring with the reference data halved,
  - ``serial_s``    — the remaining fixed cost (driver-side, plan
    invocation, result collection) that no amount of nodes removes.

Only two constants are modelled rather than measured, both documented in
``repro.cluster.simulator``: the per-node component of job dispatch
(cluster fan-out messaging we cannot observe on one machine) and the
paper-hardware memory-pressure penalty for Tweet Context.
"""
import time
from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import SparkSession

from repro import synth_data
from repro.core import feed as feed_mod
from repro.core.predeploy import PredeployedJob
from repro.enrich.udfs import EnrichmentUdf


@dataclass
class Calibration:
    """Machine-level constants (seconds unless noted)."""

    intake_s_per_record: float
    parse_s_per_record: float
    job_dispatch_base_s: float
    #: Modelled: per-node job start/stop messaging (see module docstring).
    job_dispatch_per_node_s: float = 0.0005


@dataclass
class UdfCost:
    """Per-UDF cost decomposition at the calibration reference scale."""

    name: str
    serial_s: float              # fixed, non-parallelizable per invocation
    state_s: float               # fixed, ref-size-proportional, parallelizable
    record_us: float             # per-record parallelizable work (microseconds)
    indexed_record_us: float = 0.0   # per-record work that does NOT speed up
    mem_hungry: bool = False     # paper-hardware memory-pressure flag (Q7)
    raw_points: dict = field(default_factory=dict)


def measure_intake_cost(n: int = 4000, seed: int = 7) -> float:
    """Seconds per record of adapter work: framing the wire bytes.

    The paper's adapter "collects data as raw bytes and arranges them
    into data frames" (§ 2.3) — record generation and serialization are
    the external data source's work, not the intake node's. What is
    timed here is exactly the byte handling a socket adapter performs:
    find record boundaries in the stream and assemble frames.
    """
    stream = feed_mod.serialize(synth_data.tweets_pdf(n, seed=seed))
    t0 = time.perf_counter()
    lines = stream.split(b"\n")
    frames = [
        b"\n".join(lines[i: i + 420]) for i in range(0, len(lines), 420)
    ]
    assert frames
    return (time.perf_counter() - t0) / n


def measure_parse_cost(n: int = 4000, seed: int = 7) -> float:
    """Seconds per record of the typed per-record parse (ADM analogue)."""
    frame = feed_mod.serialize(synth_data.tweets_pdf(n, seed=seed))
    feed_mod.parse(frame)  # warm
    t0 = time.perf_counter()
    feed_mod.parse(frame)
    return (time.perf_counter() - t0) / n


def measure_dispatch_base(spark: SparkSession, reps: int = 10) -> float:
    """Empty-job round-trip: the floor cost of launching any Spark job.

    Warmed thoroughly — the first actions after session start are
    dominated by one-time JIT/classloading and would overstate the
    steady-state invocation cost by 2–3×.
    """
    for _ in range(5):
        spark.range(1).count()
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        spark.range(1).count()
        best = min(best, time.perf_counter() - t0)
    return best


def calibrate_machine(spark: SparkSession) -> Calibration:
    return Calibration(
        intake_s_per_record=measure_intake_cost(),
        parse_s_per_record=measure_parse_cost(),
        job_dispatch_base_s=measure_dispatch_base(spark),
    )


def _time_invocation(spark: SparkSession, udf: EnrichmentUdf, refs_sdf: dict,
                     batch: pd.DataFrame, reps: int) -> float:
    """Median per-invocation wall time of the predeployed computing job."""
    job = PredeployedJob(spark, udf, lambda: refs_sdf)
    job.deploy()
    job.invoke(batch.head(8))  # warm code paths
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        job.invoke(batch)
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def calibrate_udf(spark: SparkSession, udf: EnrichmentUdf, refs_full: dict,
                  refs_half: dict, *, b_small: int = 420, b_large: int = 6720,
                  reps: int = 3) -> UdfCost:
    """Two-point fits over batch size and reference scale.

    ``refs_full``/``refs_half`` map reference names to pandas frames at
    the calibration scale and at half that scale (same generator, so the
    halved frames are a prefix-like sample of the same distribution).
    """
    full_sdf = {n: spark.createDataFrame(p) for n, p in refs_full.items()}
    half_sdf = {n: spark.createDataFrame(p) for n, p in refs_half.items()}
    small = synth_data.tweets_pdf(b_small, seed=7)
    large = synth_data.tweets_pdf(b_large, seed=7)

    t_small_full = _time_invocation(spark, udf, full_sdf, small, reps)
    t_large_full = _time_invocation(spark, udf, full_sdf, large, reps)
    t_small_half = _time_invocation(spark, udf, half_sdf, small, reps)

    record_s = max(
        (t_large_full - t_small_full) / (b_large - b_small), 1e-9
    )
    fixed_full = max(t_small_full - record_s * b_small, 1e-6)
    fixed_half = max(t_small_half - record_s * b_small, 1e-6)
    # state cost is the ref-size-proportional part: halving refs removes
    # state/2, so state = 2 * (fixed_full - fixed_half); clamp into range
    state_s = min(max(2.0 * (fixed_full - fixed_half), 0.0), fixed_full)
    serial_s = fixed_full - state_s

    record_us = record_s * 1e6
    indexed_record_us = 0.0
    if udf.uses_index:
        # INLJ probes broadcast the incoming batch to every node holding
        # index partitions (§ 7.4.2): the per-record probe work does not
        # shrink as nodes are added. Attribute the per-record slope to
        # the non-scaling term.
        indexed_record_us, record_us = record_us, 0.0

    return UdfCost(
        name=udf.name,
        serial_s=serial_s,
        state_s=state_s,
        record_us=record_us,
        indexed_record_us=indexed_record_us,
        mem_hungry=(udf.name == "tweet_context"),
        raw_points={
            "t_small_full": t_small_full,
            "t_large_full": t_large_full,
            "t_small_half": t_small_half,
            "b_small": b_small,
            "b_large": b_large,
        },
    )


def make_ref_pdfs(names, ref_scale: float, district_scale: float | None = None
                  ) -> dict:
    """Reference frames for the named datasets at ``ref_scale``.

    District-backed datasets keep the paper's absolute cardinality
    (500 districts at scale 1.0) relative to ``district_scale``.
    """
    if district_scale is None:
        district_scale = ref_scale * 10  # districts are 500 at paper scale
    out = {}
    for name in names:
        gen, _key = synth_data.REFERENCE_GENERATORS[name]
        scale = (
            district_scale
            if name in ("district_areas", "average_incomes")
            else ref_scale
        )
        out[name] = gen(ref_scale=scale)
    return out
