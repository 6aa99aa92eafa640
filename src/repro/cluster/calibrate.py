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

A :class:`RunCalibration` holds one process's measurements: the machine
constants the first time a table asks for them, and each UDF's costs
the first time a table names that UDF. Every later table in the same
process reuses them, so one run's simulated tables rest on one set of
constants. Nothing is read back from disk.

The constants the simulator models rather than measures (per-node
dispatch, the dispatch scale, Fig 24's dispatch taken from the paper's
refresh rates, the memory-pressure penalty and which UDFs it applies
to) live in ``repro.cluster.simulator``.
"""
import dataclasses
import json
import time
from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import SparkSession

from repro import synth_data
from repro.core import feed as feed_mod
from repro.core.predeploy import PredeployedJob
from repro.enrich import udfs
from repro.synth_data import (
    BENCH_DISTRICT_REF_SCALE, BENCH_REF_SCALE, QUICK_REF_SCALE, make_ref_pdfs,
)

#: Rounds of a UDF fit. Each round times the three fit points once, one
#: after the other, and a point's time is its minimum over the rounds, so
#: the plan's warm-up, which the first rounds pay, drops out of every
#: point. On a 4-core container 5 rounds still left negative slopes, and
#: 7 left Largest Religions' slope (about 10 µs/record) inside the noise
#: in one of two runs.
ROUNDS = 10
#: Timed parses in the parse-cost measurement; it keeps their minimum.
#: One timed parse read 5.9–12.5 µs/record across six calibrations of
#: the same code on a 4-core container.
PARSE_REPS = 5
#: Fit batch sizes per UDF: the tables' own 1X and 16X batches, except
#: for the naive monument scan, which is quadratic in |batch| ×
#: |monuments| (its slope is linear in batch size wherever it is sampled).
FIT_BATCHES = {"naive_nearby_monuments": (105, 420)}
#: The ``quick`` fit: fewer rounds over smaller batches, for every UDF.
QUICK_ROUNDS = 2
QUICK_FIT = (105, 420)


@dataclass
class Calibration:
    """Machine-level constants (seconds)."""

    intake_s_per_record: float
    parse_s_per_record: float
    job_dispatch_base_s: float


@dataclass
class UdfCost:
    """Per-UDF cost decomposition at the calibration reference scale."""

    name: str
    serial_s: float              # fixed, non-parallelizable per invocation
    state_s: float               # fixed, ref-size-proportional, parallelizable
    record_us: float             # per-record parallelizable work (microseconds)
    indexed_record_us: float = 0.0   # per-record work that does NOT speed up
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
    """Seconds per record of the typed per-record parse (ADM analogue):
    the fastest of ``PARSE_REPS`` timed parses after a warm-up, as a UDF
    fit keeps each point's minimum."""
    frame = feed_mod.serialize(synth_data.tweets_pdf(n, seed=seed))
    feed_mod.parse(frame)  # warm
    best = float("inf")
    for _ in range(PARSE_REPS):
        t0 = time.perf_counter()
        feed_mod.parse(frame)
        best = min(best, time.perf_counter() - t0)
    return best / n


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


def _timed(job: PredeployedJob, batch: pd.DataFrame) -> float:
    t0 = time.perf_counter()
    job.invoke(batch)
    return time.perf_counter() - t0


def calibrate_udf(spark: SparkSession, udf: udfs.EnrichmentUdf,
                  refs_full: dict, refs_half: dict, *, b_small: int,
                  b_large: int, rounds: int) -> UdfCost:
    """Two-point fits over batch size and reference scale.

    ``refs_full``/``refs_half`` map reference names to pandas frames at
    the calibration scale and at half that scale (same generator, so the
    halved frames are a prefix-like sample of the same distribution).
    One job is deployed per scale; each of ``rounds`` rounds times the
    small and the large batch over the full references and the small
    batch over the halved ones, and each point keeps its minimum.
    """
    def deployed(refs):
        sdfs = {n: spark.createDataFrame(p) for n, p in refs.items()}
        job = PredeployedJob(spark, udf, lambda: sdfs)
        job.deploy()
        return job

    full, half = deployed(refs_full), deployed(refs_half)
    small = synth_data.tweets_pdf(b_small, seed=7)
    large = synth_data.tweets_pdf(b_large, seed=7)
    points = {"t_small_full": (full, small), "t_large_full": (full, large),
              "t_small_half": (half, small)}
    best = dict.fromkeys(points, float("inf"))
    for _ in range(rounds):
        for name, (job, batch) in points.items():
            best[name] = min(best[name], _timed(job, batch))
    t_small_full, t_large_full, t_small_half = best.values()

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
        raw_points={**best, "b_small": b_small, "b_large": b_large},
    )


class RunCalibration:
    """Machine and per-UDF cost constants, each measured at most once.

    ``quick`` shrinks reference scale, fit batches and rounds (a quick
    check of a table's shape, not a measurement to report).
    """

    def __init__(self, spark: SparkSession, *, quick: bool = False):
        self.spark = spark
        self.quick = quick
        self._machine: Calibration | None = None
        self.udfs: dict[str, UdfCost] = {}

    @property
    def machine(self) -> Calibration:
        if self._machine is None:
            self._machine = calibrate_machine(self.spark)
        return self._machine

    def costs(self, names) -> dict:
        """``{name: UdfCost}``, calibrating the UDFs not measured yet."""
        for name in names:
            if name not in self.udfs:
                self.udfs[name] = self._calibrate(udfs.BY_NAME[name])
        return {n: self.udfs[n] for n in names}

    def _calibrate(self, udf) -> UdfCost:
        ref_scale = QUICK_REF_SCALE if self.quick else BENCH_REF_SCALE
        district_scale = 0.04 if self.quick else BENCH_DISTRICT_REF_SCALE
        full = make_ref_pdfs(udf.refs, ref_scale, district_scale=district_scale)
        half = make_ref_pdfs(
            udf.refs, ref_scale / 2, district_scale=district_scale / 2
        )
        b_small, b_large = QUICK_FIT if self.quick else FIT_BATCHES.get(
            udf.name, (feed_mod.BATCH_1X, feed_mod.BATCH_16X)
        )
        return calibrate_udf(
            self.spark, udf, full, half, b_small=b_small, b_large=b_large,
            rounds=QUICK_ROUNDS if self.quick else ROUNDS,
        )

    def save(self, path: str) -> None:
        """Record the constants measured so far as JSON (nothing reads the
        file back); a run that simulated no table writes nothing."""
        if self._machine is None:
            return
        with open(path, "w") as f:
            json.dump(
                {
                    "machine": dataclasses.asdict(self._machine),
                    "udfs": {
                        k: dataclasses.asdict(v) for k, v in self.udfs.items()
                    },
                },
                f, indent=2,
            )
