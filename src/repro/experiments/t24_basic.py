"""T24 (Fig 24): basic ingestion speed-up over cluster sizes, no UDF.

Paper: 10M tweets over 1–24 nodes; Static vs Dynamic (1X/4X/16X) vs
Balanced Static vs Balanced Dynamic; refresh rates 68/27/10 jobs/s at 24
nodes for 1X/4X/16X. Reproduction: one *measured* local row per
framework (a real feed through the one feed driver) plus the calibrated
cluster-size sweep on :class:`SimulatedCluster` (DESIGN.md § 4). With no
UDF the computing job has no state, so the measured static row runs the
same code as dynamic 16X; Fig 24's static/dynamic contrast lives in the
simulated sweep, where intake and parse placement differ.
"""
import pandas as pd
from pyspark.sql import SparkSession

from repro.cluster.calibrate import calibrate_machine
from repro.cluster.simulator import SimulatedCluster
from repro.core.pipeline import DecoupledPipeline
from repro.core.predeploy import ONCE
from repro.experiments.common import BATCH_SIZES, N_TWEETS_BASIC, Workbench

NODES = (1, 2, 4, 6, 12, 18, 24)


def run_measured(spark: SparkSession, *, quick: bool = False) -> pd.DataFrame:
    """Local single-machine throughput of the feed driver (no UDF)."""
    n = 4_000 if quick else N_TWEETS_BASIC
    wb = Workbench(spark, (), ref_scale=0.1)
    rows = []
    try:
        rep = DecoupledPipeline(
            spark, None, {}, wb.fresh_sink(), refresh=ONCE
        ).run(n, batch_size=BATCH_SIZES["16X"])
        rows.append(
            {"framework": "static", "batch": "16X",
             "throughput_rec_s": rep.throughput}
        )
        for label, bs in BATCH_SIZES.items():
            rep = DecoupledPipeline(spark, None, {}, wb.fresh_sink()).run(
                n, batch_size=bs
            )
            rows.append(
                {"framework": "dynamic", "batch": label,
                 "throughput_rec_s": rep.throughput}
            )
    finally:
        wb.close()
    return pd.DataFrame(rows)


def run_simulated(spark: SparkSession) -> pd.DataFrame:
    """The Fig 24 sweep: throughput (rec/s) per configuration per size."""
    cal = calibrate_machine(spark)
    rows = []
    for n in NODES:
        c = SimulatedCluster(n, cal)
        row = {
            "nodes": n,
            "static": c.static_throughput(balanced=False),
            "balanced_static": c.static_throughput(balanced=True),
        }
        for label, bs in BATCH_SIZES.items():
            row[f"dynamic_{label}"] = c.dynamic_throughput(bs, balanced=False)
            row[f"balanced_dynamic_{label}"] = c.dynamic_throughput(
                bs, balanced=True
            )
        rows.append(row)
    return pd.DataFrame(rows)


def run_refresh_rates(spark: SparkSession, *, quick: bool = False) -> pd.DataFrame:
    """§ 7.1 callout: computing jobs/second per batch size (paper, at 24
    nodes: 68 / 27 / 10 for 1X / 4X / 16X). Measured on the real feed
    driver — the paper's rates were likewise measured, and the ratio
    of job dispatch to per-batch work is what this compares."""
    n = 6_720 if quick else 2 * BATCH_SIZES["16X"]
    wb = Workbench(spark, (), ref_scale=0.1)
    rows = []
    try:
        for label, bs in BATCH_SIZES.items():
            rep = DecoupledPipeline(spark, None, {}, wb.fresh_sink()).run(
                n, batch_size=bs
            )
            rows.append(
                {"batch": label, "refresh_rate_jobs_s": rep.refresh_rate}
            )
    finally:
        wb.close()
    return pd.DataFrame(rows)
