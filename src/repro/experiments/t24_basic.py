"""T24 (Fig 24): basic ingestion speed-up over cluster sizes, no UDF.

Paper: 10M tweets over 1–24 nodes; Static vs Dynamic (1X/4X/16X) vs
Balanced Static vs Balanced Dynamic; refresh rates 68/27/10 jobs/s at 24
nodes for 1X/4X/16X. Reproduction: one *measured* local dynamic feed per
batch size (a real feed through the one feed driver), which also gives
the measured refresh rates, plus the calibrated cluster-size sweep on
:class:`SimulatedCluster` (DESIGN.md § 4). With no UDF the computing job
has no state to freeze, so there is no measured static row; Fig 24's
static/dynamic contrast lives in the simulated sweep, where intake and
parse placement differ.
"""
import pandas as pd
from pyspark.sql import SparkSession

from repro.cluster.calibrate import Calibration, RunCalibration
from repro.cluster.simulator import SimulatedCluster
from repro.core.pipeline import DecoupledPipeline
from repro.experiments.common import (
    BATCH_SIZES, N_TWEETS_BASIC, Table, Workbench,
)

NODES = (1, 2, 4, 6, 12, 18, 24)


def tables(spark: SparkSession, cal: RunCalibration, *,
           quick: bool = False) -> list:
    measured = run_measured(spark, quick=quick)
    return [
        Table("t24_measured",
              "T24a — measured local dynamic throughput (no UDF)",
              measured.drop(columns="refresh_rate_jobs_s")),
        Table("t24_simulated", "T24b — simulated cluster sweep (rec/s)",
              run_simulated(cal.machine)),
        Table("t24_refresh_rates",
              "T24c — measured refresh rates "
              "(paper at 24 nodes: 68/27/10 jobs/s)",
              refresh_rates(measured)),
    ]


def run_measured(spark: SparkSession, *, quick: bool = False) -> pd.DataFrame:
    """Local single-machine throughput and refresh rate of the dynamic feed
    driver per batch size (no UDF)."""
    n = 4_000 if quick else N_TWEETS_BASIC
    wb = Workbench(spark, (), ref_scale=0.1)
    rows = []
    try:
        for label, bs in BATCH_SIZES.items():
            rep = DecoupledPipeline(spark, None, {}, wb.fresh_sink()).run(
                n, batch_size=bs
            )
            rows.append({
                "batch": label,
                "throughput_rec_s": rep.throughput,
                "refresh_rate_jobs_s": rep.refresh_rate,
            })
    finally:
        wb.close()
    return pd.DataFrame(rows)


def refresh_rates(measured: pd.DataFrame) -> pd.DataFrame:
    """T24c view of the T24a runs: computing jobs per second (§ 7.1; the
    paper's 68 / 27 / 10 for 1X / 4X / 16X were measured at 24 nodes,
    these on this machine)."""
    return measured[["batch", "refresh_rate_jobs_s"]]


def run_simulated(machine: Calibration) -> pd.DataFrame:
    """The Fig 24 sweep: throughput (rec/s) per configuration per size."""
    rows = []
    for n in NODES:
        c = SimulatedCluster(n, machine)
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
