"""T25/T26 (Figs 25–26): enrichment throughput and refresh periods, 6 nodes.

Paper: 1M tweets on 6 nodes; Static Enrichment w/ Java vs Dynamic
Enrichment w/ Java and w/ SQL++ at batch sizes 1X/4X/16X, for the five
basic UDFs (Q1–Q5). All runs here are **measured** on the real feed
driver (static is its ``refresh=ONCE`` policy); Fig 26's refresh periods
are the mean computing-job times (parse, invoke and the push into the
storage holder) of the Dynamic SQL++ rows.
"""
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.predeploy import ONCE
from repro.enrich import java_udfs, udfs
from repro.experiments.common import (
    BATCH_SIZES, N_TWEETS_ENRICH, Table, Workbench,
    feed_rows, refs_of,
)
from repro.synth_data import BENCH_REF_SCALE, QUICK_REF_SCALE

UDF_NAMES = [u.name for u in udfs.BASIC_UDFS]


def tables(spark: SparkSession, *, quick: bool = False) -> list:
    df = run(spark, quick=quick)
    return [
        Table("t25", "T25 — 6-node-scale enrichment throughput (rec/s)", df),
        Table("t26", "T26 — Dynamic SQL++ refresh period (s/batch)",
              refresh_periods(df), "{:.3f}"),
    ]


def run(spark: SparkSession, *, quick: bool = False,
        udf_names=None) -> pd.DataFrame:
    names = list(udf_names or UDF_NAMES)
    n = 1_680 if quick else N_TWEETS_ENRICH
    batches = {"1X": BATCH_SIZES["1X"]} if quick else BATCH_SIZES
    ref_scale = QUICK_REF_SCALE if quick else BENCH_REF_SCALE
    wb = Workbench(spark, refs_of(names), ref_scale=ref_scale)
    rows = []
    try:
        for name in names:
            sql_udf = udfs.BY_NAME[name]
            java_udf = java_udfs.JAVA_BY_NAME[name]()
            # Static Enrichment w/ Java (stock AsterixDB)
            rows += feed_rows(spark, wb, java_udf, n,
                              {"-": BATCH_SIZES["16X"]}, refresh=ONCE,
                              mode="static_java")
            rows += feed_rows(spark, wb, java_udf, n, batches,
                              mode="dynamic_java")
            rows += feed_rows(spark, wb, sql_udf, n, batches,
                              mode="dynamic_sqlpp")
    finally:
        wb.close()
    return pd.DataFrame(rows)


def refresh_periods(df: pd.DataFrame) -> pd.DataFrame:
    """T26 view: Dynamic SQL++ execution time per batch (seconds)."""
    d = df[df["mode"] == "dynamic_sqlpp"]
    return d.pivot_table(
        index="udf", columns="batch", values="refresh_period_s"
    ).reset_index()
