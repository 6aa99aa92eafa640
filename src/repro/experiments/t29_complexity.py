"""T29 (Fig 29): UDF complexity comparison, 100K tweets on 6 nodes.

Paper: the complex use cases (Nearby Monuments baseline + Suspicious
Names, Tweet Context, Worrisome Tweets) measured at batch sizes 1X/4X/
16X. Tweet Context gains most from batching (its expensive ref-ref
spatial joins amortize over bigger batches); the sequential-join cases
gain little. Measured here for real via dynamic SQL++ ingestion.
"""
import pandas as pd
from pyspark.sql import SparkSession

from repro.enrich import udfs
from repro.experiments.common import (
    BATCH_SIZES, N_TWEETS_COMPLEX, Table, Workbench,
    feed_rows, refs_of,
)
from repro.synth_data import BENCH_REF_SCALE, QUICK_REF_SCALE

UDF_NAMES = [
    "nearby_monuments", "suspicious_names", "tweet_context", "worrisome_tweets"
]


def tables(spark: SparkSession, *, quick: bool = False) -> list:
    return [Table("t29", "T29 — complex-UDF enrichment throughput (rec/s)",
                  run(spark, quick=quick))]


def run(spark: SparkSession, *, quick: bool = False,
        udf_names=None) -> pd.DataFrame:
    names = list(udf_names or UDF_NAMES)
    n = 1_680 if quick else N_TWEETS_COMPLEX
    batches = {"16X": BATCH_SIZES["16X"]} if quick else BATCH_SIZES
    ref_scale = QUICK_REF_SCALE if quick else BENCH_REF_SCALE
    wb = Workbench(spark, refs_of(names), ref_scale=ref_scale)
    try:
        rows = [
            row for name in names
            for row in feed_rows(spark, wb, udfs.BY_NAME[name], n, batches)
        ]
    finally:
        wb.close()
    return pd.DataFrame(rows)
