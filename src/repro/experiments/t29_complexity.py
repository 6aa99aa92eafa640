"""T29 (Fig 29): UDF complexity comparison, 100K tweets on 6 nodes.

Paper: the complex use cases (Nearby Monuments baseline + Suspicious
Names, Tweet Context, Worrisome Tweets) measured at batch sizes 1X/4X/
16X. Tweet Context gains most from batching (its expensive ref-ref
spatial joins amortize over bigger batches); the sequential-join cases
gain little. Measured here for real via dynamic SQL++ ingestion.
"""
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.pipeline import DecoupledPipeline
from repro.enrich import udfs
from repro.experiments.common import (
    BATCH_SIZES, BENCH_REF_SCALE, N_TWEETS_COMPLEX, Workbench,
)

UDF_NAMES = [
    "nearby_monuments", "suspicious_names", "tweet_context", "worrisome_tweets"
]


def run(spark: SparkSession, *, quick: bool = False,
        udf_names=None) -> pd.DataFrame:
    names = list(udf_names or UDF_NAMES)
    n = 1_680 if quick else N_TWEETS_COMPLEX
    batches = {"16X": BATCH_SIZES["16X"]} if quick else BATCH_SIZES
    ref_scale = 0.02 if quick else BENCH_REF_SCALE
    refs = tuple(
        dict.fromkeys(r for nm in names for r in udfs.BY_NAME[nm].refs)
    )
    wb = Workbench(spark, refs, ref_scale=ref_scale)
    rows = []
    try:
        for name in names:
            udf = udfs.BY_NAME[name]
            stores = {r: wb.stores[r] for r in udf.refs}
            for label, bs in batches.items():
                rep = DecoupledPipeline(
                    spark, udf, stores, wb.fresh_sink()
                ).run(n, batch_size=bs)
                rows.append(
                    {
                        "udf": name,
                        "batch": label,
                        "throughput_rec_s": rep.throughput,
                        "refresh_period_s": rep.refresh_period_s,
                    }
                )
    finally:
        wb.close()
    return pd.DataFrame(rows)
