"""T27 (Fig 27): enrichment throughput under reference-data updates.

Paper: 100K tweets on 6 nodes; a client feeds reference updates at 0–400
records/s during ingestion; Nearby Monuments at 400/s retains only 24 %
of its no-update throughput, Safety Rating (most affected of the rest)
52 %. Measured here for real: an :class:`UpdateFeeder` thread upserts
into the UDF's LSM store while dynamic SQL++ ingestion runs; updates
activate the store's in-memory component and make every per-batch
snapshot pay the multi-component merge.
"""
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.pipeline import DecoupledPipeline
from repro.core.updates import UpdateFeeder
from repro.enrich import udfs
from repro.experiments.common import (
    BATCH_SIZES, BENCH_REF_SCALE, N_TWEETS_UPDATES, Workbench,
)

UDF_NAMES = [u.name for u in udfs.BASIC_UDFS]
UPDATE_RATES = (0, 1, 40, 400)


def run(spark: SparkSession, *, quick: bool = False,
        udf_names=None, rates=None) -> pd.DataFrame:
    names = list(udf_names or UDF_NAMES)
    rates = tuple(rates if rates is not None else UPDATE_RATES)
    n = 840 if quick else N_TWEETS_UPDATES
    batch = BATCH_SIZES["1X"]
    ref_scale = 0.02 if quick else BENCH_REF_SCALE
    rows = []
    for name in names:
        udf = udfs.BY_NAME[name]
        # Warm-up run: the first execution of each enrichment plan pays
        # one-time JIT/codegen/Python-worker costs that would otherwise
        # land entirely on the first rate measured and invert the sweep.
        warm = Workbench(spark, udf.refs, ref_scale=ref_scale)
        try:
            DecoupledPipeline(spark, udf, warm.stores, warm.fresh_sink()).run(
                2 * batch, batch_size=batch
            )
        finally:
            warm.close()
        base = {}
        for rate in rates:
            # fresh stores per run so earlier updates don't linger in the
            # memory component and contaminate the next measurement
            wb = Workbench(spark, udf.refs, ref_scale=ref_scale)
            try:
                (ref_name,) = udf.refs
                feeder = UpdateFeeder(
                    wb.stores[ref_name], wb.ref_pdfs[ref_name], rate=rate
                ).start()
                try:
                    rep = DecoupledPipeline(
                        spark, udf, wb.stores, wb.fresh_sink()
                    ).run(n, batch_size=batch)
                finally:
                    feeder.stop()
                if rate == 0:
                    base[name] = rep.throughput
                rows.append(
                    {
                        "udf": name,
                        "update_rate": rate,
                        "throughput_rec_s": rep.throughput,
                        "pct_of_no_update": 100.0 * rep.throughput
                        / base.get(name, rep.throughput),
                        "updates_sent": feeder.records_sent,
                    }
                )
            finally:
                wb.close()
    return pd.DataFrame(rows)
