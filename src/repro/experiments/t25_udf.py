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

from repro.core.pipeline import DecoupledPipeline
from repro.core.predeploy import ONCE
from repro.enrich import java_udfs, udfs
from repro.experiments.common import (
    BATCH_SIZES, BENCH_REF_SCALE, N_TWEETS_ENRICH, Workbench,
)

UDF_NAMES = [u.name for u in udfs.BASIC_UDFS]


def _all_refs(names):
    out = []
    for n in names:
        out.extend(udfs.BY_NAME[n].refs)
    return tuple(dict.fromkeys(out))


def run(spark: SparkSession, *, quick: bool = False,
        udf_names=None) -> pd.DataFrame:
    names = list(udf_names or UDF_NAMES)
    n = 1_680 if quick else N_TWEETS_ENRICH
    batches = {"1X": BATCH_SIZES["1X"]} if quick else BATCH_SIZES
    ref_scale = 0.02 if quick else BENCH_REF_SCALE
    wb = Workbench(spark, _all_refs(names), ref_scale=ref_scale)
    rows = []
    try:
        for name in names:
            sql_udf = udfs.BY_NAME[name]
            stores = {r: wb.stores[r] for r in sql_udf.refs}
            # Static Enrichment w/ Java (stock AsterixDB)
            rep = DecoupledPipeline(
                spark, java_udfs.JAVA_BY_NAME[name](), stores, wb.fresh_sink(),
                refresh=ONCE,
            ).run(n, batch_size=BATCH_SIZES["16X"])
            rows.append(_row(name, "static_java", "-", rep))
            for label, bs in batches.items():
                rep = DecoupledPipeline(
                    spark, java_udfs.JAVA_BY_NAME[name](), stores,
                    wb.fresh_sink(),
                ).run(n, batch_size=bs)
                rows.append(_row(name, "dynamic_java", label, rep))
                rep = DecoupledPipeline(
                    spark, sql_udf, stores, wb.fresh_sink()
                ).run(n, batch_size=bs)
                rows.append(_row(name, "dynamic_sqlpp", label, rep))
    finally:
        wb.close()
    return pd.DataFrame(rows)


def _row(name, mode, batch, rep):
    return {
        "udf": name,
        "mode": mode,
        "batch": batch,
        "throughput_rec_s": rep.throughput,
        "refresh_period_s": rep.refresh_period_s,
    }


def refresh_periods(df: pd.DataFrame) -> pd.DataFrame:
    """T26 view: Dynamic SQL++ execution time per batch (seconds)."""
    d = df[df["mode"] == "dynamic_sqlpp"]
    return d.pivot_table(
        index="udf", columns="batch", values="refresh_period_s"
    ).reset_index()
