"""Shared experiment plumbing: scales, store/sink setup, table formatting.

Scale policy (DESIGN.md § 3/§ 5): reference datasets run at
``synth_data.BENCH_REF_SCALE`` (1/10 of paper cardinality) and tweet
volumes are reduced from the paper's 10M/1M/100K to counts that keep a
full table sweep within minutes on one machine — the compared quantities
are ratios and shapes, which survive the uniform scale-down. Every
harness accepts ``quick=True`` for a further-reduced variant
(``synth_data.QUICK_REF_SCALE``), a quick check of its table's shape. Each harness's ``tables`` returns its finished
:class:`Table` rows for ``jobs/tables.py`` to print and save.
"""
import os
import shutil
import tempfile
from typing import NamedTuple

import pandas as pd
from pyspark.sql import SparkSession

from repro import synth_data
from repro.core import feed
from repro.core.pipeline import DecoupledPipeline
from repro.core.predeploy import PER_BATCH
from repro.enrich import udfs
from repro.storage.lsm_store import build_stores
from repro.storage.sink import StorageSink

#: Feed volumes per experiment (paper value in comments).
N_TWEETS_BASIC = 20_000       # Fig 24: 10M
N_TWEETS_ENRICH = 6_720       # Figs 25/26: 1M
N_TWEETS_UPDATES = 3_360      # Fig 27: 100K
N_TWEETS_COMPLEX = 6_720      # Fig 29: 100K

BATCH_SIZES = {
    "1X": feed.BATCH_1X, "4X": feed.BATCH_4X, "16X": feed.BATCH_16X,
}


class Workbench:
    """Reference stores + a fresh sink over a temp directory."""

    def __init__(self, spark: SparkSession, ref_names, *, ref_scale: float):
        self.spark = spark
        self.base_dir = tempfile.mkdtemp(prefix="repro-bench-")
        self.ref_pdfs = synth_data.make_ref_pdfs(
            ref_names, ref_scale,
            district_scale=synth_data.BENCH_DISTRICT_REF_SCALE
            if ref_scale == synth_data.BENCH_REF_SCALE
            else None,
        )
        self.stores = build_stores(
            spark, os.path.join(self.base_dir, "refs"), self.ref_pdfs,
            {name: synth_data.REFERENCE_GENERATORS[name][1]
             for name in self.ref_pdfs},
        )
        self._sink_id = 0

    def fresh_sink(self) -> StorageSink:
        self._sink_id += 1
        return StorageSink(
            self.spark,
            os.path.join(self.base_dir, f"sink-{self._sink_id:03d}"),
            key="id",
        )

    def close(self) -> None:
        shutil.rmtree(self.base_dir, ignore_errors=True)


def refs_of(udf_names) -> tuple:
    """The reference datasets the named UDFs read, each once, in order."""
    return tuple(
        dict.fromkeys(r for n in udf_names for r in udfs.BY_NAME[n].refs)
    )


def feed_rows(spark: SparkSession, wb: Workbench, udf, n: int, batches: dict,
              *, refresh: str = PER_BATCH, **labels) -> list:
    """One feed of ``n`` tweets through ``udf`` per batch size: a row of
    throughput and refresh period per feed, tagged ``labels``."""
    stores = {r: wb.stores[r] for r in udf.refs}
    rows = []
    for label, bs in batches.items():
        rep = DecoupledPipeline(
            spark, udf, stores, wb.fresh_sink(), refresh=refresh
        ).run(n, batch_size=bs)
        rows.append(
            {
                "udf": udf.name,
                **labels,
                "batch": label,
                "throughput_rec_s": rep.throughput,
                "refresh_period_s": rep.refresh_period_s,
            }
        )
    return rows


class Table(NamedTuple):
    """A finished result table, saved as ``results/<name>.{md,csv}``."""

    name: str
    title: str
    frame: pd.DataFrame
    floatfmt: str = "{:.1f}"


def format_table(df: pd.DataFrame, title: str, floatfmt: str = "{:.1f}") -> str:
    """Markdown-ish fixed-width table for job output / EXPERIMENTS.md."""
    d = df.copy()
    for c in d.columns:
        if pd.api.types.is_float_dtype(d[c]):
            d[c] = d[c].map(lambda v: floatfmt.format(v))
    lines = [f"## {title}", ""]
    lines.append("| " + " | ".join(map(str, d.columns)) + " |")
    lines.append("|" + "|".join(["---"] * len(d.columns)) + "|")
    for _, row in d.iterrows():
        lines.append("| " + " | ".join(map(str, row.tolist())) + " |")
    return "\n".join(lines)


def results_dir() -> str:
    d = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))), "results")
    os.makedirs(d, exist_ok=True)
    return d


def save_result(name: str, table_md: str, df: pd.DataFrame) -> str:
    d = results_dir()
    with open(os.path.join(d, f"{name}.md"), "w") as f:
        f.write(table_md + "\n")
    df.to_csv(os.path.join(d, f"{name}.csv"), index=False)
    return os.path.join(d, f"{name}.md")
