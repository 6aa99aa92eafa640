"""Shared experiment plumbing: scales, store/sink setup, table formatting.

Scale policy (DESIGN.md § 3/§ 5): reference datasets run at
``BENCH_REF_SCALE`` (1/10 of paper cardinality) and tweet volumes are
reduced from the paper's 10M/1M/100K to counts that keep a full table
sweep within minutes on one machine — the compared quantities are
ratios and shapes, which survive the uniform scale-down. Every harness
accepts ``quick=True`` for a further-reduced variant used by the
pytest-benchmark suite.
"""
import os
import shutil
import tempfile

import pandas as pd
from pyspark.sql import SparkSession

from repro import synth_data
from repro.cluster.calibrate import make_ref_pdfs
from repro.storage.lsm_store import build_stores
from repro.storage.sink import StorageSink

BENCH_REF_SCALE = 0.1
#: districts at bench scale: 50 (paper 500) — keeps person-in-district
#: joins ~1:1 while persons run at 100K (paper substitution: 1e9 → 1e6·0.1)
BENCH_DISTRICT_REF_SCALE = 0.1

#: Feed volumes per experiment (paper value in comments).
N_TWEETS_BASIC = 20_000       # Fig 24: 10M
N_TWEETS_ENRICH = 6_720       # Figs 25/26: 1M
N_TWEETS_UPDATES = 3_360      # Fig 27: 100K
N_TWEETS_COMPLEX = 6_720      # Fig 29: 100K

BATCH_SIZES = {"1X": 420, "4X": 1680, "16X": 6720}


class Workbench:
    """Reference stores + a fresh sink over a temp directory."""

    def __init__(self, spark: SparkSession, ref_names, *, ref_scale: float,
                 base_dir: str | None = None):
        self.spark = spark
        self._own_dir = base_dir is None
        self.base_dir = base_dir or tempfile.mkdtemp(prefix="repro-bench-")
        self.ref_pdfs = make_ref_pdfs(
            ref_names, ref_scale,
            district_scale=BENCH_DISTRICT_REF_SCALE
            if ref_scale == BENCH_REF_SCALE
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
        if self._own_dir:
            shutil.rmtree(self.base_dir, ignore_errors=True)


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
