"""LSM-style reference-data store.

AsterixDB keeps each dataset in an LSM tree: immutable on-disk
components plus one mutable in-memory component; readers merge all
components with newest-key-wins semantics (§ 7.3 cites [3]). The
paper's update experiment hinges on this: *any* update rate > 0
activates the in-memory component, adding merge/locking cost to every
reference-data read, which is why throughput drops the moment updates
start and degrades as the rate grows.

This store reproduces that mechanism honestly rather than modelling it:

* ``bulk_load`` writes an immutable on-disk component (parquet). The
  store keeps the schema it wrote, so reading a component later infers
  nothing and launches no Spark job;
* ``upsert`` appends to the in-memory component (thread-safe — the
  update feeder runs concurrently with computing jobs);
* ``snapshot`` returns the merged view **as of now**. With an empty
  memory component it is a bare parquet scan; once updates exist it
  must union the components and deduplicate by key keeping the newest
  version — real extra work per computing job, growing with the number
  of buffered updates. The snapshot keeps the partitioning its plan
  gives (a scan is 1–2 partitions); the UDFs' hash joins broadcast it or
  a per-key table built from it (``repro.enrich.udfs``);
* ``flush`` migrates the memory component to a new disk component
  (LSM flush), resetting read amplification.

Record-level consistency matches the paper's footnote 4: a computing
job sees all updates applied before its ``snapshot`` call; later
updates are picked up by the next invocation.
"""
import itertools
import os
import threading

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.window import Window


class LsmStore:
    """One dataset: parquet disk components + a pandas memory component."""

    def __init__(self, path: str, key: str):
        self.path = path
        self.key = key
        self._lock = threading.Lock()
        self._mem: list = []          # list[pd.DataFrame], in arrival order
        self._disk: list = []         # (component dir, schema), oldest first
        self._seq = itertools.count() # version stamp for newest-wins merge
        self._component_id = itertools.count()
        os.makedirs(path, exist_ok=True)

    # -- write path -----------------------------------------------------------

    def bulk_load(self, spark: SparkSession, pdf: pd.DataFrame) -> None:
        """Initial load into an immutable on-disk component."""
        if pdf[self.key].duplicated().any():
            raise ValueError(f"duplicate primary key in bulk load of {self.path}")
        self._write_component(spark, pdf.assign(_v=next(self._seq)))

    def upsert(self, pdf: pd.DataFrame) -> None:
        """Insert-or-replace by primary key into the memory component."""
        with self._lock:
            self._mem.append(pdf.assign(_v=next(self._seq)))

    def flush(self, spark: SparkSession) -> None:
        """LSM flush: memory component becomes a new disk component."""
        with self._lock:
            mem, self._mem = self._mem, []
        if mem:
            self._write_component(spark, pd.concat(mem, ignore_index=True))

    def _write_component(self, spark: SparkSession, pdf: pd.DataFrame) -> None:
        comp = os.path.join(self.path, f"component-{next(self._component_id):05d}")
        sdf = spark.createDataFrame(pdf)
        sdf.write.mode("overwrite").parquet(comp)
        # A disk component never changes after it is written, so its
        # schema is known here; reading with it skips the footer-inference
        # job Spark would otherwise launch on every snapshot.
        self._disk.append((comp, sdf.schema))

    # -- read path ------------------------------------------------------------

    @property
    def buffered_updates(self) -> int:
        with self._lock:
            return sum(len(m) for m in self._mem)

    def snapshot(self, spark: SparkSession) -> DataFrame:
        """Merged, deduplicated view of all components as of this call.

        The newest-wins merge (window over ``_v``) only kicks in when
        more than one component exists — a quiescent store reads at
        plain scan cost, an updated one pays the merge, which is the
        paper's § 7.3 effect.
        """
        with self._lock:
            mem = list(self._mem)
            disk = list(self._disk)
        if not disk and not mem:
            raise RuntimeError(f"store {self.path} is empty — bulk_load first")
        parts = [spark.read.schema(schema).parquet(comp) for comp, schema in disk]
        if mem:
            parts.append(spark.createDataFrame(pd.concat(mem, ignore_index=True)))
        merged = parts[0]
        for p in parts[1:]:
            merged = merged.unionByName(p)
        if len(parts) > 1:
            w = Window.partitionBy(self.key).orderBy(F.col("_v").desc())
            merged = (
                merged.withColumn("_rank", F.row_number().over(w))
                .where(F.col("_rank") == 1)
                .drop("_rank")
            )
        # No fixed output width: the UDFs broadcast the snapshot (or a
        # per-key table built from it) into their hash joins, so join
        # width does not depend on whether the scan (1–2 partitions) or
        # the merge (shuffle width) ran, and a repartition would only add
        # a shuffle to every read.
        return merged.drop("_v")

    def snapshot_pdf(self, spark: SparkSession) -> pd.DataFrame:
        """Pandas view of :meth:`snapshot` — the Java-UDF resource-file path."""
        return self.snapshot(spark).toPandas()


def build_stores(spark: SparkSession, base_path: str, datasets: dict,
                 keys: dict) -> dict:
    """Bulk-load a dict of ``name -> pandas frame`` into per-name stores."""
    stores = {}
    for name, pdf in datasets.items():
        store = LsmStore(os.path.join(base_path, name), keys[name])
        store.bulk_load(spark, pdf)
        stores[name] = store
    return stores
