"""LSM-style reference-data store.

AsterixDB keeps each dataset in an LSM tree: immutable on-disk
components plus one mutable in-memory component; readers merge all
components with newest-key-wins semantics (§ 7.3 cites [3]). The
paper's update experiment hinges on this: *any* update rate > 0
activates the in-memory component, adding merge/locking cost to every
reference-data read, which is why throughput drops the moment updates
start and degrades as the rate grows.

This store reproduces that mechanism honestly rather than modelling it.
Recency is a component's position (oldest disk component first, memory
newest); each component, as written or read, holds a key once, so rows
carry no version.

* ``bulk_load`` writes an immutable on-disk component: one parquet file,
  written by pyarrow on the driver, as AsterixDB writes components
  through its storage layer rather than through a query job. Naive
  timestamps are written as instants in the session time zone, as
  ``spark.createDataFrame`` reads them, so every reader agrees on them
  whatever the host's zone. A
  component never changes once written, so the store builds its Spark
  read once, at the first snapshot, with the schema it wrote: later
  reads list no files, infer nothing and re-plan nothing, but every
  action on them still reads the files (nothing is cached);
* ``upsert`` appends to the in-memory component (thread-safe — the
  update feeder runs concurrently with computing jobs);
* ``snapshot`` returns the merged records **as of now**: one part (a
  disk component, or only buffered upserts) as is, more by a union that
  keeps each key's row from the newest component — real extra work per
  computing job, growing with the number of buffered updates. The
  snapshot keeps the partitioning its plan gives (a scan is 1–2
  partitions); the UDFs' hash joins broadcast it or a per-key table
  built from it (``repro.enrich.udfs``);
* ``snapshot_pdf`` is the same read for a Java UDF's resource files.
  It takes its snapshot through ``snapshot`` and reads the components
  that snapshot took with pyarrow, so it runs no Spark job; every call
  re-reads the files, and builds each string anew rather than interning
  equal ones (the frame serves one batch);
* ``flush`` migrates the memory component to a new disk component
  (LSM flush), resetting read amplification.

Record-level consistency matches the paper's footnote 4: a computing
job sees all updates applied before its ``snapshot`` call; later
updates are picked up by the next invocation.
"""
import functools
import itertools
import os
import threading

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
from pandas.api.types import is_datetime64_dtype
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.pandas.types import from_arrow_schema
from pyspark.sql.types import StructType
from pyspark.sql.window import Window


def _session_tz(spark: SparkSession) -> str:
    return spark.conf.get("spark.sql.session.timeZone")


def _as_instants(spark: SparkSession, pdf: pd.DataFrame) -> pd.DataFrame:
    """Naive timestamp columns read as session-local time, with the
    daylight-saving choice ``spark.createDataFrame`` makes."""
    cols = [c for c in pdf.columns if is_datetime64_dtype(pdf[c].dtype)]
    if not cols:
        return pdf
    tz = _session_tz(spark)
    out = pdf.copy(deep=False)  # replaces columns; copies no other data
    for c in cols:
        out[c] = pdf[c].dt.tz_localize(tz, ambiguous=False)
    return out


def _as_wall_clock(spark: SparkSession, pdf: pd.DataFrame) -> pd.DataFrame:
    """Instants back to naive session-local time, as ``toPandas`` gives."""
    cols = [c for c in pdf.columns if isinstance(pdf[c].dtype, pd.DatetimeTZDtype)]
    if not cols:
        return pdf
    tz = _session_tz(spark)
    return pdf.assign(**{c: pdf[c].dt.tz_convert(tz).dt.tz_localize(None)
                         for c in cols})


def write_parquet(spark: SparkSession, pdf: pd.DataFrame,
                  path: str) -> pa.Schema:
    """One parquet file, for store components and sink batches alike;
    returns its Arrow schema. Naive timestamps are stored as session-local
    instants, as ``spark.createDataFrame`` reads them, in microseconds
    (Spark's parquet reader rejects nanoseconds)."""
    table = pa.Table.from_pandas(_as_instants(spark, pdf),
                                 preserve_index=False)
    pq.write_table(table, path, coerce_timestamps="us",
                   allow_truncated_timestamps=True)
    return table.schema


class _DiskComponent:
    """An immutable parquet file and its reads.

    The Spark read is planned at first use, not at write time, so a bulk
    load lists no files; after that every snapshot reuses it, and each
    action on it still scans the files. ``read_pdf`` reads the file
    again on every call.
    """

    def __init__(self, spark: SparkSession, path: str, schema: StructType):
        self._spark = spark
        self._path = path
        # written here, so known: reading with it skips footer inference
        self._schema = schema

    @functools.cached_property
    def scan(self) -> DataFrame:
        return self._spark.read.schema(self._schema).parquet(self._path)

    def read_pdf(self) -> pd.DataFrame:
        # Nanoseconds, as Spark's toPandas gives and as upserts arrive.
        # Equal strings are not interned into one object: that hashes
        # every string of the file on every read, and a read's frame
        # lives for one batch.
        return _as_wall_clock(self._spark, pq.read_table(self._path).to_pandas(
            coerce_temporal_nanoseconds=True, deduplicate_objects=False))


class LsmStore:
    """One dataset: parquet disk components + a pandas memory component."""

    def __init__(self, path: str, key: str):
        self.path = path
        self.key = key
        self._lock = threading.Lock()
        self._mem: list = []          # list[pd.DataFrame], in arrival order
        self._disk: list = []         # _DiskComponent, oldest first
        self._component_id = itertools.count()
        self._taken = threading.local()  # each thread's last snapshot parts
        os.makedirs(path, exist_ok=True)

    # -- write path -----------------------------------------------------------

    def bulk_load(self, spark: SparkSession, pdf: pd.DataFrame) -> None:
        """Initial load into an immutable on-disk component."""
        if pdf[self.key].duplicated().any():
            raise ValueError(f"duplicate primary key in bulk load of {self.path}")
        self.flush(spark)  # the new component is newer than buffered upserts
        self._write_component(spark, pdf)

    def upsert(self, pdf: pd.DataFrame) -> None:
        """Insert-or-replace by primary key into the memory component."""
        with self._lock:
            self._mem.append(pdf)

    def flush(self, spark: SparkSession) -> None:
        """LSM flush: memory component becomes a new disk component.

        The lock is held until the disk component is appended, so a
        snapshot taken meanwhile waits and then reads it, rather than
        missing the upserts in flight."""
        with self._lock:
            if self._mem:
                self._write_component(spark, self._newest(self._mem))
                self._mem = []

    def _newest(self, parts: list) -> pd.DataFrame:
        """``parts`` (oldest first) merged with each key once: its row from
        the newest part, as the memory component keeps the last upsert."""
        return pd.concat(parts, ignore_index=True).drop_duplicates(
            self.key, keep="last", ignore_index=True)

    def _write_component(self, spark: SparkSession, pdf: pd.DataFrame) -> None:
        comp = os.path.join(
            self.path, f"component-{next(self._component_id):05d}.parquet")
        schema = write_parquet(spark, pdf, comp)
        # the schema spark.createDataFrame(pdf) would give
        self._disk.append(
            _DiskComponent(spark, comp, from_arrow_schema(schema)))

    # -- read path ------------------------------------------------------------

    @property
    def buffered_updates(self) -> int:
        with self._lock:
            return sum(len(m) for m in self._mem)

    def snapshot(self, spark: SparkSession) -> DataFrame:
        """Merged, deduplicated records of all components as of this call.

        One part (a lone disk component's kept scan, or only buffered
        upserts) is returned as is. More pay the newest-wins merge (a
        window over the component's position) on every read, which is
        the paper's § 7.3 effect.
        """
        with self._lock:
            mem = list(self._mem)
            disk = list(self._disk)
        self._taken.parts = disk, mem
        if not disk and not mem:
            raise RuntimeError(f"store {self.path} is empty — bulk_load first")
        parts = [c.scan for c in disk]
        if mem:
            parts.append(spark.createDataFrame(self._newest(mem)))
        if len(parts) == 1:
            return parts[0]
        merged = functools.reduce(lambda a, b: a.unionByName(b), (
            p.withColumn("_component", F.lit(i)) for i, p in enumerate(parts)
        ))
        w = Window.partitionBy(self.key).orderBy(F.col("_component").desc())
        # No fixed output width: the UDFs broadcast the snapshot (or a
        # per-key table built from it) into their hash joins, so join
        # width does not depend on whether the scan (1–2 partitions) or
        # the merge (shuffle width) ran, and a repartition would only add
        # a shuffle to every read.
        return (
            merged.withColumn("_rank", F.row_number().over(w))
            .where(F.col("_rank") == 1)
            .drop("_rank", "_component")
        )

    def snapshot_pdf(self, spark: SparkSession) -> pd.DataFrame:
        """Pandas copy of :meth:`snapshot` — the Java-UDF resource-file path.

        It calls ``snapshot`` once, so whatever wraps that sees and gates
        every read of the store (``ingest_bench/load.watch_store`` does),
        and then reads, with pyarrow and no Spark job, exactly the
        components that call took on this thread. It does not take them
        again: an upsert that lands after ``snapshot`` returns belongs to
        the next read. Nothing is cached; every call re-reads the files.
        """
        self.snapshot(spark)
        disk, mem = self._taken.parts
        if len(disk) == 1 and not mem:
            return disk[0].read_pdf()
        return self._newest([*(c.read_pdf() for c in disk), *mem])


def build_stores(spark: SparkSession, base_path: str, datasets: dict,
                 keys: dict) -> dict:
    """Bulk-load a dict of ``name -> pandas frame`` into per-name stores."""
    stores = {}
    for name, pdf in datasets.items():
        store = LsmStore(os.path.join(base_path, name), keys[name])
        store.bulk_load(spark, pdf)
        stores[name] = store
    return stores
