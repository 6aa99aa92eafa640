"""Storage job sink.

The paper's storage job receives enriched frames through an active
partition holder, hash-partitions them by primary key, and writes them
into the dataset's storage partitions. Here the sink hash-partitions by
key into a fixed number of buckets (mirroring AsterixDB's hash
partitioner) and appends parquet — one append per pushed batch, so
storage cost is on the measured path exactly as in the paper. Files are
written as the LSM store's components are (``lsm_store.write_parquet``).
"""
import itertools
import os
import threading

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.storage.lsm_store import write_parquet

#: Hash buckets per stored dataset (the storage partitions of the paper's
#: hash partitioner).
N_PARTITIONS = 8


class StorageSink:
    """Append-only enriched-dataset writer, hash-partitioned by key."""

    def __init__(self, spark: SparkSession, path: str, key: str):
        self.spark = spark
        self.path = path
        self.key = key
        self._lock = threading.Lock()
        self._rows_written = 0
        self._batches_written = 0
        self._file_id = itertools.count()  # file names, reserved per append
        os.makedirs(path, exist_ok=True)

    def append_pdf_local(self, pdf: pd.DataFrame) -> int:
        """Write one enriched batch as a parquet file; returns rows.

        Driver-local: no Spark job per batch, so high-frequency small
        batches pay only the hash-bucket column and the parquet write.
        """
        pdf = pdf.copy(deep=False)  # adds a column; copies no data
        pdf["_bucket"] = pd.util.hash_pandas_object(
            pdf[self.key], index=False
        ).astype("int64") % N_PARTITIONS
        with self._lock:
            file_id = next(self._file_id)
        write_parquet(self.spark, pdf,
                      os.path.join(self.path, f"local-{file_id:06d}.parquet"))
        with self._lock:
            self._rows_written += len(pdf)
            self._batches_written += 1
        return len(pdf)

    @property
    def rows_written(self) -> int:
        with self._lock:
            return self._rows_written

    @property
    def batches_written(self) -> int:
        with self._lock:
            return self._batches_written

    def read(self) -> DataFrame:
        """Read back everything written so far."""
        return self.spark.read.parquet(self.path)
