"""Storage sink: hash-partitioned appends and read-back."""
import os
import sys
import threading

import pandas as pd
import pytest

from repro import synth_data
from repro.storage.sink import N_PARTITIONS, StorageSink


@pytest.fixture()
def pdf():
    return pd.DataFrame({"id": list(range(20)), "v": [str(i) for i in range(20)]})


def test_append_pdf_local(spark, tmp_path, pdf):
    sink = StorageSink(spark, str(tmp_path / "out"), key="id")
    assert sink.append_pdf_local(pdf) == 20
    back = sink.read().toPandas()
    assert len(back) == 20
    assert back["_bucket"].between(0, N_PARTITIONS - 1).all()


def test_counters_accumulate(spark, tmp_path, pdf):
    sink = StorageSink(spark, str(tmp_path / "out"), key="id")
    sink.append_pdf_local(pdf)
    sink.append_pdf_local(pdf)
    assert sink.rows_written == 40
    assert sink.batches_written == 2


def test_multiple_appends_accumulate_rows(spark, tmp_path, pdf):
    sink = StorageSink(spark, str(tmp_path / "out"), key="id")
    for _ in range(3):
        sink.append_pdf_local(pdf)
    assert sink.read().count() == 60


def test_bucket_is_deterministic_per_key(spark, tmp_path, pdf):
    sink = StorageSink(spark, str(tmp_path / "out"), key="id")
    sink.append_pdf_local(pdf)
    sink.append_pdf_local(pdf)
    back = sink.read().toPandas()
    buckets_per_key = back.groupby("id")["_bucket"].nunique()
    assert (buckets_per_key == 1).all()


def test_concurrent_appends_keep_every_file(spark, tmp_path, pdf):
    """Two threads appending to one sink never pick the same file name,
    so every row counted is a row stored."""
    sink = StorageSink(spark, str(tmp_path / "out"), key="id")
    errors = []

    def append_many():
        try:
            for _ in range(50):
                sink.append_pdf_local(pdf)
        except Exception as e:  # reported by the assert below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=append_many) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    files = [f for f in os.listdir(sink.path) if f.endswith(".parquet")]
    assert len(files) == len(set(files)) == 100
    assert sink.batches_written == 100
    assert sink.rows_written == sink.read().count() == 100 * len(pdf)


def test_timestamps_read_back_as_the_batch_holds_them(spark, tmp_path,
                                                     kolkata):
    """Off UTC, the stored dataset has the Spark types and values of the
    batch's ``createDataFrame``: a naive ``created_at`` is session-local
    time, not a zone-less wall clock."""
    tweets = synth_data.tweets_pdf(5, seed=7)
    sink = StorageSink(spark, str(tmp_path / "out"), key="id")
    sink.append_pdf_local(tweets)
    batch = spark.createDataFrame(tweets)
    back = sink.read().select(*batch.columns)
    assert back.schema == batch.schema
    assert back.orderBy("id").collect() == batch.orderBy("id").collect()
