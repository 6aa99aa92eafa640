"""Storage sink: hash-partitioned appends and read-back."""
import pandas as pd
import pytest

from repro.storage.sink import StorageSink


@pytest.fixture()
def pdf():
    return pd.DataFrame({"id": list(range(20)), "v": [str(i) for i in range(20)]})


def test_append_pdf_local(spark, tmp_path, pdf):
    sink = StorageSink(spark, str(tmp_path / "out"), key="id")
    assert sink.append_pdf_local(pdf) == 20
    back = sink.read().toPandas()
    assert len(back) == 20
    assert back["_bucket"].between(0, sink.n_partitions - 1).all()


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
