"""Decoupled pipeline: intake/compute/storage layering end-to-end."""
import dataclasses
import importlib
import threading
import time
from pathlib import Path

import pytest

from repro import synth_data
from repro.core.feed import serialize
from repro.core.pipeline import TAKE_TIMEOUT_S, DecoupledPipeline
from repro.enrich import java_udfs, udfs
from repro.storage.lsm_store import LsmStore
from repro.storage.sink import StorageSink


@pytest.fixture()
def ratings_store(spark, tmp_path, ref_pdfs):
    store = LsmStore(str(tmp_path / "ratings"), key="country_code")
    store.bulk_load(spark, ref_pdfs["safety_ratings"])
    return store


def _sink(spark, tmp_path, name="out"):
    return StorageSink(spark, str(tmp_path / name), key="id")


def test_pipeline_no_udf_moves_all_records(spark, tmp_path):
    sink = _sink(spark, tmp_path)
    report = DecoupledPipeline(spark, None, {}, sink).run(100, batch_size=30)
    assert len(report.batch_times) == 4  # 30+30+30+10
    assert report.batches_stored == 4
    ids = sorted(r.id for r in sink.read().select("id").collect())
    assert ids == list(range(100))


def test_pipeline_with_sqlpp_udf(spark, tmp_path, ratings_store):
    sink = _sink(spark, tmp_path)
    p = DecoupledPipeline(
        spark, udfs.SAFETY_RATING, {"safety_ratings": ratings_store}, sink
    )
    assert p.run(60, batch_size=20).batches_stored == 3
    back = sink.read().toPandas()
    assert len(back) == 60
    assert "safety_rating" in back.columns
    assert (back["safety_rating"] != "").all()


def test_pipeline_with_java_udf(spark, tmp_path, ratings_store):
    sink = _sink(spark, tmp_path)
    p = DecoupledPipeline(
        spark, java_udfs.SafetyRatingJava(),
        {"safety_ratings": ratings_store}, sink,
    )
    assert len(p.run(40, batch_size=20).batch_times) == 2
    assert sink.rows_written == 40


def test_pipeline_tiny_holder_capacity_backpressure(spark, tmp_path):
    """capacity=1 forces strict hand-over-hand flow; must still drain."""
    sink = _sink(spark, tmp_path)
    p = DecoupledPipeline(spark, None, {}, sink, holder_capacity=1)
    assert p.run(80, batch_size=10).batches_stored == 8
    assert sink.rows_written == 80


def test_pipeline_partial_last_batch(spark, tmp_path):
    sink = _sink(spark, tmp_path)
    report = DecoupledPipeline(spark, None, {}, sink).run(25, batch_size=10)
    assert len(report.batch_times) == 3
    assert sink.rows_written == 25


def test_pipeline_report_timings(spark, tmp_path):
    sink = _sink(spark, tmp_path)
    r = DecoupledPipeline(spark, None, {}, sink).run(40, batch_size=10)
    assert r.n_records == 40
    assert len(r.batch_times) == 4
    assert r.throughput > 0
    assert r.refresh_rate > 0


# -- failure in one layer stops every layer ----------------------------------

def _new_layer_threads(before: set) -> list:
    return [
        t.name for t in threading.enumerate()
        if t not in before
        and (t.name == "intake-job" or t.name.startswith("active-holder-"))
    ]


def test_pipeline_udf_failure_stops_every_layer(spark, tmp_path,
                                                ratings_store):
    calls = {"n": 0}

    def transform(spark, batch, refs):
        # deploy's plan check is the first call, so batch 2 is the fourth
        calls["n"] += 1
        if calls["n"] == 4:
            calls["failed_at"] = time.perf_counter()
            raise ValueError("udf failed")
        return udfs.SAFETY_RATING.transform(spark, batch, refs)

    udf = dataclasses.replace(udfs.SAFETY_RATING, transform=transform)
    sink = _sink(spark, tmp_path)
    p = DecoupledPipeline(spark, udf, {"safety_ratings": ratings_store},
                          sink, holder_capacity=1)
    before = set(threading.enumerate())
    with pytest.raises(ValueError, match="udf failed"):
        p.run(400, batch_size=20)
    assert time.perf_counter() - calls["failed_at"] < TAKE_TIMEOUT_S
    assert _new_layer_threads(before) == []
    assert sink.rows_written == 40  # batches pushed before the failure
    assert p.run(60, batch_size=20).batches_stored == 3  # runs again
    assert sink.rows_written == 100


def test_pipeline_sink_failure_stops_every_layer(spark, tmp_path):
    class FailingSink(StorageSink):
        failed_at = None

        def append_pdf_local(self, pdf):
            self.failed_at = time.perf_counter()
            raise OSError("disk full")

    sink = FailingSink(spark, str(tmp_path / "out"), key="id")
    p = DecoupledPipeline(spark, None, {}, sink, holder_capacity=1)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="downstream failed"):
        p.run(200, batch_size=10)  # 20 batches through capacity 1
    assert time.perf_counter() - sink.failed_at < TAKE_TIMEOUT_S
    assert _new_layer_threads(before) == []


# -- the benchmark's hooks ----------------------------------------------------
# ingest_bench/probes.py swaps the classes this module builds a feed from
# and stamps each batch at its parse call and when its push returns.

@pytest.mark.parametrize(
    "udf", [udfs.SAFETY_RATING, java_udfs.SafetyRatingJava()],
    ids=["sqlpp", "java"],
)
def test_benchmark_probes_stamp_every_batch(spark, tmp_path, ratings_store,
                                            monkeypatch, udf):
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "ingest_bench"))
    probes = importlib.import_module("probes")
    frames = [serialize(synth_data.tweets_pdf(20, seed=7, start_id=20 * i))
              for i in range(3)]
    rec = probes.Recorder(spark, traced=range(3))
    p = DecoupledPipeline(spark, udf, {"safety_ratings": ratings_store},
                          _sink(spark, tmp_path))
    with probes.instrumented(rec, frames):
        report = p.run(60, batch_size=20)
    assert report.batches_stored == 3
    assert sorted(rec.parse_start) == sorted(rec.push_end) == [0, 1, 2]
    invoked = {s[5] for s in rec.spans if s[1] == probes.PREDEPLOY_INVOKE}
    assert invoked == {0, 1, 2}
