"""Static vs dynamic ingestion: the paper's central semantic difference.

Static enrichment freezes intermediate state at feed start (stock
AsterixDB, § 4.3.4); dynamic enrichment rebuilds state each computing
job and therefore observes reference updates (§ 5). Both run through the
one feed driver with a different refresh policy. These tests pin both
behaviours down deterministically, plus report accounting.
"""
import dataclasses

import pytest

from repro import synth_data
from repro.core.pipeline import DecoupledPipeline, IngestReport
from repro.core.predeploy import ONCE, PER_BATCH, PredeployedJob
from repro.enrich import java_udfs, udfs
from repro.storage.lsm_store import LsmStore
from repro.storage.sink import StorageSink


@pytest.fixture()
def ratings_store(spark, tmp_path, ref_pdfs):
    store = LsmStore(str(tmp_path / "ratings"), key="country_code")
    store.bulk_load(spark, ref_pdfs["safety_ratings"])
    return store


@pytest.fixture()
def sink(spark, tmp_path):
    return StorageSink(spark, str(tmp_path / "enriched"), key="id")


def _upsert_all_to_z(store, ref_pdfs):
    store.upsert(ref_pdfs["safety_ratings"].assign(safety_rating="Z"))


def _upsert_z_after_batch_1(udf, store, ref_pdfs):
    """``udf`` upserting ``safety_rating="Z"`` for every country as soon as
    batch 1 has been computed. It runs in the compute thread: batch 1's
    snapshot is already taken, batch 2's is not yet."""
    sqlpp = isinstance(udf, udfs.EnrichmentUdf)
    batch_1 = 2 if sqlpp else 1  # deploy's plan check calls transform first
    calls = {"n": 0}

    def then_upsert(fn):
        def wrapped(*args):
            out = fn(*args)
            calls["n"] += 1
            if calls["n"] == batch_1:
                _upsert_all_to_z(store, ref_pdfs)
            return out
        return wrapped

    if sqlpp:
        return dataclasses.replace(udf, transform=then_upsert(udf.transform))
    udf.evaluate = then_upsert(udf.evaluate)
    return udf


@pytest.mark.parametrize("refresh", [ONCE, PER_BATCH])
@pytest.mark.parametrize(
    "make_udf", [lambda: udfs.SAFETY_RATING, java_udfs.SafetyRatingJava],
    ids=["sqlpp", "java"],
)
def test_refresh_policy_end_to_end(spark, ratings_store, sink, ref_pdfs,
                                   make_udf, refresh):
    """An update made after batch 1 reaches batches 2 and 3 under
    PER_BATCH and no batch under ONCE."""
    udf = _upsert_z_after_batch_1(make_udf(), ratings_store, ref_pdfs)
    report = DecoupledPipeline(
        spark, udf, {"safety_ratings": ratings_store}, sink, refresh=refresh
    ).run(n_records=60, batch_size=20)
    assert report.batches_stored == 3
    assert report.setup_s > 0
    back = sink.read().toPandas()
    assert sorted(back["id"]) == list(range(60))
    assert set(back["safety_rating"]) <= {"A", "B", "C", "D", "E", "Z"}
    z_batches = set(back.loc[back["safety_rating"] == "Z", "id"] // 20)
    assert z_batches == (set() if refresh == ONCE else {1, 2})
    if refresh == PER_BATCH:
        assert (back.loc[back["id"] >= 20, "safety_rating"] == "Z").all()


def test_static_sqlpp_state_is_stale(spark, ratings_store, sink, ref_pdfs):
    """Static SQL++ enrichment keeps using the frozen snapshot."""
    job = DecoupledPipeline(
        spark, udfs.SAFETY_RATING, {"safety_ratings": ratings_store}, sink,
        refresh=ONCE,
    ).job()
    job.deploy()
    batch = synth_data.tweets_pdf(30, seed=7)
    _upsert_all_to_z(ratings_store, ref_pdfs)
    out = job.invoke(batch)
    assert not (out["safety_rating"] == "Z").any()


def test_dynamic_sqlpp_sees_updates(spark, ratings_store, sink, ref_pdfs):
    """Dynamic SQL++ enrichment observes updates at the next invocation."""
    job = DecoupledPipeline(
        spark, udfs.SAFETY_RATING, {"safety_ratings": ratings_store}, sink
    ).job()
    job.deploy()
    batch = synth_data.tweets_pdf(30, seed=7)
    before = job.invoke(batch)
    assert not (before["safety_rating"] == "Z").any()
    _upsert_all_to_z(ratings_store, ref_pdfs)
    after = job.invoke(batch)
    assert (after["safety_rating"] == "Z").all()


def test_static_java_state_is_stale(spark, ratings_store, sink, ref_pdfs):
    job = DecoupledPipeline(
        spark, java_udfs.SafetyRatingJava(),
        {"safety_ratings": ratings_store}, sink, refresh=ONCE,
    ).job()
    job.deploy()
    batch = synth_data.tweets_pdf(30, seed=7)
    _upsert_all_to_z(ratings_store, ref_pdfs)
    out = job.invoke(batch)
    assert not (out["safety_rating"] == "Z").any()


def test_dynamic_java_sees_updates(spark, ratings_store, sink, ref_pdfs):
    job = DecoupledPipeline(
        spark, java_udfs.SafetyRatingJava(),
        {"safety_ratings": ratings_store}, sink,
    ).job()
    job.deploy()
    batch = synth_data.tweets_pdf(30, seed=7)
    _upsert_all_to_z(ratings_store, ref_pdfs)
    out = job.invoke(batch)
    assert (out["safety_rating"] == "Z").all()


def test_dynamic_java_run(spark, ratings_store, sink):
    report = DecoupledPipeline(
        spark, java_udfs.SafetyRatingJava(),
        {"safety_ratings": ratings_store}, sink,
    ).run(n_records=60, batch_size=20)
    assert sink.rows_written == 60
    assert len(report.batch_times) == 3


def test_no_udf_passthrough(spark, ratings_store, sink):
    report = DecoupledPipeline(spark, None, {}, sink).run(
        n_records=50, batch_size=25)
    assert report.batches_stored == 2
    assert sink.rows_written == 50


def test_report_math():
    r = IngestReport(100, 10, 2.0, [0.5, 0.5, 1.0])
    assert r.throughput == 50.0
    assert r.refresh_period_s == pytest.approx(2.0 / 3)
    assert r.refresh_rate == 1.5


def test_report_zero_elapsed_safe():
    r = IngestReport(0, 10, 0.0, [])
    assert r.throughput == 0.0
    assert r.refresh_period_s == 0.0
    assert r.refresh_rate == 0.0


# -- predeployed jobs ---------------------------------------------------------

def _provider(spark, store):
    return lambda: {"safety_ratings": store.snapshot(spark)}


def test_predeployed_invoke_before_deploy_raises(spark, ratings_store):
    job = PredeployedJob(
        spark, udfs.SAFETY_RATING, _provider(spark, ratings_store)
    )
    with pytest.raises(RuntimeError, match="deploy"):
        job.invoke(synth_data.tweets_pdf(5, seed=7))


def test_refresh_policy_sets_when_state_is_built(spark, ratings_store):
    """ONCE reads the references only at deploy; PER_BATCH per invoke."""
    batch = synth_data.tweets_pdf(20, seed=7)
    for refresh, reads in ((ONCE, 1), (PER_BATCH, 3)):
        calls = []

        def provider():
            calls.append(1)
            return {"safety_ratings": ratings_store.snapshot(spark)}

        job = PredeployedJob(spark, udfs.SAFETY_RATING, provider,
                             refresh=refresh)
        job.deploy()
        for _ in range(2):
            out = job.invoke(batch)
            assert "safety_rating" in out.columns and len(out) == 20
        assert len(calls) == reads, refresh


def test_predeployed_rejects_unknown_refresh(spark, ratings_store):
    with pytest.raises(ValueError, match="refresh"):
        PredeployedJob(spark, udfs.SAFETY_RATING,
                       _provider(spark, ratings_store), refresh="on_version")
