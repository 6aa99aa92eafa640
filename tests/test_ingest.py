"""Static vs dynamic ingestion: the paper's central semantic difference.

Static enrichment freezes intermediate state at feed start (stock
AsterixDB, § 4.3.4); dynamic enrichment rebuilds state each computing
job and therefore observes reference updates (§ 5). These tests pin both
behaviours down deterministically, plus report accounting.
"""
import pytest

from repro import synth_data
from repro.core.ingest import DynamicIngestion, IngestReport, StaticIngestion
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


def test_dynamic_run_enriches_and_stores(spark, ratings_store, sink):
    dyn = DynamicIngestion(
        spark, udfs.SAFETY_RATING, {"safety_ratings": ratings_store}, sink
    )
    report = dyn.run(n_records=90, batch_size=30)
    assert report.framework == "dynamic"
    assert sink.rows_written == 90
    assert len(report.batch_times) == 3
    back = sink.read().toPandas()
    assert set(back["safety_rating"]) <= {"A", "B", "C", "D", "E"}


def test_static_run_enriches_and_stores(spark, ratings_store, sink):
    st = StaticIngestion(
        spark, udfs.SAFETY_RATING, {"safety_ratings": ratings_store}, sink
    )
    report = st.run(n_records=60, batch_size=30)
    assert report.framework == "static"
    assert report.setup_s > 0
    assert sink.rows_written == 60


def test_static_sqlpp_state_is_stale(spark, ratings_store, sink, ref_pdfs):
    """Static SQL++ enrichment keeps using the frozen snapshot."""
    st = StaticIngestion(
        spark, udfs.SAFETY_RATING, {"safety_ratings": ratings_store}, sink
    )
    job = st.job()
    job.deploy()
    batch = synth_data.tweets_pdf(30, seed=7)
    _upsert_all_to_z(ratings_store, ref_pdfs)
    out = job.invoke(batch)
    assert not (out["safety_rating"] == "Z").any()


def test_dynamic_sqlpp_sees_updates(spark, ratings_store, sink, ref_pdfs):
    """Dynamic SQL++ enrichment observes updates at the next invocation."""
    dyn = DynamicIngestion(
        spark, udfs.SAFETY_RATING, {"safety_ratings": ratings_store}, sink
    )
    job = dyn.job()
    job.deploy()
    batch = synth_data.tweets_pdf(30, seed=7)
    before = job.invoke(batch)
    assert not (before["safety_rating"] == "Z").any()
    _upsert_all_to_z(ratings_store, ref_pdfs)
    after = job.invoke(batch)
    assert (after["safety_rating"] == "Z").all()


def test_static_java_state_is_stale(spark, ratings_store, sink, ref_pdfs):
    st = StaticIngestion(
        spark, java_udfs.SafetyRatingJava(),
        {"safety_ratings": ratings_store}, sink,
    )
    job = st.job()
    job.deploy()
    batch = synth_data.tweets_pdf(30, seed=7)
    _upsert_all_to_z(ratings_store, ref_pdfs)
    out = job.invoke(batch)
    assert not (out["safety_rating"] == "Z").any()


def test_dynamic_java_sees_updates(spark, ratings_store, sink, ref_pdfs):
    dyn = DynamicIngestion(
        spark, java_udfs.SafetyRatingJava(),
        {"safety_ratings": ratings_store}, sink,
    )
    job = dyn.job()
    job.deploy()
    batch = synth_data.tweets_pdf(30, seed=7)
    _upsert_all_to_z(ratings_store, ref_pdfs)
    out = job.invoke(batch)
    assert (out["safety_rating"] == "Z").all()


def test_dynamic_java_run(spark, ratings_store, sink):
    dyn = DynamicIngestion(
        spark, java_udfs.SafetyRatingJava(),
        {"safety_ratings": ratings_store}, sink,
    )
    report = dyn.run(n_records=60, batch_size=20)
    assert sink.rows_written == 60
    assert len(report.batch_times) == 3


def test_no_udf_passthrough(spark, ratings_store, sink):
    dyn = DynamicIngestion(spark, None, {}, sink)
    report = dyn.run(n_records=50, batch_size=25)
    assert report.udf_name == "none"
    assert sink.rows_written == 50


def test_report_math():
    r = IngestReport("dynamic", "q1", 100, 10, 2.0, [0.5, 0.5, 1.0])
    assert r.throughput == 50.0
    assert r.refresh_period_s == pytest.approx(2.0 / 3)
    assert r.refresh_rate == 1.5


def test_report_zero_elapsed_safe():
    r = IngestReport("static", "q1", 0, 10, 0.0, [])
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
