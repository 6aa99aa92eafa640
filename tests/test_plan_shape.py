"""Plan-shape regression tests for the per-batch Spark job.

Q1–Q3 read one value per country, so each is one broadcast hash join of
the batch against a per-key table built from the reference snapshot (the
paper's per-invocation build phase). A snapshot of a store whose data is
all in disk components is a plain scan that Spark plans without running
a job, because the store carries each component's schema, and it is the
same kept read every time, which still scans the files on every action.
"""
import uuid

import pandas as pd
import pyarrow.parquet as pq
import pytest

from repro import synth_data
from repro.enrich import udfs
from repro.storage.lsm_store import LsmStore

PER_KEY_UDFS = (udfs.SAFETY_RATING, udfs.RELIGIOUS_POPULATION,
                udfs.LARGEST_RELIGIONS)
KEYS = {"safety_ratings": "country_code", "religious_populations": "rid"}


def _executed_plan(df) -> str:
    df.collect()  # adaptive execution fixes the final plan only once run
    return df._jdf.queryExecution().executedPlan().toString()


def _jobs_in_group(spark, fn) -> int:
    """Spark jobs launched by ``fn()`` on this thread, counted by group."""
    sc = spark.sparkContext
    group = f"plan-shape-{uuid.uuid4().hex}"
    sc.setJobGroup(group, "plan-shape test")
    try:
        fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return len(sc.statusTracker().getJobIdsForGroup(group))


@pytest.fixture()
def stores(spark, tmp_path, ref_pdfs):
    out = {}
    for name, key in KEYS.items():
        out[name] = LsmStore(str(tmp_path / name), key)
        out[name].bulk_load(spark, ref_pdfs[name])
    return out


@pytest.mark.parametrize("udf", PER_KEY_UDFS, ids=[u.name for u in PER_KEY_UDFS])
def test_per_key_udf_broadcasts_reference_side(spark, stores, udf):
    batch = spark.createDataFrame(synth_data.tweets_pdf(50, seed=3))
    refs = {name: stores[name].snapshot(spark) for name in udf.refs}
    plan = _executed_plan(udf.transform(spark, batch, refs))
    assert "BroadcastHashJoin" in plan


def test_safety_rating_has_no_shuffle(spark, stores):
    """Q1 shuffles nothing: the only exchange broadcasts the snapshot."""
    batch = spark.createDataFrame(synth_data.tweets_pdf(50, seed=3))
    refs = {"safety_ratings": stores["safety_ratings"].snapshot(spark)}
    plan = _executed_plan(udfs.SAFETY_RATING.transform(spark, batch, refs))
    exchanges = [line for line in plan.splitlines() if "Exchange" in line]
    assert exchanges
    assert all("BroadcastExchange" in line for line in exchanges), exchanges
    assert "hashpartitioning" not in plan
    assert "RoundRobinPartitioning" not in plan


def test_disk_only_snapshot_launches_no_job(spark, stores):
    store = stores["safety_ratings"]
    assert _jobs_in_group(spark, lambda: store.snapshot(spark)) == 0
    upd = synth_data.safety_ratings_pdf(ref_scale=0.01).head(3)
    store.upsert(upd.assign(safety_rating="Z"))
    store.flush(spark)
    assert _jobs_in_group(spark, lambda: store.snapshot(spark)) == 0
    got = store.snapshot(spark).toPandas()
    assert len(got) == got["country_code"].nunique()
    flushed = got[got["country_code"].isin(upd["country_code"])]
    assert (flushed["safety_rating"] == "Z").all() and len(flushed) == 3


def test_job_count_sees_a_job(spark, stores):
    """The counter is live: running the snapshot is at least one job."""
    store = stores["safety_ratings"]
    assert _jobs_in_group(spark, lambda: store.snapshot(spark).count()) >= 1


def test_quiescent_snapshot_is_kept_and_rereads_files(spark, stores,
                                                     monkeypatch):
    """One disk component and no buffered upserts: every snapshot is the
    component's kept read, and each ``snapshot_pdf`` runs no Spark job but
    reads the component's file again (nothing is cached or reused), equal
    to the Spark read."""
    store = stores["safety_ratings"]
    assert store.snapshot(spark) is store.snapshot(spark)
    reads = []
    read_table = pq.read_table
    monkeypatch.setattr(pq, "read_table",
                        lambda path, **kw: reads.append(path)
                        or read_table(path, **kw))
    frames = []
    for i in range(2):
        n = _jobs_in_group(spark,
                           lambda: frames.append(store.snapshot_pdf(spark)))
        assert n == 0
        assert len(reads) == i + 1
    assert "InMemoryTableScan" not in _executed_plan(store.snapshot(spark))
    want = store.snapshot(spark).toPandas()
    for got in frames:
        pd.testing.assert_frame_equal(
            got.sort_values("country_code").reset_index(drop=True),
            want.sort_values("country_code").reset_index(drop=True))
