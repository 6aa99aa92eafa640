"""Update feeder: rate control and genuine upsert semantics."""
import time

import pandas as pd
import pytest

from repro.core.updates import UpdateFeeder, update_batch
from repro.storage.lsm_store import LsmStore


@pytest.fixture()
def base():
    return pd.DataFrame(
        {"k": [f"k{i}" for i in range(50)], "val": ["orig"] * 50}
    )


def test_update_batch_uses_existing_keys(base):
    pdf = update_batch(base, "k", 10, seed=1)
    assert set(pdf["k"]) <= set(base["k"])


def test_update_batch_changes_values(base):
    pdf = update_batch(base, "k", 10, seed=1)
    assert (pdf["val"] != "orig").all()


def test_update_batch_no_duplicate_keys(base):
    pdf = update_batch(base, "k", 40, seed=1)
    assert not pdf["k"].duplicated().any()


def test_update_batch_deterministic(base):
    a = update_batch(base, "k", 10, seed=5)
    b = update_batch(base, "k", 10, seed=5)
    pd.testing.assert_frame_equal(a, b)


def test_feeder_rejects_negative_rate(spark, tmp_path, base):
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base)
    with pytest.raises(ValueError):
        UpdateFeeder(store, base, rate=-1)


def test_feeder_zero_rate_sends_nothing(spark, tmp_path, base):
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base)
    f = UpdateFeeder(store, base, rate=0).start()
    time.sleep(0.3)
    f.stop()
    assert f.records_sent == 0
    assert store.buffered_updates == 0


def test_feeder_sends_at_approximate_rate(spark, tmp_path, base):
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base)
    f = UpdateFeeder(store, base, rate=40).start()
    time.sleep(1.0)
    f.stop()
    # ~40 rec/s for ~1 s; wide tolerance for scheduling jitter and the
    # per-tick duplicate-key drop
    assert 10 <= f.records_sent <= 80
    assert store.buffered_updates > 0


def test_feeder_updates_visible_in_snapshot(spark, tmp_path, base):
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base)
    f = UpdateFeeder(store, base, rate=100).start()
    time.sleep(0.5)
    f.stop()
    got = store.snapshot(spark).toPandas()
    assert len(got) == len(base)           # upserts never grow the keyspace
    assert (got["val"] != "orig").any()    # some records were replaced


def test_feeder_stop_is_idempotent(spark, tmp_path, base):
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base)
    f = UpdateFeeder(store, base, rate=10).start()
    f.stop()
    f.stop()
