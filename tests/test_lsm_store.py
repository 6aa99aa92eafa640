"""LSM reference store: component life-cycle and merge semantics."""
import pandas as pd
import pytest

from repro.storage.lsm_store import LsmStore, build_stores


@pytest.fixture()
def base_pdf():
    return pd.DataFrame(
        {"k": ["a", "b", "c"], "val": ["1", "2", "3"]}
    )


def _snap(store, spark):
    return (
        store.snapshot(spark).toPandas().sort_values("k").reset_index(drop=True)
    )


def test_bulk_load_roundtrip(spark, tmp_path, base_pdf):
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base_pdf)
    got = _snap(store, spark)
    pd.testing.assert_frame_equal(got, base_pdf)


def test_bulk_load_rejects_duplicate_keys(spark, tmp_path):
    store = LsmStore(str(tmp_path / "s"), key="k")
    with pytest.raises(ValueError, match="duplicate"):
        store.bulk_load(spark, pd.DataFrame({"k": ["a", "a"], "val": ["1", "2"]}))


def test_empty_store_snapshot_raises(spark, tmp_path):
    store = LsmStore(str(tmp_path / "s"), key="k")
    with pytest.raises(RuntimeError, match="bulk_load"):
        store.snapshot(spark)


def test_upsert_replaces_by_key(spark, tmp_path, base_pdf):
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base_pdf)
    store.upsert(pd.DataFrame({"k": ["b"], "val": ["2x"]}))
    got = _snap(store, spark)
    assert list(got["val"]) == ["1", "2x", "3"]


def test_upsert_inserts_new_key(spark, tmp_path, base_pdf):
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base_pdf)
    store.upsert(pd.DataFrame({"k": ["d"], "val": ["4"]}))
    got = _snap(store, spark)
    assert list(got["k"]) == ["a", "b", "c", "d"]


def test_newest_wins_across_multiple_upserts(spark, tmp_path, base_pdf):
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base_pdf)
    for v in ["x", "y", "z"]:
        store.upsert(pd.DataFrame({"k": ["a"], "val": [v]}))
    got = _snap(store, spark)
    assert got.loc[got["k"] == "a", "val"].item() == "z"


def test_memory_component_activation(spark, tmp_path, base_pdf):
    """§ 7.3's mechanism: any update activates the in-memory component."""
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base_pdf)
    assert store.buffered_updates == 0
    store.upsert(pd.DataFrame({"k": ["a"], "val": ["x"]}))
    assert store.buffered_updates == 1


def test_flush_moves_memory_to_disk(spark, tmp_path, base_pdf):
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base_pdf)
    store.upsert(pd.DataFrame({"k": ["a"], "val": ["x"]}))
    store.flush(spark)
    assert store.buffered_updates == 0
    got = _snap(store, spark)
    assert got.loc[got["k"] == "a", "val"].item() == "x"


def test_flush_empty_memory_is_noop(spark, tmp_path, base_pdf):
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base_pdf)
    store.flush(spark)
    pd.testing.assert_frame_equal(_snap(store, spark), base_pdf)


def test_snapshot_is_point_in_time(spark, tmp_path, base_pdf):
    """Record-level consistency (footnote 4): a snapshot taken before an
    update keeps showing the pre-update state; the next snapshot sees it."""
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base_pdf)
    snap_before = store.snapshot(spark)
    store.upsert(pd.DataFrame({"k": ["a"], "val": ["NEW"]}))
    before = snap_before.toPandas().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(before, base_pdf)
    after = _snap(store, spark)
    assert after.loc[after["k"] == "a", "val"].item() == "NEW"


def test_quiescent_store_has_no_version_column(spark, tmp_path, base_pdf):
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base_pdf)
    assert set(store.snapshot(spark).columns) == {"k", "val"}
    store.upsert(pd.DataFrame({"k": ["a"], "val": ["x"]}))
    assert set(store.snapshot(spark).columns) == {"k", "val"}


def test_build_stores(spark, tmp_path):
    pdfs = {
        "t1": pd.DataFrame({"a": [1, 2], "v": ["x", "y"]}),
        "t2": pd.DataFrame({"b": [3], "w": ["z"]}),
    }
    stores = build_stores(spark, str(tmp_path), pdfs, {"t1": "a", "t2": "b"})
    assert set(stores) == {"t1", "t2"}
    assert stores["t1"].snapshot(spark).count() == 2
    assert stores["t2"].key == "b"
