"""LSM reference store: component life-cycle and merge semantics."""
import glob
import itertools
import os
import sys
import threading
import time

import pandas as pd
import pyarrow.parquet as pq
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, rule,
                                 run_state_machine_as_test)

from repro import synth_data
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


def test_memory_only_store_merges_newest_wins(spark, tmp_path):
    """Upserts into a store with no disk component are merged too."""
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.upsert(pd.DataFrame({"k": ["a", "b"], "val": ["1", "2"]}))
    store.upsert(pd.DataFrame({"k": ["a"], "val": ["1x"]}))
    got = _snap(store, spark)
    assert list(got["k"]) == ["a", "b"] and list(got["val"]) == ["1x", "2"]


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


def test_snapshot_during_flush_sees_the_flushing_rows(spark, tmp_path,
                                                     monkeypatch):
    """A snapshot taken while a flush writes its component must not miss
    the upserts being flushed: it waits for the component, then reads it."""
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, pd.DataFrame({"k": ["a"], "val": ["1"]}))
    store.upsert(pd.DataFrame({"k": ["a"], "val": ["2"]}))
    writing, release = threading.Event(), threading.Event()
    write = store._write_component

    def held_open(spark, pdf):
        writing.set()
        release.wait(timeout=60)
        write(spark, pdf)

    monkeypatch.setattr(store, "_write_component", held_open)
    flusher = threading.Thread(target=store.flush, args=(spark,))
    flusher.start()
    assert writing.wait(timeout=60)
    got = []
    reader = threading.Thread(target=lambda: got.append(_snap(store, spark)))
    reader.start()
    reader.join(timeout=1.0)  # let the snapshot start inside the write
    release.set()
    flusher.join(timeout=60)
    reader.join(timeout=60)
    assert got[0]["val"].tolist() == ["2"]
    assert store.buffered_updates == 0


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


def test_snapshot_pdf_reads_what_its_snapshot_took(spark, tmp_path,
                                                   base_pdf):
    """``snapshot_pdf`` reads the components its one ``snapshot`` call took.
    A wrapper that upserts as soon as the real snapshot returns, as the
    benchmark's update client does, must not leak that upsert into the
    same read; the next read sees it."""
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base_pdf)
    snapshot, sent = store.snapshot, itertools.count(1)

    def then_upsert(spark):
        df = snapshot(spark)
        store.upsert(pd.DataFrame({"k": ["a"], "val": [f"v{next(sent)}"]}))
        return df

    store.snapshot = then_upsert
    for want in ("1", "v1", "v2"):
        got = store.snapshot_pdf(spark).sort_values("k")
        assert got["val"].tolist() == [want, "2", "3"]


def test_concurrent_snapshot_pdf_reads_its_own_snapshot(spark, tmp_path,
                                                        base_pdf):
    """More readers than cores, each upserting its own key right after its
    snapshot: every read holds exactly the reader's previous upsert, never
    the one sent after this read's snapshot (so no reader reads the parts
    another thread's snapshot took)."""
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base_pdf)
    snapshot, errors = store.snapshot, []
    mine = threading.local()

    def then_upsert(spark):
        df = snapshot(spark)
        store.upsert(pd.DataFrame({"k": [mine.key], "val": [str(mine.i)]}))
        time.sleep(0.001)  # let other readers snapshot before this one reads
        return df

    def reader(t):
        mine.key = f"t{t}"
        try:
            for mine.i in range(8):
                got = store.snapshot_pdf(spark).set_index("k")["val"]
                want = str(mine.i - 1) if mine.i else None
                if got.get(mine.key) != want:
                    errors.append((t, mine.i, got.get(mine.key)))
        except Exception as e:  # reported below
            errors.append(e)

    store.snapshot = then_upsert
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(t,))
                   for t in range(2 * os.cpu_count())]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []


@pytest.mark.parametrize("name", sorted(synth_data.REFERENCE_GENERATORS))
def test_component_reads_match_spark(spark, tmp_path, ref_pdfs, kolkata, name):
    """Every reference dataset: a component keeps the Spark schema that
    ``createDataFrame`` gives its frame (so SQL++ plans see the same
    types), and ``snapshot_pdf`` equals the Spark snapshot, dtypes
    included, with and without a buffered upsert. The session is off
    UTC: naive timestamps mean session-local time in every component,
    as ``createDataFrame`` reads them."""
    pdf = ref_pdfs[name]
    key = synth_data.REFERENCE_GENERATORS[name][1]
    store = LsmStore(str(tmp_path / name), key=key)
    store.bulk_load(spark, pdf)
    assert store.snapshot(spark).schema == spark.createDataFrame(pdf).schema

    def reads_agree():
        pd.testing.assert_frame_equal(
            store.snapshot_pdf(spark).sort_values(key, ignore_index=True),
            store.snapshot(spark).toPandas().sort_values(key,
                                                         ignore_index=True))

    reads_agree()
    # row 1's values under row 0's key: a changed row in the memory component
    store.upsert(pdf.iloc[[1]].assign(**{key: pdf[key].iloc[0]}))
    reads_agree()


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


def test_store_matches_dict_model(spark, tmp_path):
    """Under any sequence of bulk load, upsert (new and overwritten keys,
    and frames that repeat a key, whose later row wins), flush and
    snapshot, both read paths equal a plain dict with newest-wins
    semantics. Flushed components are read with the schema the store
    wrote them with, hold exactly the dataset's columns, and more than
    one component takes the merge path."""
    dirs = itertools.count()
    keys = st.sampled_from("abcdefgh")
    values = st.tuples(st.text("xyz", max_size=3), st.integers(-5, 5))
    rows = st.dictionaries(keys, values, min_size=1, max_size=4)

    def frame(d: dict) -> pd.DataFrame:
        return pd.DataFrame({"k": list(d), "val": [v for v, _ in d.values()],
                             "n": pd.array([n for _, n in d.values()],
                                           dtype="int64")})

    class StoreModel(RuleBasedStateMachine):
        @initialize(d=rows)
        def load(self, d):
            self.store = LsmStore(str(tmp_path / f"s{next(dirs)}"), key="k")
            self.model = dict(d)
            self.store.bulk_load(spark, frame(d))

        @rule(d=rows)
        def bulk_load(self, d):
            self.store.bulk_load(spark, frame(d))
            self.model.update(d)

        @rule(d=rows)
        def upsert(self, d):
            self.store.upsert(frame(d))
            self.model.update(d)

        @rule(d=rows, later=values, then_flush=st.booleans())
        def upsert_repeating_a_key(self, d, later, then_flush):
            k = next(iter(d))
            self.store.upsert(pd.concat([frame(d), frame({k: later})],
                                        ignore_index=True))
            self.model.update(d)
            self.model[k] = later
            self.snapshot(as_pandas=False)
            if then_flush:
                self.flush()
                self.snapshot(as_pandas=False)

        @rule()
        def flush(self):
            self.store.flush(spark)
            assert self.store.buffered_updates == 0
            for comp in glob.glob(os.path.join(self.store.path, "component-*")):
                assert pq.ParquetDataset(comp).schema.names == ["k", "val", "n"]

        @rule(as_pandas=st.booleans())
        def snapshot(self, as_pandas):
            got = (self.store.snapshot_pdf(spark) if as_pandas
                   else self.store.snapshot(spark).toPandas())
            got = got.sort_values("k").reset_index(drop=True)
            want = frame(dict(sorted(self.model.items())))
            pd.testing.assert_frame_equal(got, want)

    run_state_machine_as_test(StoreModel, settings=settings(
        max_examples=15, stateful_step_count=10, deadline=None))
