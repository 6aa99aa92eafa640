"""Structured Streaming front-end: foreachBatch computing jobs."""
import json

import pytest
from pyspark.errors import StreamingQueryException

from repro.core import streaming
from repro.enrich import udfs
from repro.storage.sink import StorageSink


def test_write_feed_files(tmp_path):
    n = streaming.write_feed_files(str(tmp_path / "in"), 100, batch_size=30)
    assert n == 4
    files = sorted((tmp_path / "in").glob("*.json"))
    assert len(files) == 4


def test_streaming_ingestion_end_to_end(spark, tmp_path, ratings_store,
                                        ref_pdfs):
    input_dir = str(tmp_path / "in")
    streaming.write_feed_files(input_dir, 60, batch_size=20)
    sink = StorageSink(spark, str(tmp_path / "out"), key="id")
    n_batches = streaming.run_streaming_ingestion(
        spark, udfs.SAFETY_RATING, {"safety_ratings": ratings_store}, sink,
        input_dir=input_dir, checkpoint_dir=str(tmp_path / "ckpt"),
    )
    assert n_batches == 3  # maxFilesPerTrigger=1 → one job per frame
    back = sink.read().toPandas().sort_values("id").reset_index(drop=True)
    assert list(back["id"]) == list(range(60))
    # enrichment matches the reference data
    ratings = dict(
        zip(
            ref_pdfs["safety_ratings"]["country_code"],
            ref_pdfs["safety_ratings"]["safety_rating"],
        )
    )
    expected = back["country"].map(ratings).fillna("")
    assert (back["safety_rating"] == expected).all()


def test_streaming_sees_reference_updates_between_batches(
    spark, tmp_path, ratings_store, ref_pdfs
):
    """foreachBatch re-snapshots stores: updates applied before the run
    are observed (the dynamic-semantics contract)."""
    input_dir = str(tmp_path / "in")
    streaming.write_feed_files(input_dir, 20, batch_size=20)
    ratings_store.upsert(ref_pdfs["safety_ratings"].assign(safety_rating="Z"))
    sink = StorageSink(spark, str(tmp_path / "out"), key="id")
    streaming.run_streaming_ingestion(
        spark, udfs.SAFETY_RATING, {"safety_ratings": ratings_store}, sink,
        input_dir=input_dir, checkpoint_dir=str(tmp_path / "ckpt"),
    )
    back = sink.read().toPandas()
    assert (back["safety_rating"] == "Z").all()


def test_streaming_rejects_record_missing_required_field(
    spark, tmp_path, ratings_store
):
    """Frames go through the feed's parser, which type-checks every
    record: a record without ``country`` fails the stream."""
    input_dir = tmp_path / "in"
    streaming.write_feed_files(str(input_dir), 40, batch_size=20)
    frame = input_dir / "frame-000001.json"
    lines = frame.read_text().splitlines()
    rec = json.loads(lines[3])
    del rec["country"]
    lines[3] = json.dumps(rec)
    frame.write_text("\n".join(lines) + "\n")
    sink = StorageSink(spark, str(tmp_path / "out"), key="id")
    with pytest.raises(StreamingQueryException, match="country"):
        streaming.run_streaming_ingestion(
            spark, udfs.SAFETY_RATING, {"safety_ratings": ratings_store},
            sink, input_dir=str(input_dir),
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
