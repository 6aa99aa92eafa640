"""Structured Streaming front-end for the ingestion framework.

The thread pipeline in ``repro.core.pipeline`` is the measured
reproduction of the paper's architecture; this module drives the *same*
enrichment through Spark Structured Streaming, which is the idiomatic
production shape (per the reproduction band): a file-source stream of
NDJSON tweet frames, ``foreachBatch`` invoking the feed's predeployed
computing job — which re-snapshots the LSM reference stores at every
invocation so each micro-batch observes current reference data — and
the storage sink as the terminal write. ``maxFilesPerTrigger=1`` aligns
one intake frame with one computing-job invocation, mirroring the
paper's batching. The stream carries raw NDJSON lines; each micro-batch
is parsed by the feed's own :class:`~repro.core.feed.TweetParser`, so
both drivers validate records the same way.
"""
import os

from pyspark.sql import SparkSession

from repro.core.feed import BATCH_1X, TweetAdapter, TweetParser
from repro.core.predeploy import PredeployedJob, snapshot_provider
from repro.storage.sink import StorageSink


def write_feed_files(input_dir: str, n_records: int,
                     batch_size: int = BATCH_1X, seed: int = 7) -> int:
    """Stage the feed as one NDJSON file per frame; returns frame count."""
    os.makedirs(input_dir, exist_ok=True)
    adapter = TweetAdapter(seed=seed)
    n = 0
    for i, frame in enumerate(adapter.frames(n_records, frame_size=batch_size)):
        with open(os.path.join(input_dir, f"frame-{i:06d}.json"), "wb") as f:
            f.write(frame)
        n += 1
    return n


def run_streaming_ingestion(spark: SparkSession, udf, stores: dict,
                            sink: StorageSink, *,
                            input_dir: str, checkpoint_dir: str,
                            timeout_s: float = 300.0) -> int:
    """Consume all staged frames through foreachBatch; returns batch count.

    Each ``foreachBatch`` call is one invocation of the feed's computing
    job, which re-snapshots the reference stores (fresh intermediate
    state — the dynamic semantics); its enriched rows go to the sink.
    Uses ``availableNow`` so the query drains the staged feed and stops,
    like stopping a feed (§ 6.1).
    """
    job = PredeployedJob(spark, udf, snapshot_provider(spark, udf, stores))
    job.deploy()
    parser = TweetParser()
    batches = {"n": 0}

    def on_batch(batch_df, batch_id: int) -> None:
        lines = [row.value for row in batch_df.collect()]
        if not lines:
            return
        frame = "\n".join(lines).encode()
        sink.append_pdf_local(job.invoke(parser.parse(frame)))
        batches["n"] += 1

    # one row per NDJSON line; one staged frame per micro-batch
    stream = spark.readStream.option("maxFilesPerTrigger", 1).text(input_dir)
    query = (
        stream.writeStream.foreachBatch(on_batch)
        .option("checkpointLocation", checkpoint_dir)
        .trigger(availableNow=True)
        .start()
    )
    try:
        query.awaitTermination(timeout=timeout_s)
    finally:
        if query.isActive:
            query.stop()
    return batches["n"]
