"""The decoupled ingestion pipeline (§ 5.2, § 6, Fig 23).

Three concurrently running layers joined by partition holders:

* **intake job** (thread) — the adapter frames raw bytes and puts them
  into a *passive* partition holder; on feed stop it enqueues EOF after
  the last frame (§ 6.1). Note the parser is NOT here: the new framework
  moves parsing into the computing job, which is why dynamic ingestion
  escapes the old framework's single-node parse bottleneck (§ 7.1).
* **computing jobs** (repeatedly invoked) — pull a frame, parse it,
  evaluate the attached UDF against fresh reference snapshots, and push
  the enriched batch into the *active* partition holder. The Active Feed
  Manager role (invoke the next job when one finishes, § 6.1) is the
  driver loop here.
* **storage job** (active holder's consumer thread) — receives enriched
  frames and appends them to the sink.

Intake and storage run for the feed's lifetime; computing jobs are per
batch. Bounded holders give real back-pressure both ways. A failure in
any layer stops the feed: the intake holder is aborted, what was already
pushed is stored, both threads are joined, and the error propagates.
"""
import threading
import time
from dataclasses import dataclass

from pyspark.sql import SparkSession

from repro.core.feed import BATCH_1X, TweetAdapter, TweetParser
from repro.core.ingest import IngestReport, udf_name
from repro.core.partition_holder import (
    EOF, ActivePartitionHolder, PassivePartitionHolder,
)
from repro.core.predeploy import PredeployedJob, snapshot_provider
from repro.storage.sink import StorageSink

#: Longest the computing loop blocks on an empty intake holder at a time.
TAKE_TIMEOUT_S = 1.0


@dataclass
class PipelineStats:
    """Layer-level accounting on top of the ingest report."""

    report: IngestReport
    frames_intaken: int
    batches_computed: int
    batches_stored: int


class DecoupledPipeline:
    """Intake / computing / storage layers over partition holders."""

    def __init__(self, spark: SparkSession, udf, stores: dict,
                 sink: StorageSink, *, holder_capacity: int = 8,
                 seed: int = 7):
        self.spark = spark
        self.udf = udf
        self.stores = stores
        self.sink = sink
        self.holder_capacity = holder_capacity
        self.seed = seed

    def run(self, n_records: int, batch_size: int = BATCH_1X) -> PipelineStats:
        adapter = TweetAdapter(seed=self.seed)
        parser = TweetParser()

        # predeploy the computing job before the feed starts (§ 6.1)
        job = PredeployedJob(
            self.spark, self.udf,
            snapshot_provider(self.spark, self.udf, self.stores),
        )
        setup0 = time.perf_counter()
        job.deploy()
        setup_s = time.perf_counter() - setup0

        intake_holder = PassivePartitionHolder(
            "intake", capacity=self.holder_capacity
        )
        intake_error: list = []

        def intake_job():
            try:
                for frame in adapter.frames(n_records, frame_size=batch_size):
                    intake_holder.put(frame)
            except BaseException as e:  # surfaced after join
                intake_error.append(e)
            finally:
                intake_holder.close()

        intake = threading.Thread(target=intake_job, name="intake-job")
        storage_holder = ActivePartitionHolder(
            "storage", downstream=self.sink.append_pdf_local,
            capacity=self.holder_capacity,
        )

        times = []
        t0 = time.perf_counter()
        intake.start()
        try:
            # Active Feed Manager loop: one computing job at a time per feed
            while True:
                frame = intake_holder.take(timeout=TAKE_TIMEOUT_S)
                if frame is None:
                    continue
                if frame is EOF:
                    break
                b0 = time.perf_counter()
                storage_holder.push(job.invoke(parser.parse(frame)))
                times.append(time.perf_counter() - b0)
        except BaseException:
            # a failed layer stops the feed: unblock and refuse intake
            intake_holder.abort()
            raise
        finally:
            intake.join()
            storage_holder.close_and_join()  # drains what was pushed
        elapsed = time.perf_counter() - t0
        if intake_error:
            raise RuntimeError("intake job failed") from intake_error[0]

        report = IngestReport(
            "dynamic-decoupled", udf_name(self.udf), n_records, batch_size,
            elapsed, times, setup_s=setup_s,
        )
        return PipelineStats(
            report=report,
            frames_intaken=adapter.records_emitted,
            batches_computed=len(times),
            batches_stored=storage_holder.forwarded,
        )
