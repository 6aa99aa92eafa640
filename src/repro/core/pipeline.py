"""The feed driver: the decoupled ingestion pipeline (§ 5.2, § 6, Fig 23).

Every feed runs here, static or dynamic; they differ only in the
computing job's ``refresh`` policy (``repro.core.predeploy``):
``PER_BATCH`` is the paper's new framework (Model 2), ``ONCE`` is stock
AsterixDB's frozen enrichment state (Model 3).

Three concurrently running layers joined by partition holders:

* **intake job** (thread) — the adapter frames raw bytes and puts them
  into a *passive* partition holder; on feed stop it enqueues EOF after
  the last frame (§ 6.1). Note the parser is NOT here: the new framework
  moves parsing into the computing job, which is why dynamic ingestion
  escapes the old framework's single-node parse bottleneck (§ 7.1).
* **computing jobs** (repeatedly invoked) — pull a frame, parse it,
  evaluate the attached UDF against the job's reference state, and push
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
from dataclasses import dataclass, field

from pyspark.sql import SparkSession

from repro.core.feed import BATCH_1X, TweetAdapter, TweetParser
from repro.core.partition_holder import (
    EOF, ActivePartitionHolder, PassivePartitionHolder,
)
from repro.core.predeploy import PER_BATCH, PredeployedJob, snapshot_provider
from repro.storage.sink import StorageSink

#: Longest the computing loop blocks on an empty intake holder at a time.
TAKE_TIMEOUT_S = 1.0


@dataclass
class IngestReport:
    """Outcome of one feed run: the quantities behind Figs 24–29."""

    n_records: int
    batch_size: int
    elapsed_s: float
    batch_times: list = field(default_factory=list)  # per computing job
    setup_s: float = 0.0          # the computing job's deploy() time
    batches_stored: int = 0

    @property
    def throughput(self) -> float:
        """Records ingested+enriched per second (the paper's y-axis)."""
        return self.n_records / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def refresh_period_s(self) -> float:
        """Mean execution time per computing job (Fig 26)."""
        return (
            sum(self.batch_times) / len(self.batch_times)
            if self.batch_times
            else 0.0
        )

    @property
    def refresh_rate(self) -> float:
        """Computing jobs per second (§ 7.1's refresh rates)."""
        return len(self.batch_times) / self.elapsed_s if self.elapsed_s else 0.0


class DecoupledPipeline:
    """Intake / computing / storage layers over partition holders."""

    def __init__(self, spark: SparkSession, udf, stores: dict,
                 sink: StorageSink, *, holder_capacity: int = 8,
                 seed: int = 7, refresh: str = PER_BATCH):
        self.spark = spark
        self.udf = udf          # EnrichmentUdf (SQL++), JavaUdf, or None
        self.stores = stores
        self.sink = sink
        self.holder_capacity = holder_capacity
        self.seed = seed
        self.refresh = refresh

    def job(self) -> PredeployedJob:
        """The feed's computing job, not yet deployed."""
        return PredeployedJob(
            self.spark, self.udf,
            snapshot_provider(self.spark, self.udf, self.stores),
            refresh=self.refresh,
        )

    def run(self, n_records: int, batch_size: int = BATCH_1X) -> IngestReport:
        adapter = TweetAdapter(seed=self.seed)
        parser = TweetParser()

        # predeploy the computing job before the feed starts (§ 6.1)
        job = self.job()
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

        return IngestReport(
            n_records, batch_size, elapsed, times, setup_s=setup_s,
            batches_stored=storage_holder.forwarded,
        )
