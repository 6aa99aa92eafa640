"""Static vs dynamic ingestion orchestrators (§ 4.2–§ 6).

Both run one feed through one :class:`~repro.core.predeploy.PredeployedJob`,
invoked serially per batch; they differ only in the job's refresh policy:

* :class:`StaticIngestion` — stock AsterixDB feed semantics (Model 3):
  enrichment state is built **once** when the feed starts and reused,
  stale, for the whole feed. Java UDFs ``initialize()`` once from the
  reference stores; SQL++ UDFs run against reference snapshots taken
  once and cached. Reference updates during the feed are never observed.

* :class:`DynamicIngestion` — the paper's new framework (Model 2): the
  computing job rebuilds all intermediate state from a **fresh** store
  snapshot per batch, so updates applied before a batch's snapshot are
  reflected in that batch (record-level consistency, footnote 4).

Both return an :class:`IngestReport` with per-invocation timings — the
quantities behind Figs 25–29: ``throughput`` (records/s),
``refresh_period_s`` (mean computing-job execution time, Fig 26) and
``refresh_rate`` (computing jobs/s, § 7.1).
"""
import time
from dataclasses import dataclass, field

from pyspark.sql import SparkSession

from repro.core.feed import BATCH_1X, TweetFeed
from repro.core.predeploy import ONCE, PER_BATCH, PredeployedJob, \
    snapshot_provider
from repro.storage.sink import StorageSink


@dataclass
class IngestReport:
    """Outcome of one ingestion run."""

    framework: str
    udf_name: str
    n_records: int
    batch_size: int
    elapsed_s: float
    batch_times: list = field(default_factory=list)
    setup_s: float = 0.0          # the computing job's deploy() time

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


class SerialIngestion:
    """A feed whose computing job runs once per batch in the caller's
    thread; subclasses choose the report label and the refresh policy."""

    framework: str       # IngestReport label
    refresh: str         # PredeployedJob refresh policy

    def __init__(self, spark: SparkSession, udf, stores: dict,
                 sink: StorageSink, *, seed: int = 7):
        self.spark = spark
        self.udf = udf          # EnrichmentUdf (SQL++), JavaUdf, or None
        self.stores = stores
        self.sink = sink
        self.seed = seed

    def job(self) -> PredeployedJob:
        """The feed's computing job, not yet deployed."""
        return PredeployedJob(
            self.spark, self.udf,
            snapshot_provider(self.spark, self.udf, self.stores),
            refresh=self.refresh,
        )

    def run(self, n_records: int, batch_size: int = BATCH_1X) -> IngestReport:
        feed = TweetFeed(seed=self.seed)
        job = self.job()
        setup0 = time.perf_counter()
        job.deploy()
        setup_s = time.perf_counter() - setup0
        times = []
        t0 = time.perf_counter()
        for batch in feed.batches(n_records, batch_size):
            b0 = time.perf_counter()
            self.sink.append_pdf_local(job.invoke(batch))
            times.append(time.perf_counter() - b0)
        elapsed = time.perf_counter() - t0
        return IngestReport(
            self.framework, udf_name(self.udf), n_records, batch_size,
            elapsed, times, setup_s=setup_s,
        )


class StaticIngestion(SerialIngestion):
    """Feed with enrichment state frozen at start (stock AsterixDB)."""

    framework = "static"
    refresh = ONCE


class DynamicIngestion(SerialIngestion):
    """The new framework: per-batch computing jobs over fresh snapshots."""

    framework = "dynamic"
    refresh = PER_BATCH


def udf_name(udf) -> str:
    return "none" if udf is None else udf.name
