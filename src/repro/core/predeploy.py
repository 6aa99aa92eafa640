"""The computing job (§ 5.1, § 6): the one code path that turns a parsed
batch into enriched rows, for SQL++ UDFs, Java UDFs and no UDF.

AsterixDB compiles a feed's computing job once, distributes it, and then
invokes it per batch with the batch as its parameter. Static and dynamic
enrichment run the same job; they differ only in when it builds its
enrichment state, which the ``refresh`` policy chooses:

* ``ONCE`` — at ``deploy()``: the paper's Static Enrichment w/ Java
  (stock AsterixDB, Model 3). The job keeps the state the Java UDF's
  ``initialize`` returned there, and reference updates during the feed
  are never seen. Stock AsterixDB cannot run a stateful SQL++ UDF on a
  feed at all (§ 4.3.4), so a SQL++ UDF, or no UDF, is refused under
  ``ONCE``.
* ``PER_BATCH`` — at every ``invoke()`` (the new framework, Model 2). The
  job asks its reference provider for fresh snapshots each time, so a
  batch sees every update applied before its snapshot (footnote 4). The
  state is a local of that invocation, so one job can serve several
  invocations at once.

Spark mapping (DESIGN.md § 2, § 7): classic PySpark analyses the plan
at every ``transform`` step and re-plans at every action, so there is no
compiled plan to reuse across batches. ``deploy()`` therefore only
validates the SQL++ plan against the reference schemas and builds the
static Java state.
"""
import pandas as pd
from pyspark.sql import SparkSession

from repro.enrich.udfs import EnrichmentUdf

#: Refresh policies: build the enrichment state once at deploy, or per batch.
ONCE = "once"
PER_BATCH = "per_batch"


class PredeployedJob:
    """Deploy once, invoke per batch with the batch as the parameter."""

    def __init__(self, spark: SparkSession, udf, ref_provider, *,
                 refresh: str = PER_BATCH):
        """``udf`` is an ``EnrichmentUdf`` (SQL++), a ``JavaUdf`` or None.
        ``ref_provider()`` returns ``{name: snapshot}`` — the *current*
        reference snapshots, in the form the UDF reads (see
        :func:`snapshot_provider`)."""
        if refresh not in (ONCE, PER_BATCH):
            raise ValueError(f"unknown refresh policy {refresh!r}")
        if refresh == ONCE and (udf is None or isinstance(udf, EnrichmentUdf)):
            raise ValueError("ONCE is static Java enrichment; it needs a "
                             "Java UDF")
        self.spark = spark
        self.udf = udf
        self.refresh = refresh
        self._ref_provider = ref_provider
        self._state = None  # the ONCE state, built at deploy
        self.deployed = False

    def deploy(self) -> None:
        """Validate the SQL++ plan, or build the static Java state (ONCE)."""
        udf = self.udf
        if isinstance(udf, EnrichmentUdf):
            probe = self.spark.createDataFrame(_probe_batch())
            _ = udf.transform(self.spark, probe, self._ref_provider()).schema
        elif self.refresh == ONCE:
            self._state = udf.initialize(self._ref_provider())
        self.deployed = True

    def invoke(self, batch_pdf: pd.DataFrame) -> pd.DataFrame:
        """One computing-job invocation: parameter in, enriched rows out."""
        if not self.deployed:
            raise RuntimeError("deploy() before invoke()")
        udf = self.udf
        if udf is None:
            return batch_pdf
        if isinstance(udf, EnrichmentUdf):
            batch_df = self.spark.createDataFrame(batch_pdf)
            return udf.transform(self.spark, batch_df,
                                 self._ref_provider()).toPandas()
        state = self._state
        if self.refresh == PER_BATCH:
            # the per-batch state rebuild the paper measures in § 7.2
            state = udf.initialize(self._ref_provider())
        return udf.evaluate(batch_pdf, state)


def snapshot_provider(spark: SparkSession, udf, stores: dict):
    """Reference provider over LSM ``stores``: Spark snapshots for a SQL++
    UDF, pandas snapshots (its resource files) for a Java UDF."""
    names = () if udf is None else udf.refs
    if isinstance(udf, EnrichmentUdf):
        return lambda: {name: stores[name].snapshot(spark) for name in names}
    return lambda: {name: stores[name].snapshot_pdf(spark) for name in names}


def _probe_batch() -> pd.DataFrame:
    """A one-row batch with the tweet schema, for plan validation."""
    from repro import synth_data

    return synth_data.tweets_pdf(1, seed=0)
