"""The one definition of the per-session Spark settings, shared by the
test fixture, ``jobs/tables.py`` and ``ingest_bench/run.py``.

Master and driver memory are read at JVM launch from
``PYSPARK_SUBMIT_ARGS``, which each entry point sets before pyspark is
imported; the settings here are the ones a session honours after launch.
"""
import os

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    """Build (or reuse) the local session.

    Broadcast joins are off by threshold so that joins take the shuffle
    path at small scale; a plan that wants a broadcast join asks for it
    with a hint (DESIGN.md § 7).
    """
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
