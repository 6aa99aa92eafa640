"""The one definition of the local Spark session, shared by the test
fixture, ``jobs/tables.py`` and ``ingest_bench/run.py``.

Master and driver memory are read when pyspark launches the JVM, from
``PYSPARK_SUBMIT_ARGS``, whose default ``get_spark`` sets before it
builds the session. The builder settings are the ones a session honours
after launch.

The driver JVM runs the parallel collector. Under G1, the default, how
much of the heap a feed touches turns on G1's pause-time young sizing
and its adaptive marking threshold. Over ten 20 s ``sqlpp_fresh``
benchmark runs with a 1g heap, the quartiles of the peak RSS (Python
driver plus JVM) were 155 MB apart under G1 and 35 MB apart under the
parallel collector, and throughput was no lower (4-core container).
"""
import os

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    """Build (or reuse) the local session.

    Broadcast joins are off by threshold so that joins take the shuffle
    path at small scale; a plan that wants a broadcast join asks for it
    with a hint (DESIGN.md § 7). When launched via spark-submit the
    submit arguments win over ``PYSPARK_SUBMIT_ARGS``.
    """
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--driver-java-options -XX:+UseParallelGC "
        "pyspark-shell",
    )
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
