"""The local SparkSession for ``jobs/tables.py`` and ``ingest_bench/run.py``.

``get_spark`` is ``repro.spark_session.get_spark``, which the test
fixture uses too.
"""
import os

# driver memory is read at JVM launch, so it must be in PYSPARK_SUBMIT_ARGS
# before pyspark is imported (same pattern as conftest.py). When launched
# via spark-submit these are ignored in favour of the submit arguments.
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
    "--conf spark.driver.host=127.0.0.1 "
    "--conf spark.ui.enabled=false "
    "pyspark-shell",
)

from repro.spark_session import get_spark  # noqa: E402,F401
