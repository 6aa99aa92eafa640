"""The local SparkSession for ``jobs/tables.py`` and ``ingest_bench/run.py``:
a re-export of ``repro.spark_session.get_spark``, which the test fixture
uses too."""
from repro.spark_session import get_spark  # noqa: F401
