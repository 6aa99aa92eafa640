"""The session ``repro.spark_session.get_spark`` launches."""


def test_driver_jvm_runs_the_parallel_collector(spark):
    """The parallel collector keeps a feed's peak RSS steady from run to
    run; under G1 it varied with G1's adaptive sizing."""
    mx = spark.sparkContext._jvm.java.lang.management.ManagementFactory
    names = {gc.getName() for gc in mx.getGarbageCollectorMXBeans()}
    assert names == {"PS Scavenge", "PS MarkSweep"}
