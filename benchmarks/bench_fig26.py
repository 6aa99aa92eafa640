"""T26 (Fig 26) benchmarks: one computing-job invocation per UDF.

The refresh period IS the per-invocation execution time, so these
benchmark a single predeployed-job invocation at 1X directly.
"""
import pytest

from repro.core.predeploy import PredeployedJob, snapshot_provider
from repro.enrich import udfs


@pytest.mark.benchmark(group="t26-refresh-period")
@pytest.mark.parametrize("name", [u.name for u in udfs.BASIC_UDFS])
def test_bench_t26_invocation(benchmark, spark, bench_workbench, batch_420,
                              name):
    udf = udfs.BY_NAME[name]
    stores = {r: bench_workbench.stores[r] for r in udf.refs}

    job = PredeployedJob(spark, udf, snapshot_provider(spark, udf, stores))
    job.deploy()
    job.invoke(batch_420.head(8))  # warm
    out = benchmark.pedantic(
        lambda: job.invoke(batch_420), rounds=3, iterations=1
    )
    assert len(out) == len(batch_420)
