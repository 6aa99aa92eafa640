"""T29 (Fig 29) benchmarks: one 16X invocation of each complex UDF."""
import pytest

from repro import synth_data
from repro.core.predeploy import PredeployedJob, snapshot_provider
from repro.experiments import t29_complexity


@pytest.mark.benchmark(group="t29-complexity")
@pytest.mark.parametrize("name", t29_complexity.UDF_NAMES)
def test_bench_t29_invocation(benchmark, spark, bench_workbench, name):
    from repro.enrich import udfs

    udf = udfs.BY_NAME[name]
    stores = {r: bench_workbench.stores[r] for r in udf.refs}
    batch = synth_data.tweets_pdf(1680, seed=7)

    job = PredeployedJob(spark, udf, snapshot_provider(spark, udf, stores))
    job.deploy()
    job.invoke(batch.head(8))  # warm
    out = benchmark.pedantic(lambda: job.invoke(batch), rounds=1, iterations=1)
    assert len(out) == len(batch)
