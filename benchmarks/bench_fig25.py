"""T25 (Fig 25) benchmarks: per-UDF enrichment throughput, all modes."""
import pytest

from repro.core.pipeline import DecoupledPipeline
from repro.core.predeploy import ONCE
from repro.enrich import java_udfs, udfs

N_RECORDS = 840
BATCH = 420


@pytest.mark.benchmark(group="t25-dynamic-sqlpp")
@pytest.mark.parametrize("name", [u.name for u in udfs.BASIC_UDFS])
def test_bench_t25_dynamic_sqlpp(benchmark, spark, bench_workbench, name):
    udf = udfs.BY_NAME[name]
    stores = {r: bench_workbench.stores[r] for r in udf.refs}

    def run():
        sink = bench_workbench.fresh_sink()
        return DecoupledPipeline(spark, udf, stores, sink).run(
            N_RECORDS, batch_size=BATCH
        )

    rep = benchmark.pedantic(run, rounds=1, iterations=1)
    assert rep.throughput > 0


@pytest.mark.benchmark(group="t25-dynamic-java")
@pytest.mark.parametrize("name", sorted(java_udfs.JAVA_BY_NAME))
def test_bench_t25_dynamic_java(benchmark, spark, bench_workbench, name):
    udf = java_udfs.JAVA_BY_NAME[name]()
    stores = {r: bench_workbench.stores[r] for r in udf.refs}

    def run():
        sink = bench_workbench.fresh_sink()
        return DecoupledPipeline(spark, udf, stores, sink).run(
            N_RECORDS, batch_size=BATCH
        )

    rep = benchmark.pedantic(run, rounds=1, iterations=1)
    assert rep.throughput > 0


@pytest.mark.benchmark(group="t25-static-java")
@pytest.mark.parametrize("name", sorted(java_udfs.JAVA_BY_NAME))
def test_bench_t25_static_java(benchmark, spark, bench_workbench, name):
    udf = java_udfs.JAVA_BY_NAME[name]()
    stores = {r: bench_workbench.stores[r] for r in udf.refs}

    def run():
        sink = bench_workbench.fresh_sink()
        return DecoupledPipeline(
            spark, udf, stores, sink, refresh=ONCE
        ).run(N_RECORDS, batch_size=BATCH)

    rep = benchmark.pedantic(run, rounds=1, iterations=1)
    assert rep.throughput > 0
