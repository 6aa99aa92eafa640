"""Shared test fixtures: small deterministic workloads (SF/ref_scale ~1/100).

``ref_pdfs``/``ref_sdfs`` hold every reference dataset the UDFs read, as
pandas (for the DuckDB oracle and Java-UDF analogues) and as Spark
frames. District-like datasets use a slightly larger scale so the grid
tiling stays meaningful at test size. ``ratings_store`` is a fresh store
bulk-loaded with the safety ratings, for the pipeline tests. ``kolkata``
sets the session time zone off UTC for the length of a test.
"""
import pytest

from repro import synth_data
from repro.storage.lsm_store import LsmStore

TEST_REF_SCALE = 0.01
TEST_DISTRICT_SCALE = 0.05  # 25 districts — enough for a real grid


@pytest.fixture(scope="session")
def ref_pdfs():
    return synth_data.make_ref_pdfs(
        synth_data.REFERENCE_GENERATORS, TEST_REF_SCALE,
        district_scale=TEST_DISTRICT_SCALE,
    )


@pytest.fixture(scope="session")
def ref_sdfs(spark, ref_pdfs):
    return {name: spark.createDataFrame(pdf) for name, pdf in ref_pdfs.items()}


@pytest.fixture(scope="session")
def tweets_200(spark):
    pdf = synth_data.tweets_pdf(200, seed=7)
    return pdf, spark.createDataFrame(pdf)


@pytest.fixture()
def ratings_store(spark, tmp_path, ref_pdfs):
    store = LsmStore(str(tmp_path / "ratings"), key="country_code")
    store.bulk_load(spark, ref_pdfs["safety_ratings"])
    return store


@pytest.fixture()
def kolkata(spark):
    """A session time zone off UTC (+05:30, no daylight saving), so a
    timestamp read as UTC rather than session-local time shows."""
    conf = "spark.sql.session.timeZone"
    was = spark.conf.get(conf)
    spark.conf.set(conf, "Asia/Kolkata")
    yield
    spark.conf.set(conf, was)
