"""Shared test fixtures: small deterministic workloads (SF/ref_scale ~1/100).

``ref_pdfs``/``ref_sdfs`` hold every reference dataset the UDFs read, as
pandas (for the DuckDB oracle and Java-UDF analogues) and as Spark
frames. District-like datasets use a slightly larger scale so the grid
tiling stays meaningful at test size.
"""
import pytest

from repro import synth_data

TEST_REF_SCALE = 0.01
TEST_DISTRICT_SCALE = 0.05  # 25 districts — enough for a real grid


@pytest.fixture(scope="session")
def ref_pdfs():
    return {
        "safety_ratings": synth_data.safety_ratings_pdf(ref_scale=TEST_REF_SCALE),
        "religious_populations": synth_data.religious_populations_pdf(
            ref_scale=TEST_REF_SCALE
        ),
        "suspects_names": synth_data.suspects_names_pdf(ref_scale=TEST_REF_SCALE),
        "monuments": synth_data.monuments_pdf(ref_scale=TEST_REF_SCALE),
        "religious_buildings": synth_data.religious_buildings_pdf(
            ref_scale=TEST_REF_SCALE
        ),
        "facilities": synth_data.facilities_pdf(ref_scale=TEST_REF_SCALE),
        "sensitive_names": synth_data.sensitive_names_pdf(ref_scale=TEST_REF_SCALE),
        "district_areas": synth_data.district_areas_pdf(
            ref_scale=TEST_DISTRICT_SCALE
        ),
        "average_incomes": synth_data.average_incomes_pdf(
            ref_scale=TEST_DISTRICT_SCALE
        ),
        "persons": synth_data.persons_pdf(ref_scale=TEST_REF_SCALE),
        "attack_events": synth_data.attack_events_pdf(ref_scale=TEST_REF_SCALE),
    }


@pytest.fixture(scope="session")
def ref_sdfs(spark, ref_pdfs):
    return {name: spark.createDataFrame(pdf) for name, pdf in ref_pdfs.items()}


@pytest.fixture(scope="session")
def tweets_200(spark):
    pdf = synth_data.tweets_pdf(200, seed=7)
    return pdf, spark.createDataFrame(pdf)
