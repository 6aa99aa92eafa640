"""Oracle tests: every enrichment UDF's Spark plan vs independent DuckDB SQL.

These catch wrong joins, wrong aggregation, wrong predicates — not just
"the plan ran". Spark results are projected to ``id`` + enrichment
columns (the oracle SQL produces exactly those).
"""
import pytest

from repro.enrich import udfs
from repro.oracle import assert_equivalent

ALL = list(udfs.ALL_UDFS) + [udfs.NAIVE_NEARBY_MONUMENTS]


def _run(udf, spark, batch_sdf, ref_sdfs):
    refs = {name: ref_sdfs[name] for name in udf.refs}
    return udf.transform(spark, batch_sdf, refs)


@pytest.mark.parametrize("udf", ALL, ids=[u.name for u in ALL])
def test_udf_matches_oracle(spark, udf, tweets_200, ref_pdfs, ref_sdfs):
    tweets_pdf, tweets_sdf = tweets_200
    out = _run(udf, spark, tweets_sdf, ref_sdfs).select("id", *udf.enrich_cols)
    tables = {name: ref_pdfs[name] for name in udf.refs}
    assert_equivalent(out, udf.oracle_sql, tweets=tweets_pdf, **tables)


@pytest.mark.parametrize("udf", ALL, ids=[u.name for u in ALL])
def test_udf_preserves_tweet_columns(spark, udf, tweets_200, ref_sdfs):
    """SELECT t.* — every original tweet column survives enrichment."""
    tweets_pdf, tweets_sdf = tweets_200
    out = _run(udf, spark, tweets_sdf, ref_sdfs)
    for col in tweets_pdf.columns:
        assert col in out.columns, f"{udf.name} dropped {col}"
    assert out.count() == len(tweets_pdf)


@pytest.mark.parametrize("udf", ALL, ids=[u.name for u in ALL])
def test_udf_adds_declared_columns(spark, udf, tweets_200, ref_sdfs):
    _, tweets_sdf = tweets_200
    out = _run(udf, spark, tweets_sdf, ref_sdfs)
    for col in udf.enrich_cols:
        assert col in out.columns


def test_indexed_and_naive_monuments_agree(spark, tweets_200, ref_sdfs):
    """Grid-index INLJ and the naive scan join are the same query."""
    _, tweets_sdf = tweets_200
    a = _run(udfs.NEARBY_MONUMENTS, spark, tweets_sdf, ref_sdfs)
    b = _run(udfs.NAIVE_NEARBY_MONUMENTS, spark, tweets_sdf, ref_sdfs)
    cols = ["id", "nearby_monuments", "num_monuments"]
    assert sorted(a.select(cols).collect()) == sorted(b.select(cols).collect())


def test_safety_rating_join_hits(spark, tweets_200, ref_sdfs):
    """Every tweet country is in the ratings domain, so no empty ratings."""
    _, tweets_sdf = tweets_200
    out = _run(udfs.SAFETY_RATING, spark, tweets_sdf, ref_sdfs)
    assert out.where("safety_rating = ''").count() == 0


def test_registry_lookup():
    assert udfs.BY_NAME["tweet_context"] is udfs.TWEET_CONTEXT
    # The paper's § 7.4.2 says "all seven UDFs" but lists eight use
    # cases (Q1–Q8); the registry carries all eight.
    assert len(udfs.ALL_UDFS) == 8
    assert udfs.NEARBY_MONUMENTS.uses_index
    assert not udfs.NAIVE_NEARBY_MONUMENTS.uses_index
