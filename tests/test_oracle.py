"""The DuckDB oracle itself: it must catch wrong results, not just run."""
import pandas as pd
import pytest

from repro.oracle import assert_equivalent


def test_accepts_matching_result(spark):
    pdf = pd.DataFrame({"k": [1, 2, 3], "v": [10.0, 20.0, 30.0]})
    df = spark.createDataFrame(pdf).groupBy().sum("v").toDF("total")
    assert_equivalent(df, "SELECT sum(v) AS total FROM t", t=pdf)


def test_rejects_wrong_rows(spark):
    pdf = pd.DataFrame({"k": [1, 2], "v": [1.0, 2.0]})
    df = spark.createDataFrame(pd.DataFrame({"total": [999.0]}))
    with pytest.raises(AssertionError):
        assert_equivalent(df, "SELECT sum(v) AS total FROM t", t=pdf)


def test_rejects_column_mismatch(spark):
    pdf = pd.DataFrame({"v": [1.0]})
    df = spark.createDataFrame(pd.DataFrame({"wrong_name": [1.0]}))
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(df, "SELECT sum(v) AS total FROM t", t=pdf)


def test_accepts_spark_inputs(spark):
    pdf = pd.DataFrame({"k": ["a", "b", "a"], "v": [1, 2, 3]})
    sdf = spark.createDataFrame(pdf)
    out = sdf.groupBy("k").count().withColumnRenamed("count", "n")
    assert_equivalent(out, "SELECT k, count(*) AS n FROM t GROUP BY k", t=sdf)


def test_row_order_irrelevant(spark):
    pdf = pd.DataFrame({"k": [3, 1, 2]})
    df = spark.createDataFrame(pd.DataFrame({"k": [2, 3, 1]}))
    assert_equivalent(df, "SELECT k FROM t", t=pdf)


def test_tpch_lite_join_oracle(spark, tweets_200, ref_pdfs, ref_sdfs):
    """Oracle self-check on a real join + group-by: tweets per rating."""
    tweets_pdf, tweets = tweets_200
    ratings = ref_sdfs["safety_ratings"]
    out = (
        tweets.join(ratings, tweets["country"] == ratings["country_code"])
        .groupBy("safety_rating")
        .count()
        .withColumnRenamed("count", "n")
    )
    assert_equivalent(
        out,
        """
        SELECT s.safety_rating AS safety_rating, count(*) AS n
        FROM tweets t JOIN safety_ratings s ON t.country = s.country_code
        GROUP BY s.safety_rating
        """,
        tweets=tweets_pdf, safety_ratings=ref_pdfs["safety_ratings"],
    )
