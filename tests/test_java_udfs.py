"""Java-UDF analogues: parity with the DuckDB oracle and life-cycle checks."""
import pytest

from repro import synth_data
from repro.enrich import java_udfs, udfs
from repro.oracle import assert_equivalent


@pytest.mark.parametrize(
    "cls", java_udfs.JAVA_UDFS, ids=[c.name for c in java_udfs.JAVA_UDFS]
)
def test_java_udf_matches_oracle(cls, tweets_200, ref_pdfs):
    """Each Java UDF computes the same enrichment as the SQL++ oracle."""
    tweets_pdf, _ = tweets_200
    udf = cls()
    state = udf.initialize({name: ref_pdfs[name] for name in udf.refs})
    assert_equivalent(
        udf.evaluate(tweets_pdf, state)[["id", *udf.enrich_cols]],
        udfs.BY_NAME[cls.name].oracle_sql,
        tweets=tweets_pdf, **{n: ref_pdfs[n] for n in udf.refs},
    )


@pytest.mark.parametrize(
    "cls", java_udfs.JAVA_UDFS, ids=[c.name for c in java_udfs.JAVA_UDFS]
)
def test_java_udf_preserves_input_columns(cls, tweets_200, ref_pdfs):
    tweets_pdf, _ = tweets_200
    udf = cls()
    state = udf.initialize({name: ref_pdfs[name] for name in udf.refs})
    out = udf.evaluate(tweets_pdf, state)
    assert set(tweets_pdf.columns) <= set(out.columns)
    assert len(out) == len(tweets_pdf)
    # input frame must not be mutated (the paper's UDFs return new records)
    assert not set(udf.enrich_cols) & set(tweets_pdf.columns)


def test_static_java_udf_state_is_frozen(tweets_200, ref_pdfs):
    """The crux of § 4.3: a Java UDF initialized once never sees updates."""
    tweets_pdf, _ = tweets_200
    udf = java_udfs.SafetyRatingJava()
    ratings = ref_pdfs["safety_ratings"]
    state = udf.initialize({"safety_ratings": ratings})
    before = udf.evaluate(tweets_pdf, state)["safety_rating"]
    # update every rating afterwards — frozen state must not notice
    updated = ratings.assign(safety_rating="Z")
    after = udf.evaluate(tweets_pdf, state)["safety_rating"]
    assert (before == after).all()
    # but re-initialize (the dynamic path) picks up the change
    state = udf.initialize({"safety_ratings": updated})
    assert (udf.evaluate(tweets_pdf, state)["safety_rating"] == "Z").all()


def test_fuzzy_matches_expected_bound(tweets_200, ref_pdfs):
    """Edit-distance join: every reported suspect really is within bound."""
    tweets_pdf, _ = tweets_200
    udf = java_udfs.FuzzySuspectsJava()
    state = udf.initialize({"suspects_names": ref_pdfs["suspects_names"]})
    out = udf.evaluate(tweets_pdf, state)
    assert (out["num_suspects"] >= 0).all()
    row = out[out["num_suspects"] > 0]
    if len(row):
        n_listed = row["related_suspects"].str.split(",").str.len()
        assert (n_listed == row["num_suspects"]).all()


def test_grid_matches_bruteforce_small():
    """Java grid probe vs brute force on a tiny synthetic monument set."""
    monuments = synth_data.monuments_pdf(ref_scale=0.002, seed=99)
    tweets = synth_data.tweets_pdf(50, seed=42)
    udf = java_udfs.NearbyMonumentsJava()
    out = udf.evaluate(tweets, udf.initialize({"monuments": monuments}))
    for _, t in out.iterrows():
        d2 = (monuments["monument_lat"] - t["latitude"]) ** 2 + (
            monuments["monument_lon"] - t["longitude"]
        ) ** 2
        expected = sorted(
            monuments["monument_id"][d2 <= udfs.MONUMENT_RADIUS**2]
        )
        assert t["nearby_monuments"] == ",".join(expected)
        assert t["num_monuments"] == len(expected)
