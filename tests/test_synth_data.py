"""Synthetic data generators: schemas, determinism, scaling, domains."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data as sd

REF_NAMES = sorted(sd.REFERENCE_GENERATORS)


# -- tweets -------------------------------------------------------------------

def test_tweets_schema():
    t = sd.tweets_pdf(10)
    assert list(t.columns) == [
        "id", "text", "country", "user_screen_name", "user_name",
        "latitude", "longitude", "created_at",
    ]


def test_tweets_ids_sequential_with_start():
    t = sd.tweets_pdf(5, start_id=100)
    assert list(t["id"]) == [100, 101, 102, 103, 104]


def test_tweets_deterministic():
    pd.testing.assert_frame_equal(sd.tweets_pdf(50, seed=1), sd.tweets_pdf(50, seed=1))


def test_tweets_seed_changes_content():
    a, b = sd.tweets_pdf(50, seed=1), sd.tweets_pdf(50, seed=2)
    assert not a["text"].equals(b["text"])


def test_tweets_country_in_domain():
    t = sd.tweets_pdf(300)
    assert set(t["country"]) <= set("C%05d" % i for i in range(sd.N_COUNTRIES))


def test_tweets_country_is_skewed():
    t = sd.tweets_pdf(3000)
    counts = t["country"].value_counts()
    # zipfian: the most common country far exceeds the mean
    assert counts.iloc[0] > 3 * counts.mean()


def test_tweets_coordinates_in_world():
    t = sd.tweets_pdf(200)
    assert t["latitude"].between(0, sd.WORLD).all()
    assert t["longitude"].between(0, sd.WORLD).all()


# -- reference datasets -------------------------------------------------------

@pytest.mark.parametrize("name", REF_NAMES)
def test_reference_generator_keys_unique(name):
    gen, key = sd.REFERENCE_GENERATORS[name]
    pdf = gen(ref_scale=0.01)
    assert key in pdf.columns
    assert not pdf[key].duplicated().any()


@pytest.mark.parametrize("name", REF_NAMES)
def test_reference_generator_deterministic(name):
    gen, _ = sd.REFERENCE_GENERATORS[name]
    pd.testing.assert_frame_equal(gen(ref_scale=0.01), gen(ref_scale=0.01))


@pytest.mark.parametrize(
    "name",
    [n for n in REF_NAMES if n not in ("district_areas", "average_incomes")],
)
def test_reference_generator_scales_linearly(name):
    gen, _ = sd.REFERENCE_GENERATORS[name]
    assert len(gen(ref_scale=0.02)) == 2 * len(gen(ref_scale=0.01))


@pytest.mark.parametrize("name", REF_NAMES)
def test_reference_paper_cardinality_registered(name):
    paper_name = name
    assert paper_name in sd.PAPER_CARDINALITY
    gen, _ = sd.REFERENCE_GENERATORS[name]
    # at scale 1.0 the generator would produce the registered cardinality
    assert len(gen(ref_scale=0.001)) == max(
        1, int(sd.PAPER_CARDINALITY[name] * 0.001)
    )


def test_districts_tile_the_world_disjointly():
    d = sd.district_areas_pdf(ref_scale=0.05)  # 25 districts, 5x5 grid
    # every random point falls in exactly one district
    g = np.random.default_rng(0)
    pts = g.random((200, 2)) * sd.WORLD
    for lat, lon in pts:
        hits = d[
            (lon >= d["x_lo"]) & (lon < d["x_hi"])
            & (lat >= d["y_lo"]) & (lat < d["y_hi"])
        ]
        assert len(hits) == 1


def test_average_incomes_align_with_districts():
    d = sd.district_areas_pdf(ref_scale=0.05)
    i = sd.average_incomes_pdf(ref_scale=0.05)
    assert set(i["district_area_id"]) == set(d["district_area_id"])


def test_safety_ratings_cover_tweet_domain():
    r = sd.safety_ratings_pdf(ref_scale=0.01)
    assert len(r) >= sd.N_COUNTRIES  # tweets always find their country


def test_persons_substitution_size():
    """DESIGN.md § 3: Persons is 1e6 at scale 1 (paper used 1e9)."""
    assert sd.PAPER_CARDINALITY["persons"] == 1_000_000


def test_suspects_names_short_names():
    s = sd.suspects_names_pdf(ref_scale=0.01)
    assert s["sensitive_name"].str.len().between(4, 10).all()


def test_attack_events_datetime_typed():
    a = sd.attack_events_pdf(ref_scale=0.01)
    assert pd.api.types.is_datetime64_any_dtype(a["attack_datetime"])


def test_spark_roundtrip_all_reference_sets(spark, ref_pdfs):
    for name, pdf in ref_pdfs.items():
        sdf = spark.createDataFrame(pdf)
        assert sdf.count() == len(pdf), name
