"""Synthetic IDEA-paper workloads: the tweet stream and every reference
dataset a UDF reads (paper § 7 and appendix).

Sizes are set by ``ref_scale`` relative to the paper's cardinalities
(``PAPER_CARDINALITY``): tests use ref_scale=0.01, benchmarks 0.1 —
shapes depend on relative sizes (DESIGN.md § 3). Generators are
deterministic in ``seed`` so the DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# Paper cardinalities at ref_scale=1.0. The Persons dataset is substituted:
# 1e9 rows in the paper, 1e6 here at scale 1.
PAPER_CARDINALITY = {
    "safety_ratings": 500_000,
    "religious_populations": 500_000,
    "suspects_names": 5_000,
    "monuments": 500_000,
    "religious_buildings": 10_000,
    "facilities": 50_000,
    "sensitive_names": 1_000_000,
    "district_areas": 500,
    "average_incomes": 500,
    "persons": 1_000_000,  # substituted from 1e9 (DESIGN.md § 3)
    "attack_events": 5_000,
}

N_COUNTRIES = 500          # tweet/reference country-code domain
N_RELIGIONS = 20
FACILITY_TYPES = [
    "school", "hospital", "airport", "stadium", "mall",
    "station", "museum", "park", "port", "plant",
]
ETHNICITIES = ["eth_%02d" % i for i in range(12)]
WORLD = 180.0              # coordinates are uniform in [0, WORLD) degrees
ZIPF_ALPHA = 1.05          # skew of tweet countries over the country domain


def _countries(k: int = N_COUNTRIES) -> list:
    return ["C%05d" % i for i in range(k)]


def _religions(k: int = N_RELIGIONS) -> list:
    return ["religion_%02d" % i for i in range(k)]


def _scaled(name: str, ref_scale: float) -> int:
    return max(1, int(PAPER_CARDINALITY[name] * ref_scale))


def _names(g: np.random.Generator, n: int) -> np.ndarray:
    """Synthetic person names — short so edit-distance joins have matches."""
    syll = np.array(["an", "bo", "ci", "da", "el", "fu", "go", "hi", "jo",
                     "ka", "lu", "mi", "no", "pa", "qi", "ro", "su", "ti"])
    parts = syll[g.integers(0, len(syll), (n, 3))]
    return np.char.add(np.char.add(parts[:, 0], parts[:, 1]), parts[:, 2])


def tweets_pdf(n: int, *, seed: int = 7, start_id: int = 0) -> pd.DataFrame:
    """``n`` synthetic tweets as a pandas frame (the feed's parsed form).

    Columns mirror the paper's open TweetType plus the fields its UDFs
    touch: country (zipfian over the shared country domain), user names,
    a location in the shared coordinate world, and a creation timestamp.
    The ``text`` is padded so a serialized record is ~450 bytes (§ 7.1).
    """
    g = _rng(seed + start_id)
    countries = np.array(_countries())
    ranks = np.arange(1, len(countries) + 1)
    w = 1.0 / ranks ** ZIPF_ALPHA
    w /= w.sum()
    words = np.array(["alpha", "bravo", "delta", "echo", "light", "storm",
                      "bomb", "river", "cloud", "stone", "ember", "night"])
    text_words = words[g.integers(0, len(words), (n, 40))]
    texts = [" ".join(row) for row in text_words]
    screen = _names(g, n)
    # sprinkle special characters for removeSpecial() to strip
    deco = np.array(["", "_", ".", "@", "!"])
    screen = np.char.add(screen, deco[g.integers(0, len(deco), n)])
    return pd.DataFrame(
        {
            "id": np.arange(start_id, start_id + n, dtype="int64"),
            "text": texts,
            "country": g.choice(countries, n, p=w),
            "user_screen_name": screen,
            "user_name": _names(g, n),
            "latitude": (g.random(n) * WORLD).round(6),
            "longitude": (g.random(n) * WORLD).round(6),
            "created_at": pd.to_datetime("2019-01-01")
            + pd.to_timedelta(g.integers(0, 180 * 24 * 3600, n), unit="s"),
        }
    )


def safety_ratings_pdf(*, ref_scale: float = 0.01, seed: int = 11) -> pd.DataFrame:
    """SafetyRatings(country_code PK, safety_rating) — paper 500K × 74 B.

    Only ``N_COUNTRIES`` codes join with tweets; the rest pad cardinality
    to the paper's ref size so scan/build costs are faithful.
    """
    n = _scaled("safety_ratings", ref_scale)
    g = _rng(seed)
    codes = ["C%05d" % i for i in range(n)]
    return pd.DataFrame(
        {
            "country_code": codes,
            "safety_rating": g.choice(["A", "B", "C", "D", "E"], n),
        }
    )


def religious_populations_pdf(*, ref_scale: float = 0.01, seed: int = 12) -> pd.DataFrame:
    """ReligiousPopulations(rid PK, country_name, religion_name, population)."""
    n = _scaled("religious_populations", ref_scale)
    g = _rng(seed)
    return pd.DataFrame(
        {
            "rid": ["r%07d" % i for i in range(n)],
            "country_name": g.choice(_countries(), n),
            "religion_name": g.choice(_religions(), n),
            "population": g.integers(1_000, 10_000_000, n),
        }
    )


def suspects_names_pdf(*, ref_scale: float = 0.01, seed: int = 13) -> pd.DataFrame:
    """SuspectsNames / SensitiveNamesDataset(sensitiveName, religionName) — 5K × 150 B."""
    n = _scaled("suspects_names", ref_scale)
    g = _rng(seed)
    return pd.DataFrame(
        {
            "suspect_id": ["s%06d" % i for i in range(n)],
            "sensitive_name": _names(g, n),
            "religion_name": g.choice(_religions(), n),
        }
    )


def monuments_pdf(*, ref_scale: float = 0.01, seed: int = 14) -> pd.DataFrame:
    """MonumentList(monument_id PK, lat/lon point) — paper 500K × 94 B."""
    n = _scaled("monuments", ref_scale)
    g = _rng(seed)
    return pd.DataFrame(
        {
            "monument_id": ["m%07d" % i for i in range(n)],
            "monument_lat": (g.random(n) * WORLD).round(6),
            "monument_lon": (g.random(n) * WORLD).round(6),
        }
    )


def religious_buildings_pdf(*, ref_scale: float = 0.01, seed: int = 15) -> pd.DataFrame:
    """ReligiousBuildings(id PK, religion_name, location, registered_believer)."""
    n = _scaled("religious_buildings", ref_scale)
    g = _rng(seed)
    return pd.DataFrame(
        {
            "religious_building_id": ["b%06d" % i for i in range(n)],
            "religion_name": g.choice(_religions(), n),
            "building_lat": (g.random(n) * WORLD).round(6),
            "building_lon": (g.random(n) * WORLD).round(6),
            "registered_believer": g.integers(10, 100_000, n),
        }
    )


def facilities_pdf(*, ref_scale: float = 0.01, seed: int = 16) -> pd.DataFrame:
    """Facilities(facility_id PK, location, facility_type) — 50K × 142 B."""
    n = _scaled("facilities", ref_scale)
    g = _rng(seed)
    return pd.DataFrame(
        {
            "facility_id": ["f%06d" % i for i in range(n)],
            "facility_lat": (g.random(n) * WORLD).round(6),
            "facility_lon": (g.random(n) * WORLD).round(6),
            "facility_type": g.choice(FACILITY_TYPES, n),
        }
    )


def sensitive_names_pdf(*, ref_scale: float = 0.01, seed: int = 17) -> pd.DataFrame:
    """SensitiveNames(suspicious_name_id PK, name, religion, threat_level) — 1M × 99 B."""
    n = _scaled("sensitive_names", ref_scale)
    g = _rng(seed)
    return pd.DataFrame(
        {
            "suspicious_name_id": ["n%08d" % i for i in range(n)],
            "suspicious_name": _names(g, n),
            "religion_name": g.choice(_religions(), n),
            "threat_level": g.integers(1, 11, n),
        }
    )


def district_areas_pdf(*, ref_scale: float = 1.0, seed: int = 18) -> pd.DataFrame:
    """DistrictAreas(district_area_id PK, rectangle) — a disjoint grid tiling.

    The paper's districts partition the area a tweet can fall in; a
    ``ceil(sqrt(n))``-square grid over the coordinate world keeps the
    point-in-rectangle join ~1:1 like the paper's.
    """
    n = _scaled("district_areas", ref_scale)
    side = int(np.ceil(np.sqrt(n)))
    cell = WORLD / side
    ids, xlo, ylo = [], [], []
    for i in range(n):
        r, c = divmod(i, side)
        ids.append("d%05d" % i)
        xlo.append(c * cell)
        ylo.append(r * cell)
    return pd.DataFrame(
        {
            "district_area_id": ids,
            "x_lo": np.round(xlo, 6),
            "y_lo": np.round(ylo, 6),
            "x_hi": np.round(np.array(xlo) + cell, 6),
            "y_hi": np.round(np.array(ylo) + cell, 6),
        }
    )


def average_incomes_pdf(*, ref_scale: float = 1.0, seed: int = 19) -> pd.DataFrame:
    """AverageIncomes(district_area_id PK, average_income) — one per district."""
    d = district_areas_pdf(ref_scale=ref_scale)
    g = _rng(seed)
    return pd.DataFrame(
        {
            "district_area_id": d["district_area_id"],
            "average_income": (g.random(len(d)) * 90_000 + 10_000).round(2),
        }
    )


def persons_pdf(*, ref_scale: float = 0.01, seed: int = 20) -> pd.DataFrame:
    """Persons/Residents(person_id PK, ethnicity, location) — substituted scale."""
    n = _scaled("persons", ref_scale)
    g = _rng(seed)
    return pd.DataFrame(
        {
            "person_id": ["p%09d" % i for i in range(n)],
            "ethnicity": g.choice(ETHNICITIES, n),
            "person_lat": (g.random(n) * WORLD).round(6),
            "person_lon": (g.random(n) * WORLD).round(6),
        }
    )


def attack_events_pdf(*, ref_scale: float = 0.01, seed: int = 21) -> pd.DataFrame:
    """AttackEvents(attack_record_id PK, datetime, location, related_religion)."""
    n = _scaled("attack_events", ref_scale)
    g = _rng(seed)
    return pd.DataFrame(
        {
            "attack_record_id": ["a%06d" % i for i in range(n)],
            "attack_datetime": pd.to_datetime("2018-10-01")
            + pd.to_timedelta(g.integers(0, 270 * 24 * 3600, n), unit="s"),
            "attack_lat": (g.random(n) * WORLD).round(6),
            "attack_lon": (g.random(n) * WORLD).round(6),
            "related_religion": g.choice(_religions(), n),
        }
    )


# name -> (generator, primary key) for every reference dataset a UDF uses
REFERENCE_GENERATORS = {
    "safety_ratings": (safety_ratings_pdf, "country_code"),
    "religious_populations": (religious_populations_pdf, "rid"),
    "suspects_names": (suspects_names_pdf, "suspect_id"),
    "monuments": (monuments_pdf, "monument_id"),
    "religious_buildings": (religious_buildings_pdf, "religious_building_id"),
    "facilities": (facilities_pdf, "facility_id"),
    "sensitive_names": (sensitive_names_pdf, "suspicious_name_id"),
    "district_areas": (district_areas_pdf, "district_area_id"),
    "average_incomes": (average_incomes_pdf, "district_area_id"),
    "persons": (persons_pdf, "person_id"),
    "attack_events": (attack_events_pdf, "attack_record_id"),
}

#: Reference scale of the T-tables and of the calibration: 1/10 of paper
#: cardinality (DESIGN.md § 3).
BENCH_REF_SCALE = 0.1
#: districts at bench scale: 50 (paper 500) — keeps person-in-district
#: joins ~1:1 while persons run at 100K (paper substitution: 1e9 → 1e6·0.1)
BENCH_DISTRICT_REF_SCALE = 0.1
#: Reference scale of the ``--quick`` tables.
QUICK_REF_SCALE = 0.02


def make_ref_pdfs(names, ref_scale: float, district_scale: float | None = None
                  ) -> dict:
    """Reference frames for the named datasets at ``ref_scale``.

    District-backed datasets keep the paper's absolute cardinality
    (500 districts at scale 1.0) relative to ``district_scale``.
    """
    if district_scale is None:
        district_scale = ref_scale * 10  # districts are 500 at paper scale
    out = {}
    for name in names:
        gen, _key = REFERENCE_GENERATORS[name]
        scale = (
            district_scale
            if name in ("district_areas", "average_incomes")
            else ref_scale
        )
        out[name] = gen(ref_scale=scale)
    return out
