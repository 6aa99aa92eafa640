"""The paper's enrichment UDFs as declarative DataFrame transforms.

Each entry mirrors one SQL++ UDF from the paper's appendix (Q1–Q8) plus
the naive (index-free) Nearby Monuments variant used in Fig 31. A UDF is
a :class:`EnrichmentUdf` with:

* ``transform(spark, batch, refs)`` — the SQL++ plan as a Catalyst
  DataFrame program: ``batch`` is the parsed tweet batch (Spark frame),
  ``refs`` maps reference-dataset name to its *current snapshot* (how
  fresh that snapshot is — once per feed vs once per batch — is exactly
  the static/dynamic distinction the paper studies, and is decided by
  the caller, not here);
* ``oracle_sql`` — an independent DuckDB formulation of the same
  enrichment over tables named ``tweets`` + the reference names, used by
  ``repro.oracle.assert_equivalent``.

Output convention: every transform returns the full tweet batch
(``SELECT t.*``) plus the enrichment columns; list-valued enrichments
are serialized as deterministically ordered csv strings so results are
orderable (the oracle cannot compare arrays). Deviations from the
appendix SQL, and why, are flagged ``# NOTE`` inline.
"""
import re
from dataclasses import dataclass
from typing import Callable

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import StringType
from pyspark.sql.window import Window

from repro.spatial.geometry import euclidean_distance, point_in_circle, \
    point_in_rectangle, sql_distance
from repro.spatial.grid_index import GridIndex, naive_spatial_join

MONUMENT_RADIUS = 1.5     # degrees (Q5)
NEARBY_RADIUS = 3.0       # degrees (Q6, Q8)
EDIT_DISTANCE_MAX = 5     # exclusive bound (Q4)
# NOTE: the appendix uses duration("P2M") (2 calendar months); engines
# disagree on month arithmetic, so both sides use a fixed 60 days.
ATTACK_WINDOW_DAYS = 60
#: Grid index on monument locations — the R-Tree of § 7.2 (DESIGN.md § 2).
MONUMENT_INDEX = GridIndex(cell_size=MONUMENT_RADIUS)


@dataclass(frozen=True)
class EnrichmentUdf:
    """One attachable enrichment function (paper § 3.2/§ 7)."""

    name: str
    refs: tuple                      # reference dataset names it reads
    transform: Callable              # (spark, batch_df, refs) -> DataFrame
    oracle_sql: str                  # DuckDB equivalent over the same tables
    enrich_cols: tuple               # columns the transform adds
    uses_index: bool = False


def _attach(batch: DataFrame, per_id: DataFrame, fills: dict) -> DataFrame:
    """``SELECT t.*, enrichment`` — join per-id enrichment back onto the
    batch, defaulting unmatched tweets per ``fills``. ``per_id`` has at
    most one row per batch id, so it is the broadcast build side."""
    out = batch.join(F.broadcast(per_id), on="id", how="left")
    return out.fillna(fills)


def _lookup(batch: DataFrame, per_key: DataFrame, key: str,
            fills: dict) -> DataFrame:
    """``SELECT t.*, enrichment`` for an enrichment that depends only on
    the tweet's country: one left join of the batch against the per-key
    table ``per_key`` (keyed by ``key``), defaulting unmatched tweets per
    ``fills``. The per-key table is built from the reference snapshot on
    every invocation and broadcast — the hash-join build phase over the
    reference side that the paper's stateful UDF runs per computing job."""
    out = batch.join(F.broadcast(per_key), batch["country"] == per_key[key],
                     "left").drop(key)
    return out.fillna(fills)


def _kind_counts(rows: DataFrame, group: str, kind: str,
                 alias: str) -> DataFrame:
    """Per ``group``: how many ``rows`` fall in each ``kind``, as one
    ``kind:cnt`` string sorted and joined by ``;`` (column ``alias``)."""
    return (
        rows.groupBy(group, kind)
        .agg(F.count(F.lit(1)).alias("cnt"))
        .groupBy(group)
        .agg(
            F.array_join(
                F.array_sort(
                    F.collect_list(F.concat_ws(":", F.col(kind), F.col("cnt")))
                ),
                ";",
            ).alias(alias)
        )
    )


# -- Q1 Safety Rating (hash join) --------------------------------------------

def _q1(spark: SparkSession, batch: DataFrame, refs: dict) -> DataFrame:
    s = refs["safety_ratings"].select("country_code", "safety_rating")
    return _lookup(batch, s, "country_code", {"safety_rating": ""})


_Q1_SQL = """
SELECT t.id AS id, coalesce(s.safety_rating, '') AS safety_rating
FROM tweets t LEFT JOIN safety_ratings s ON t.country = s.country_code
"""


# -- Q2 Religious Population (join + group-by sum) ----------------------------

def _q2(spark: SparkSession, batch: DataFrame, refs: dict) -> DataFrame:
    r = refs["religious_populations"]
    totals = r.groupBy("country_name").agg(
        F.sum("population").alias("religious_population")
    )
    return _lookup(batch, totals, "country_name", {"religious_population": 0})


_Q2_SQL = """
SELECT t.id AS id, coalesce(g.religious_population, 0) AS religious_population
FROM tweets t LEFT JOIN (
  SELECT country_name, sum(population) AS religious_population
  FROM religious_populations GROUP BY country_name
) g ON t.country = g.country_name
"""


# -- Q3 Largest Religions (order-by/limit per group) --------------------------
# NOTE: the appendix orders by population ascending (SQL++ default) while
# the prose says "3 largest religions"; we order DESC to match intent,
# breaking ties by rid so both engines rank identically.

def _q3(spark: SparkSession, batch: DataFrame, refs: dict) -> DataFrame:
    r = refs["religious_populations"]
    w = Window.partitionBy("country_name").orderBy(
        F.col("population").desc(), F.col("rid")
    )
    top3 = (
        r.withColumn("rk", F.row_number().over(w))
        .where(F.col("rk") <= 3)
        .groupBy("country_name")
        .agg(
            F.array_join(
                F.transform(
                    F.array_sort(F.collect_list(F.struct("rk", "religion_name"))),
                    lambda x: x["religion_name"],
                ),
                ",",
            ).alias("largest_religions")
        )
    )
    return _lookup(batch, top3, "country_name", {"largest_religions": ""})


_Q3_SQL = """
SELECT t.id AS id, coalesce(g.largest_religions, '') AS largest_religions
FROM tweets t LEFT JOIN (
  SELECT country_name, string_agg(religion_name, ',' ORDER BY rk) AS largest_religions
  FROM (
    SELECT country_name, religion_name,
           row_number() OVER (PARTITION BY country_name
                              ORDER BY population DESC, rid) AS rk
    FROM religious_populations
  ) WHERE rk <= 3 GROUP BY country_name
) g ON t.country = g.country_name
"""


# -- Q4 Fuzzy Suspects (Java string UDF + similarity join) --------------------

_REMOVE_SPECIAL = re.compile(r"[^a-zA-Z0-9]")


def remove_special(s: str) -> str:
    """The paper's ``testlib#removeSpecial`` Java UDF."""
    return _REMOVE_SPECIAL.sub("", s) if s is not None else None


# Registered as a real Python UDF so the paper's observed "extra data
# serialization/deserialization cost" of calling an external-language
# UDF from SQL++ (§ 7.2) is on the measured path.
_remove_special_udf = F.udf(lambda s: remove_special(s), StringType())


def _q4(spark: SparkSession, batch: DataFrame, refs: dict) -> DataFrame:
    s = refs["suspects_names"].coalesce(8)
    # Bound the cartesian partitioning: Spark's cross join yields
    # |left parts| × |right parts| tasks, and a 420-row batch against a
    # small reference set would otherwise drown in task scheduling.
    probe = batch.select(
        "id", _remove_special_udf(F.col("user_screen_name")).alias("clean_name")
    ).repartition(8)
    matches = probe.crossJoin(s).where(
        F.levenshtein(F.col("clean_name"), F.col("sensitive_name"))
        < EDIT_DISTANCE_MAX
    )
    per_id = matches.groupBy("id").agg(
        F.array_join(
            F.array_sort(F.collect_list(F.col("sensitive_name"))), ","
        ).alias("related_suspects"),
        F.count(F.lit(1)).alias("num_suspects"),
    )
    return _attach(batch, per_id, {"related_suspects": "", "num_suspects": 0})


_Q4_SQL = f"""
SELECT t.id AS id,
       coalesce(g.related_suspects, '') AS related_suspects,
       coalesce(g.num_suspects, 0) AS num_suspects
FROM tweets t LEFT JOIN (
  SELECT t2.id AS id,
         string_agg(s.sensitive_name, ',' ORDER BY s.sensitive_name)
           AS related_suspects,
         count(*) AS num_suspects
  FROM tweets t2, suspects_names s
  WHERE levenshtein(regexp_replace(t2.user_screen_name, '[^a-zA-Z0-9]', '', 'g'),
                    s.sensitive_name) < {EDIT_DISTANCE_MAX}
  GROUP BY t2.id
) g ON t.id = g.id
"""


# -- Q5 Nearby Monuments (index nested-loop spatial join) ---------------------

def _monument_agg(matches: DataFrame) -> DataFrame:
    return matches.groupBy("id").agg(
        F.array_join(F.array_sort(F.collect_list("monument_id")), ",").alias(
            "nearby_monuments"
        ),
        F.count(F.lit(1)).alias("num_monuments"),
    )


def _q5(spark: SparkSession, batch: DataFrame, refs: dict) -> DataFrame:
    m = MONUMENT_INDEX.index_points(refs["monuments"], "monument_lat", "monument_lon")
    matches = MONUMENT_INDEX.index_join(
        batch.select("id", "latitude", "longitude"), "latitude", "longitude",
        m, "monument_lat", "monument_lon", MONUMENT_RADIUS,
    )
    return _attach(batch, _monument_agg(matches),
                   {"nearby_monuments": "", "num_monuments": 0})


def _q5_naive(spark: SparkSession, batch: DataFrame, refs: dict) -> DataFrame:
    matches = naive_spatial_join(
        batch.select("id", "latitude", "longitude"), "latitude", "longitude",
        refs["monuments"], "monument_lat", "monument_lon", MONUMENT_RADIUS,
    )
    return _attach(batch, _monument_agg(matches),
                   {"nearby_monuments": "", "num_monuments": 0})


_Q5_SQL = f"""
SELECT t.id AS id,
       coalesce(g.nearby_monuments, '') AS nearby_monuments,
       coalesce(g.num_monuments, 0) AS num_monuments
FROM tweets t LEFT JOIN (
  SELECT t2.id AS id,
         string_agg(m.monument_id, ',' ORDER BY m.monument_id) AS nearby_monuments,
         count(*) AS num_monuments
  FROM tweets t2, monuments m
  WHERE {sql_distance('t2.latitude', 't2.longitude', 'm.monument_lat', 'm.monument_lon')} <= {MONUMENT_RADIUS}
  GROUP BY t2.id
) g ON t.id = g.id
"""


# -- Q6 Suspicious Names (spatial group-by + top-k + equi-join) ---------------

def _q6(spark: SparkSession, batch: DataFrame, refs: dict) -> DataFrame:
    probe = batch.select("id", "latitude", "longitude", "user_name")
    fac = refs["facilities"]
    fac_matches = naive_spatial_join(
        probe.select("id", "latitude", "longitude"), "latitude", "longitude",
        fac, "facility_lat", "facility_lon", NEARBY_RADIUS,
    )
    fac_per_id = _kind_counts(
        fac_matches, "id", "facility_type", "nearby_facilities"
    )

    rb = refs["religious_buildings"]
    rb_matches = naive_spatial_join(
        probe.select("id", "latitude", "longitude"), "latitude", "longitude",
        rb, "building_lat", "building_lon", NEARBY_RADIUS,
    ).withColumn(
        "dist",
        euclidean_distance(
            F.col("latitude"), F.col("longitude"),
            F.col("building_lat"), F.col("building_lon"),
        ),
    )
    w = Window.partitionBy("id").orderBy(
        F.col("dist"), F.col("religious_building_id")
    )
    rb_per_id = (
        rb_matches.withColumn("rk", F.row_number().over(w))
        .where(F.col("rk") <= 3)
        .groupBy("id")
        .agg(
            F.array_join(
                F.transform(
                    F.array_sort(
                        F.collect_list(F.struct("rk", "religious_building_id"))
                    ),
                    lambda x: x["religious_building_id"],
                ),
                ",",
            ).alias("nearby_religious_buildings")
        )
    )

    sn = refs["sensitive_names"]
    sn_per_id = (
        probe.select("id", "user_name")
        .join(sn, F.col("user_name") == F.col("suspicious_name"), "inner")
        .groupBy("id")
        .agg(
            F.array_join(
                F.array_sort(F.collect_list("suspicious_name_id")), ","
            ).alias("suspicious_users_info")
        )
    )

    per_id = (
        batch.select("id")
        .join(fac_per_id, "id", "left")
        .join(rb_per_id, "id", "left")
        .join(sn_per_id, "id", "left")
    )
    return _attach(
        batch, per_id,
        {"nearby_facilities": "", "nearby_religious_buildings": "",
         "suspicious_users_info": ""},
    )


_Q6_SQL = f"""
SELECT t.id AS id,
       coalesce(f.nearby_facilities, '') AS nearby_facilities,
       coalesce(b.nearby_religious_buildings, '') AS nearby_religious_buildings,
       coalesce(s.suspicious_users_info, '') AS suspicious_users_info
FROM tweets t
LEFT JOIN (
  SELECT id, string_agg(kv, ';' ORDER BY kv) AS nearby_facilities
  FROM (
    SELECT t2.id AS id, f2.facility_type || ':' || count(*) AS kv
    FROM tweets t2, facilities f2
    WHERE {sql_distance('t2.latitude', 't2.longitude', 'f2.facility_lat', 'f2.facility_lon')} <= {NEARBY_RADIUS}
    GROUP BY t2.id, f2.facility_type
  ) GROUP BY id
) f ON t.id = f.id
LEFT JOIN (
  SELECT id, string_agg(religious_building_id, ',' ORDER BY rk)
           AS nearby_religious_buildings
  FROM (
    SELECT t3.id AS id, r.religious_building_id,
           row_number() OVER (
             PARTITION BY t3.id
             ORDER BY {sql_distance('t3.latitude', 't3.longitude', 'r.building_lat', 'r.building_lon')},
                      r.religious_building_id) AS rk
    FROM tweets t3, religious_buildings r
    WHERE {sql_distance('t3.latitude', 't3.longitude', 'r.building_lat', 'r.building_lon')} <= {NEARBY_RADIUS}
  ) WHERE rk <= 3 GROUP BY id
) b ON t.id = b.id
LEFT JOIN (
  SELECT t4.id AS id,
         string_agg(n.suspicious_name_id, ',' ORDER BY n.suspicious_name_id)
           AS suspicious_users_info
  FROM tweets t4, sensitive_names n
  WHERE t4.user_name = n.suspicious_name
  GROUP BY t4.id
) s ON t.id = s.id
"""


# -- Q7 Tweet Context (ref-ref spatial joins, then point-in-district) ---------

def _q7(spark: SparkSession, batch: DataFrame, refs: dict) -> DataFrame:
    d = refs["district_areas"]
    inc = refs["average_incomes"]
    fac = refs["facilities"]
    per = refs["persons"]

    # Expensive reference-reference joins, recomputed per invocation —
    # this is what makes Tweet Context the paper's costliest UDF and the
    # one that gains most from batching (§ 7.4.2).
    fac_by_district = _kind_counts(
        fac.crossJoin(d).where(
            point_in_rectangle(
                F.col("facility_lat"), F.col("facility_lon"),
                F.col("x_lo"), F.col("y_lo"), F.col("x_hi"), F.col("y_hi"),
            )
        ),
        "district_area_id", "facility_type", "area_facilities",
    )
    eth_by_district = _kind_counts(
        per.crossJoin(d).where(
            point_in_rectangle(
                F.col("person_lat"), F.col("person_lon"),
                F.col("x_lo"), F.col("y_lo"), F.col("x_hi"), F.col("y_hi"),
            )
        ),
        "district_area_id", "ethnicity", "ethnicity_dist",
    )
    district_info = (
        d.join(inc, "district_area_id", "left")
        .join(fac_by_district, "district_area_id", "left")
        .join(eth_by_district, "district_area_id", "left")
    )
    per_id = (
        batch.select("id", "latitude", "longitude")
        .crossJoin(district_info)
        .where(
            point_in_rectangle(
                F.col("latitude"), F.col("longitude"),
                F.col("x_lo"), F.col("y_lo"), F.col("x_hi"), F.col("y_hi"),
            )
        )
        .select("id", "average_income", "area_facilities", "ethnicity_dist")
    )
    return _attach(
        batch, per_id,
        {"average_income": 0.0, "area_facilities": "", "ethnicity_dist": ""},
    )


_Q7_IN_DISTRICT = ("{lon} >= d.x_lo AND {lon} < d.x_hi "
                   "AND {lat} >= d.y_lo AND {lat} < d.y_hi")

_Q7_SQL = f"""
SELECT t.id AS id,
       coalesce(j.average_income, 0.0) AS average_income,
       coalesce(j.area_facilities, '') AS area_facilities,
       coalesce(j.ethnicity_dist, '') AS ethnicity_dist
FROM tweets t
LEFT JOIN (
  SELECT t2.id AS id, i.average_income, f.area_facilities, e.ethnicity_dist
  FROM tweets t2
  JOIN district_areas d
    ON {_Q7_IN_DISTRICT.format(lat='t2.latitude', lon='t2.longitude')}
  LEFT JOIN average_incomes i ON i.district_area_id = d.district_area_id
  LEFT JOIN (
    SELECT district_area_id, string_agg(kv, ';' ORDER BY kv) AS area_facilities
    FROM (
      SELECT d.district_area_id, f2.facility_type || ':' || count(*) AS kv
      FROM facilities f2 JOIN district_areas d
        ON {_Q7_IN_DISTRICT.format(lat='f2.facility_lat', lon='f2.facility_lon')}
      GROUP BY d.district_area_id, f2.facility_type
    ) GROUP BY district_area_id
  ) f ON f.district_area_id = d.district_area_id
  LEFT JOIN (
    SELECT district_area_id, string_agg(kv, ';' ORDER BY kv) AS ethnicity_dist
    FROM (
      SELECT d.district_area_id, p.ethnicity || ':' || count(*) AS kv
      FROM persons p JOIN district_areas d
        ON {_Q7_IN_DISTRICT.format(lat='p.person_lat', lon='p.person_lon')}
      GROUP BY d.district_area_id, p.ethnicity
    ) GROUP BY district_area_id
  ) e ON e.district_area_id = d.district_area_id
) j ON t.id = j.id
"""


# -- Q8 Worrisome Tweets (spatial join × temporal join) -----------------------

def _q8(spark: SparkSession, batch: DataFrame, refs: dict) -> DataFrame:
    rb = refs["religious_buildings"]
    at = refs["attack_events"]
    probe = batch.select("id", "latitude", "longitude", "created_at")
    religions = (
        naive_spatial_join(
            probe.select("id", "latitude", "longitude"), "latitude", "longitude",
            rb, "building_lat", "building_lon", NEARBY_RADIUS,
        )
        .select("id", "religion_name")
        .distinct()
    )
    in_window = (
        religions.join(probe.select("id", "created_at"), "id")
        .join(at, religions["religion_name"] == at["related_religion"], "inner")
        .where(
            (F.col("created_at") > F.col("attack_datetime"))
            & (
                F.col("created_at")
                < F.col("attack_datetime")
                + F.expr(f"INTERVAL {ATTACK_WINDOW_DAYS} DAYS")
            )
        )
    )
    attacks = _kind_counts(
        in_window, "id", "religion_name", "nearby_religious_attacks"
    )
    return _attach(batch, attacks, {"nearby_religious_attacks": ""})


_Q8_SQL = f"""
SELECT t.id AS id,
       coalesce(g.nearby_religious_attacks, '') AS nearby_religious_attacks
FROM tweets t LEFT JOIN (
  SELECT id, string_agg(kv, ';' ORDER BY kv) AS nearby_religious_attacks
  FROM (
    SELECT r.id AS id, r.religion_name || ':' || count(*) AS kv
    FROM (
      SELECT DISTINCT t2.id AS id, t2.created_at AS created_at,
                      b.religion_name AS religion_name
      FROM tweets t2, religious_buildings b
      WHERE {sql_distance('t2.latitude', 't2.longitude', 'b.building_lat', 'b.building_lon')} <= {NEARBY_RADIUS}
    ) r JOIN attack_events a ON r.religion_name = a.related_religion
    WHERE r.created_at > a.attack_datetime
      AND r.created_at < a.attack_datetime + INTERVAL {ATTACK_WINDOW_DAYS} DAY
    GROUP BY r.id, r.religion_name
  ) GROUP BY id
) g ON t.id = g.id
"""


# -- Registry -----------------------------------------------------------------

SAFETY_RATING = EnrichmentUdf(
    "safety_rating", ("safety_ratings",), _q1, _Q1_SQL, ("safety_rating",)
)
RELIGIOUS_POPULATION = EnrichmentUdf(
    "religious_population", ("religious_populations",), _q2, _Q2_SQL,
    ("religious_population",),
)
LARGEST_RELIGIONS = EnrichmentUdf(
    "largest_religions", ("religious_populations",), _q3, _Q3_SQL,
    ("largest_religions",),
)
FUZZY_SUSPECTS = EnrichmentUdf(
    "fuzzy_suspects", ("suspects_names",), _q4, _Q4_SQL,
    ("related_suspects", "num_suspects"),
)
NEARBY_MONUMENTS = EnrichmentUdf(
    "nearby_monuments", ("monuments",), _q5, _Q5_SQL,
    ("nearby_monuments", "num_monuments"), uses_index=True,
)
NAIVE_NEARBY_MONUMENTS = EnrichmentUdf(
    "naive_nearby_monuments", ("monuments",), _q5_naive, _Q5_SQL,
    ("nearby_monuments", "num_monuments"),
)
SUSPICIOUS_NAMES = EnrichmentUdf(
    "suspicious_names",
    ("facilities", "religious_buildings", "sensitive_names"), _q6, _Q6_SQL,
    ("nearby_facilities", "nearby_religious_buildings", "suspicious_users_info"),
)
TWEET_CONTEXT = EnrichmentUdf(
    "tweet_context",
    ("district_areas", "average_incomes", "facilities", "persons"), _q7,
    _Q7_SQL, ("average_income", "area_facilities", "ethnicity_dist"),
)
WORRISOME_TWEETS = EnrichmentUdf(
    "worrisome_tweets", ("religious_buildings", "attack_events"), _q8, _Q8_SQL,
    ("nearby_religious_attacks",),
)

#: Fig 25/26/27 use cases (Q1–Q5).
BASIC_UDFS = (
    SAFETY_RATING, RELIGIOUS_POPULATION, LARGEST_RELIGIONS, FUZZY_SUSPECTS,
    NEARBY_MONUMENTS,
)
#: Fig 29 use cases (Q5–Q8).
COMPLEX_UDFS = (SUSPICIOUS_NAMES, TWEET_CONTEXT, WORRISOME_TWEETS)
#: All paper UDFs (the § 7.4.2 sweep — stated as "seven", lists eight).
ALL_UDFS = BASIC_UDFS + COMPLEX_UDFS
BY_NAME = {u.name: u for u in ALL_UDFS + (NAIVE_NEARBY_MONUMENTS,)}
