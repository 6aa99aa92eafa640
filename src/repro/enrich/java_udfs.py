"""Java-UDF analogues for the five basic use cases (paper § 3.2, § 7.2).

An AsterixDB Java UDF loads its reference data from local resource files
in ``initialize()`` and then enriches record-by-record in ``evaluate()``
using that frozen in-memory state. The analogues here are procedural
pandas/numpy enrichers with the same life-cycle, but stateless:
``initialize(resources)`` returns the state, ``evaluate(batch, state)``
a new enriched frame, and the computing job (``repro.core.predeploy``)
holds the state:

* **Static Enrichment w/ Java** (stock AsterixDB): the job calls
  ``initialize()`` once per feed and keeps the result — reference
  updates are never observed;
* **Dynamic Enrichment w/ Java** (new framework): each invocation calls
  ``initialize()`` on a fresh store snapshot, so the state-rebuild cost
  is paid per invocation, exactly the trade-off the paper measures.

Each Java UDF produces the same output columns as its SQL++ twin in
``repro.enrich.udfs`` so parity is oracle-checkable.

Q1–Q3's state is a pandas ``Series`` indexed by the join key:
``evaluate`` maps the batch through it, and the index hashes the whole
reference in compiled code at that first lookup. The map is still
rebuilt at every ``initialize``; only a Python ``dict`` loop is avoided.

Substitution note (DESIGN.md § 7): the Fuzzy Suspects Java UDF delegates
its edit-distance kernel to DuckDB's vectorized ``levenshtein`` — a
compiled-code stand-in for the paper's compiled Java kernel; a pure-
Python DP loop would mis-weight this UDF's cost by ~100×.
"""
import duckdb
import numpy as np
import pandas as pd

from repro.enrich.udfs import (
    EDIT_DISTANCE_MAX, MONUMENT_RADIUS, remove_special,
)


class JavaUdf:
    """Life-cycle base: ``state = initialize(resources)``, then
    ``evaluate(batch, state)``; the object itself holds no state."""

    name: str = ""
    refs: tuple = ()
    enrich_cols: tuple = ()

    def initialize(self, resources: dict):
        """The state built from resource frames (name -> pandas)."""
        raise NotImplementedError

    def evaluate(self, batch: pd.DataFrame, state) -> pd.DataFrame:
        """A new frame: ``batch``'s rows with ``enrich_cols`` added."""
        raise NotImplementedError


class _CountryMapJava(JavaUdf):
    """Q1–Q3: the state is a ``Series`` from country to the enrichment
    value; a country it lacks gets ``missing``."""

    missing = ""
    dtype = object

    def evaluate(self, batch: pd.DataFrame, state: pd.Series) -> pd.DataFrame:
        values = batch["country"].map(state).fillna(self.missing)
        return batch.assign(
            **{self.enrich_cols[0]: values.astype(self.dtype, copy=False)})


class SafetyRatingJava(_CountryMapJava):
    """Q1: country -> safety rating via an in-memory hash map."""

    name = "safety_rating"
    refs = ("safety_ratings",)
    enrich_cols = ("safety_rating",)

    def initialize(self, resources: dict) -> pd.Series:
        r = resources["safety_ratings"]
        return pd.Series(r["safety_rating"].to_numpy(),
                         index=r["country_code"].to_numpy())


class ReligiousPopulationJava(_CountryMapJava):
    """Q2: country -> total religious population, pre-aggregated at init."""

    name = "religious_population"
    refs = ("religious_populations",)
    enrich_cols = ("religious_population",)
    missing = 0
    dtype = "int64"

    def initialize(self, resources: dict) -> pd.Series:
        r = resources["religious_populations"]
        return r.groupby("country_name")["population"].sum()


class LargestReligionsJava(_CountryMapJava):
    """Q3: country -> csv of top-3 religions, ranked at init."""

    name = "largest_religions"
    refs = ("religious_populations",)
    enrich_cols = ("largest_religions",)

    def initialize(self, resources: dict) -> pd.Series:
        r = resources["religious_populations"].sort_values(
            ["country_name", "population", "rid"],
            ascending=[True, False, True],
        )
        top3 = r.groupby("country_name").head(3)
        return top3.groupby("country_name")["religion_name"].apply(",".join)


class FuzzySuspectsJava(JavaUdf):
    """Q4: removeSpecial + edit-distance similarity join against suspects."""

    name = "fuzzy_suspects"
    refs = ("suspects_names",)
    enrich_cols = ("related_suspects", "num_suspects")

    def initialize(self, resources: dict) -> pd.DataFrame:
        return resources["suspects_names"][["sensitive_name"]]

    def evaluate(self, batch: pd.DataFrame,
                 state: pd.DataFrame) -> pd.DataFrame:
        probe = pd.DataFrame(
            {
                "id": batch["id"],
                "clean": [remove_special(s) for s in batch["user_screen_name"]],
            }
        )
        con = duckdb.connect()
        try:
            con.register("probe", probe)
            con.register("suspects", state)
            agg = con.execute(
                f"""
                SELECT p.id AS id,
                       string_agg(s.sensitive_name, ','
                                  ORDER BY s.sensitive_name) AS related_suspects,
                       count(*) AS num_suspects
                FROM probe p, suspects s
                WHERE levenshtein(p.clean, s.sensitive_name) < {EDIT_DISTANCE_MAX}
                GROUP BY p.id
                """
            ).fetchdf()
        finally:
            con.close()
        out = batch.merge(agg, on="id", how="left")
        out["related_suspects"] = out["related_suspects"].fillna("")
        out["num_suspects"] = out["num_suspects"].fillna(0).astype("int64")
        return out


class NearbyMonumentsJava(JavaUdf):
    """Q5: linear scan of the in-memory monument list per tweet.

    The paper's Java UDF loads the monument list from a resource file
    and has *no* spatial index — only the SQL++ version can use the
    dataset's R-Tree, which is why SQL++ outperforms Java in § 7.2.
    Mirrored here as a vectorized full scan over the monument arrays
    (compiled-kernel equivalent of a Java loop).
    """

    name = "nearby_monuments"
    refs = ("monuments",)
    enrich_cols = ("nearby_monuments", "num_monuments")

    def initialize(self, resources: dict) -> tuple:
        m = resources["monuments"]
        return tuple(m[c].to_numpy()
                     for c in ("monument_id", "monument_lat", "monument_lon"))

    def evaluate(self, batch: pd.DataFrame, state: tuple) -> pd.DataFrame:
        ids, lats, lons = state
        names, counts = [], []
        r2 = MONUMENT_RADIUS**2
        for lat, lon in zip(batch["latitude"], batch["longitude"]):
            d2 = (lats - lat) ** 2 + (lons - lon) ** 2
            hits = np.sort(ids[d2 <= r2])
            names.append(",".join(hits))
            counts.append(len(hits))
        return batch.assign(nearby_monuments=names,
                            num_monuments=np.array(counts, dtype="int64"))


JAVA_UDFS = (
    SafetyRatingJava, ReligiousPopulationJava, LargestReligionsJava,
    FuzzySuspectsJava, NearbyMonumentsJava,
)
JAVA_BY_NAME = {cls.name: cls for cls in JAVA_UDFS}
