"""Java-UDF analogues for the five basic use cases (paper § 3.2, § 7.2).

An AsterixDB Java UDF loads its reference data from local resource files
in ``initialize()`` and then enriches record-by-record in ``evaluate()``
using that frozen in-memory state. The analogues here are procedural
pandas/numpy enrichers with the same life-cycle:

* **Static Enrichment w/ Java** (stock AsterixDB): ``initialize()`` is
  called once per feed — reference updates are never observed;
* **Dynamic Enrichment w/ Java** (new framework): the computing job
  re-``initialize()``s from a fresh store snapshot every batch, so the
  state-rebuild cost is paid per invocation, exactly the trade-off the
  paper measures.

Each Java UDF produces the same output columns as its SQL++ twin in
``repro.enrich.udfs`` so parity is oracle-checkable.

Q1–Q3's hash map is a pandas ``Series`` indexed by the join key:
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
    """Life-cycle base: ``initialize(resources)`` then ``evaluate(batch)``."""

    name: str = ""
    refs: tuple = ()
    enrich_cols: tuple = ()

    def __init__(self):
        self._initialized = False

    def initialize(self, resources: dict) -> None:
        """Build in-memory state from resource frames (name -> pandas)."""
        self._load(resources)
        self._initialized = True

    def _load(self, resources: dict) -> None:
        raise NotImplementedError

    def evaluate(self, batch: pd.DataFrame) -> pd.DataFrame:
        if not self._initialized:
            raise RuntimeError(f"{self.name}: initialize() before evaluate()")
        return self._enrich(batch.copy())

    def _enrich(self, batch: pd.DataFrame) -> pd.DataFrame:
        raise NotImplementedError


class SafetyRatingJava(JavaUdf):
    """Q1: country -> safety rating via an in-memory hash map."""

    name = "safety_rating"
    refs = ("safety_ratings",)
    enrich_cols = ("safety_rating",)

    def _load(self, resources: dict) -> None:
        r = resources["safety_ratings"]
        self._ratings = pd.Series(r["safety_rating"].to_numpy(),
                                  index=r["country_code"].to_numpy())

    def _enrich(self, batch: pd.DataFrame) -> pd.DataFrame:
        batch["safety_rating"] = (
            batch["country"].map(self._ratings).fillna("")
        )
        return batch


class ReligiousPopulationJava(JavaUdf):
    """Q2: country -> total religious population, pre-aggregated at init."""

    name = "religious_population"
    refs = ("religious_populations",)
    enrich_cols = ("religious_population",)

    def _load(self, resources: dict) -> None:
        r = resources["religious_populations"]
        self._totals = r.groupby("country_name")["population"].sum()

    def _enrich(self, batch: pd.DataFrame) -> pd.DataFrame:
        batch["religious_population"] = (
            batch["country"].map(self._totals).fillna(0).astype("int64")
        )
        return batch


class LargestReligionsJava(JavaUdf):
    """Q3: country -> csv of top-3 religions, ranked at init."""

    name = "largest_religions"
    refs = ("religious_populations",)
    enrich_cols = ("largest_religions",)

    def _load(self, resources: dict) -> None:
        r = resources["religious_populations"].sort_values(
            ["country_name", "population", "rid"],
            ascending=[True, False, True],
        )
        top3 = r.groupby("country_name").head(3)
        self._top3 = top3.groupby("country_name")["religion_name"].apply(
            ",".join)

    def _enrich(self, batch: pd.DataFrame) -> pd.DataFrame:
        batch["largest_religions"] = batch["country"].map(self._top3).fillna("")
        return batch


class FuzzySuspectsJava(JavaUdf):
    """Q4: removeSpecial + edit-distance similarity join against suspects."""

    name = "fuzzy_suspects"
    refs = ("suspects_names",)
    enrich_cols = ("related_suspects", "num_suspects")

    def _load(self, resources: dict) -> None:
        self._suspects = resources["suspects_names"][["sensitive_name"]].copy()

    def _enrich(self, batch: pd.DataFrame) -> pd.DataFrame:
        probe = pd.DataFrame(
            {
                "id": batch["id"],
                "clean": [remove_special(s) for s in batch["user_screen_name"]],
            }
        )
        con = duckdb.connect()
        try:
            con.register("probe", probe)
            con.register("suspects", self._suspects)
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

    def _load(self, resources: dict) -> None:
        m = resources["monuments"]
        self._ids = m["monument_id"].to_numpy()
        self._lats = m["monument_lat"].to_numpy()
        self._lons = m["monument_lon"].to_numpy()

    def _enrich(self, batch: pd.DataFrame) -> pd.DataFrame:
        names, counts = [], []
        r2 = MONUMENT_RADIUS**2
        for lat, lon in zip(batch["latitude"], batch["longitude"]):
            d2 = (self._lats - lat) ** 2 + (self._lons - lon) ** 2
            hits = np.sort(self._ids[d2 <= r2])
            names.append(",".join(hits))
            counts.append(len(hits))
        batch["nearby_monuments"] = names
        batch["num_monuments"] = np.array(counts, dtype="int64")
        return batch


JAVA_UDFS = (
    SafetyRatingJava, ReligiousPopulationJava, LargestReligionsJava,
    FuzzySuspectsJava, NearbyMonumentsJava,
)
JAVA_BY_NAME = {cls.name: cls for cls in JAVA_UDFS}
