"""T31 (Fig 31): ingestion scale-out of the complex UDFs, 6–24 nodes.

Paper: 100K tweets, 16X batches; the four complex UDFs plus Naive
Nearby Monuments (index disabled by hint). Gains level off as cluster
overhead grows; indexed Nearby Monuments is capped by its probe
broadcast while the naive variant starts far lower but scales steadily
as the monument list is split across more nodes. Simulated over
calibrated costs (DESIGN.md § 4).
"""
import pandas as pd

from repro.cluster.calibrate import RunCalibration
from repro.cluster.simulator import SimulatedCluster
from repro.experiments.common import BATCH_SIZES, Table

UDF_NAMES = [
    "nearby_monuments", "naive_nearby_monuments", "suspicious_names",
    "tweet_context", "worrisome_tweets",
]
NODES = (6, 12, 18, 24)


def tables(cal: RunCalibration) -> list:
    return [Table("t31", "T31 — simulated throughput vs cluster size (rec/s)",
                  run(cal))]


def run(cal: RunCalibration, *, udf_names=None) -> pd.DataFrame:
    names = list(udf_names or UDF_NAMES)
    costs = cal.costs(names)
    batch = BATCH_SIZES["16X"]
    rows = []
    for n in NODES:
        c = SimulatedCluster(n, cal.machine)
        row = {"nodes": n}
        for name in names:
            row[name] = c.enrich_throughput(costs[name], batch)
        rows.append(row)
    return pd.DataFrame(rows)
