"""T30 (Fig 30): 24-node vs 6-node speed-up per UDF per batch size.

Paper: 100K tweets; speed-up of every use-case UDF at 1X/4X/16X.
Simple UDFs (Q1–Q3) speed up poorly (overhead-dominated); Nearby
Monuments is limited by its INLJ broadcast; Tweet Context exceeds the
ideal 4× because added memory also removes join spill. Simulated over
calibrated costs (DESIGN.md § 4).
"""
import pandas as pd

from repro.cluster.calibrate import RunCalibration
from repro.cluster.simulator import SimulatedCluster
from repro.enrich import udfs
from repro.experiments.common import BATCH_SIZES, Table

UDF_NAMES = [u.name for u in udfs.ALL_UDFS]


def tables(cal: RunCalibration) -> list:
    return [Table("t30", "T30 — speed-up 24 vs 6 nodes per batch size",
                  run(cal), "{:.2f}")]


def run(cal: RunCalibration, *, udf_names=None) -> pd.DataFrame:
    names = list(udf_names or UDF_NAMES)
    costs = cal.costs(names)
    hi, lo = SimulatedCluster(24, cal.machine), SimulatedCluster(6, cal.machine)
    rows = []
    for name in names:
        row = {"udf": name}
        for label, bs in BATCH_SIZES.items():
            row[f"speedup_{label}"] = (
                hi.enrich_throughput(costs[name], bs)
                / lo.enrich_throughput(costs[name], bs)
            )
        rows.append(row)
    return pd.DataFrame(rows)
