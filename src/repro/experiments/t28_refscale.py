"""T28 (Fig 28): reference-data scale-out.

Paper: reference datasets grown 1X→4X together with the cluster
(6→24 nodes), 1M tweets at 16X batches — throughput holds roughly flat
with a slight drop from the larger cluster's execution overhead.
Simulated sweep over calibrated per-UDF costs: the state-rebuild term
scales with the reference multiplier and divides across nodes, dispatch
overhead grows with nodes (DESIGN.md § 4).
"""
import pandas as pd

from repro.cluster.calibrate import RunCalibration
from repro.cluster.simulator import SimulatedCluster
from repro.enrich import udfs
from repro.experiments.common import BATCH_SIZES, Table

UDF_NAMES = [u.name for u in udfs.BASIC_UDFS]
STEPS = ((1.0, 6), (2.0, 12), (3.0, 18), (4.0, 24))


def tables(cal: RunCalibration) -> list:
    return [Table(
        "t28", "T28 — simulated throughput, ref×cluster scale-out (rec/s)",
        run(cal),
    )]


def run(cal: RunCalibration, *, udf_names=None) -> pd.DataFrame:
    names = list(udf_names or UDF_NAMES)
    costs = cal.costs(names)
    batch = BATCH_SIZES["16X"]
    rows = []
    for mult, nodes in STEPS:
        c = SimulatedCluster(nodes, cal.machine)
        row = {"ref_scale": f"{int(mult)}X", "nodes": nodes}
        for name in names:
            row[name] = c.enrich_throughput(costs[name], batch, mult)
        rows.append(row)
    return pd.DataFrame(rows)
