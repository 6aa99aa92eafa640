#!/usr/bin/env python
"""T24–T31: run the evaluation tables, print them and save each as
``results/<name>.{md,csv}``.

Run: ``python jobs/tables.py T24 T25 T27 ... T31|all [--quick]``, or the
same arguments through ``spark-submit jobs/tables.py``. T24 writes
T24a/b/c and T25 also writes T26. The simulated tables (T24b, T28, T30,
T31) share one calibration measured in this process; a full (not
``--quick``) run of all four records its constants in
``results/calibration.json``.
"""
import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _common import get_spark  # noqa: E402

from repro.cluster.calibrate import RunCalibration  # noqa: E402
from repro.experiments import (  # noqa: E402
    common, t24_basic, t25_udf, t27_updates, t28_refscale, t29_complexity,
    t30_speedup, t31_scaleout,
)

#: Table id -> its harness, called with (spark, calibration, quick).
TABLES = {
    "T24": lambda spark, cal, quick: t24_basic.tables(spark, cal, quick=quick),
    "T25": lambda spark, cal, quick: t25_udf.tables(spark, quick=quick),
    "T27": lambda spark, cal, quick: t27_updates.tables(spark, quick=quick),
    "T28": lambda spark, cal, quick: t28_refscale.tables(cal),
    "T29": lambda spark, cal, quick: t29_complexity.tables(spark, quick=quick),
    "T30": lambda spark, cal, quick: t30_speedup.tables(cal),
    "T31": lambda spark, cal, quick: t31_scaleout.tables(cal),
}
#: The tables simulated from the calibration (T24 through T24b).
SIMULATED = {"T24", "T28", "T30", "T31"}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "tables", nargs="+", choices=[*TABLES, "all"], metavar="TABLE",
        help=f"table ids ({', '.join(TABLES)}; T26 comes with T25) or all",
    )
    ap.add_argument(
        "--quick", action="store_true",
        help="reduced volumes (a quick check of each table's shape)",
    )
    return ap.parse_args(argv)


def run_tables(spark, ids, *, quick: bool) -> RunCalibration:
    """Run, print and save the tables of ``ids`` in order; returns the
    run's calibration."""
    cal = RunCalibration(spark, quick=quick)
    for tid in ids:
        for t in TABLES[tid](spark, cal, quick):
            md = common.format_table(t.frame, t.title, t.floatfmt)
            print(md + "\n", flush=True)
            common.save_result(t.name, md, t.frame)
    return cal


def main() -> None:
    args = parse_args()
    ids = list(TABLES) if "all" in args.tables else list(
        dict.fromkeys(args.tables)
    )
    spark = get_spark("tables")
    try:
        cal = run_tables(spark, ids, quick=args.quick)
        # a subset would overwrite the fits the other tables came from
        if not args.quick and SIMULATED <= set(ids):
            cal.save(os.path.join(common.results_dir(), "calibration.json"))
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
