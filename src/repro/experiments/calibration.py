"""One in-memory calibration per run for the simulated tables (T24b/28/30/31).

A :class:`RunCalibration` measures the machine constants the first time a
table asks for them, and each UDF's cost decomposition the first time a
table names that UDF, at the benchmark reference scale. Every later
table in the same process reuses what was measured, so one run's
simulated tables all rest on one set of constants. Nothing is read back
from disk: :meth:`RunCalibration.save` only records the constants.
"""
import dataclasses
import json

from pyspark.sql import SparkSession

from repro.cluster.calibrate import (
    Calibration, UdfCost, calibrate_machine, calibrate_udf, make_ref_pdfs,
)
from repro.enrich import udfs
from repro.experiments.common import BENCH_DISTRICT_REF_SCALE, BENCH_REF_SCALE

#: Per-UDF fit batch sizes. The naive monument scan is quadratic in
#: |batch| × |monuments|, so its fit uses small batches (slope is linear
#: in batch size regardless of where it is sampled).
FIT_BATCHES = {"naive_nearby_monuments": (105, 420)}
DEFAULT_FIT = (420, 1680)


class RunCalibration:
    """Machine and per-UDF cost constants, each measured at most once.

    ``quick`` shrinks reference scale, fit batches and reps (a quick check
    of a table's shape, not a measurement to report).
    """

    def __init__(self, spark: SparkSession, *, quick: bool = False):
        self.spark = spark
        self.quick = quick
        self._machine: Calibration | None = None
        self.udfs: dict[str, UdfCost] = {}

    @property
    def machine(self) -> Calibration:
        if self._machine is None:
            self._machine = calibrate_machine(self.spark)
        return self._machine

    def costs(self, names) -> dict:
        """``{name: UdfCost}``, calibrating the UDFs not measured yet."""
        for name in names:
            if name not in self.udfs:
                self.udfs[name] = self._calibrate(udfs.BY_NAME[name])
        return {n: self.udfs[n] for n in names}

    def _calibrate(self, udf) -> UdfCost:
        ref_scale = 0.02 if self.quick else BENCH_REF_SCALE
        district_scale = 0.04 if self.quick else BENCH_DISTRICT_REF_SCALE
        full = make_ref_pdfs(udf.refs, ref_scale, district_scale=district_scale)
        half = make_ref_pdfs(
            udf.refs, ref_scale / 2, district_scale=district_scale / 2
        )
        b_small, b_large = FIT_BATCHES.get(udf.name, DEFAULT_FIT)
        if self.quick:
            b_small, b_large = max(60, b_small // 4), max(240, b_large // 4)
        return calibrate_udf(
            self.spark, udf, full, half, b_small=b_small, b_large=b_large,
            reps=1 if self.quick else 3,
        )

    def save(self, path: str) -> None:
        """Record the constants measured so far as JSON (nothing reads the
        file back); a run that simulated no table writes nothing."""
        if self._machine is None:
            return
        with open(path, "w") as f:
            json.dump(
                {
                    "machine": dataclasses.asdict(self._machine),
                    "udfs": {
                        k: dataclasses.asdict(v) for k, v in self.udfs.items()
                    },
                },
                f, indent=2,
            )
