"""Cluster simulator: the modelled shapes the paper's sweep figures rely on."""
import types

import pytest

from repro.cluster import calibrate
from repro.cluster.calibrate import (
    Calibration, UdfCost, calibrate_udf, measure_dispatch_base,
    measure_intake_cost, measure_parse_cost,
)
from repro.cluster.simulator import (
    BASIC_DISPATCH_RECORDS_24, MEM_HUNGRY_UDFS, PER_NODE_DISPATCH_S,
    SimulatedCluster,
)
from repro.enrich import udfs
from repro.synth_data import make_ref_pdfs

CAL = Calibration(
    intake_s_per_record=20e-6,
    parse_s_per_record=60e-6,
    job_dispatch_base_s=0.03,
)

CHEAP = UdfCost("cheap", serial_s=0.05, state_s=0.05, record_us=5.0)
HEAVY = UdfCost("heavy", serial_s=0.05, state_s=0.2, record_us=800.0)
INDEXED = UdfCost("indexed", serial_s=0.05, state_s=0.2, record_us=0.0,
                  indexed_record_us=800.0)
MEMHOG = UdfCost("tweet_context", serial_s=0.05, state_s=3.0,
                 record_us=500.0)


def _speedup(cost, batch, n_hi=24, n_lo=6):
    hi = SimulatedCluster(n_hi, CAL).enrich_throughput(cost, batch)
    lo = SimulatedCluster(n_lo, CAL).enrich_throughput(cost, batch)
    return hi / lo


def test_rejects_empty_cluster():
    with pytest.raises(ValueError):
        SimulatedCluster(0, CAL)


def test_dispatch_grows_with_cluster_size():
    d = [SimulatedCluster(n, CAL).dispatch_s() for n in (1, 6, 12, 24)]
    assert d == sorted(d) and d[0] < d[-1]


# -- Fig 24 shapes ------------------------------------------------------------

def test_static_single_intake_is_flat():
    t = [SimulatedCluster(n, CAL).static_throughput(balanced=False)
         for n in (1, 6, 12, 24)]
    assert len(set(t)) == 1  # parse bottleneck on one node — no scaling


def test_balanced_static_scales_linearly():
    t1 = SimulatedCluster(1, CAL).static_throughput(balanced=True)
    t24 = SimulatedCluster(24, CAL).static_throughput(balanced=True)
    assert t24 == pytest.approx(24 * t1)


def test_dynamic_beats_static_for_single_intake():
    """§ 7.1: decoupling parse from intake lets even a single-intake
    dynamic feed pass the parse-bound static ceiling once nodes help."""
    static = SimulatedCluster(24, CAL).static_throughput(balanced=False)
    dynamic = SimulatedCluster(24, CAL).dynamic_throughput(6720, balanced=False)
    assert dynamic > static


def test_dynamic_single_intake_grows_then_converges():
    """Parse decoupled from intake: throughput rises with nodes, then is
    capped by the single intake node (§ 7.1)."""
    t = [SimulatedCluster(n, CAL).dynamic_throughput(6720, balanced=False)
         for n in (1, 2, 4, 24)]
    assert t[0] < t[1] <= t[2] <= t[3]
    cap = SimulatedCluster(24, CAL).intake_rate(balanced=False)
    assert t[3] <= cap


def test_dynamic_batch_sizes_converge_to_intake_cap():
    c = SimulatedCluster(24, CAL)
    caps = {b: c.dynamic_throughput(b, balanced=False) for b in (420, 6720)}
    assert caps[420] <= caps[6720] <= c.intake_rate(balanced=False)


def test_larger_batches_raise_dynamic_throughput():
    c = SimulatedCluster(6, CAL)
    t = [c.dynamic_throughput(b, balanced=True) for b in (420, 1680, 6720)]
    assert t == sorted(t) and t[0] < t[-1]


def test_balanced_dynamic_close_then_falls_behind_balanced_static():
    """§ 7.1: similar at small clusters, behind at large ones."""
    small_gap = (
        SimulatedCluster(2, CAL).static_throughput(True)
        / SimulatedCluster(2, CAL).dynamic_throughput(6720, True)
    )
    big_gap = (
        SimulatedCluster(24, CAL).static_throughput(True)
        / SimulatedCluster(24, CAL).dynamic_throughput(6720, True)
    )
    assert big_gap > small_gap >= 1.0


@pytest.mark.parametrize("parse_us", [2.0, 3.5, 60.0])
def test_basic_dispatch_keeps_paper_ratio_at_any_parse_cost(parse_us):
    """Fig 24: a no-UDF job's dispatch is stated in parse work, so the
    24-node refresh rates keep the paper's 1X/16X ratio (68/10) and
    balanced dynamic 16X grows from 1 to 24 nodes by the same factor,
    however fast the machine parses."""
    cal = Calibration(intake_s_per_record=parse_us * 1e-6 / 100,
                      parse_s_per_record=parse_us * 1e-6,
                      job_dispatch_base_s=0.03)

    def bd16(n):
        return SimulatedCluster(n, cal).dynamic_throughput(6720, True)

    c24 = SimulatedCluster(24, cal)
    rate_ratio = (c24.dynamic_throughput(420, True) / 420) / (
        c24.dynamic_throughput(6720, True) / 6720
    )
    assert 5.0 < rate_ratio < 6.8
    # cycles in units of one record's parse: 6720/(2N) plus the dispatch
    d24 = BASIC_DISPATCH_RECORDS_24 / 48
    assert bd16(24) / bd16(1) == pytest.approx((3360 + d24 / 24) / (140 + d24))


# -- Figs 28/30/31 shapes -----------------------------------------------------

def test_cheap_udf_speedup_is_poor():
    """Simple UDFs: overhead-dominated, near-flat speed-up (§ 7.4.2)."""
    assert _speedup(CHEAP, 420) < 1.5


def test_heavy_udf_speedup_is_good():
    assert _speedup(HEAVY, 6720) > 2.5


def test_bigger_batches_speed_up_better():
    assert _speedup(HEAVY, 6720) > _speedup(HEAVY, 420)


def test_indexed_join_speedup_limited():
    """INLJ broadcast: per-record probe work does not parallelize."""
    assert _speedup(INDEXED, 6720) < _speedup(HEAVY, 6720)
    assert _speedup(INDEXED, 6720) < 1.8


def test_mem_hungry_superlinear_speedup():
    """Tweet Context: extra memory removes spill → >4x at 24 vs 6 (§ 7.4.2)."""
    assert _speedup(MEMHOG, 6720) > 4.0


def test_ref_scaleout_roughly_flat():
    """Fig 28: ref size and cluster grown together — the state-rebuild
    term (which dominates the paper's five SQL++ UDFs) stays constant,
    so throughput holds roughly flat, within ~20% either way."""
    state_heavy = UdfCost("sh", serial_s=0.1, state_s=2.0, record_us=20.0)
    t6 = SimulatedCluster(6, CAL).enrich_throughput(state_heavy, 6720, 1.0)
    t24 = SimulatedCluster(24, CAL).enrich_throughput(state_heavy, 6720, 4.0)
    assert 0.8 * t6 < t24 < 1.2 * t6


def test_throughput_levels_off_with_cluster_growth():
    """Fig 31: gains shrink as overhead eats the added parallelism."""
    t = [SimulatedCluster(n, CAL).enrich_throughput(HEAVY, 6720)
         for n in (6, 12, 18, 24)]
    assert t == sorted(t)
    assert (t[1] - t[0]) > (t[3] - t[2])


def test_naive_scan_starts_low_and_scales():
    """Fig 31: Naive Nearby Monuments — huge parallel scan work, so low
    absolute throughput but steady gains from added nodes."""
    naive = UdfCost("naive", serial_s=0.05, state_s=0.1, record_us=20000.0)
    t = [SimulatedCluster(n, CAL).enrich_throughput(naive, 6720)
         for n in (6, 12, 18, 24)]
    assert t == sorted(t)
    assert t[0] < SimulatedCluster(6, CAL).enrich_throughput(INDEXED, 6720)
    assert t[3] / t[0] > 2.5


# -- calibration --------------------------------------------------------------

def test_machine_costs_measurable():
    intake = measure_intake_cost(n=500)
    parse = measure_parse_cost(n=500)
    assert 0 < intake < 0.01
    assert 0 < parse < 0.01


def test_dispatch_base_measurable(spark):
    d = measure_dispatch_base(spark, reps=2)
    assert 0 < d < 5.0


def test_make_ref_pdfs_scales():
    refs = make_ref_pdfs(("safety_ratings", "district_areas"), 0.01)
    assert set(refs) == {"safety_ratings", "district_areas"}
    assert len(refs["safety_ratings"]) == 5000
    assert len(refs["district_areas"]) == 50  # district scale = 10x ref scale


def test_calibrate_udf_smoke(spark):
    """End-to-end fit on the cheapest UDF with tiny refs and batches."""
    full = make_ref_pdfs(("safety_ratings",), 0.02)
    half = make_ref_pdfs(("safety_ratings",), 0.01)
    cost = calibrate_udf(
        spark, udfs.SAFETY_RATING, full, half, b_small=60, b_large=480,
        rounds=calibrate.QUICK_ROUNDS,
    )
    assert cost.name == "safety_rating"
    assert cost.serial_s >= 0 and cost.state_s >= 0
    assert cost.record_us > 0
    assert cost.indexed_record_us == 0.0
    assert cost.name not in MEM_HUNGRY_UDFS


def test_calibrate_udf_indexed_mapping(spark):
    """uses_index UDFs put their slope in the non-scaling term."""
    full = make_ref_pdfs(("monuments",), 0.002)
    half = make_ref_pdfs(("monuments",), 0.001)
    cost = calibrate_udf(
        spark, udfs.NEARBY_MONUMENTS, full, half, b_small=60, b_large=480,
        rounds=calibrate.QUICK_ROUNDS,
    )
    assert cost.record_us == 0.0
    assert cost.indexed_record_us > 0


def test_calibrate_udf_fits_past_warm_up(monkeypatch):
    """A job whose first calls pay a large, decaying warm-up excess: the
    fit still recovers the per-record slope and keeps the excess out of
    ``state_s``. Time is a fake clock that each invocation advances."""
    warm_s, serial_s, slope_s, state_s_per_ref = 2.0, 0.05, 20e-6, 1e-6
    clock, calls = [0.0], [0]

    class FakeJob:
        def __init__(self, spark, udf, ref_provider):
            self.n_refs = len(ref_provider()["safety_ratings"])

        def deploy(self):
            pass

        def invoke(self, batch):
            warm_up = warm_s * 0.5 ** calls[0]  # warming the session's plans
            calls[0] += 1
            clock[0] += (warm_up + serial_s + slope_s * len(batch)
                         + state_s_per_ref * self.n_refs)

    monkeypatch.setattr(calibrate, "PredeployedJob", FakeJob)
    monkeypatch.setattr(
        calibrate, "time", types.SimpleNamespace(perf_counter=lambda: clock[0])
    )
    fake_spark = types.SimpleNamespace(createDataFrame=lambda pdf: pdf)
    full = make_ref_pdfs(("safety_ratings",), 0.1)
    half = make_ref_pdfs(("safety_ratings",), 0.05)
    cost = calibrate_udf(
        fake_spark, udfs.SAFETY_RATING, full, half, b_small=420, b_large=6720,
        rounds=calibrate.ROUNDS,
    )
    assert cost.record_us == pytest.approx(slope_s * 1e6, rel=1e-3)
    state_s = state_s_per_ref * len(full["safety_ratings"])
    assert cost.state_s == pytest.approx(state_s, rel=1e-3)
    assert cost.serial_s == pytest.approx(serial_s, rel=1e-3)


def test_spill_factor_bounds_and_monotonicity():
    from repro.cluster.simulator import SPILL_FREE_NODES

    factors = [
        SimulatedCluster(n, CAL)._spill_factor(MEMHOG) for n in (6, 12, 18, 24)
    ]
    assert factors[0] > factors[1] > factors[2] == factors[3] == 1.0
    assert SimulatedCluster(int(SPILL_FREE_NODES), CAL)._spill_factor(MEMHOG) == 1.0


def test_spill_only_applies_to_mem_hungry():
    assert SimulatedCluster(6, CAL)._spill_factor(HEAVY) == 1.0
    assert MEM_HUNGRY_UDFS == {udfs.TWEET_CONTEXT.name}


def test_dispatch_scale_applied():
    from repro.cluster.simulator import DISPATCH_SCALE

    c = SimulatedCluster(1, CAL)
    expected = CAL.job_dispatch_base_s * DISPATCH_SCALE + PER_NODE_DISPATCH_S
    assert c.dispatch_s() == pytest.approx(expected)


def test_batch_time_components_additive():
    c = SimulatedCluster(6, CAL)
    base = c.batch_time_s(CHEAP, 0)
    with_records = c.batch_time_s(CHEAP, 1000)
    assert with_records > base
    assert with_records - base == pytest.approx(1000 * CHEAP.record_us * 1e-6)


def test_ref_proportional_record_udfs_flat_in_refscaleout():
    """Fig 28: cross-join UDFs' per-record work grows with reference
    size, cancelling the added nodes — throughput stays roughly flat."""
    fuzzy_like = UdfCost("fuzzy_suspects", serial_s=0.1, state_s=0.1,
                         record_us=500.0)
    t6 = SimulatedCluster(6, CAL).enrich_throughput(fuzzy_like, 6720, 1.0)
    t24 = SimulatedCluster(24, CAL).enrich_throughput(fuzzy_like, 6720, 4.0)
    assert 0.7 * t6 < t24 < 1.3 * t6
    # without the name-based flag the same cost profile would speed up
    plain = UdfCost("other", serial_s=0.1, state_s=0.1, record_us=500.0)
    t24_plain = SimulatedCluster(24, CAL).enrich_throughput(plain, 6720, 4.0)
    assert t24_plain > 1.5 * t24
