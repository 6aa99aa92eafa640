"""Simulated N-node AsterixDB cluster over measured cost constants.

DESIGN.md § 4: the paper's cluster-size sweeps (Figs 24, 28, 30, 31) are
reproduced by computing per-batch makespans for an N-node cluster from
constants measured on this machine (``repro.cluster.calibrate``). The
machine's full parallelism is treated as the paper's 6-node (12-slot)
baseline; other cluster sizes scale the parallelizable components.

Enrichment model (Figs 28, 30, 31), per computing-job invocation of
batch size ``B`` on ``N`` nodes:

    t(N, B) = dispatch(N) + serial + state·r·(B0/N) + rec·B·(B0/N)
              + idx·B + spill(N)·state-term

* ``dispatch(N) = base·DISPATCH_SCALE + PER_NODE_DISPATCH_S·N`` — job
  start/stop messaging fans out to every node; this is the execution
  overhead the paper observes growing with cluster size (§ 7.1,
  § 7.4.2). ``base`` is measured (empty Spark job); the other two are
  modelled constants.
* ``serial`` — non-parallelizable per-invocation work (measured).
* ``state·r·(B0/N)`` — intermediate-state rebuild; proportional to
  reference scale multiplier ``r`` (Fig 28) and parallelized across
  nodes.
* ``rec·B·(B0/N)`` — per-record enrichment work, parallelized.
* ``idx·B`` — index-probe work that does *not* parallelize: the INLJ
  broadcasts incoming tweets to all index partitions (§ 7.4.2), so
  adding nodes does not cut per-record probe cost.
* ``spill`` — paper-hardware memory model for ``MEM_HUNGRY_UDFS``
  (Tweet Context): its ref-ref joins exceed a 6×8 GB cluster's join
  memory and spill; more nodes mean more aggregate memory and the spill
  factor decays to 1. Like the dispatch constants it is modelled, not
  measured, since a 48 GB single box cannot spill like 2009-era 8 GB
  Opterons. It produces the paper's >4× superlinear speed-up for Tweet
  Context.

Basic (no-UDF) ingestion, Fig 24: the old framework couples intake and
parsing on intake node(s) inside one continuous job (throughput =
nodes/(intake+parse), flat for a single intake node); the new framework
moves parsing into per-batch computing jobs (parse parallelizes across
the cluster, intake alone stays on the intake node(s), dispatch is paid
per batch). A no-UDF job's dispatch comes from the paper's own Fig 24
refresh rates rather than from ``dispatch(N)``: it is
``BASIC_DISPATCH_RECORDS_24`` records of parse work at 24 nodes, in the
measured parse cost, and grows in proportion to N. The sweep's shapes
then keep the paper's ratio of dispatch to parse however fast this
machine parses; under the millisecond ``dispatch(N)``, balanced dynamic
16X grows with N only while parse costs more than 3.6 µs/record.
"""
from dataclasses import dataclass

from repro.cluster.calibrate import Calibration, UdfCost

#: Slots the calibration machine's measurements correspond to (the
#: paper's 6-node × 2-core baseline, whatever this machine's core count).
BASE_NODES = 6
CORES_PER_NODE = 2

#: Modelled constants (see module docstring); a calibration records only
#: measured values.
#: Per-node job start/stop messaging: cluster fan-out that one machine
#: cannot observe.
PER_NODE_DISPATCH_S = 0.0005
#: Measured local-Spark job launch (~80–180 ms under gVisor) overstates
#: an AsterixDB *predeployed-job invocation* — a single message round
#: trip, not a full DAG-scheduler pass — by over an order of magnitude.
#: The simulator scales the measured base down by this factor so an
#: enrichment job's simulated overhead lands in the paper's regime; the
#: growth-with-N term above is what drives the sweep shapes either way.
DISPATCH_SCALE = 0.05
#: Fig 24's jobs run no UDF, and the paper's refresh rates for them, 68 /
#: 27 / 10 jobs/s at 24 nodes for batches of 420 / 1,680 / 6,720
#: records, fix their dispatch against their per-record work: a
#: least-squares line t(B) = d + c·B through the cycles 1/68, 1/27 and
#: 1/10 s gives d = 11.7 ms and c = 13.2 µs/record, so one invocation at
#: 24 nodes costs as much as d/c = 880 records of the batch's work.
BASIC_DISPATCH_RECORDS_24 = 880
SPILL_PENALTY = 3.0          # state-cost multiplier when fully memory-starved
SPILL_FREE_NODES = 18.0      # cluster size at which Q7's join fits in memory
#: UDFs whose reference-to-reference joins spill on the paper's hardware.
MEM_HUNGRY_UDFS = frozenset({"tweet_context"})

#: UDFs whose *per-record* cost is itself proportional to reference size
#: (cross-join style plans: every probe touches every reference row), so
#: growing the reference data in Fig 28 also grows their per-record term.
REF_PROPORTIONAL_RECORD_UDFS = frozenset(
    {"fuzzy_suspects", "naive_nearby_monuments"}
)


@dataclass
class SimulatedCluster:
    """An N-node cluster computing makespans from calibrated costs."""

    n_nodes: int
    cal: Calibration

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("cluster needs at least one node")

    # -- shared terms ---------------------------------------------------------

    def dispatch_s(self) -> float:
        """Per-invocation job start/stop overhead of an enrichment job —
        grows with N."""
        return (
            self.cal.job_dispatch_base_s * DISPATCH_SCALE
            + PER_NODE_DISPATCH_S * self.n_nodes
        )

    def _scale(self) -> float:
        """Parallel-work multiplier relative to the measured baseline."""
        return BASE_NODES / self.n_nodes

    def _spill_factor(self, cost: UdfCost) -> float:
        """Memory-pressure multiplier on the state term (Q7 only)."""
        if (cost.name not in MEM_HUNGRY_UDFS
                or self.n_nodes >= SPILL_FREE_NODES):
            return 1.0
        starvation = 1.0 - self.n_nodes / SPILL_FREE_NODES
        return 1.0 + SPILL_PENALTY * starvation

    # -- enrichment (Figs 28–31) ---------------------------------------------

    def batch_time_s(self, cost: UdfCost, batch_size: int,
                     ref_scale_mult: float = 1.0) -> float:
        """Makespan of one computing-job invocation."""
        state = (
            cost.state_s * ref_scale_mult * self._scale()
            * self._spill_factor(cost)
        )
        rec_mult = (
            ref_scale_mult if cost.name in REF_PROPORTIONAL_RECORD_UDFS else 1.0
        )
        rec = cost.record_us * 1e-6 * batch_size * self._scale() * rec_mult
        idx = cost.indexed_record_us * 1e-6 * batch_size
        return self.dispatch_s() + cost.serial_s + state + rec + idx

    def enrich_throughput(self, cost: UdfCost, batch_size: int,
                          ref_scale_mult: float = 1.0) -> float:
        """Records/second with computing jobs invoked back-to-back."""
        return batch_size / self.batch_time_s(cost, batch_size, ref_scale_mult)

    # -- basic ingestion (Fig 24) --------------------------------------------

    def intake_rate(self, balanced: bool) -> float:
        """Records/second the intake node(s) can feed."""
        n_intake = self.n_nodes if balanced else 1
        return n_intake / self.cal.intake_s_per_record

    def static_throughput(self, balanced: bool) -> float:
        """Old framework: intake+parse coupled on the intake node(s) in
        one continuous pipelined job — bound by the slower stage (parse),
        using the intake node's cores, with no per-batch overhead."""
        n_intake = self.n_nodes if balanced else 1
        stage_s = max(self.cal.parse_s_per_record, self.cal.intake_s_per_record)
        return n_intake * CORES_PER_NODE / stage_s

    def basic_dispatch_s(self) -> float:
        """Per-invocation overhead of a no-UDF computing job (Fig 24):
        ``BASIC_DISPATCH_RECORDS_24`` records of parse work on a 24-node
        cluster's slots, scaled by N/24 as messages fan out to every node."""
        parse_24_s = self.cal.parse_s_per_record / (24 * CORES_PER_NODE)
        return BASIC_DISPATCH_RECORDS_24 * parse_24_s * self.n_nodes / 24

    def dynamic_throughput(self, batch_size: int, balanced: bool) -> float:
        """New framework: parse runs inside per-batch computing jobs,
        parallelized across the cluster; throughput is the slower of the
        intake layer and the computing-job cycle (they overlap)."""
        slots = self.n_nodes * CORES_PER_NODE
        parse_batch_s = self.cal.parse_s_per_record * batch_size / slots
        cycle_s = self.basic_dispatch_s() + parse_batch_s
        compute_rate = batch_size / cycle_s
        return min(self.intake_rate(balanced), compute_rate)
