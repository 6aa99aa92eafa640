"""The benchmark's workloads and the inputs each one is fed.

Every workload is one feed with one Safety Rating UDF (paper Q1) over the
``safety_ratings`` reference dataset, driven through the decoupled
pipeline. All inputs -- the reference table, every tweet batch with its
serialized frame, and every reference upsert -- are made from the seed
before the clock starts, so the measured feed does no generation work.
"""
from dataclasses import dataclass

import pandas as pd

#: Reference dataset every workload reads, at the experiments' bench scale
#: (1/10 of the paper's 500K rows, i.e. 50K rows).
REF_NAME = "safety_ratings"
REF_SCALE = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``True`` runs the Java analogue ``SafetyRatingJava``; ``False`` the
    #: SQL++ ``udfs.SAFETY_RATING`` through a predeployed job.
    java: bool
    batch_size: int
    #: Upserts the update client sends after each snapshot (0: none).
    update_quota: int
    #: Batches run before measuring. Chosen from per-batch plateau probes:
    #: the median of later batches no longer drops once these are done.
    warmup_batches: int
    #: Measured batches per second of ``--seconds``: a run measures
    #: ``round(seconds * batches_per_s)`` batches, so the batch count, not
    #: the clock, ends it and every run does the same work.
    batches_per_s: float

    def measured_batches(self, seconds: float) -> int:
        # 21 is the fewest whose tail (10 samples beyond) is above the median
        return max(21, round(seconds * self.batches_per_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sqlpp_fresh", java=False, batch_size=420, update_quota=0,
                 warmup_batches=20, batches_per_s=2.0),
        Workload("sqlpp_updates", java=False, batch_size=420,
                 update_quota=400, warmup_batches=10, batches_per_s=1.5),
        Workload("java_16x", java=True, batch_size=6720, update_quota=0,
                 warmup_batches=25, batches_per_s=2.0),
    )
}


@dataclass
class Inputs:
    ref: pd.DataFrame            # bulk-loaded reference table
    key: str                     # its primary key
    tweets: list                 # per batch: id and country of the records
                                 # fed, all the Q1 oracle reads
    frames: list                 # per batch: the NDJSON frame replayed
    updates: list                # per batch: upserts sent after its snapshot

    @property
    def n_batches(self) -> int:
        return len(self.frames)


def make_inputs(w: Workload, seed: int, n_batches: int) -> Inputs:
    """Everything the feed will see, generated from ``seed``."""
    from repro import synth_data
    from repro.core.feed import serialize
    from repro.core.updates import update_batch

    gen, key = synth_data.REFERENCE_GENERATORS[REF_NAME]
    ref = gen(ref_scale=REF_SCALE, seed=seed)
    tweets, frames = [], []
    for i in range(n_batches):
        batch = synth_data.tweets_pdf(w.batch_size, seed=seed,
                                      start_id=i * w.batch_size)
        frames.append(serialize(batch))
        tweets.append(batch[["id", "country"]])
    updates = [
        update_batch(ref, key, w.update_quota, seed=seed * 1_000_003 + i)
        for i in range(n_batches)
    ] if w.update_quota else []
    return Inputs(ref, key, tweets, frames, updates)


def expected_buffered(inputs: Inputs) -> list:
    """Buffered upserts each batch's snapshot must see: every quota sent
    after an earlier snapshot, none sent after its own."""
    out, total = [], 0
    for i in range(inputs.n_batches):
        out.append(total)
        if inputs.updates:
            total += len(inputs.updates[i])
    return out


def reference_as_of(inputs: Inputs, batch: int) -> pd.DataFrame:
    """The reference table a batch's snapshot held: the bulk load with the
    upserts of all earlier batches applied, newest wins."""
    if not inputs.updates or batch == 0:
        return inputs.ref
    merged = pd.concat([inputs.ref, *inputs.updates[:batch]],
                       ignore_index=True)
    return merged.drop_duplicates(subset=[inputs.key], keep="last")
