"""Correctness gate run after every feed, off the clock.

Each stored batch is read back from the sink's files and checked against
the DuckDB oracle over the reference table its snapshot held (rebuilt from
the known update schedule), every fed record must be stored exactly once,
and every snapshot must have seen exactly the scheduled buffered upserts.
"""
import glob
import os
from collections import Counter

import pandas as pd

from workloads import REF_NAME, expected_buffered, reference_as_of


class _Stored:
    """A stored batch in the shape ``assert_equivalent`` reads its result."""

    def __init__(self, pdf: pd.DataFrame):
        self._pdf = pdf

    def toPandas(self) -> pd.DataFrame:
        return self._pdf


def check_feed(inputs, sink_dir: str, buffered: dict, rows_written: int):
    """Returns ``(attempted batches, failed batches, problems)``."""
    from repro.enrich.udfs import SAFETY_RATING
    from repro.oracle import assert_equivalent

    cols = ["id", *SAFETY_RATING.enrich_cols]
    files = sorted(glob.glob(os.path.join(sink_dir, "local-*.parquet")))
    expected = expected_buffered(inputs)
    failed, problems = set(), []
    stored_ids = Counter()

    def fail(batch, why):
        failed.add(batch)
        problems.append(f"batch {batch}: {why}")

    for i, fed in enumerate(inputs.tweets):
        if buffered.get(i) != expected[i]:
            fail(i, f"snapshot saw {buffered.get(i)} buffered upserts, "
                    f"schedule says {expected[i]}")
        if i >= len(files):
            fail(i, "not stored")
            continue
        stored = pd.read_parquet(files[i], columns=cols)
        stored_ids.update(stored["id"].tolist())
        if sorted(stored["id"]) != sorted(fed["id"]):
            fail(i, f"stored {len(stored)} records that differ from the "
                    f"{len(fed)} fed")
            continue
        try:
            assert_equivalent(_Stored(stored), SAFETY_RATING.oracle_sql,
                              tweets=fed,
                              **{REF_NAME: reference_as_of(inputs, i)})
        except AssertionError as e:
            fail(i, f"oracle mismatch: {str(e).splitlines()[0]}")
    fed_ids = Counter(x for t in inputs.tweets for x in t["id"].tolist())
    if len(files) > len(inputs.tweets):
        problems.append(f"{len(files)} batches stored, "
                        f"{len(inputs.tweets)} fed")
    if stored_ids != fed_ids or rows_written != sum(fed_ids.values()):
        lost = sum((fed_ids - stored_ids).values())
        extra = sum((stored_ids - fed_ids).values())
        problems.append(f"fed != stored once: {lost} lost, {extra} extra, "
                        f"sink counted {rows_written}")
    # a feed-wide problem no batch check caught counts as one failure
    return len(inputs.tweets), len(failed) or int(bool(problems)), problems
