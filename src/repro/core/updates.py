"""Reference-data update feeder (§ 7.3's client program).

The paper measures enrichment throughput while a client continuously
sends reference-data updates through a feed at a configured rate
(records/second). :class:`UpdateFeeder` reproduces that client: a
daemon thread upserting genuine key-colliding updates into an
:class:`~repro.storage.lsm_store.LsmStore` at the target rate while the
ingestion pipeline runs concurrently. Any nonzero rate activates the
store's in-memory LSM component, which is the mechanism behind the
throughput drop in Fig 27.
"""
import threading
import time

import numpy as np
import pandas as pd

from repro.storage.lsm_store import LsmStore

#: Seconds between the feeder's upserts; each tick sends the rate's share.
TICK_S = 0.2
#: Seed of the first tick's update batch (tick ``i`` uses ``SEED + i``).
SEED = 1000


def update_batch(base: pd.DataFrame, key: str, k: int, seed: int) -> pd.DataFrame:
    """``k`` upsert records against existing keys of ``base``.

    Keys are sampled from the live key domain so every record is a true
    update (replaces a version), and every non-key object column gets a
    fresh marker value so staleness is observable in tests.
    """
    g = np.random.default_rng(seed)
    rows = base.iloc[g.integers(0, len(base), k)].copy().reset_index(drop=True)
    for col in rows.columns:
        if col != key and rows[col].dtype == object:
            rows[col] = [f"u{seed}_{i}" for i in range(k)]
    return rows.drop_duplicates(subset=[key]).reset_index(drop=True)


class UpdateFeeder:
    """Feeds upserts into a store at ``rate`` records/second until stopped."""

    def __init__(self, store: LsmStore, base: pd.DataFrame, *, rate: float):
        if rate < 0:
            raise ValueError("rate must be >= 0")
        self.store = store
        self.base = base
        self.rate = rate
        self.records_sent = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"update-feeder-{store.key}", daemon=True
        )

    def start(self) -> "UpdateFeeder":
        if self.rate > 0:
            self._thread.start()
        return self

    def _run(self) -> None:
        tick = 0
        # send floor(rate*TICK_S) per tick, carrying the fractional budget
        budget = 0.0
        while not self._stop.is_set():
            budget += self.rate * TICK_S
            k = int(budget)
            if k > 0:
                pdf = update_batch(self.base, self.store.key, k, SEED + tick)
                self.store.upsert(pdf)
                self.records_sent += len(pdf)
                budget -= k
            tick += 1
            self._stop.wait(TICK_S)

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=10)
