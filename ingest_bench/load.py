"""The update client: reference upserts keyed to snapshots, not to a clock.

A clock-driven feeder sends more updates per batch when batches run slower,
and the never-flushed memory component then makes the next snapshot slower
still. Here the client sends the quota pre-generated for batch ``i`` right
after batch ``i``'s snapshot of the store, and batch ``i + 1``'s snapshot
waits until that quota is in. Every run therefore reads the same number of
buffered upserts at the same batch, writes still run beside the reads of
the batch being computed, and the run can check the schedule exactly.
"""
import threading
import time

#: Longest a snapshot waits for the previous batch's upserts to land.
UPSERT_WAIT_S = 60.0


class UpdateClient:
    """Upserts ``schedule[i]`` into ``store`` after the snapshot of batch i."""

    def __init__(self, rec, store, schedule: list):
        self.rec = rec
        self.store = store
        self.schedule = schedule
        self._taken = [threading.Event() for _ in schedule]
        self._applied = [threading.Event() for _ in schedule]
        self._stop = threading.Event()
        self.error: Exception | None = None
        self._thread = threading.Thread(target=self._run, name="update-client")

    def start(self) -> None:
        if self.schedule:
            self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()
        if self.error is not None:
            raise RuntimeError("update client failed") from self.error

    def _run(self) -> None:
        try:
            for i, upserts in enumerate(self.schedule):
                while not self._taken[i].wait(0.05):
                    if self._stop.is_set():
                        return
                self.rec.set_batch(i)
                with self.rec.span("lsm_store.upsert"):
                    self.store.upsert(upserts)
                self.rec.upsert_end[i] = time.perf_counter()
                self._applied[i].set()
        except Exception as e:  # surfaced by stop(); unblocks snapshots
            self.error = e
            for ev in self._applied:
                ev.set()

    def before_snapshot(self, batch: int) -> None:
        if self.schedule and batch > 0:
            if not self._applied[batch - 1].wait(UPSERT_WAIT_S):
                raise RuntimeError(f"upserts after batch {batch - 1} never landed")

    def after_snapshot(self, batch: int) -> None:
        if batch < len(self._taken):
            self._taken[batch].set()


def watch_store(rec, store, client: UpdateClient) -> None:
    """Time the store's read path and keep its snapshots on the schedule.

    Wraps the instance's ``snapshot`` (which ``snapshot_pdf`` also calls) so
    each batch's snapshot records the buffered upserts it saw; snapshots
    taken outside a batch (the predeployed job's deploy) are only timed.
    """
    snapshot, snapshot_pdf = store.snapshot, store.snapshot_pdf

    def timed_snapshot(spark):
        batch = rec.batch
        if batch >= 0:
            client.before_snapshot(batch)
            rec.buffered[batch] = store.buffered_updates
        with rec.span("lsm_store.snapshot"):
            df = snapshot(spark)
        if batch >= 0:
            client.after_snapshot(batch)
        return df

    store.snapshot = timed_snapshot
    store.snapshot_pdf = rec.wrap("lsm_store.snapshot_pdf", snapshot_pdf)
