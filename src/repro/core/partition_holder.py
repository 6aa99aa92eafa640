"""Partition holders — bounded queues that let frames cross job boundaries.

Hyracks data exchanges are scoped to one job; the paper adds *partition
holder* operators (§ 5.3) so the long-running intake job, the per-batch
computing jobs, and the long-running storage job can hand frames to each
other through in-memory structures:

* a **passive** holder queues frames from its upstream operator and
  waits for another job to **pull** them (tail of the intake job);
* an **active** holder receives frames **pushed** from another job and
  forwards them to its downstream operator (head of the storage job).

Queues are bounded: a full intake holder back-pressures the adapter, a
full storage holder back-pressures computing jobs. A failure on either
side must not leave the other blocked on a full queue: a passive holder
can be aborted by its consumer, and an active holder whose downstream
failed keeps draining its queue so pushers return and see the error.
"""
import queue
import threading

#: Sentinel appended by the intake job when the feed stops (§ 6.1): a
#: computing job that sees it finishes with a partial batch.
EOF = object()


class PassivePartitionHolder:
    """Pull-side holder: upstream ``put``s frames, another job ``take``s."""

    def __init__(self, holder_id: str, capacity: int = 64):
        self.holder_id = holder_id
        self._q: queue.Queue = queue.Queue(maxsize=capacity)
        self._closed = threading.Event()

    def put(self, frame, timeout: float | None = None) -> None:
        if self._closed.is_set():
            raise RuntimeError(f"holder {self.holder_id} is closed")
        self._q.put(frame, timeout=timeout)

    def take(self, timeout: float | None = None):
        """Next frame, ``EOF`` once the feed has stopped and drained."""
        try:
            return self._q.get(timeout=timeout)
        except queue.Empty:
            return None

    def close(self) -> None:
        """Feed stop: append the EOF record after all data (§ 6.1)."""
        if not self._closed.is_set():
            self._closed.set()
            self._q.put(EOF)

    def abort(self) -> None:
        """The consumer gave up: refuse further frames and drop queued
        ones, so a (single) producer blocked in ``put`` returns and its
        next ``put`` raises."""
        self._closed.set()
        while True:
            try:
                self._q.get_nowait()
            except queue.Empty:
                return

    @property
    def depth(self) -> int:
        return self._q.qsize()


class ActivePartitionHolder:
    """Push-side holder: other jobs ``push`` frames, a consumer thread
    forwards them to ``downstream`` (the storage job's pipeline)."""

    def __init__(self, holder_id: str, downstream, capacity: int = 64):
        self.holder_id = holder_id
        self.downstream = downstream
        self._q: queue.Queue = queue.Queue(maxsize=capacity)
        self._error: BaseException | None = None
        self.forwarded = 0
        self._thread = threading.Thread(
            target=self._run, name=f"active-holder-{holder_id}", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while (frame := self._q.get()) is not EOF:
            if self._error is not None:
                continue  # downstream failed: drain so no pusher blocks
            try:
                self.downstream(frame)
                self.forwarded += 1
            except BaseException as e:  # surfaced on push/close_and_join
                self._error = e

    def push(self, frame, timeout: float | None = None) -> None:
        self._raise_if_failed()
        self._q.put(frame, timeout=timeout)
        # a put that waited for room may have been freed by the drain
        self._raise_if_failed()

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            raise RuntimeError("downstream failed") from self._error

    def close_and_join(self, timeout: float | None = 30.0) -> None:
        self._q.put(EOF)
        self._thread.join(timeout=timeout)
        self._raise_if_failed()

    @property
    def depth(self) -> int:
        return self._q.qsize()

