"""Partition holders: queues, EOF protocol, back-pressure, failure."""
import queue
import threading
import time

import pytest

from repro.core.partition_holder import (
    EOF, ActivePartitionHolder, PassivePartitionHolder,
)


def test_passive_fifo_order():
    h = PassivePartitionHolder("intake")
    for i in range(5):
        h.put(i)
    assert [h.take() for _ in range(5)] == list(range(5))


def test_passive_take_timeout_returns_none():
    h = PassivePartitionHolder("intake")
    assert h.take(timeout=0.05) is None


def test_passive_close_appends_eof_after_data():
    h = PassivePartitionHolder("intake")
    h.put("frame")
    h.close()
    assert h.take() == "frame"
    assert h.take() is EOF


def test_passive_put_after_close_raises():
    h = PassivePartitionHolder("intake")
    h.close()
    with pytest.raises(RuntimeError, match="closed"):
        h.put("x")


def test_passive_close_idempotent():
    h = PassivePartitionHolder("intake")
    h.close()
    h.close()
    assert h.take() is EOF
    assert h.take(timeout=0.05) is None  # exactly one EOF


def test_passive_capacity_backpressure():
    h = PassivePartitionHolder("intake", capacity=2)
    h.put(1)
    h.put(2)
    with pytest.raises(queue.Full):
        h.put(3, timeout=0.05)
    assert h.depth == 2


def test_active_forwards_to_downstream():
    got = []
    h = ActivePartitionHolder("storage", downstream=got.append)
    for i in range(4):
        h.push(i)
    h.close_and_join()
    assert got == [0, 1, 2, 3]
    assert h.forwarded == 4


def test_active_downstream_error_surfaces():
    def bad(_):
        raise ValueError("disk full")

    h = ActivePartitionHolder("storage", downstream=bad)
    h.push("frame")
    time.sleep(0.1)
    with pytest.raises(RuntimeError, match="downstream failed"):
        h.close_and_join()


def test_active_push_after_error_raises():
    def bad(_):
        raise ValueError("boom")

    h = ActivePartitionHolder("storage", downstream=bad)
    h.push("a")
    time.sleep(0.1)
    with pytest.raises(RuntimeError):
        h.push("b")


def test_concurrent_producer_consumer():
    h = PassivePartitionHolder("intake", capacity=4)
    out = []

    def producer():
        for i in range(50):
            h.put(i)
        h.close()

    t = threading.Thread(target=producer)
    t.start()
    while True:
        f = h.take(timeout=1.0)
        if f is EOF:
            break
        if f is not None:
            out.append(f)
    t.join()
    assert out == list(range(50))


def test_passive_abort_frees_blocked_producer():
    h = PassivePartitionHolder("intake", capacity=1)
    h.put("a")
    outcome = []

    def producer():
        try:
            for frame in ("b", "c", "d"):  # "b" blocks: the holder is full
                h.put(frame)
        except RuntimeError as e:
            outcome.append(e)
        h.close()

    t = threading.Thread(target=producer)
    t.start()
    time.sleep(0.05)
    h.abort()
    t.join(timeout=1.0)
    assert not t.is_alive()
    assert len(outcome) == 1 and "closed" in str(outcome[0])


def test_active_push_blocked_on_full_queue_sees_downstream_error():
    release = threading.Event()

    def bad(_):
        release.wait()
        raise ValueError("disk full")

    h = ActivePartitionHolder("storage", downstream=bad, capacity=1)
    h.push("a")           # the consumer takes it and waits in downstream
    time.sleep(0.05)
    h.push("b")           # fills the queue
    outcome = []

    def pusher():
        try:
            h.push("c")   # blocks until the failed consumer drains
        except RuntimeError as e:
            outcome.append(e)

    t = threading.Thread(target=pusher)
    t.start()
    time.sleep(0.05)
    assert t.is_alive()
    release.set()
    t.join(timeout=1.0)
    assert not t.is_alive()
    assert isinstance(outcome[0].__cause__, ValueError)
    with pytest.raises(RuntimeError, match="downstream failed"):
        h.close_and_join()
    assert h.forwarded == 0
