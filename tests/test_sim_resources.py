"""Unit tests for the Store primitive."""

import pytest

from repro.sim import Simulator, Store, StoreClosed


def run(sim, generator):
    return sim.run_until_complete(sim.process(generator))


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)

    def proc():
        store.put("a")
        value = yield store.get()
        return value

    assert run(sim, proc()) == "a"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    log = []

    def getter():
        value = yield store.get()
        log.append((sim.now, value))

    def putter():
        yield sim.timeout(4)
        store.put("late")

    sim.process(getter())
    sim.process(putter())
    sim.run()
    assert log == [(4.0, "late")]


def test_store_fifo_ordering():
    sim = Simulator()
    store = Store(sim)
    received = []

    def producer():
        for i in range(5):
            store.put(i)
            yield sim.timeout(0)

    def consumer():
        for _ in range(5):
            value = yield store.get()
            received.append(value)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert received == [0, 1, 2, 3, 4]


def test_put_hands_items_to_waiting_getters_in_fifo_order():
    sim = Simulator()
    store = Store(sim)
    received = []

    def getter(name):
        value = yield store.get()
        received.append((name, value, sim.now))

    for name in ("first", "second", "third"):
        sim.process(getter(name))
    sim.run()  # every getter is now parked

    store.put("a")
    store.put("b")
    store.put("c")
    assert len(store) == 0  # handed over, not buffered
    sim.run()
    assert received == [("first", "a", 0.0), ("second", "b", 0.0), ("third", "c", 0.0)]


def test_put_enqueues_at_once_and_schedules_no_event():
    sim = Simulator()
    store = Store(sim)
    assert store.put("a") is None
    assert sim._queue == []
    assert list(store.items) == ["a"]


def test_closed_store_rejects_put():
    sim = Simulator()
    store = Store(sim)
    store.close()
    with pytest.raises(StoreClosed):
        store.put("x")


def test_closed_store_drains_then_fails_get():
    sim = Simulator()
    store = Store(sim)
    store.put("left-over")
    store.close()

    def proc():
        value = yield store.get()
        try:
            yield store.get()
        except StoreClosed:
            return (value, "closed")
        return (value, "no error")

    assert run(sim, proc()) == ("left-over", "closed")


def test_close_fails_blocked_getters():
    sim = Simulator()
    store = Store(sim)
    results = []

    def getter():
        try:
            yield store.get()
        except StoreClosed:
            results.append("closed")

    def closer():
        yield sim.timeout(1)
        store.close()

    sim.process(getter())
    sim.process(closer())
    sim.run()
    assert results == ["closed"]
