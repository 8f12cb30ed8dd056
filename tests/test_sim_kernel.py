"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(2.5)
        return sim.now

    result = sim.run_until_complete(sim.process(proc()))
    assert result == 2.5
    assert sim.now == 2.5


def test_zero_delay_timeout_fires_at_current_time():
    sim = Simulator()

    def proc():
        yield sim.timeout(0)
        return sim.now

    assert sim.run_until_complete(sim.process(proc())) == 0.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []

    def waiter(delay, tag):
        yield sim.timeout(delay)
        fired.append(tag)

    sim.process(waiter(3, "c"))
    sim.process(waiter(1, "a"))
    sim.process(waiter(2, "b"))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_fifo_order_among_equal_times():
    sim = Simulator()
    fired = []

    def waiter(tag):
        yield sim.timeout(1.0)
        fired.append(tag)

    for tag in "abcdef":
        sim.process(waiter(tag))
    sim.run()
    assert fired == list("abcdef")


def test_process_return_value_propagates():
    sim = Simulator()

    def child():
        yield sim.timeout(1)
        return 42

    def parent():
        value = yield sim.process(child())
        return value + 1

    assert sim.run_until_complete(sim.process(parent())) == 43


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()
    log = []

    def waiter():
        value = yield gate
        log.append((sim.now, value))

    def trigger():
        yield sim.timeout(5)
        gate.succeed("opened")

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert log == [(5.0, "opened")]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    gate = sim.event()

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            return "caught:%s" % exc
        return "not raised"

    def trigger():
        yield sim.timeout(1)
        gate.fail(RuntimeError("boom"))

    proc = sim.process(waiter())
    sim.process(trigger())
    assert sim.run_until_complete(proc) == "caught:boom"


def test_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)
    with pytest.raises(SimulationError):
        event.fail(RuntimeError())


def test_waiting_on_already_processed_event():
    sim = Simulator()
    gate = sim.event()
    gate.succeed("early")
    sim.run()
    assert gate.processed

    def late_waiter():
        value = yield gate
        return value

    assert sim.run_until_complete(sim.process(late_waiter())) == "early"


def test_process_crash_propagates_from_run_until_complete():
    sim = Simulator()

    def crasher():
        yield sim.timeout(1)
        raise ValueError("dead")

    with pytest.raises(ValueError, match="dead"):
        sim.run_until_complete(sim.process(crasher()))


def test_unhandled_failure_raises_from_run():
    sim = Simulator()

    def crasher():
        yield sim.timeout(1)
        raise ValueError("unwatched")

    sim.process(crasher())
    with pytest.raises(ValueError, match="unwatched"):
        sim.run()


def test_watched_failure_is_defused():
    sim = Simulator()

    def crasher():
        yield sim.timeout(1)
        raise ValueError("watched")

    def watcher():
        try:
            yield sim.process(crasher())
        except ValueError:
            return "handled"

    assert sim.run_until_complete(sim.process(watcher())) == "handled"


def test_interrupt_delivers_cause():
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(100)
        except Interrupt as interrupt:
            return ("interrupted", interrupt.cause, sim.now)

    def interrupter(victim):
        yield sim.timeout(3)
        victim.interrupt("wake up")

    victim = sim.process(sleeper())
    sim.process(interrupter(victim))
    assert sim.run_until_complete(victim) == ("interrupted", "wake up", 3.0)


def test_interrupt_terminated_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1)

    proc = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_yield_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42

    proc = sim.process(bad())
    with pytest.raises(RuntimeError, match="non-event"):
        sim.run()
    assert proc.triggered
    assert not proc.ok
    assert isinstance(proc.value, RuntimeError)


def test_all_of_waits_for_every_event():
    sim = Simulator()

    def proc():
        a = sim.timeout(5, "slow")
        b = sim.timeout(1, "fast")
        values = yield AllOf(sim, [a, b])
        return (sim.now, sorted(values.values()))

    when, values = sim.run_until_complete(sim.process(proc()))
    assert when == 5.0
    assert values == ["fast", "slow"]


def test_all_of_empty_list_triggers_immediately():
    sim = Simulator()

    def proc():
        result = yield AllOf(sim, [])
        return result

    assert sim.run_until_complete(sim.process(proc())) == {}


def test_run_until_limits_clock():
    sim = Simulator()
    fired = []

    def waiter():
        yield sim.timeout(10)
        fired.append(sim.now)

    sim.process(waiter())
    sim.run(until=5)
    assert sim.now == 5
    assert fired == []
    sim.run(until=15)
    assert fired == [10.0]
    assert sim.now == 15


def test_run_until_in_the_past_rejected():
    sim = Simulator()
    sim.run(until=10)
    with pytest.raises(ValueError):
        sim.run(until=5)


def test_deadlock_detected():
    sim = Simulator()

    def stuck():
        yield sim.event()  # never triggered

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(sim.process(stuck()))


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(7)
    assert sim.peek() == 7.0


def test_nested_process_chain():
    sim = Simulator()

    def level(n):
        if n == 0:
            yield sim.timeout(1)
            return 1
        inner = yield sim.process(level(n - 1))
        return inner + 1

    assert sim.run_until_complete(sim.process(level(10))) == 11
    assert sim.now == 1.0


class TestCancel:
    """``Timeout.cancel`` withdraws a pending timer: it never fires and
    never moves the clock, and the queue forgets it."""

    def test_cancelled_timer_never_fires(self):
        sim = Simulator()
        fired = []
        wake = sim.event()

        def holder():
            # The agent's hold idiom: the timer releases the same waiter
            # a wake does, and the holder parks on the waiter alone.
            timer = sim.timeout(25.0)
            timer.callbacks.append(lambda _event: fired.append("timer"))
            timer.callbacks.append(lambda _event: wake.triggered or wake.succeed())
            try:
                yield wake
            finally:
                timer.cancel()
            return sim.now, timer

        def waker():
            yield sim.timeout(2.0)
            wake.succeed()

        proc = sim.process(holder())
        sim.process(waker())
        sim.run()
        released_at, timer = proc.value
        assert released_at == 2.0
        assert sim.now == 2.0  # the 25 s entry never moved the clock
        assert fired == [] and not timer.triggered
        assert sim.peek() == float("inf") and sim._queue == []

    def test_run_until_over_cancelled_entries_only(self):
        sim = Simulator()
        timers = [sim.timeout(delay) for delay in (1.0, 2.0, 3.0)]
        for timer in timers:
            timer.cancel()
        sim.run(until=10.0)
        assert sim.now == 10.0
        assert sim.peek() == float("inf")
        sim.run()  # nothing live: returns at once
        assert sim.now == 10.0

    def test_step_skips_a_cancelled_head(self):
        sim = Simulator()
        doomed = sim.timeout(1.0)
        live = sim.timeout(2.0, value="live")
        doomed.cancel()
        sim.step()
        assert sim.now == 2.0 and live.value == "live"
        assert not doomed.triggered

    def test_fifo_order_at_equal_times_is_unchanged(self):
        sim = Simulator()
        fired = []
        timers = []
        for tag in "abcdefghij":
            timer = sim.timeout(1.0, value=tag)
            timer.callbacks.append(lambda event: fired.append(event.value))
            timers.append(timer)
        # Cancel more than half, so the queue is also compacted.
        for index in (1, 2, 4, 5, 7, 8):
            timers[index].cancel()
        assert len(sim._queue) == 4
        sim.run()
        assert fired == list("adgj")
        assert sim.now == 1.0

    def test_cancel_after_firing_is_a_no_op(self):
        sim = Simulator()
        timer = sim.timeout(1.0, value="v")
        sim.run()
        timer.cancel()
        assert timer.value == "v" and timer.processed

    def test_compaction_bounds_the_queue(self):
        sim = Simulator()
        live = sim.timeout(100.0)
        for _ in range(1000):
            sim.timeout(50.0).cancel()
            assert len(sim._queue) <= 3
        sim.run()
        assert live.processed and sim.now == 100.0

    def test_deadlock_detected_over_cancelled_entries(self):
        sim = Simulator()

        def stuck():
            timer = sim.timeout(5.0)
            timer.cancel()
            yield sim.event()

        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(sim.process(stuck()))
