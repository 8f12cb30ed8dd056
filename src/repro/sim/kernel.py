"""Discrete-event simulation kernel.

The kernel provides a deterministic event loop with generator-based
processes, in the style of SimPy.  Every higher layer of the reproduction
(network links, sockets, HTTP exchanges, browsers, RCB polling) runs as a
:class:`Process` on a single :class:`Simulator`.

A process is a Python generator that yields *events*:

* ``yield sim.timeout(1.5)`` — resume 1.5 simulated seconds later.
* ``yield some_event`` — resume when the event is triggered.
* ``yield other_process`` — resume when the other process terminates
  (processes are themselves events whose value is the generator's return
  value).
* ``yield AllOf(sim, [a, b])`` — resume once every sub-event triggered.

Determinism: events scheduled for the same simulated time fire in FIFO
order of scheduling, so repeated runs are bit-for-bit identical.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "Interrupt",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for kernel misuse (e.g. triggering an event twice)."""


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Internal marker for "event has not produced a value yet".
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; it becomes *triggered* through
    :meth:`succeed` or :meth:`fail`, at which point it is scheduled on the
    simulator and, when processed, wakes every waiting process (callbacks).
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None

    @property
    def triggered(self) -> bool:
        """True once the event has a value (scheduled or processed)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid when triggered."""
        if self._ok is None:
            raise SimulationError("event value is not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is _PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError("event has already been triggered")
        self._ok = True
        self._value = value
        self.sim._schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will see the exception thrown at their yield
        point.
        """
        if self.triggered:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        # Preserve a pre-set defuse mark: interrupt() defuses abandoned
        # events *before* they fail (e.g. a store closing under a recv
        # whose waiter was interrupted away).
        self._defused = getattr(self, "_defused", False)
        self.sim._schedule_event(self)
        return self

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run immediately at the current time by
            # scheduling a zero-delay bridge event.  This keeps semantics
            # uniform (callbacks never run synchronously inside add).
            bridge = Event(self.sim)
            bridge.callbacks.append(callback)
            bridge._ok = self._ok
            bridge._value = self._value
            self.sim._schedule_event(bridge)
        else:
            self.callbacks.append(callback)

    def _process_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation."""

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError("negative delay: %r" % (delay,))
        super().__init__(sim)
        self.delay = delay
        # The value is applied when the event fires (see Simulator.step),
        # so `triggered` stays False until the simulated time is reached.
        # None marks a cancelled timer.
        self._fire = (True, value)
        sim._schedule_event(self, delay=delay)

    def cancel(self) -> None:
        """Withdraw a timer that has not fired: it never fires, never
        moves the clock, and drops its waiters' callbacks now, so nothing
        it would have woken stays referenced until its time comes.  A
        no-op once the timer fired or was cancelled."""
        if self._value is not _PENDING or self._fire is None:
            return
        self._fire = None
        self.callbacks = []
        self.sim._note_cancelled()


class Process(Event):
    """A running generator; also an event that fires on termination."""

    def __init__(self, sim: "Simulator", generator: Generator):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError("Process requires a generator, got %r" % (generator,))
        self.generator = generator
        self.name = getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        # Kick off the process at the current simulated time.
        bootstrap = Event(sim)
        bootstrap._ok = True
        bootstrap._value = None
        bootstrap.callbacks.append(self._resume)
        sim._schedule_event(bootstrap)

    @property
    def is_alive(self) -> bool:
        """True while the process has not terminated."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point."""
        if self.triggered:
            raise SimulationError("cannot interrupt a terminated process")
        interrupt_event = Event(self.sim)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        # Detach from whatever the process was waiting on.
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
            if not target.callbacks or (target.triggered and not target._ok):
                # The process abandons the event; if it has failed — or
                # fails later with no other waiter (e.g. a connection
                # closing under a parked recv) — nobody will consume its
                # exception, so mark it handled.
                target._defused = True
        self._target = None
        interrupt_event.callbacks.append(self._resume)
        self.sim._schedule_event(interrupt_event)

    def _resume(self, event: Event) -> None:
        self._target = None
        try:
            if event._ok:
                result = self.generator.send(event._value)
            else:
                # Mark the exception as handled by this process.
                event._defused = True
                exc = event._value
                result = self.generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # process crashed
            self.fail(exc)
            return

        if not isinstance(result, Event):
            crash = RuntimeError(
                "process %r yielded a non-event: %r" % (self.name, result)
            )
            self.generator.close()
            self.fail(crash)
            return
        if result.sim is not self.sim:
            raise SimulationError("event belongs to a different simulator")
        self._target = result
        result._add_callback(self._resume)


class Condition(Event):
    """Composite event over several sub-events.

    ``evaluate`` receives (events, n_triggered) and returns True when the
    condition is satisfied.  The condition's value is an ordered dict-like
    mapping of triggered events to their values.
    """

    def __init__(
        self,
        sim: "Simulator",
        events: Iterable[Event],
        evaluate: Callable[[List[Event], int], bool],
    ):
        super().__init__(sim)
        self.events = list(events)
        self._evaluate = evaluate
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("event belongs to a different simulator")
            event._add_callback(self._check)

    def _collect_values(self) -> dict:
        return {
            event: event._value for event in self.events if event.triggered
        }

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self.events, self._count):
            self.succeed(self._collect_values())


def AllOf(sim: "Simulator", events: Iterable[Event]) -> Condition:
    """Triggered once every sub-event has triggered."""
    return Condition(sim, events, lambda events, count: count >= len(events))


def _is_cancelled(event: Event) -> bool:
    return event._value is _PENDING and getattr(event, "_fire", True) is None


class Simulator:
    """The event loop: a priority queue of (time, sequence, event).

    A cancelled timer stays in the queue until it reaches the head or
    the queue is compacted; every reader treats it as absent."""

    def __init__(self):
        self.now: float = 0.0
        self._queue: List = []
        self._sequence = itertools.count()
        #: Cancelled timers still in ``_queue``.
        self._cancelled = 0

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered Event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a generator as a Process."""
        return Process(self, generator)

    # -- scheduling --------------------------------------------------------

    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        heapq.heappush(self._queue, (self.now + delay, next(self._sequence), event))

    def _note_cancelled(self) -> None:
        """Count one more cancelled timer; once they outnumber the live
        entries, rebuild the queue without them.  (time, sequence) keys
        are unique, so the rebuilt heap pops in the same order."""
        self._cancelled += 1
        queue = self._queue
        if 2 * self._cancelled > len(queue):
            queue[:] = [entry for entry in queue if not _is_cancelled(entry[2])]
            heapq.heapify(queue)
            self._cancelled = 0

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none (cancelled
        timers at the head are dropped on the way)."""
        queue = self._queue
        if self._cancelled:
            while queue and _is_cancelled(queue[0][2]):
                heapq.heappop(queue)
                self._cancelled -= 1
        return queue[0][0] if queue else float("inf")

    def step(self) -> None:
        """Process one event (cancelled timers are skipped unseen)."""
        if self._cancelled:
            self.peek()
        when, _seq, event = heapq.heappop(self._queue)
        self.now = when
        if event._value is _PENDING:
            # Deferred-value events (timeouts) receive their value now.
            event._ok, event._value = getattr(event, "_fire", (True, None))
        event._process_callbacks()
        if event._ok is False and not getattr(event, "_defused", True):
            # A failed event nobody handled: propagate, matching the
            # "errors should never pass silently" rule.
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time reaches ``until``."""
        if until is not None and until < self.now:
            raise ValueError("until (%r) is in the past (now=%r)" % (until, self.now))
        while True:
            when = self.peek()
            if not self._queue:
                break
            if until is not None and when > until:
                self.now = until
                return
            self.step()
        if until is not None:
            self.now = until

    def run_until_complete(self, process: Process, limit: float = 1e9) -> Any:
        """Run until ``process`` terminates; return its value or re-raise.

        ``limit`` bounds simulated time to protect against livelock.
        """
        while not process.triggered:
            when = self.peek()
            if not self._queue:
                raise SimulationError(
                    "deadlock: no scheduled events but process %r is alive"
                    % (process.name,)
                )
            if when > limit:
                raise SimulationError(
                    "simulated time limit %r exceeded waiting for %r"
                    % (limit, process.name)
                )
            self.step()
        process._defused = True
        if not process._ok:
            raise process._value
        return process._value
