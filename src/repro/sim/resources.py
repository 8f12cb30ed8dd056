"""Synchronization primitive built on the kernel: the store.

:class:`Store` is an unbounded (or bounded) FIFO queue of items with
event-returning ``put``/``get`` — the building block for simulated network
channels and socket buffers.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from .kernel import Event, Simulator

__all__ = ["Store", "StoreClosed"]


class StoreClosed(Exception):
    """Raised to getters/putters when a Store is closed."""


class Store:
    """FIFO item queue with blocking get and optionally bounded put."""

    def __init__(self, sim: Simulator, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Event] = deque()
        self._closed = False

    def __len__(self) -> int:
        return len(self.items)

    @property
    def closed(self) -> bool:
        """Whether close() has been called."""
        return self._closed

    def put(self, item: Any) -> Event:
        """Return an event that triggers once ``item`` is enqueued."""
        if self._closed:
            raise StoreClosed("put() on a closed store")
        event = self.sim.event()
        event.item = item
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self) -> Event:
        """Return an event that triggers with the next item."""
        if self._closed and not self.items and not self._putters:
            event = self.sim.event()
            event.fail(StoreClosed("get() on a drained, closed store"))
            return event
        event = self.sim.event()
        self._getters.append(event)
        self._dispatch()
        return event

    def close(self) -> None:
        """Close the store; pending and future getters fail once drained."""
        if self._closed:
            return
        self._closed = True
        self._dispatch()
        # Fail getters that can never be satisfied.
        if not self.items and not self._putters:
            while self._getters:
                getter = self._getters.popleft()
                if not getter.triggered:
                    getter.fail(StoreClosed("store closed while waiting"))

    def _dispatch(self) -> None:
        # Move items from putters into the buffer while capacity allows.
        while self._putters and len(self.items) < self.capacity:
            putter = self._putters.popleft()
            self.items.append(putter.item)
            putter.succeed()
        # Hand buffered items to waiting getters.
        while self._getters and self.items:
            getter = self._getters.popleft()
            if getter.triggered:
                continue
            getter.succeed(self.items.popleft())
            # Space may have been freed for putters.
            while self._putters and len(self.items) < self.capacity:
                putter = self._putters.popleft()
                self.items.append(putter.item)
                putter.succeed()
