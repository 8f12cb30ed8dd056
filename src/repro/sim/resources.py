"""Synchronization primitive built on the kernel: the store.

:class:`Store` is an unbounded FIFO queue of items with an event-returning
``get`` — the building block for simulated network channels and socket
buffers.  ``put`` never blocks, so it enqueues at once and schedules no
event of its own: the only event an item costs is the waiting getter's.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from .kernel import Event, Simulator

__all__ = ["Store", "StoreClosed"]


class StoreClosed(Exception):
    """Raised to getters/putters when a Store is closed."""


class Store:
    """Unbounded FIFO item queue with blocking get."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._closed = False

    def __len__(self) -> int:
        return len(self.items)

    @property
    def closed(self) -> bool:
        """Whether close() has been called."""
        return self._closed

    def put(self, item: Any) -> None:
        """Enqueue ``item`` now, handing it to the oldest waiting getter
        if there is one."""
        if self._closed:
            raise StoreClosed("put() on a closed store")
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self) -> Event:
        """Return an event that triggers with the next item."""
        event = Event(self.sim)
        if self.items:
            event.succeed(self.items.popleft())
        elif self._closed:
            event.fail(StoreClosed("get() on a drained, closed store"))
        else:
            self._getters.append(event)
        return event

    def close(self) -> None:
        """Close the store; pending and future getters fail once drained."""
        if self._closed:
            return
        self._closed = True
        # Waiting getters imply an empty buffer: none can be satisfied.
        while self._getters:
            self._getters.popleft().fail(StoreClosed("store closed while waiting"))
