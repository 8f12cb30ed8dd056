"""Discrete-event simulation kernel used by every substrate in the repo."""

from .kernel import (
    AllOf,
    Condition,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .resources import Store, StoreClosed

__all__ = [
    "AllOf",
    "Condition",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Store",
    "StoreClosed",
    "Timeout",
]
