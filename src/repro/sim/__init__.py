"""Discrete-event simulation substrate (kernel, resources, RNG streams)."""

from .kernel import (
    AllOf,
    Event,
    Interrupt,
    Kernel,
    Process,
    SimError,
    Timeout,
    Waitable,
    gc_paused,
)
from .rand import RandomStreams, derive_seed
from .resources import Lock, Resource

__all__ = [
    "AllOf",
    "Event",
    "Interrupt",
    "Kernel",
    "Lock",
    "Process",
    "RandomStreams",
    "Resource",
    "SimError",
    "Timeout",
    "Waitable",
    "derive_seed",
    "gc_paused",
]
