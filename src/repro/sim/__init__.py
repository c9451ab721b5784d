"""Discrete-event simulation substrate (kernel, resources, RNG streams)."""

from .kernel import (
    AllOf,
    AnyOf,
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
from .resources import Lock, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Kernel",
    "Lock",
    "Process",
    "RandomStreams",
    "Resource",
    "SimError",
    "Store",
    "Timeout",
    "Waitable",
    "derive_seed",
    "gc_paused",
]
