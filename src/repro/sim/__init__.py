"""Discrete-event simulation kernel.

This package provides the simulation substrate that everything else in the
reproduction runs on: a virtual clock over one heap of cancellable events,
restartable timers, deterministic per-component random streams, and a
lightweight tracing bus.

The kernel is deliberately minimal and synchronous -- events are callbacks
executed in timestamp order -- which matches the level of abstraction TOSSIM
exposes to protocol code (the paper's simulation vehicle).
"""

from repro.sim.kernel import Simulator
from repro.sim.timers import Timer
from repro.sim.rng import derive_rng
from repro.sim.tracing import TraceRecord, Tracer

__all__ = [
    "Simulator",
    "Timer",
    "derive_rng",
    "TraceRecord",
    "Tracer",
]
