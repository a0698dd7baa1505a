"""Discrete-event simulation substrate.

A small SimPy-style engine (:mod:`repro.sim.core`), resources with explicit
context-switch / fork / disk accounting (:mod:`repro.sim.resources`),
deterministic RNG streams (:mod:`repro.sim.random`) and metric collectors
(:mod:`repro.sim.stats`).
"""

from .core import (AllOf, AnyOf, Event, Interrupt, Process, SimulationError,
                   Simulator, Timeout)
from .random import RngStream, SeedSequence
from .resources import CPU, Disk, Request, Resource, Store
from .stats import Cdf, Counter, KernelStats, TimeSeries, summarize

__all__ = [
    "AllOf", "AnyOf", "Event", "Interrupt", "Process", "SimulationError",
    "Simulator", "Timeout",
    "RngStream", "SeedSequence",
    "CPU", "Disk", "Request", "Resource", "Store",
    "Cdf", "Counter", "KernelStats", "TimeSeries", "summarize",
]
