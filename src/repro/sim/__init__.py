"""Discrete-event simulation substrate.

A small SimPy-style engine (:mod:`repro.sim.core`), resources with explicit
context-switch / fork / disk accounting (:mod:`repro.sim.resources`),
deterministic RNG streams (:mod:`repro.sim.random`) and metric collectors
(:mod:`repro.sim.stats`).
"""

from .core import Event, Process, SimulationError, Simulator, Timeout
from .random import RngStream, SeedSequence
from .resources import CPU, Disk, Request, Resource, Store
from .stats import Cdf, KernelStats, TimeSeries

__all__ = [
    "Event", "Process", "SimulationError", "Simulator", "Timeout",
    "RngStream", "SeedSequence",
    "CPU", "Disk", "Request", "Resource", "Store",
    "Cdf", "KernelStats", "TimeSeries",
]
