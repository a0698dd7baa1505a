"""Parallel experiment execution for ``repro-experiments --jobs N``.

Every experiment is a shard plan (:meth:`Experiment.shard_plan`): one
pool task per (parameter, variant) cell of its sweep, or the single
``WHOLE`` shard of an experiment that overrides ``run``.  Shards of all
requested experiments fan out over one ``multiprocessing`` pool with no
coordination beyond collecting their payloads, so a single big figure
saturates the pool instead of serialising behind one worker.  The shard
list and its order depend only on ``(experiment, scale)`` — never on
``--jobs`` — and the parent reduces payloads in plan order
(:meth:`Experiment.reduce_shards`) and returns outcomes in request order,
so results, traces, series and recordings are byte-identical at any job
count.  Shards are cached individually (:meth:`ResultCache.get`), which
keeps ``--jobs 1`` and ``--jobs N`` cache-compatible: each warms exactly
the entries the other reads, and a cached result and a fresh one come
from the same reduction.

Each worker process regenerates its own traces via the process-local memo
(:mod:`repro.traces.memo`); nothing heavier than the experiment id and
JSON-sized payloads crosses the process boundary.

With ``traced=True`` each shard runs inside its own
:func:`repro.obs.capture`: the same code path serially and in the pool, so
the merged trace (shards concatenated in request/plan order) is
byte-identical at any ``--jobs``.  Shard captures get ``run_base = shard
index × 1000`` so run/sim ids stay globally unique within the experiment
after the merge.  The same holds for ``series_interval``: sampling is
driven by simulated time, so the merged series file is byte-identical at
any ``--jobs`` too.

A crashing experiment is not allowed to surface as a bare pool exception
with the worker's stack lost: the worker catches everything and ships
``(experiment id, exception summary, formatted traceback)`` back to the
parent, which raises :class:`ExperimentFailure` carrying all three.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback as _traceback
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..obs.flightrec import TAIL_EVENTS
from ..obs.trace import capture
from .cache import ResultCache
from .experiment import ExperimentResult

__all__ = ["RunOutcome", "ExperimentFailure", "run_experiments",
           "SHARD_RUN_STRIDE"]

#: run/sim-id block reserved per shard inside one experiment's trace —
#: shard ``i`` counts runs from ``i * SHARD_RUN_STRIDE``
SHARD_RUN_STRIDE = 1000


@dataclass
class RunOutcome:
    """One experiment's result plus how it was obtained."""

    result: ExperimentResult
    elapsed: float
    cached: bool
    records: list = field(default_factory=list)  # trace records (traced runs)
    series: list = field(default_factory=list)   # time-series records
    events: list = field(default_factory=list)   # flight-recorder records
    violations: list = field(default_factory=list)  # invariant violations


class ExperimentFailure(RuntimeError):
    """An experiment crashed; carries the worker's formatted traceback.

    When the crashed run had a flight recorder attached,
    ``recorder_tail`` holds the last ring-buffered events leading up to
    the crash (newest last) so the post-mortem starts with context.
    """

    def __init__(self, exp_id: str, message: str, worker_traceback: str,
                 recorder_tail: Optional[list] = None):
        super().__init__(f"experiment {exp_id!r} failed: {message}")
        self.exp_id = exp_id
        self.worker_traceback = worker_traceback
        self.recorder_tail = recorder_tail or []


@dataclass
class _Failure:
    """Picklable crash payload shipped from a worker to the parent."""

    exp_id: str
    message: str
    traceback: str
    recorder_tail: list = field(default_factory=list)


def _run_one(task: tuple, on_sample=None) -> tuple:
    """Pool worker: run one shard of one experiment (top-level, picklable).

    ``task`` is ``(exp_id, shard, shard_index, scale, traced,
    series_interval, record, watchdogs)``.  Returns ``(exp_id, shard,
    payload-or-_Failure, elapsed, captured)`` with ``captured`` the
    shard's ``(records, series, events, violations)``.  ``on_sample``
    only exists on the serial path — callbacks do not cross the process
    boundary.
    """
    from .figures import EXPERIMENTS

    (exp_id, shard, shard_index, scale, traced, series_interval, record,
     watchdogs) = task
    start = time.perf_counter()
    records: list = []
    series: list = []
    events: list = []
    violations: list = []
    tr = None
    try:
        exp = EXPERIMENTS[exp_id]()
        if traced or series_interval is not None or record or watchdogs:
            # spans are only kept when the caller asked for a trace; a
            # watchdog/record-only capture stays bounded on long runs
            with capture(context={"exp": exp_id},
                         series_interval=series_interval,
                         on_sample=on_sample,
                         record=record, watchdogs=watchdogs,
                         keep_spans=traced,
                         run_base=shard_index * SHARD_RUN_STRIDE) as tr:
                payload = exp.run_shard(scale, shard)
            if traced:
                records = list(tr.records())
            if series_interval is not None:
                series = list(tr.series_records())
            if record:
                events = list(tr.record_records())
            if tr.invariants is not None:
                violations = tr.invariants.finish()
        else:
            payload = exp.run_shard(scale, shard)
    except Exception as exc:
        tail: list = []
        if tr is not None and tr.recorder is not None:
            # flush the ring so the post-mortem starts with context
            tail = tr.recorder.tail(TAIL_EVENTS, context={"exp": exp_id})
        failure = _Failure(exp_id, f"{type(exc).__name__}: {exc}",
                           _traceback.format_exc(), recorder_tail=tail)
        return exp_id, shard, failure, time.perf_counter() - start, None
    return (exp_id, shard, payload, time.perf_counter() - start,
            (records, series, events, violations))


@dataclass
class _Assembly:
    """Parent-side bookkeeping for one requested experiment."""

    shards: list                                   # shard_plan(scale)
    payloads: dict = field(default_factory=dict)   # shard -> payload
    captured: dict = field(default_factory=dict)   # fresh shard -> lists
    elapsed: float = 0.0


def run_experiments(exp_ids: Sequence[str], scale: str, jobs: int = 1,
                    cache: Optional[ResultCache] = None,
                    traced: bool = False,
                    series_interval: Optional[float] = None,
                    on_sample=None,
                    record: bool = False,
                    watchdogs: bool = False) -> list[RunOutcome]:
    """Run ``exp_ids`` at ``scale`` with up to ``jobs`` worker processes.

    Cached shards are reused without running anything; fresh shard
    payloads are written back to ``cache``.  The returned list matches
    ``exp_ids`` order.  ``traced=True`` captures a trace per shard,
    ``series_interval`` additionally samples every registry at that
    simulated-time interval, ``record=True`` captures the full
    flight-recorder event stream, and ``watchdogs=True`` runs the online
    invariant engine over a bounded ring (bypass the cache for
    trace/series/record — cached shards carry no records).

    Raises :class:`ExperimentFailure` for the first crashing experiment (in
    request order), with the worker's traceback — and, when a recorder was
    attached, the last ring-buffered events — attached.
    """
    from .figures import EXPERIMENTS

    assemblies: dict[str, _Assembly] = {}
    tasks: list[tuple] = []
    for exp_id in exp_ids:
        if exp_id in assemblies:
            continue
        plan = EXPERIMENTS[exp_id]().shard_plan(scale)
        asm = assemblies[exp_id] = _Assembly(shards=plan)
        for index, shard in enumerate(plan):
            hit = (cache.get(exp_id, scale, shard)
                   if cache is not None else None)
            if hit is not None:
                asm.payloads[shard] = hit
            else:
                tasks.append((exp_id, shard, index, scale, traced,
                              series_interval, record, watchdogs))

    if tasks:
        if jobs > 1 and len(tasks) > 1:
            with multiprocessing.Pool(min(jobs, len(tasks))) as pool:
                finished = pool.map(_run_one, tasks)
        else:
            finished = [_run_one(task, on_sample=on_sample)
                        for task in tasks]
        failures: dict[str, _Failure] = {}
        for exp_id, shard, payload, *_rest in finished:
            if isinstance(payload, _Failure) and exp_id not in failures:
                failures[exp_id] = payload
        if failures:
            first = next(e for e in exp_ids if e in failures)
            failure = failures[first]
            raise ExperimentFailure(failure.exp_id, failure.message,
                                    failure.traceback,
                                    recorder_tail=failure.recorder_tail)
        for exp_id, shard, payload, elapsed, captured in finished:
            asm = assemblies[exp_id]
            asm.elapsed += elapsed
            asm.payloads[shard] = payload
            asm.captured[shard] = captured
            if cache is not None:
                cache.put(exp_id, scale, shard, payload)

    outcomes: dict[str, RunOutcome] = {}
    for exp_id, asm in assemblies.items():
        result = EXPERIMENTS[exp_id]().reduce_shards(
            scale, [asm.payloads[shard] for shard in asm.shards])
        records, series, events, violations = merged = [], [], [], []
        for shard in asm.shards:           # plan order == merge order
            for into, part in zip(merged, asm.captured.get(shard, ())):
                into.extend(part)
        outcomes[exp_id] = RunOutcome(
            result=result, elapsed=asm.elapsed, cached=not asm.captured,
            records=records, series=series, events=events,
            violations=violations)

    return [outcomes[exp_id] for exp_id in exp_ids]
