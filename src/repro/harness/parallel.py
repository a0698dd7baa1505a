"""Parallel experiment execution for ``repro-experiments --jobs N``.

The figure experiments are independent and deterministic, so they fan out
over a ``multiprocessing`` pool with no coordination beyond collecting the
results.  Output order always matches the requested order regardless of
which worker finishes first, so ``--jobs 4`` output is byte-identical to
``--jobs 1``.

Experiments that implement the shard API (:meth:`Experiment.shard_plan`)
fan out *within* the experiment too: every (parameter, variant) cell of
their sweep becomes one pool task, so a single big figure saturates the
pool instead of serialising behind one worker.  The shard list and its
order depend only on ``(experiment, scale)`` — never on ``--jobs`` — and
the parent reduces payloads in plan order, so results, traces, series and
recordings are byte-identical at any job count.  Shards are also cached
individually (:meth:`ResultCache.get_shard`), which keeps ``--jobs 1`` and
``--jobs N`` cache-compatible: each warms exactly the entries the other
reads.

Each worker process regenerates its own traces via the process-local memo
(:mod:`repro.traces.memo`); nothing heavier than the experiment id and
JSON-sized payloads crosses the process boundary.

With ``traced=True`` each experiment — or each shard — runs inside its own
:func:`repro.obs.capture`: the same code path serially and in the pool, so
the merged trace (tasks concatenated in request/plan order) is
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
    """Pool worker: run one experiment or one shard (top-level, picklable).

    ``task`` is ``(exp_id, shard, shard_index, scale, traced,
    series_interval, record, watchdogs)`` with ``shard=None`` for a
    monolithic experiment.  Returns ``(exp_id, shard, payload-or-result-
    or-_Failure, elapsed, records, series, events, violations)``.
    ``on_sample`` only exists on the serial path — callbacks do not cross
    the process boundary.
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

    def execute():
        exp = EXPERIMENTS[exp_id]()
        if shard is None:
            return exp.run(scale=scale)
        return exp.run_shard(scale, shard)

    try:
        if traced or series_interval is not None or record or watchdogs:
            # spans are only kept when the caller asked for a trace; a
            # watchdog/record-only capture stays bounded on long runs
            with capture(context={"exp": exp_id},
                         series_interval=series_interval,
                         on_sample=on_sample,
                         record=record, watchdogs=watchdogs,
                         keep_spans=traced,
                         run_base=shard_index * SHARD_RUN_STRIDE) as tr:
                payload = execute()
            if traced:
                records = list(tr.records())
            if series_interval is not None:
                series = list(tr.series_records())
            if record:
                events = list(tr.record_records())
            if tr.invariants is not None:
                violations = tr.invariants.finish()
        else:
            payload = execute()
    except Exception as exc:
        tail: list = []
        if tr is not None and tr.recorder is not None:
            # flush the ring so the post-mortem starts with context
            tail = tr.recorder.tail(TAIL_EVENTS, context={"exp": exp_id})
        failure = _Failure(exp_id, f"{type(exc).__name__}: {exc}",
                           _traceback.format_exc(), recorder_tail=tail)
        return exp_id, shard, failure, time.perf_counter() - start, \
            [], [], [], []
    return (exp_id, shard, payload, time.perf_counter() - start, records,
            series, events, violations)


@dataclass
class _Assembly:
    """Parent-side bookkeeping for one requested experiment."""

    shards: Optional[list]               # shard_plan(scale); None=monolithic
    payloads: dict = field(default_factory=dict)   # shard -> payload
    fresh: set = field(default_factory=set)        # shards actually run
    elapsed: float = 0.0
    records: dict = field(default_factory=dict)    # shard -> records
    series: dict = field(default_factory=dict)
    events: dict = field(default_factory=dict)
    violations: dict = field(default_factory=dict)
    result: Optional[ExperimentResult] = None      # monolithic/cached result


def run_experiments(exp_ids: Sequence[str], scale: str, jobs: int = 1,
                    cache: Optional[ResultCache] = None,
                    traced: bool = False,
                    series_interval: Optional[float] = None,
                    on_sample=None,
                    record: bool = False,
                    watchdogs: bool = False) -> list[RunOutcome]:
    """Run ``exp_ids`` at ``scale`` with up to ``jobs`` worker processes.

    Cached results are returned without running anything; fresh results are
    written back to ``cache`` — per shard for shardable experiments, per
    result otherwise.  The returned list matches ``exp_ids`` order.
    ``traced=True`` captures a trace per experiment (per shard for
    shardable ones), ``series_interval`` additionally samples every
    registry at that simulated-time interval, ``record=True`` captures the
    full flight-recorder event stream, and ``watchdogs=True`` runs the
    online invariant engine over a bounded ring (bypass the cache for
    trace/series/record — cached results carry no records).

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
        exp = EXPERIMENTS[exp_id]()
        # duck-typed: anything without the shard API runs monolithically
        plan = exp.shard_plan(scale) if hasattr(exp, "shard_plan") else None
        asm = assemblies[exp_id] = _Assembly(shards=plan)
        if plan is None:
            hit = cache.get(exp_id, scale) if cache is not None else None
            if hit is not None:
                asm.result = hit
            else:
                tasks.append((exp_id, None, 0, scale, traced,
                              series_interval, record, watchdogs))
            continue
        for index, shard in enumerate(plan):
            hit = (cache.get_shard(exp_id, scale, shard)
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
        for (exp_id, shard, payload, elapsed, records, series,
             events, violations) in finished:
            asm = assemblies[exp_id]
            asm.elapsed += elapsed
            if shard is None:
                asm.result = payload
                asm.fresh.add(None)
                asm.records[None] = records
                asm.series[None] = series
                asm.events[None] = events
                asm.violations[None] = violations
                if cache is not None:
                    cache.put(payload)
            else:
                asm.payloads[shard] = payload
                asm.fresh.add(shard)
                asm.records[shard] = records
                asm.series[shard] = series
                asm.events[shard] = events
                asm.violations[shard] = violations
                if cache is not None:
                    cache.put_shard(exp_id, scale, shard, payload)

    outcomes: dict[str, RunOutcome] = {}
    for exp_id, asm in assemblies.items():
        if asm.shards is None:
            outcomes[exp_id] = RunOutcome(
                result=asm.result, elapsed=asm.elapsed,
                cached=not asm.fresh,
                records=asm.records.get(None, []),
                series=asm.series.get(None, []),
                events=asm.events.get(None, []),
                violations=asm.violations.get(None, []))
            continue
        result = EXPERIMENTS[exp_id]().reduce_shards(
            scale, [asm.payloads[shard] for shard in asm.shards])
        merged: dict[str, list] = {"records": [], "series": [],
                                   "events": [], "violations": []}
        for shard in asm.shards:           # plan order == merge order
            merged["records"].extend(asm.records.get(shard, []))
            merged["series"].extend(asm.series.get(shard, []))
            merged["events"].extend(asm.events.get(shard, []))
            merged["violations"].extend(asm.violations.get(shard, []))
        outcomes[exp_id] = RunOutcome(
            result=result, elapsed=asm.elapsed, cached=not asm.fresh,
            records=merged["records"], series=merged["series"],
            events=merged["events"], violations=merged["violations"])

    return [outcomes[exp_id] for exp_id in exp_ids]
