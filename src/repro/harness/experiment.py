"""Experiment framework: one runnable unit per paper table/figure.

Every experiment produces an :class:`ExperimentResult` holding the series
or table it regenerates plus *anchors* — the quantitative claims the paper
makes about that figure — with the measured counterpart next to each, so
``EXPERIMENTS.md`` can show paper-vs-measured at a glance.

Every experiment is a *shard plan*: a list of independent slices of its
sweep, each run to a JSON-sized payload and reduced in plan order into the
result.  An experiment that overrides :meth:`Experiment.run` instead is a
one-shard plan, ``[WHOLE]``, whose payload is its result's JSON mapping
(:meth:`ExperimentResult.as_payload`), so the harness runs, caches and
merges every experiment the same way.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

__all__ = ["Anchor", "ExperimentResult", "Experiment", "Scale", "WHOLE"]

#: the one shard of an experiment that overrides ``run``
WHOLE = "all"


class Scale:
    """Run sizes: ``QUICK`` for CI-speed smoke runs, ``FULL`` for the
    numbers recorded in EXPERIMENTS.md."""

    QUICK = "quick"
    FULL = "full"

    @staticmethod
    def validate(scale: str) -> str:
        if scale not in (Scale.QUICK, Scale.FULL):
            raise ValueError(f"unknown scale {scale!r}")
        return scale


@dataclass
class Anchor:
    """One published claim and its measured counterpart."""

    description: str
    paper_value: str
    measured_value: str
    holds: bool

    def as_row(self) -> dict:
        return {
            "claim": self.description,
            "paper": self.paper_value,
            "measured": self.measured_value,
            "holds": "yes" if self.holds else "NO",
        }


@dataclass
class ExperimentResult:
    """Output of one experiment run."""

    experiment_id: str
    title: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    anchors: list[Anchor] = field(default_factory=list)
    notes: str = ""
    scale: str = Scale.QUICK

    @property
    def all_anchors_hold(self) -> bool:
        return all(a.holds for a in self.anchors)

    def add_row(self, **values) -> None:
        self.rows.append(values)

    def add_anchor(self, description: str, paper_value: str,
                   measured_value: str, holds: bool) -> None:
        self.anchors.append(Anchor(description, paper_value, measured_value,
                                   holds))

    def as_payload(self) -> dict:
        """The result as a JSON-serialisable mapping."""
        return asdict(self)

    @classmethod
    def from_payload(cls, data: dict) -> ExperimentResult:
        return cls(**{**data,
                      "anchors": [Anchor(**a) for a in data["anchors"]]})


class Experiment:
    """Base class: subclasses implement :meth:`run` — or, for experiments
    whose sweep decomposes into independent pieces, the shard API below,
    which gives them intra-experiment parallelism under ``--jobs N`` for
    free.
    """

    #: short id used on the command line ("fig8", "table1", ...)
    experiment_id: str = ""
    #: human-readable title
    title: str = ""
    #: what the paper section/figure shows
    description: str = ""

    # -- shard API ---------------------------------------------------------
    # A *shard* is one independent slice of the experiment's sweep (one
    # (parameter, variant) cell), named by a deterministic string.  The
    # harness fans shards out across the worker pool and caches them
    # individually; ``run`` composes the same pieces serially, so direct
    # callers and ``--jobs 1`` share one code path with ``--jobs N``.  The
    # defaults make an experiment that overrides ``run`` one shard.

    def shard_plan(self, scale: str = Scale.QUICK) -> list[str]:
        """Shard ids in reduction order."""
        return [WHOLE]

    def run_shard(self, scale: str, shard: str) -> dict:
        """Run one shard; returns a JSON-serialisable payload."""
        if type(self).run is Experiment.run:
            raise NotImplementedError(
                f"{type(self).__name__} implements neither run() nor the "
                f"shard API")
        return self.run(scale).as_payload()

    def reduce_shards(self, scale: str,
                      payloads: Sequence[dict]) -> ExperimentResult:
        """Combine shard payloads (in ``shard_plan`` order) into a result."""
        return ExperimentResult.from_payload(payloads[0])

    def run(self, scale: str = Scale.QUICK) -> ExperimentResult:
        """Execute the experiment serially and return its result."""
        return self.reduce_shards(scale, [self.run_shard(scale, shard)
                                          for shard in self.shard_plan(scale)])

    def result(self, columns: Sequence[str],
               scale: str) -> ExperimentResult:
        return ExperimentResult(experiment_id=self.experiment_id,
                                title=self.title, columns=list(columns),
                                scale=scale)


def within(measured: float, target: float, rel_tol: float) -> bool:
    """Whether ``measured`` is within ``rel_tol`` (relative) of ``target``."""
    if target == 0:
        return abs(measured) <= rel_tol
    return abs(measured - target) / abs(target) <= rel_tol


def fmt(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}"
