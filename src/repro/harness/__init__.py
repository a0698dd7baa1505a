"""Experiment harness: per-figure experiments, caching, parallel runs, CLI."""

from .cache import ResultCache, source_hash
from .experiment import (WHOLE, Anchor, Experiment, ExperimentResult, Scale,
                         within)
from .figures import EXPERIMENTS
from .parallel import RunOutcome, run_experiments
from .report import render_result, render_table, write_experiments_md

__all__ = ["Anchor", "Experiment", "ExperimentResult", "Scale", "WHOLE",
           "within", "EXPERIMENTS", "ResultCache", "RunOutcome", "run_experiments",
           "source_hash", "render_result", "render_table",
           "write_experiments_md"]
