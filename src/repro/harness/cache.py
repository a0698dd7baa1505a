"""On-disk cache of experiment shard payloads.

An experiment is a plan of shards (:meth:`Experiment.shard_plan`; one
``WHOLE`` shard for an experiment that overrides ``run``), and a shard's
payload is a pure function of ``(experiment_id, scale, shard, source
tree)`` — every experiment seeds its RNG streams deterministically — so
re-running ``repro-experiments`` after an unrelated edit, or twice in a
row, can skip the simulation entirely.  The cache holds one entry per
shard: a run at any ``--jobs`` executes the same shards, so it warms and
reuses the same entries.  The source tree is folded in as a SHA-256 over
every ``src/repro/**/*.py`` file: any code change invalidates the whole
cache, which is deliberately coarse — correctness over hit rate.

Entries are JSON files under ``~/.cache/repro-experiments`` (override with
``REPRO_CACHE_DIR``).  Results reduced from cached payloads are identical
to fresh ones: the CLI appends its wall-clock note *after* the reduction.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional

__all__ = ["ResultCache", "source_hash", "default_cache_dir"]

_ENTRY_VERSION = 1


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-experiments"


def source_hash(src_root: Optional[Path] = None) -> str:
    """SHA-256 over the ``repro`` package sources, stable across machines."""
    if src_root is None:
        src_root = Path(__file__).resolve().parent.parent  # src/repro
    digest = hashlib.sha256()
    for path in sorted(src_root.rglob("*.py")):
        digest.update(str(path.relative_to(src_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


class ResultCache:
    """Load/store shard payloads keyed by run identity."""

    def __init__(self, cache_dir: Optional[Path] = None,
                 src_hash: Optional[str] = None):
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.src_hash = src_hash if src_hash is not None else source_hash()
        self.hits = 0
        self.misses = 0

    def _path(self, experiment_id: str, scale: str, shard: str) -> Path:
        safe = shard.replace("/", "_")
        return self.cache_dir / (
            f"{experiment_id}-{scale}-{self.src_hash}-shard-{safe}.json")

    def get(self, experiment_id: str, scale: str,
            shard: str) -> Optional[dict]:
        """The cached payload of one shard, or ``None``."""
        path = self._path(experiment_id, scale, shard)
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            entry = {}
        if (entry.get("version") != _ENTRY_VERSION
                or entry.get("shard") != shard):
            self.misses += 1
            return None
        self.hits += 1
        return entry["payload"]

    def put(self, experiment_id: str, scale: str, shard: str,
            payload: dict) -> None:
        entry = {"version": _ENTRY_VERSION, "shard": shard,
                 "payload": payload}
        path = self._path(experiment_id, scale, shard)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(entry, indent=1, sort_keys=True))
        os.replace(tmp, path)

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if self.cache_dir.is_dir():
            for path in self.cache_dir.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed
