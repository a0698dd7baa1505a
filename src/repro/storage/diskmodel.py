"""Filesystem cost models (the Figs. 10/11 "Ext3 vs Reiser" substrate).

The storage experiments depend only on the *relative* costs of four disk
operations on the two filesystems the paper benchmarks on:

* appending to an existing file (cheap everywhere; dominated by a fixed
  journal/seek overhead plus per-byte bandwidth),
* creating a new file (expensive on Ext3 for small-file workloads, cheap on
  ReiserFS — the finding of the paper's reference [16] that explains why
  maildir collapses on Ext3 and recovers on Reiser),
* creating a hard link (a directory-entry + inode update; journal-bound on
  Ext3, cheap on Reiser), and
* deleting a directory entry.

Costs are expressed in seconds on a 2007-class U320 SCSI disk (Table 1).
The constants were calibrated so the published anchor ratios hold — see
``DESIGN.md`` ("Calibration targets") and the Fig. 10/11 benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..errors import StorageError

__all__ = ["IoKind", "IoOp", "FsCostModel", "EXT3", "REISER", "MODELS"]


class IoKind(Enum):
    APPEND = "append"    # append nbytes to an existing file
    CREATE = "create"    # create a new file and write nbytes
    LINK = "link"        # add a hard link to an existing file
    UNLINK = "unlink"    # remove a directory entry
    UPDATE = "update"    # in-place update of nbytes (MFS refcounts)


@dataclass(frozen=True)
class IoOp:
    """One disk operation performed by a storage backend."""

    kind: IoKind
    nbytes: int = 0
    target: str = ""

    def __post_init__(self):
        if self.nbytes < 0:
            raise StorageError(f"negative I/O size: {self.nbytes}")


@dataclass(frozen=True)
class FsCostModel:
    """Per-operation service times for one filesystem."""

    name: str
    append_fixed: float   # seek + journal commit for an append
    create_fixed: float   # inode allocation + directory insert + journal
    link_fixed: float     # directory insert + inode update
    unlink_fixed: float
    update_fixed: float   # small in-place write
    per_byte: float       # effective streaming cost per payload byte

    def cost(self, op: IoOp) -> float:
        """Service time in seconds for one operation."""
        if op.kind is IoKind.APPEND:
            return self.append_fixed + op.nbytes * self.per_byte
        if op.kind is IoKind.CREATE:
            return self.create_fixed + op.nbytes * self.per_byte
        if op.kind is IoKind.LINK:
            return self.link_fixed
        if op.kind is IoKind.UNLINK:
            return self.unlink_fixed
        if op.kind is IoKind.UPDATE:
            return self.update_fixed + op.nbytes * self.per_byte
        raise StorageError(f"unknown I/O kind {op.kind!r}")


#: Ext3 (journalled): appends pay a journal commit; small-file creation is
#: expensive (ref. [16]: Ext3 "performs poorly" for many small files).
EXT3 = FsCostModel(
    name="ext3",
    append_fixed=470e-6,
    create_fixed=5_000e-6,
    link_fixed=4_000e-6,
    unlink_fixed=2_000e-6,
    update_fixed=300e-6,
    per_byte=65e-9,      # ~15 MB/s effective journalled small-write bandwidth
)

#: ReiserFS: optimised for small files — cheap creates and links, slightly
#: cheaper metadata updates, same streaming bandwidth.
REISER = FsCostModel(
    name="reiser",
    append_fixed=440e-6,
    create_fixed=1_990e-6,
    link_fixed=885e-6,
    unlink_fixed=450e-6,
    update_fixed=280e-6,
    per_byte=65e-9,
)

MODELS: dict[str, FsCostModel] = {m.name: m for m in (EXT3, REISER)}
