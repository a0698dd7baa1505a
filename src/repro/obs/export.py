"""Trace serialisation: JSONL (default) and CSV, optionally gzipped.

The on-disk format is line-oriented so multi-gigabyte traces stream; the
writer is deterministic (sorted keys, compact separators) so a serial run
and a ``--jobs N`` run of the same experiments produce byte-identical
files — asserted by ``tests/test_obs.py``.

A ``.gz`` suffix compresses transparently: ``fig8.jsonl.gz`` is gzipped
JSONL, ``fig8.csv.gz`` gzipped CSV (the inner suffix picks the format).
The gzip header is written with a zeroed mtime and no filename so
compressed output stays byte-deterministic too.

Malformed input never surfaces as a traceback: :func:`read_trace` raises
:class:`TraceFormatError` naming the file and 1-based line number of the
first unparseable line — or of the first record whose ``type`` is unknown
or that lacks a field the report commands index — which the CLI report
commands turn into a one-line error and a nonzero exit.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
from pathlib import Path
from typing import Iterable, Union

__all__ = ["write_trace", "read_trace", "TraceFormatError"]

_CSV_COLUMNS = ("type", "exp", "run", "conn", "phase", "t0", "t1",
                "sim", "t", "interval", "attrs", "metrics", "version",
                "seq", "kind", "events", "dropped")

#: CSV cells parsed back into non-string types
_JSON_CELLS = ("attrs", "metrics")
_INT_CELLS = ("run", "conn", "version", "sim", "seq", "events", "dropped")
_FLOAT_CELLS = ("t0", "t1", "t", "interval")

#: record type -> the fields the report commands index on it
_REQUIRED = {
    "meta": (),
    "run": ("run",),
    "span": ("run", "conn", "phase", "t0", "t1"),
    "metrics": ("run", "metrics"),
    "sample": ("sim", "t", "run", "metrics"),
    "event": ("seq", "t", "run", "conn", "kind"),
}


class TraceFormatError(Exception):
    """A trace file failed to parse; names the file and line."""

    def __init__(self, path: Union[str, Path], line: int, reason: str):
        super().__init__(f"{path}:{line}: {reason}")
        self.path = str(path)
        self.line = line
        self.reason = reason


def _check_fields(path: Path, line: int, record: dict) -> None:
    """Reject a record of unknown type or missing an indexed field."""
    rtype = record.get("type")
    required = _REQUIRED.get(rtype) if isinstance(rtype, str) else None
    if required is None:
        raise TraceFormatError(path, line,
                               f"unknown record type {rtype!r}")
    missing = [name for name in required if name not in record]
    if missing:
        raise TraceFormatError(path, line, f"{rtype} record lacks "
                               f"{', '.join(missing)}")


def _effective_suffix(path: Path) -> str:
    """The format-selecting suffix, looking through a trailing ``.gz``."""
    suffix = path.suffix.lower()
    if suffix == ".gz":
        suffix = Path(path.stem).suffix.lower()
    return suffix


class _OwningGzipWriter(gzip.GzipFile):
    """A GzipFile that closes the raw file object it writes through."""

    def close(self):
        raw = self.fileobj
        try:
            super().close()
        finally:
            if raw is not None:
                raw.close()


def _open_write(path: Path):
    if path.suffix.lower() == ".gz":
        # GzipFile directly (not gzip.open) so mtime pins to 0 and no
        # filename lands in the header — compressed output must be as
        # deterministic as the records themselves
        raw = path.open("wb")
        return io.TextIOWrapper(
            _OwningGzipWriter(filename="", fileobj=raw, mode="wb", mtime=0),
            newline="")
    return path.open("w", newline="")


def _open_read(path: Path):
    if path.suffix.lower() == ".gz":
        return io.TextIOWrapper(gzip.GzipFile(path, mode="rb"), newline="")
    return path.open(newline="")


def write_trace(path: Union[str, Path], records: Iterable[dict]) -> int:
    """Write ``records`` to ``path``; format chosen by suffix.

    ``.csv`` writes one row per record with JSON-encoded ``attrs`` and
    ``metrics`` cells; anything else writes JSON Lines.  A final ``.gz``
    compresses either format.  Returns the number of records written.
    """
    path = Path(path)
    n = 0
    if _effective_suffix(path) == ".csv":
        with _open_write(path) as fh:
            writer = csv.DictWriter(fh, fieldnames=_CSV_COLUMNS,
                                    extrasaction="ignore")
            writer.writeheader()
            for record in records:
                row = dict(record)
                for key in _JSON_CELLS:
                    if key in row:
                        row[key] = json.dumps(row[key], sort_keys=True,
                                              separators=(",", ":"))
                writer.writerow(row)
                n += 1
        return n
    with _open_write(path) as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True,
                                separators=(",", ":")))
            fh.write("\n")
            n += 1
    return n


def read_trace(path: Union[str, Path]) -> list[dict]:
    """Read a trace written by :func:`write_trace` back into dicts.

    Raises :class:`TraceFormatError` (with the file and line number) on
    the first truncated or non-JSON line or malformed record, and
    :class:`OSError` when the file cannot be opened at all.
    """
    path = Path(path)
    if _effective_suffix(path) == ".csv":
        return _read_csv(path)
    records: list[dict] = []
    lineno = 0
    with _open_read(path) as fh:
        while True:
            lineno += 1
            try:
                line = fh.readline()
            except (EOFError, gzip.BadGzipFile, OSError) as exc:
                raise TraceFormatError(path, lineno,
                                       f"corrupt gzip stream: {exc}")
            if not line:
                return records
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(path, lineno,
                                       f"not valid JSON: {exc.msg}")
            if not isinstance(record, dict):
                raise TraceFormatError(path, lineno,
                                       "expected a JSON object per line")
            _check_fields(path, lineno, record)
            records.append(record)


def _read_csv(path: Path) -> list[dict]:
    records: list[dict] = []
    with _open_read(path) as fh:
        reader = csv.DictReader(fh)
        # DictReader counts the header, so data lines start at 2
        for row in reader:
            lineno = reader.line_num
            record: dict = {}
            try:
                for key, value in row.items():
                    if value is None or value == "" or key is None:
                        continue
                    if key in _JSON_CELLS:
                        record[key] = json.loads(value)
                    elif key in _INT_CELLS:
                        record[key] = int(value)
                    elif key in _FLOAT_CELLS:
                        record[key] = float(value)
                    else:
                        record[key] = value
            except (ValueError, json.JSONDecodeError) as exc:
                reason = getattr(exc, "msg", str(exc))
                raise TraceFormatError(path, lineno,
                                       f"bad {key!r} cell: {reason}")
            _check_fields(path, lineno, record)
            records.append(record)
    return records
