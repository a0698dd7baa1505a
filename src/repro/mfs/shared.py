"""The shared mailbox: single-copy storage for multi-recipient mails.

"A special mailbox is used by the mail server to store mails destined to
multiple recipients" (§6.1).  Its key file carries the authoritative
reference count per shared record; user mailbox key files point into its
data file with the ``refcount = -1`` sentinel.

In the paper the shared files are "implemented in the kernel, i.e. hidden
from the users" — here they live in a dot-directory owned by the store and
are only reachable through this class, which enforces the §6.4 collision
check: re-writing an existing mail-id with *different* bytes is rejected as
an attack (ids are server-generated and unique, so an honest producer can
never collide).
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from ..errors import MfsError
from .datafile import DataFile
from .keyfile import KeyFile
from .layout import KeyEntry, STATUS_LIVE

__all__ = ["SharedMailbox"]


class SharedMailbox:
    """The refcounted single-copy store behind every MFS mailbox."""

    KEY_NAME = "shmailbox_key"
    DATA_NAME = "shmailbox_data"

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keys = KeyFile(self.directory / self.KEY_NAME)
        self.data = DataFile(self.directory / self.DATA_NAME)
        # payload digests for the §6.4 collision check (rebuilt lazily)
        self._digests: dict[str, bytes] = {}

    def __contains__(self, mail_id: str) -> bool:
        return mail_id in self.keys

    def __len__(self) -> int:
        return len(self.keys)

    @staticmethod
    def _digest(payload: bytes) -> bytes:
        return hashlib.blake2b(payload, digest_size=16).digest()

    def add(self, mail_id: str, payload: bytes, refcount: int) -> int:
        """Store a shared record; returns its data-file offset.

        If the mail-id already exists (e.g. the queue manager retried a
        partially failed delivery) the data write is skipped — "the file
        system skips the steps of writing data ... if it finds that mail-id
        already exists in the shmailbox_key file" (§6.2) — the reference
        count grows by ``refcount``, and the payload must be byte-identical
        or the call is rejected as a collision attack (§6.4).
        """
        if refcount < 1:
            raise MfsError(f"shared refcount must be >= 1, got {refcount}")
        existing = self.keys.get(mail_id)
        if existing is not None:
            if self._digest_of(existing) != self._digest(payload):
                raise MfsError(
                    f"mail-id collision on {mail_id!r} with different "
                    "content — rejected (random-guessing attack, §6.4)")
            self.keys.set_refcount(mail_id, existing.refcount + refcount)
            return existing.offset
        offset = self.data.append(mail_id, payload)
        self.keys.append(KeyEntry(mail_id, offset, refcount, STATUS_LIVE))
        self._digests[mail_id] = self._digest(payload)
        return offset

    def _digest_of(self, entry: KeyEntry) -> bytes:
        digest = self._digests.get(entry.mail_id)
        if digest is None:
            _, payload = self.data.read(entry.offset, entry.mail_id)
            digest = self._digest(payload)
            self._digests[entry.mail_id] = digest
        return digest

    def read(self, mail_id: str) -> bytes:
        entry = self.keys.get(mail_id)
        if entry is None:
            raise MfsError(f"shared mail {mail_id!r} not found")
        _, payload = self.data.read(entry.offset, mail_id)
        return payload

    def refcount(self, mail_id: str) -> int:
        entry = self.keys.get(mail_id)
        if entry is None:
            raise MfsError(f"shared mail {mail_id!r} not found")
        return entry.refcount

    def decref(self, mail_id: str) -> int:
        """Drop one reference; reclaims the record at zero.

        "A shared record cannot be deleted until it is deleted from all MFS
        files that share it" (§6.1).
        """
        entry = self.keys.get(mail_id)
        if entry is None:
            raise MfsError(f"shared mail {mail_id!r} not found")
        if entry.refcount <= 0:
            raise MfsError(f"refcount underflow on shared mail {mail_id!r}")
        new = entry.refcount - 1
        if new == 0:
            self.keys.tombstone(mail_id)
            self._digests.pop(mail_id, None)
        else:
            self.keys.set_refcount(mail_id, new)
        return new

    def dead_bytes(self) -> int:
        """Data-file bytes belonging to reclaimed records."""
        live = {e.offset for e in self.keys.live_entries()}
        dead = 0
        for offset, _, payload in self.data.scan():
            if offset not in live:
                dead += len(payload)
        return dead

    def compact(self) -> int:
        """Rewrite the data file dropping dead records; returns bytes freed.

        Tombstoned records (refcount reached zero) leave holes in the
        append-only data file; compaction copies the live records into a
        fresh file and rewrites every key offset.  The store must be
        quiesced (no concurrent writers) — this is the maintenance
        operation a real deployment would run from cron.
        """
        before = self.data.size()
        new_path = self.data.path.with_suffix(".compact")
        new_data = DataFile(new_path)
        for entry in list(self.keys.live_entries()):
            _, payload = self.data.read(entry.offset, entry.mail_id)
            new_offset = new_data.append(entry.mail_id, payload)
            self.keys.rewrite(
                self.keys.slot_of(entry.mail_id),
                KeyEntry(entry.mail_id, new_offset, entry.refcount,
                         STATUS_LIVE))
        new_data.sync()
        freed = before - new_data.size()
        self.data.close()
        new_data.close()
        new_path.replace(self.data.path)
        self.data = DataFile(self.data.path)
        self.keys.sync()
        return freed

    def sync(self) -> None:
        self.keys.sync()
        self.data.sync()

    def close(self) -> None:
        self.keys.close()
        self.data.close()
