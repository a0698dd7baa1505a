"""MFS as a mailbox storage backend.

Binds the MFS machinery into the :class:`~repro.storage.base.MailboxStore`
interface so the delivery pipeline (and the Figs. 10/11 experiments) can use
it interchangeably with mbox/maildir/hardlink.  The I/O accounting mirrors
§6.1 exactly:

* single-recipient mail → append payload to ``mailbox_data`` + one 32-byte
  key tuple to ``mailbox_key``;
* multi-recipient mail → append payload **once** to ``shmailbox_data`` +
  one refcounted tuple to ``shmailbox_key`` + one 32-byte ``(id, offset,
  -1)`` tuple per recipient mailbox.

With tracing enabled the store counts single vs shared deliveries, dedup
hits and payload sizes under the ``mfs.*`` contract names:

>>> import tempfile
>>> from repro.obs import capture
>>> from repro.smtp.address import Address
>>> from repro.smtp.message import MailMessage
>>> with tempfile.TemporaryDirectory() as tmp, capture() as tr:
...     with MfsStore(tmp) as store:
...         mail = MailMessage(
...             mail_id="AA00", sender=Address.parse("a@example.org"),
...             recipients=[Address.parse("u1@dest.example"),
...                         Address.parse("u2@dest.example")],
...             body=b"hello")
...         n_ops = len(store.deliver(mail))
>>> tr.registry.counter("mfs.deliver.shared").value
1
>>> tr.registry.counter("mfs.dedup.hits").value
0
"""

from __future__ import annotations

from pathlib import Path

from ..errors import MfsError, StorageError
from ..obs.contract import declare
from ..obs.trace import active_registry, tracer
from ..smtp.message import MailMessage
from ..storage.base import MailboxStore, StoredMail
from ..storage.diskmodel import IoKind, IoOp
from .layout import DATA_HEADER_SIZE, KEY_RECORD_SIZE
from .mailfile import MailFile
from .shared import SharedMailbox

__all__ = ["MfsStore"]


class MfsStore(MailboxStore):
    """A directory of MFS mailboxes plus the hidden shared mailbox."""

    name = "mfs"

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # the paper hides shared files inside the kernel; we hide them in a
        # dot-directory only reachable through this store
        self.shared = SharedMailbox(self.root / ".shared")
        self._open: dict[str, MailFile] = {}
        reg = active_registry()
        if reg is not None:
            self._c_single = declare(reg, "mfs.deliver.single")
            self._c_shared = declare(reg, "mfs.deliver.shared")
            self._c_dedup = declare(reg, "mfs.dedup.hits")
            self._h_payload = declare(reg, "mfs.payload.bytes")
        else:
            self._c_single = None
        tr = tracer()
        self._rec = tr.recorder if tr.enabled else None
        # mfs.* events carry the store instance number in their conn field
        # (the store has no simulated clock or connection of its own)
        self._store_id = (self._rec.register_store()
                          if self._rec is not None else 0)

    def _emit(self, kind: str, attrs: tuple) -> None:
        self._rec.emit(kind, 0.0, 0, self._store_id, attrs)

    # -- handle management ----------------------------------------------------
    def open_mailbox(self, mailbox: str, mode: str = "a") -> MailFile:
        """``mail_open``: a cached handle to one mailbox."""
        handle = self._open.get(mailbox)
        if handle is None:
            handle = MailFile(self.root / "mailboxes", mailbox, self.shared,
                              mode=mode)
            self._open[mailbox] = handle
            if self._rec is not None:
                self._emit("mfs.open", (mailbox,))
        return handle

    def close(self) -> None:
        for handle in self._open.values():
            handle.close()
        self._open.clear()
        self.shared.close()

    def __enter__(self) -> "MfsStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- MailboxStore API -------------------------------------------------------
    @classmethod
    def plan(cls, payload_len: int, n_rcpts: int) -> list[IoOp]:
        if n_rcpts == 1:
            return [
                IoOp(IoKind.APPEND, DATA_HEADER_SIZE + payload_len,
                     "mailbox_data"),
                IoOp(IoKind.APPEND, KEY_RECORD_SIZE, "mailbox_key"),
            ]
        return cls._nwrite_plan(payload_len, n_rcpts)

    @staticmethod
    def _nwrite_plan(payload_len: int, n_mailboxes: int) -> list[IoOp]:
        """A fresh mail's ``mail_nwrite``: one shared copy, one key each."""
        ops = [
            IoOp(IoKind.APPEND, DATA_HEADER_SIZE + payload_len,
                 "shmailbox_data"),
            IoOp(IoKind.APPEND, KEY_RECORD_SIZE, "shmailbox_key"),
        ]
        ops += [IoOp(IoKind.APPEND, KEY_RECORD_SIZE,
                     "mailbox_key")] * n_mailboxes
        return ops

    def deliver(self, message: MailMessage) -> list[IoOp]:
        payload = message.serialized()
        mailboxes = [r.mailbox for r in message.recipients]
        if len(set(mailboxes)) != len(mailboxes):
            raise StorageError(
                f"duplicate recipient mailboxes in mail {message.mail_id!r}")
        if self._c_single is not None:
            self._h_payload.observe(len(payload))
            if len(mailboxes) == 1:
                self._c_single.inc()
            else:
                self._c_shared.inc()
        if len(mailboxes) == 1:
            handle = self.open_mailbox(mailboxes[0])
            handle.write(message.mail_id, payload)
            if self._rec is not None:
                self._emit("mfs.write", (mailboxes[0], len(payload)))
            return self.plan(len(payload), 1)
        return self.nwrite(mailboxes, message.mail_id, payload)

    def nwrite(self, mailboxes: list[str], mail_id: str,
               payload: bytes) -> list[IoOp]:
        """``mail_nwrite``: write one mail to ``len(mailboxes)`` mailboxes.

        The payload hits the disk once regardless of the recipient count.
        """
        if not mailboxes:
            raise StorageError("nwrite needs at least one mailbox")
        was_present = mail_id in self.shared
        self.shared.add(mail_id, payload, refcount=len(mailboxes))
        if was_present and self._c_single is not None:
            self._c_dedup.inc()
        offset = self.shared.keys.get(mail_id).offset
        for mailbox in mailboxes:
            handle = self.open_mailbox(mailbox)
            if mail_id in handle.keys:
                raise MfsError(
                    f"mail {mail_id!r} already delivered to {mailbox!r}")
            handle.add_shared_ref(mail_id, offset)
        if self._rec is not None:
            # authoritative post-state travels with the event so the
            # refcount watchdog can reconcile without touching the store
            refcount = self.shared.keys.get(mail_id).refcount
            self._emit("mfs.nwrite",
                       (mail_id, len(mailboxes), len(payload), was_present,
                        refcount, self.shared.data.size()))
            self._emit("mfs.refcount", (mail_id, len(mailboxes), refcount))
        ops = self._nwrite_plan(len(payload), len(mailboxes))
        if was_present:
            # dedup hit (§6.2's skip): the shared copy's two appends are
            # one refcount update
            ops[:2] = [IoOp(IoKind.UPDATE, KEY_RECORD_SIZE, "shmailbox_key")]
        return ops

    def list_mailbox(self, mailbox: str) -> list[str]:
        try:
            return self.open_mailbox(mailbox).mail_ids()
        except MfsError:
            return []

    def read(self, mailbox: str, mail_id: str) -> StoredMail:
        handle = self.open_mailbox(mailbox)
        return StoredMail(mail_id, handle.read_by_id(mail_id))

    def delete(self, mailbox: str, mail_id: str) -> list[IoOp]:
        handle = self.open_mailbox(mailbox)
        entry = handle.keys.get(mail_id)
        if entry is None:
            raise StorageError(f"mail {mail_id!r} not in {mailbox!r}")
        if self._rec is not None and entry.is_shared:
            # capture the pre-delete shared refcount: decref below may
            # tombstone the shared entry entirely
            shared_entry = self.shared.keys.get(mail_id)
            old_refcount = shared_entry.refcount if shared_entry else 0
        handle.delete(mail_id)
        ops = [IoOp(IoKind.UPDATE, KEY_RECORD_SIZE, target="mailbox_key")]
        if entry.is_shared:
            ops.append(IoOp(IoKind.UPDATE, KEY_RECORD_SIZE,
                            target="shmailbox_key"))
        if self._rec is not None:
            self._emit("mfs.delete", (mailbox, mail_id, entry.is_shared))
            if entry.is_shared:
                self._emit("mfs.refcount",
                           (mail_id, -1, old_refcount - 1))
        return ops

    # -- statistics ----------------------------------------------------------
    def shared_record_count(self) -> int:
        return len(self.shared)

    def sync(self) -> None:
        for handle in self._open.values():
            handle.sync()
        self.shared.sync()
