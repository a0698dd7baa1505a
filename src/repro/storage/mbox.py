"""mbox backend: one file per mailbox, mails appended (vanilla postfix).

A mail to N recipients is serialised and appended N times — the duplicated
disk I/O that §4.2 identifies and MFS removes.  The on-disk format is a
simplified mbox: a ``From``-style separator line carrying the mail id and
payload length, then the payload.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import StorageError
from ..smtp.message import MailMessage
from .base import MailboxStore, StoredMail
from .diskmodel import IoKind, IoOp

__all__ = ["MboxStore"]

_SEPARATOR = b"From MAILER "


class MboxStore(MailboxStore):
    """One append-only file per mailbox."""

    name = "mbox"

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, mailbox: str) -> Path:
        safe = mailbox.replace("@", "_at_").replace("/", "_")
        return self.root / safe

    @classmethod
    def plan(cls, payload_len: int, n_rcpts: int) -> list[IoOp]:
        record = payload_len + cls.RECORD_OVERHEAD
        return [IoOp(IoKind.APPEND, record, "mailbox")] * n_rcpts

    def deliver(self, message: MailMessage) -> list[IoOp]:
        payload = message.serialized()
        record = self._record(message.mail_id, payload)
        ops: list[IoOp] = []
        for recipient in message.recipients:
            path = self._path(recipient.mailbox)
            existed = path.exists()
            with path.open("ab") as fh:
                fh.write(record)
            # the first mail to a mailbox creates the file; afterwards the
            # whole payload is re-appended for every recipient
            kind = IoKind.APPEND if existed else IoKind.CREATE
            ops.append(IoOp(kind, len(record), target=recipient.mailbox))
        return ops

    #: bytes a record adds to its payload: the separator line
    #: ``From MAILER <id> <len>\n`` and the trailing newline.  A
    #: steady-state estimate for :meth:`plan`; the exact figure depends on
    #: the lengths of the mail id and of the payload length's digits
    RECORD_OVERHEAD = 33

    @staticmethod
    def _record(mail_id: str, payload: bytes) -> bytes:
        return (_SEPARATOR + f"{mail_id} {len(payload)}\n".encode()
                + payload + b"\n")

    def _scan(self, mailbox: str):
        """Yield ``(mail_id, payload)`` in file order, skipping deletions."""
        path = self._path(mailbox)
        if not path.exists():
            return
        data = path.read_bytes()
        pos = 0
        while pos < len(data):
            if not data.startswith(_SEPARATOR, pos):
                raise StorageError(
                    f"corrupt mbox {path.name} at offset {pos}")
            eol = data.index(b"\n", pos)
            header = data[pos + len(_SEPARATOR):eol].decode()
            mail_id, length_text = header.split(" ")
            length = int(length_text)
            start = eol + 1
            payload = data[start:start + length]
            if len(payload) != length:
                raise StorageError(f"truncated mbox record in {path.name}")
            yield mail_id, payload
            pos = start + length + 1  # trailing newline

    def list_mailbox(self, mailbox: str) -> list[str]:
        deleted = self._deleted_ids(mailbox)
        return [mid for mid, _ in self._scan(mailbox) if mid not in deleted]

    def read(self, mailbox: str, mail_id: str) -> StoredMail:
        if mail_id in self._deleted_ids(mailbox):
            raise StorageError(f"mail {mail_id!r} deleted from {mailbox!r}")
        for mid, payload in self._scan(mailbox):
            if mid == mail_id:
                return StoredMail(mid, payload)
        raise StorageError(f"mail {mail_id!r} not in mailbox {mailbox!r}")

    def delete(self, mailbox: str, mail_id: str) -> list[IoOp]:
        """mbox deletion appends to a per-mailbox kill-list; real mbox
        implementations rewrite the whole file on expunge — modelled by
        :meth:`expunge`."""
        self.require_present(mailbox, mail_id)
        kill = self._path(mailbox).with_suffix(".deleted")
        with kill.open("a") as fh:
            fh.write(mail_id + "\n")
        return [IoOp(IoKind.APPEND, len(mail_id) + 1, target=mailbox)]

    def expunge(self, mailbox: str) -> list[IoOp]:
        """Rewrite the mailbox dropping deleted mails (mbox compaction)."""
        live = [(mid, payload) for mid, payload in self._scan(mailbox)
                if mid not in self._deleted_ids(mailbox)]
        out = b"".join(self._record(mid, payload) for mid, payload in live)
        self._path(mailbox).write_bytes(out)
        kill = self._path(mailbox).with_suffix(".deleted")
        if kill.exists():
            kill.unlink()
        return [IoOp(IoKind.CREATE, len(out), target=mailbox)]

    def _deleted_ids(self, mailbox: str) -> set[str]:
        kill = self._path(mailbox).with_suffix(".deleted")
        if not kill.exists():
            return set()
        return set(kill.read_text().split())
