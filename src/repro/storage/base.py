"""Mailbox storage API shared by all four backends (§6.3's contenders).

The paper compares four ways postfix can write mails to mailboxes:

1. ``mbox`` — one file per mailbox, mails appended (vanilla postfix);
2. ``maildir`` — one file per mail per recipient;
3. ``hardlink`` — maildir that stores one copy and hardlinks the rest;
4. ``MFS`` — the paper's single-copy record-oriented file system.

Every backend implements :class:`MailboxStore` for *functional* use (real
files on a real filesystem) and additionally reports the
:class:`~repro.storage.diskmodel.IoOp` sequence a delivery performs.  Its
:meth:`~MailboxStore.plan` is that sequence for the steady state, without
touching a file; the simulator prices it with a filesystem cost model to
reproduce Figs. 10/11.
"""

from __future__ import annotations

import abc
from ..errors import StorageError
from ..smtp.message import MailMessage
from .diskmodel import IoOp

__all__ = ["StoredMail", "MailboxStore"]


class StoredMail:
    """A mail as read back from a mailbox."""

    __slots__ = ("mail_id", "payload")

    def __init__(self, mail_id: str, payload: bytes):
        self.mail_id = mail_id
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StoredMail({self.mail_id!r}, {len(self.payload)} bytes)"

    def __eq__(self, other) -> bool:
        return (isinstance(other, StoredMail)
                and self.mail_id == other.mail_id
                and self.payload == other.payload)


class MailboxStore(abc.ABC):
    """Abstract mailbox storage backend."""

    #: short identifier used in experiment tables ("mbox", "maildir", ...)
    name: str = "abstract"

    @classmethod
    @abc.abstractmethod
    def plan(cls, payload_len: int, n_rcpts: int) -> list[IoOp]:
        """The disk operations of delivering one ``payload_len``-byte mail
        to ``n_rcpts`` mailboxes, without touching any file.

        Pure and steady-state: the mail id is fresh and every mailbox
        already exists.  This is what the simulator charges per delivery.
        """

    @abc.abstractmethod
    def deliver(self, message: MailMessage) -> list[IoOp]:
        """Write ``message`` to all its recipients' mailboxes.

        Returns the I/O operations performed, for cost accounting.
        """

    @abc.abstractmethod
    def list_mailbox(self, mailbox: str) -> list[str]:
        """Mail ids currently in ``mailbox``, in delivery order."""

    @abc.abstractmethod
    def read(self, mailbox: str, mail_id: str) -> StoredMail:
        """Read one mail; raises :class:`StorageError` when absent."""

    @abc.abstractmethod
    def delete(self, mailbox: str, mail_id: str) -> list[IoOp]:
        """Remove one mail from one mailbox (shared copies are refcounted)."""

    # -- conveniences --------------------------------------------------------
    def read_all(self, mailbox: str) -> list[StoredMail]:
        """Every mail in the mailbox, in order."""
        return [self.read(mailbox, mid) for mid in self.list_mailbox(mailbox)]

    def require_present(self, mailbox: str, mail_id: str) -> None:
        if mail_id not in self.list_mailbox(mailbox):
            raise StorageError(f"mail {mail_id!r} not in mailbox {mailbox!r}")
