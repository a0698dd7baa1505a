"""maildir and hardlink-maildir backends.

``maildir`` stores every mail as its own file inside the recipient's
directory — N recipients means N file creations, which is what makes it
collapse on Ext3 in Fig. 10 (file creation there is journal-bound).

``hardlink`` is the paper's optimised variant: the payload is written once
into a content directory and every recipient gets a hard link — one create
plus N links.  Fig. 11 shows this recovering most of maildir's loss on
ReiserFS while still trailing MFS by ~29.5%.
"""

from __future__ import annotations

import os
from pathlib import Path

from ..errors import StorageError
from ..smtp.message import MailMessage
from .base import MailboxStore, StoredMail
from .diskmodel import IoKind, IoOp

__all__ = ["MaildirStore", "HardlinkStore"]


def _safe(mailbox: str) -> str:
    return mailbox.replace("@", "_at_").replace("/", "_")


class MaildirStore(MailboxStore):
    """One file per mail per recipient."""

    name = "maildir"

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._seq = 0

    def _mailbox_dir(self, mailbox: str) -> Path:
        d = self.root / _safe(mailbox) / "new"
        d.mkdir(parents=True, exist_ok=True)
        return d

    def _filename(self, mail_id: str) -> str:
        # maildir names embed a uniquifier; delivery order is the sequence
        self._seq += 1
        return f"{self._seq:010d}.{mail_id}.mail"

    @classmethod
    def plan(cls, payload_len: int, n_rcpts: int) -> list[IoOp]:
        return [IoOp(IoKind.CREATE, payload_len, "mailbox")] * n_rcpts

    def deliver(self, message: MailMessage) -> list[IoOp]:
        payload = message.serialized()
        ops: list[IoOp] = []
        for recipient in message.recipients:
            directory = self._mailbox_dir(recipient.mailbox)
            path = directory / self._filename(message.mail_id)
            path.write_bytes(payload)
            ops.append(IoOp(IoKind.CREATE, len(payload),
                            target=recipient.mailbox))
        return ops

    def _find(self, mailbox: str, mail_id: str) -> Path:
        directory = self._mailbox_dir(mailbox)
        matches = sorted(directory.glob(f"*.{mail_id}.mail"))
        if not matches:
            raise StorageError(f"mail {mail_id!r} not in mailbox {mailbox!r}")
        return matches[0]

    def list_mailbox(self, mailbox: str) -> list[str]:
        directory = self._mailbox_dir(mailbox)
        files = sorted(directory.glob("*.mail"))
        return [f.name.split(".")[1] for f in files]

    def read(self, mailbox: str, mail_id: str) -> StoredMail:
        return StoredMail(mail_id, self._find(mailbox, mail_id).read_bytes())

    def delete(self, mailbox: str, mail_id: str) -> list[IoOp]:
        self._find(mailbox, mail_id).unlink()
        return [IoOp(IoKind.UNLINK, target=mailbox)]


class HardlinkStore(MaildirStore):
    """maildir with single-copy payloads via hard links."""

    name = "hardlink"

    def __init__(self, root: Path | str):
        super().__init__(root)
        self._content = self.root / ".content"
        self._content.mkdir(parents=True, exist_ok=True)

    @classmethod
    def plan(cls, payload_len: int, n_rcpts: int) -> list[IoOp]:
        ops = [IoOp(IoKind.CREATE, payload_len, ".content")]
        ops += [IoOp(IoKind.LINK, 0, "mailbox")] * n_rcpts
        return ops

    def deliver(self, message: MailMessage) -> list[IoOp]:
        payload = message.serialized()
        content_path = self._content / f"{message.mail_id}.mail"
        if content_path.exists():
            raise StorageError(
                f"duplicate delivery of mail {message.mail_id!r}")
        content_path.write_bytes(payload)
        ops: list[IoOp] = [IoOp(IoKind.CREATE, len(payload),
                                target=".content")]
        for recipient in message.recipients:
            directory = self._mailbox_dir(recipient.mailbox)
            link_path = directory / self._filename(message.mail_id)
            os.link(content_path, link_path)
            ops.append(IoOp(IoKind.LINK, target=recipient.mailbox))
        return ops

    def delete(self, mailbox: str, mail_id: str) -> list[IoOp]:
        ops = super().delete(mailbox, mail_id)
        # drop the content copy once the last mailbox link is gone
        content_path = self._content / f"{mail_id}.mail"
        if content_path.exists() and content_path.stat().st_nlink == 1:
            content_path.unlink()
            ops.append(IoOp(IoKind.UNLINK, target=".content"))
        return ops
