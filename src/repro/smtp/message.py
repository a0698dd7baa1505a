"""The mail message model and server-side mail-id generation.

The paper's MFS (§6.1) keys shared storage on "the unique ID labeled by the
MTA when it was received" and explicitly does **not** trust any client-sent
identifier (§6.4).  :class:`MailIdGenerator` plays the role of postfix's
queue-id assignment: ids are unique per server instance and unguessable
enough that key-collision writes can be treated as attacks.
"""

from __future__ import annotations

import hashlib
import os
import itertools
from dataclasses import dataclass, field
from typing import Optional

from .address import Address

__all__ = ["MailMessage", "MailIdGenerator"]


class MailIdGenerator:
    """Generates postfix-style queue ids, unique per generator instance.

    The id embeds a server-secret digest so that a malicious client cannot
    predict the id another mail received — the property §6.4's defence
    against random-guessing writes into the shared mailbox relies on.

    >>> gen = MailIdGenerator(secret=b"s", clock=lambda: 12.5)
    >>> a, b = gen.next_id(), gen.next_id()
    >>> a != b and len(a) == 16
    True
    """

    def __init__(self, secret: bytes | None = None, clock=None):
        # A fresh random secret per generator keeps ids unique across
        # server instances sharing one store (and unpredictable, §6.4).
        # Pass an explicit secret only for reproducible tests.
        self._secret = secret if secret is not None else os.urandom(16)
        self._counter = itertools.count()
        self._clock = clock or (lambda: 0.0)

    def next_id(self) -> str:
        seq = next(self._counter)
        now = self._clock()
        digest = hashlib.blake2b(
            f"{now}:{seq}".encode(), key=self._secret, digest_size=4,
        ).hexdigest().upper()
        return f"{seq:08X}{digest}"


@dataclass
class MailMessage:
    """A fully received mail: envelope plus body.

    ``sender`` is ``None`` for the null reverse path (``MAIL FROM:<>``),
    used by delivery status notifications.
    """

    mail_id: str
    sender: Optional[Address]
    recipients: list[Address]
    body: bytes
    client_ip: str = ""
    helo: str = ""
    received_at: float = 0.0
    headers: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.recipients:
            raise ValueError("a mail must have at least one recipient")

    @property
    def size(self) -> int:
        """Body size in bytes — the unit the disk cost models charge for."""
        return len(self.body)

    @property
    def is_multi_recipient(self) -> bool:
        """Whether this mail goes to MFS's shared mailbox (§6.1)."""
        return len(self.recipients) > 1

    def with_received_header(self, server_hostname: str) -> "MailMessage":
        """Return a copy with a ``Received:`` trace header recorded."""
        headers = dict(self.headers)
        headers["Received"] = (
            f"from {self.helo or 'unknown'} ([{self.client_ip or '?'}]) "
            f"by {server_hostname} with SMTP id {self.mail_id}")
        return MailMessage(
            mail_id=self.mail_id, sender=self.sender,
            recipients=list(self.recipients), body=self.body,
            client_ip=self.client_ip, helo=self.helo,
            received_at=self.received_at, headers=headers)

    def serialized(self) -> bytes:
        """The on-disk representation: headers, blank line, body."""
        out = bytearray()
        for name, value in self.headers.items():
            out += f"{name}: {value}\r\n".encode()
        sender = str(self.sender) if self.sender else ""
        out += f"Return-Path: <{sender}>\r\n".encode()
        out += b"\r\n"
        out += self.body
        return bytes(out)
