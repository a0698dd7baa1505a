"""SMTP reply model and the catalogue of replies the server emits."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ProtocolError
from .constants import CRLF, MAX_LINE_LENGTH, ReplyCode

__all__ = ["Reply", "parse_reply_line", "STANDARD"]


@dataclass(frozen=True)
class Reply:
    """A single- or multi-line SMTP reply.

    >>> Reply(ReplyCode.OK, "Ok").encode()
    b'250 Ok\\r\\n'
    >>> Reply(ReplyCode.OK, "first", extra=("second",)).encode()
    b'250-first\\r\\n250 second\\r\\n'
    """

    code: ReplyCode
    text: str
    extra: tuple[str, ...] = ()

    @property
    def is_positive(self) -> bool:
        return self.code.is_positive

    @property
    def is_permanent_failure(self) -> bool:
        return self.code.is_permanent_failure

    def encode(self) -> bytes:
        lines = (self.text,) + self.extra
        out = bytearray()
        for i, line in enumerate(lines):
            sep = " " if i == len(lines) - 1 else "-"
            out += f"{self.code.value}{sep}{line}".encode("ascii")
            out += CRLF
        return bytes(out)

    def __str__(self) -> str:
        return f"{self.code.value} {self.text}"


def parse_reply_line(line: bytes) -> tuple[int, bool, str]:
    """Parse one reply line into ``(code, is_last, text)``.

    ``is_last`` is False for the ``250-...`` continuation form.

    >>> parse_reply_line(b"250-PIPELINING\\r\\n")
    (250, False, 'PIPELINING')
    >>> parse_reply_line(b"221 Bye\\r\\n")
    (221, True, 'Bye')
    """
    if len(line) > MAX_LINE_LENGTH:
        raise ProtocolError(f"reply line too long: {len(line)} bytes")
    text = line.rstrip(b"\r\n")
    if len(text) < 3 or not text[:3].isdigit():
        raise ProtocolError(f"malformed reply line: {line!r}")
    code = int(text[:3])
    if len(text) == 3:
        return code, True, ""
    sep = chr(text[3])
    if sep not in (" ", "-"):
        raise ProtocolError(f"malformed reply separator: {line!r}")
    return code, sep == " ", text[4:].decode("ascii", "replace")


class _Catalogue:
    """The fixed replies used by :class:`repro.smtp.fsm.ServerSession`."""

    def banner(self, hostname: str) -> Reply:
        return Reply(ReplyCode.SERVICE_READY, f"{hostname} ESMTP repro-postfix")

    def helo_ok(self, hostname: str, client: str) -> Reply:
        return Reply(ReplyCode.OK, f"{hostname} Hello {client}")

    def ehlo_ok(self, hostname: str, client: str) -> Reply:
        return Reply(ReplyCode.OK, f"{hostname} Hello {client}",
                     extra=("PIPELINING", "8BITMIME"))

    ok = Reply(ReplyCode.OK, "2.0.0 Ok")
    mail_ok = Reply(ReplyCode.OK, "2.1.0 Ok")
    rcpt_ok = Reply(ReplyCode.OK, "2.1.5 Ok")
    data_go_ahead = Reply(ReplyCode.START_MAIL_INPUT,
                          "End data with <CR><LF>.<CR><LF>")

    def queued(self, mail_id: str) -> Reply:
        return Reply(ReplyCode.OK, f"2.0.0 Ok: queued as {mail_id}")

    storage_failed = Reply(ReplyCode.LOCAL_ERROR,
                           "4.3.0 Error: queue file write error")
    bye = Reply(ReplyCode.CLOSING, "2.0.0 Bye")
    user_unknown = Reply(ReplyCode.MAILBOX_UNAVAILABLE,
                         "5.1.1 User unknown in local recipient table")
    relay_denied = Reply(ReplyCode.MAILBOX_UNAVAILABLE, "5.7.1 Relay access denied")
    blacklisted = Reply(ReplyCode.TRANSACTION_FAILED,
                        "5.7.1 Service unavailable; client host blacklisted")
    too_many_rcpts = Reply(ReplyCode.INSUFFICIENT_STORAGE,
                           "4.5.3 Too many recipients")
    syntax = Reply(ReplyCode.SYNTAX_ERROR, "5.5.2 Syntax error")
    param_syntax = Reply(ReplyCode.PARAM_SYNTAX_ERROR,
                         "5.5.4 Syntax error in parameters")
    bad_sequence = Reply(ReplyCode.BAD_SEQUENCE, "5.5.1 Bad sequence of commands")
    not_implemented = Reply(ReplyCode.NOT_IMPLEMENTED,
                            "5.5.1 Command not implemented")
    need_mail_first = Reply(ReplyCode.BAD_SEQUENCE, "5.5.1 Need MAIL command first")
    need_rcpt_first = Reply(ReplyCode.BAD_SEQUENCE, "5.5.1 Need RCPT command first")
    shutting_down = Reply(ReplyCode.SERVICE_UNAVAILABLE,
                          "4.3.2 Service shutting down")
    line_too_long = Reply(ReplyCode.SYNTAX_ERROR, "5.5.2 Line too long")


#: Shared, immutable reply catalogue.
STANDARD = _Catalogue()
