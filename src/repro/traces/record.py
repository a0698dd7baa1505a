"""Workload trace model.

A *trace* is an ordered sequence of :class:`Connection` records — one per
inbound SMTP connection — as both the paper's traces (Univ, sinkhole) and its
synthetic derivatives are.  Each connection carries its arrival time, origin
IP, and the mails the client attempts, including which recipients exist
(valid) and which are random guesses (bounces).

Origin addresses are 32-bit ints (``Connection.client_addr``): generators
draw them as ints, and the statistics key IPs, /24s and /25s on ``addr``,
``addr >> 8`` and ``addr >> 7``.  The dotted quad ``client_ip`` is derived
on first read, for the text boundaries (trace files, recorder events,
socket replay); a dotted quad given to the constructor is parsed once, by
:func:`repro.dnsbl.bitmap.ip_to_int`.

The same records drive every layer of the reproduction: trace statistics
(Table 1, Figs. 3/4/12/13), the simulator's workload (Figs. 8/10/11/14/15),
and the asyncio load generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ..dnsbl.bitmap import int_to_ip, ip_to_int
from ..errors import DnsError, TraceError
from ..sim.stats import Cdf

__all__ = [
    "RecipientAttempt", "MailAttempt", "Connection", "Trace", "TraceStats",
    "prefix24", "prefix25", "interarrival_cdfs",
]


def prefix24(ip: str) -> str:
    """The /24 prefix of a dotted-quad IP, e.g. ``'10.1.2.3' -> '10.1.2'``."""
    parts = ip.split(".")
    if len(parts) != 4:
        raise TraceError(f"not a dotted quad: {ip!r}")
    return ".".join(parts[:3])


def prefix25(ip: str) -> str:
    """The /25 prefix key of an IP — the granularity of DNSBLv6 bitmaps (§7).

    >>> prefix25("10.1.2.3"), prefix25("10.1.2.200")
    ('10.1.2/0', '10.1.2/1')
    """
    parts = ip.split(".")
    if len(parts) != 4:
        raise TraceError(f"not a dotted quad: {ip!r}")
    half = 0 if int(parts[3]) < 128 else 1
    return f"{'.'.join(parts[:3])}/{half}"


class RecipientAttempt:
    """One RCPT TO attempt; ``valid`` means the mailbox exists locally.

    A value: compared and hashed by ``(mailbox, valid)``, never mutated.
    """

    __slots__ = ("mailbox", "valid")

    def __init__(self, mailbox: str, valid: bool = True):
        self.mailbox = mailbox
        self.valid = valid

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mailbox == other.mailbox and self.valid == other.valid

    def __hash__(self) -> int:
        return hash((self.mailbox, self.valid))

    def __repr__(self) -> str:
        return (f"RecipientAttempt(mailbox={self.mailbox!r}, "
                f"valid={self.valid!r})")


@dataclass
class MailAttempt:
    """One mail a client tries to send within a connection."""

    size: int
    recipients: list[RecipientAttempt]
    is_spam: bool = False

    def __post_init__(self):
        if self.size < 0:
            raise TraceError(f"negative mail size: {self.size}")
        if not self.recipients:
            raise TraceError("a mail attempt needs at least one recipient")

    @property
    def valid_recipients(self) -> list[RecipientAttempt]:
        return [r for r in self.recipients if r.valid]

    @property
    def is_bounce(self) -> bool:
        """True when every recipient is invalid — a pure bounce mail (§4.1)."""
        return not self.valid_recipients


class Connection:
    """One inbound SMTP connection.

    ``unfinished`` connections perform the handshake and quit without
    attempting any mail (§4.1's second rogue class).  The origin is given
    as exactly one of ``client_ip`` (a dotted quad, parsed here) or
    ``client_addr`` (a 32-bit int, as the generators draw it).  The int is
    what the record stores; ``client_ip`` is derived from it on first read.
    """

    __slots__ = ("t", "client_addr", "mails", "unfinished", "helo",
                 "_client_ip")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, t: float, client_ip: Optional[str] = None,
                 mails: Optional[list[MailAttempt]] = None,
                 unfinished: bool = False, helo: str = "client.example", *,
                 client_addr: Optional[int] = None):
        if client_addr is None:
            if client_ip is None:
                raise TraceError("a connection needs client_ip or client_addr")
            try:
                client_addr = ip_to_int(client_ip)
            except DnsError as exc:
                raise TraceError(f"invalid client IP {client_ip!r}") from exc
        elif client_ip is not None:
            raise TraceError("give client_ip or client_addr, not both")
        elif not 0 <= client_addr <= 0xFFFFFFFF:
            raise TraceError(f"client address out of range: {client_addr!r}")
        if mails is None:
            mails = []
        if unfinished and mails:
            raise TraceError("an unfinished connection cannot carry mails")
        if not unfinished and not mails:
            raise TraceError("a finished connection must carry >= 1 mail")
        self.t = t
        self.client_addr = client_addr
        self.mails = mails
        self.unfinished = unfinished
        self.helo = helo
        # the strict parser accepts only the canonical text, so a given
        # dotted quad is already what int_to_ip would derive
        self._client_ip = client_ip

    @property
    def client_ip(self) -> str:
        """The origin as a dotted quad (derived once, then cached)."""
        ip = self._client_ip
        if ip is None:
            ip = self._client_ip = int_to_ip(self.client_addr)
        return ip

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.t, self.client_addr, self.mails, self.unfinished,
                 self.helo) == (other.t, other.client_addr, other.mails,
                                other.unfinished, other.helo))

    def __repr__(self) -> str:
        return (f"Connection(t={self.t!r}, client_ip={self.client_ip!r}, "
                f"mails={self.mails!r}, unfinished={self.unfinished!r}, "
                f"helo={self.helo!r})")

    @property
    def is_bounce(self) -> bool:
        """All attempted mails bounced (and at least one was attempted)."""
        return bool(self.mails) and all(m.is_bounce for m in self.mails)

    @property
    def is_rogue(self) -> bool:
        """Bounce or unfinished — the class fork-after-trust filters out."""
        return self.unfinished or self.is_bounce

    @property
    def delivered_mails(self) -> list[MailAttempt]:
        return [m for m in self.mails if not m.is_bounce]


class Trace:
    """An ordered collection of connections with derived statistics."""

    def __init__(self, connections: Sequence[Connection], name: str = "trace",
                 duration: Optional[float] = None):
        conns = list(connections)
        for prev, cur in zip(conns, conns[1:]):
            if cur.t < prev.t:
                raise TraceError("trace connections must be time-ordered")
        self.connections = conns
        self.name = name
        self.duration = duration if duration is not None else (
            conns[-1].t if conns else 0.0)

    def __len__(self) -> int:
        return len(self.connections)

    def __iter__(self) -> Iterator[Connection]:
        return iter(self.connections)

    def __getitem__(self, idx):
        return self.connections[idx]

    def stats(self) -> "TraceStats":
        return TraceStats.from_trace(self)

    def head(self, n: int) -> "Trace":
        """The first ``n`` connections as a new trace (for quick runs)."""
        head = self.connections[:n]
        return Trace(head, name=f"{self.name}[:{n}]",
                     duration=head[-1].t if head else 0.0)


@dataclass
class TraceStats:
    """Aggregate statistics of a trace — the Table 1 quantities and the raw
    material for Figures 3/4/12/13."""

    name: str
    connections: int
    mails: int
    delivered_mails: int
    bounce_connections: int
    unfinished_connections: int
    unique_ips: int
    unique_prefixes24: int
    unique_prefixes25: int
    spam_mails: int
    recipients_cdf: Cdf
    mail_size_cdf: Cdf

    @classmethod
    def from_trace(cls, trace: Trace) -> "TraceStats":
        ips = {conn.client_addr for conn in trace}
        mails = delivered = spam = bounces = unfinished = 0
        rcpt_cdf, size_cdf = Cdf(), Cdf()
        for conn in trace:
            if conn.unfinished:
                unfinished += 1
                continue
            if conn.is_bounce:
                bounces += 1
            for mail in conn.mails:
                mails += 1
                if not mail.is_bounce:
                    delivered += 1
                if mail.is_spam:
                    spam += 1
                rcpt_cdf.add(len(mail.recipients))
                size_cdf.add(mail.size)
        return cls(
            name=trace.name, connections=len(trace), mails=mails,
            delivered_mails=delivered, bounce_connections=bounces,
            unfinished_connections=unfinished, unique_ips=len(ips),
            unique_prefixes24=len({addr >> 8 for addr in ips}),
            unique_prefixes25=len({addr >> 7 for addr in ips}),
            spam_mails=spam, recipients_cdf=rcpt_cdf, mail_size_cdf=size_cdf)

    @property
    def spam_ratio(self) -> float:
        return self.spam_mails / self.mails if self.mails else 0.0

    @property
    def bounce_ratio(self) -> float:
        """Bounce connections over all mail-carrying connections."""
        carrying = self.connections - self.unfinished_connections
        return self.bounce_connections / carrying if carrying else 0.0

    @property
    def rogue_ratio(self) -> float:
        return ((self.bounce_connections + self.unfinished_connections)
                / self.connections if self.connections else 0.0)

    @property
    def mean_recipients(self) -> float:
        return self.recipients_cdf.mean() if len(self.recipients_cdf) else 0.0


def interarrival_cdfs(trace: Trace) -> tuple[Cdf, Cdf]:
    """Figure 13's two CDFs: interarrival times per IP and per /24 prefix.

    Returns ``(by_ip, by_prefix)``; prefix interarrivals are stochastically
    smaller whenever spam origins cluster within prefixes.
    """
    last_ip: dict[int, float] = {}
    last_pfx: dict[int, float] = {}
    by_ip, by_pfx = Cdf(), Cdf()
    for conn in trace:
        addr, t = conn.client_addr, conn.t
        pfx = addr >> 8
        if addr in last_ip:
            by_ip.add(t - last_ip[addr])
        if pfx in last_pfx:
            by_pfx.add(t - last_pfx[pfx])
        last_ip[addr] = t
        last_pfx[pfx] = t
    return by_ip, by_pfx
