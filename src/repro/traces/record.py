"""Workload trace model.

A *trace* is an ordered sequence of :class:`Connection` records — one per
inbound SMTP connection — as both the paper's traces (Univ, sinkhole) and its
synthetic derivatives are.  Each connection carries its arrival time, origin
IP, and the mails the client attempts, including which recipients exist
(valid) and which are random guesses (bounces).

The same records drive every layer of the reproduction: trace statistics
(Table 1, Figs. 3/4/12/13), the simulator's workload (Figs. 8/10/11/14/15),
and the asyncio load generators.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from ..errors import TraceError
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


@dataclass(frozen=True)
class RecipientAttempt:
    """One RCPT TO attempt; ``valid`` means the mailbox exists locally."""

    mailbox: str
    valid: bool = True


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


@dataclass
class Connection:
    """One inbound SMTP connection.

    ``unfinished`` connections perform the handshake and quit without
    attempting any mail (§4.1's second rogue class).  ``client_addr`` is
    ``client_ip`` as a 32-bit int, parsed once here; the DNSBL lookups
    key on it.
    """

    t: float
    client_ip: str
    mails: list[MailAttempt] = field(default_factory=list)
    unfinished: bool = False
    helo: str = "client.example"
    client_addr: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.unfinished and self.mails:
            raise TraceError("an unfinished connection cannot carry mails")
        if not self.unfinished and not self.mails:
            raise TraceError("a finished connection must carry >= 1 mail")
        # validate the IP eagerly; everything downstream assumes dotted quad
        self.client_addr = int(ipaddress.IPv4Address(self.client_ip))

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

    @property
    def total_recipients(self) -> int:
        return sum(len(m.recipients) for m in self.mails)


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
        return Trace(self.connections[:n], name=f"{self.name}[:{n}]",
                     duration=self.connections[min(n, len(self.connections)) - 1].t
                     if self.connections else 0.0)


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
        ips, p24, p25 = set(), set(), set()
        mails = delivered = spam = bounces = unfinished = 0
        rcpt_cdf, size_cdf = Cdf(), Cdf()
        for conn in trace:
            ips.add(conn.client_ip)
            p24.add(prefix24(conn.client_ip))
            p25.add(prefix25(conn.client_ip))
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
            unique_prefixes24=len(p24), unique_prefixes25=len(p25),
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
    last_ip: dict[str, float] = {}
    last_pfx: dict[str, float] = {}
    by_ip, by_pfx = Cdf(), Cdf()
    for conn in trace:
        pfx = prefix24(conn.client_ip)
        if conn.client_ip in last_ip:
            by_ip.add(conn.t - last_ip[conn.client_ip])
        if pfx in last_pfx:
            by_pfx.add(conn.t - last_pfx[pfx])
        last_ip[conn.client_ip] = conn.t
        last_pfx[pfx] = conn.t
    return by_ip, by_pfx
