"""Parameterised synthetic traces (§3: "derived from the Univ trace").

Two families, matching the paper's controlled experiments:

* :func:`bounce_sweep_trace` — Univ mail sizes, single-recipient mails, a
  configurable bounce ratio (and optionally unfinished ratio).  Drives the
  Fig. 8 goodput-vs-bounce-ratio experiment.
* :func:`recipient_sequence_trace` — the §6.3 workload: repeated sequences of
  mails destined to 15 distinct mailboxes (each sequence shares one mail
  size, sizes drawn from the Univ distribution), delivered with a
  configurable number of RCPTs per connection.  With 5 RCPTs per connection
  a sequence takes 3 connections.  Drives Figs. 10/11.
"""

from __future__ import annotations

from ..sim.random import SeedSequence
from .record import Connection, MailAttempt, RecipientAttempt, Trace
from .sizes import UNIV_SIZES, SizeModel

__all__ = ["bounce_sweep_trace", "recipient_sequence_trace", "with_bounces"]


def bounce_sweep_trace(bounce_ratio: float, n_connections: int = 5_000,
                       unfinished_ratio: float = 0.0,
                       mean_interarrival: float = 0.0,
                       domain: str = "dest.example",
                       size_model: SizeModel = UNIV_SIZES,
                       seed: int = 8) -> Trace:
    """A single-recipient trace with the given bounce ratio.

    ``mean_interarrival`` of 0 produces a back-to-back trace for
    closed-system driving (the client controls concurrency, not the trace).
    """
    if not 0.0 <= bounce_ratio <= 1.0:
        raise ValueError(f"bounce ratio out of range: {bounce_ratio!r}")
    if not 0.0 <= bounce_ratio + unfinished_ratio <= 1.0:
        raise ValueError("bounce + unfinished ratios exceed 1")
    rng = SeedSequence(seed).stream(f"bounce-{bounce_ratio}")
    connections = []
    t = 0.0
    for i in range(n_connections):
        if mean_interarrival > 0:
            t += rng.exponential(mean_interarrival)
        u = rng.random()
        if u < unfinished_ratio:
            connections.append(Connection(
                t=t, client_addr=_ip(rng), unfinished=True))
            continue
        is_bounce = u < unfinished_ratio + bounce_ratio
        recipient = RecipientAttempt(
            f"guess{rng.below(10**6)}@{domain}" if is_bounce
            else f"user{rng.below(400)}@{domain}",
            valid=not is_bounce)
        mail = MailAttempt(size=size_model.sample(rng),
                           recipients=[recipient], is_spam=is_bounce)
        connections.append(Connection(t=t, client_addr=_ip(rng),
                                      mails=[mail]))
    return Trace(connections, name=f"bounce-sweep({bounce_ratio:.2f})")


def recipient_sequence_trace(rcpts_per_connection: int,
                             n_sequences: int = 400,
                             sequence_width: int = 15,
                             domain: str = "dest.example",
                             size_model: SizeModel = UNIV_SIZES,
                             seed: int = 16) -> Trace:
    """The §6.3 controlled storage workload.

    Each of the ``n_sequences`` sequences is one logical mail of a single
    size destined to ``sequence_width`` distinct mailboxes, transmitted using
    ``rcpts_per_connection`` RCPTs per connection (so
    ``ceil(width / rcpts)`` connections per sequence).  Zero bounce ratio.
    """
    if not 1 <= rcpts_per_connection <= sequence_width:
        raise ValueError(
            f"rcpts_per_connection must be in [1, {sequence_width}]")
    rng = SeedSequence(seed).stream(f"rcpt-{rcpts_per_connection}")
    connections = []
    t = 0.0
    for seq in range(n_sequences):
        size = size_model.sample(rng)
        mailboxes = [f"user{(seq * sequence_width + k) % 400}@{domain}"
                     for k in range(sequence_width)]
        addr = _ip(rng)
        for start in range(0, sequence_width, rcpts_per_connection):
            group = mailboxes[start:start + rcpts_per_connection]
            recipients = [RecipientAttempt(m, valid=True) for m in group]
            mail = MailAttempt(size=size, recipients=recipients, is_spam=True)
            connections.append(Connection(t=t, client_addr=addr,
                                          mails=[mail]))
            t += 1e-6  # preserve ordering without implying pacing
    return Trace(connections,
                 name=f"rcpt-sequence({rcpts_per_connection})")


def _ip(rng) -> int:
    """A random unicast address as an int: octets drawn a, b, c, d with
    ``randint(1, 223)``, ``randint(0, 255)`` twice, ``randint(1, 254)``."""
    below = rng.below
    a = 1 + below(223)
    b = below(256)
    c = below(256)
    d = 1 + below(254)
    return a << 24 | b << 16 | c << 8 | d


def with_bounces(trace, bounce_ratio: float, unfinished_ratio: float = 0.0,
                 domain: str = "dest.example", seed: int = 24):
    """Inject ECN-style rogue connections into an existing trace (§8).

    The §8 combined experiment drives "our two-month spam trace with the
    bounce ratio witnessed in the ECN mail server": a ``bounce_ratio``
    fraction of connections have their recipients replaced by random
    guesses (all invalid) and an ``unfinished_ratio`` fraction become
    handshake-only sessions.  Arrival times and origins are preserved.
    """
    if bounce_ratio < 0 or unfinished_ratio < 0 \
            or bounce_ratio + unfinished_ratio > 1:
        raise ValueError("invalid bounce/unfinished ratios")
    rng = SeedSequence(seed).stream("with-bounces")
    out = []
    for conn in trace:
        u = rng.random()
        if u < unfinished_ratio:
            out.append(Connection(t=conn.t, client_addr=conn.client_addr,
                                  unfinished=True, helo=conn.helo))
            continue
        if u < unfinished_ratio + bounce_ratio and not conn.unfinished:
            mails = [MailAttempt(
                size=m.size,
                recipients=[RecipientAttempt(
                    f"guess{rng.below(10**6)}@{domain}", valid=False)
                    for _ in m.recipients],
                is_spam=True) for m in conn.mails]
            out.append(Connection(t=conn.t, client_addr=conn.client_addr,
                                  mails=mails, helo=conn.helo))
            continue
        out.append(conn)
    return Trace(out, name=f"{trace.name}+bounces({bounce_ratio:.2f})",
                 duration=trace.duration)
