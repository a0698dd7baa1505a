"""The simulated SMTP dialogue on multi-mail connections.

The trace generators emit at most one mail per connection, so no figure
runs the paths where a session sends a second MAIL: after a mail whose
recipients all bounced, or after a delivered mail.  These tests drive them
with hand-built traces:

* pinned SHA-256 digests of the recording and the span trace of one seeded
  capture, under both architectures and two storage backends, with DNSBL
  rejection and worker recycling;
* an oracle: played whole, a trace yields connection, mail, recipient and
  mailbox-write totals that follow from the trace alone, under both
  architectures.
"""

import hashlib
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clients import run_closed
from repro.core import make_dnsbl_bank
from repro.obs import capture
from repro.server import MailServerSim, ServerConfig
from repro.traces import Trace
from repro.traces.record import Connection, MailAttempt, RecipientAttempt

#: first client address; connection ``i`` comes from ``_BASE_ADDR + i``
_BASE_ADDR = 0x0A000001

#: (record count, SHA-256 of the JSON lines) of ``record_records()``
RECORDING = (3877,
             "4c14e36f11e45beb9c389971dd693c11edca8a3ba91058a8acb6bf219c2a0159")
#: the same for the span trace, ``records()``
TRACE = (1362,
         "a1e35ae215490ce779940929b1479466bceccbb31d10d9a485007630f2f50a9b")


def _digest(records) -> tuple[int, str]:
    lines = [json.dumps(record) for record in records]
    text = "\n".join(lines).encode()
    return len(lines), hashlib.sha256(text).hexdigest()


def _connection(index: int, mails) -> Connection:
    """Connection ``index``; ``mails`` is None (unfinished) or, per mail,
    a (size, recipient validity tuple) pair."""
    if mails is None:
        return Connection(index * 0.01, client_addr=_BASE_ADDR + index,
                          unfinished=True)
    attempts = [
        MailAttempt(size, [RecipientAttempt(f"u{index}.{m}.{r}@d.example",
                                            valid)
                           for r, valid in enumerate(rcpts)])
        for m, (size, rcpts) in enumerate(mails)]
    return Connection(index * 0.01, client_addr=_BASE_ADDR + index,
                      mails=attempts)


def _seeded_trace(seed: int, n: int = 60) -> Trace:
    """1-4 mails per connection, 1-5 recipients per mail, each valid with
    probability 1/2; 10% of the connections unfinished."""
    rng = random.Random(seed)
    conns = []
    for index in range(n):
        if rng.random() < 0.1:
            conns.append(_connection(index, None))
            continue
        mails = [(rng.randint(500, 20_000),
                  tuple(rng.random() < 0.5
                        for _ in range(rng.randint(1, 5))))
                 for _ in range(rng.randint(1, 4))]
        conns.append(_connection(index, mails))
    return Trace(conns, name=f"walk-{seed}")


def _server_factory(arch: str, storage: str, listed):
    def factory(sim):
        config = ServerConfig(architecture=arch, process_limit=5,
                              worker_max_requests=3, storage_backend=storage)
        bank = make_dnsbl_bank(listed, "ip", n_providers=2)
        return MailServerSim(sim, config, resolver=bank,
                             reject_blacklisted=True)
    return factory


def _walk_capture():
    trace = _seeded_trace(2009)
    listed = {conn.client_addr for conn in trace.connections[::4]}
    with capture(context={"exp": "walk"}, record=True) as tr:
        for arch in ("vanilla", "hybrid"):
            for storage in ("mbox", "mfs"):
                run_closed(trace, _server_factory(arch, storage, listed),
                           concurrency=8)
    return tr


def test_multi_mail_recording_and_trace_digests_are_pinned():
    tr = _walk_capture()
    assert _digest(tr.record_records()) == RECORDING
    assert _digest(tr.records()) == TRACE


_MAILS = st.lists(
    st.tuples(st.integers(0, 50_000),
              st.lists(st.booleans(), min_size=1, max_size=5).map(tuple)),
    min_size=1, max_size=4)
#: per connection: (listed, None for unfinished or its mails)
_CONNS = st.lists(st.tuples(st.booleans(), st.none() | _MAILS),
                  min_size=1, max_size=25)


def _expected_totals(specs) -> dict:
    totals = dict.fromkeys(
        ("finished", "rejected", "unfinished", "bounce", "mails",
         "rcpts_accepted", "rcpts_rejected", "writes"), 0)
    for listed, mails in specs:
        totals["finished"] += 1
        if listed:
            totals["rejected"] += 1
            continue
        if mails is None:
            totals["unfinished"] += 1
            continue
        accepted_any = False
        for _size, rcpts in mails:
            n_valid = sum(rcpts)
            totals["rcpts_accepted"] += n_valid
            totals["rcpts_rejected"] += len(rcpts) - n_valid
            if n_valid:
                accepted_any = True
                totals["mails"] += 1
                totals["writes"] += n_valid
        totals["bounce"] += not accepted_any
    return totals


@settings(max_examples=40, deadline=None)
@given(specs=_CONNS, concurrency=st.integers(1, 8))
def test_totals_follow_from_the_trace(specs, concurrency):
    trace = Trace([_connection(i, mails)
                   for i, (_listed, mails) in enumerate(specs)])
    listed = {_BASE_ADDR + i for i, (flag, _) in enumerate(specs) if flag}
    expected = _expected_totals(specs)
    for arch in ("vanilla", "hybrid"):
        m = run_closed(trace, _server_factory(arch, "mbox", listed),
                       concurrency=concurrency)
        got = {
            "finished": m.connections_finished,
            "rejected": m.connections_rejected,
            "unfinished": m.unfinished_connections,
            "bounce": m.bounce_connections,
            "mails": m.mails_accepted,
            "rcpts_accepted": m.rcpts_accepted,
            "rcpts_rejected": m.rcpts_rejected,
            "writes": m.mailbox_writes,
        }
        assert got == expected, arch
