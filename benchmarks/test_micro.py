"""Micro-benchmarks of the core primitives.

Not paper figures — these track the performance of the building blocks so
regressions in the substrate (SMTP parsing, MFS writes, DNSBL lookups) are
visible independently of the experiment results.  The DES engine's
benchmarks are in ``test_sim_speed.py``.
"""

import pytest

from repro.dnsbl import (DnsblResolver, DnsblServer, DnsblZone,
                         PrefixStrategy)
from repro.mfs import MfsStore
from repro.sim.random import RngStream
from repro.smtp import (MailIdGenerator, OutgoingMail, ServerSession,
                        ClientSession)


def test_smtp_session_throughput(benchmark):
    """Full sans-IO SMTP sessions per second (1 mail, 3 recipients)."""
    ids = MailIdGenerator(secret=b"bench")
    wire = (b"EHLO c\r\nMAIL FROM:<s@x.com>\r\n"
            b"RCPT TO:<a@d.com>\r\nRCPT TO:<b@d.com>\r\nRCPT TO:<c@d.com>\r\n"
            b"DATA\r\n" + b"payload line\r\n" * 20 + b".\r\nQUIT\r\n")

    def one_session():
        session = ServerSession("d.com", lambda a: True, mail_ids=ids)
        session.banner()
        return session.receive_data(wire)

    actions = benchmark(one_session)
    assert any(type(a).__name__ == "AcceptedMail" for a in actions)


def test_mfs_multirecipient_write(benchmark, tmp_path):
    """mail_nwrite of a 4 KB mail to 10 mailboxes."""
    store = MfsStore(tmp_path)
    mailboxes = [f"u{i}@d.com" for i in range(10)]
    for mailbox in mailboxes:
        store.open_mailbox(mailbox)
    ids = MailIdGenerator(secret=b"bench")
    payload = b"X" * 4096

    def write():
        store.nwrite(mailboxes, ids.next_id(), payload)

    benchmark(write)
    store.close()


def test_dnsbl_cached_lookup_rate(benchmark):
    """Prefix-strategy lookups answered from the warm cache."""
    zone = DnsblZone("bl.x", [f"10.0.{i}.{j}" for i in range(4)
                              for j in range(1, 30)])
    resolver = DnsblResolver(DnsblServer(zone), PrefixStrategy(),
                             rng=RngStream(1))
    resolver.lookup("10.0.1.5", 0.0)  # warm the /25

    result = benchmark(resolver.lookup, "10.0.1.9", 1.0)
    assert result.cache_hit


def test_client_fsm_roundtrip(benchmark):
    """Sans-IO client driving a full delivery against scripted replies."""
    replies = (b"220 d ESMTP\r\n", b"250 ok\r\n", b"250 ok\r\n",
               b"250 ok\r\n", b"354 go\r\n", b"250 queued\r\n",
               b"221 bye\r\n")

    def one():
        client = ClientSession([OutgoingMail("s@x.com", ["r@d.com"],
                                             b"body\r\n" * 10)])
        for reply in replies:
            client.receive_data(reply)
        return client

    client = benchmark(one)
    assert client.succeeded
