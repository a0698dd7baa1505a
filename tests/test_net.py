"""Integration tests for the real asyncio network layer."""

import asyncio

import pytest

from repro.dnsbl import DnsblServer, DnsblZone
from repro.errors import DnsError
from repro.mfs import MfsStore, fsck
from repro.net import (AsyncDnsblResolver, ClosedLoadGenerator,
                       NetServerConfig, SmtpClient, SmtpServer,
                       UdpDnsblServer, send_connection)
from repro.smtp import OutgoingMail
from repro.storage import MboxStore
from repro.traces import bounce_sweep_trace

VALID = {"alice@dest.example", "bob@dest.example", "carol@dest.example"}


def run(coro):
    return asyncio.run(coro)


def make_server(store, arch="fork-after-trust", **kwargs):
    config = NetServerConfig(architecture=arch, **kwargs)
    return SmtpServer(config, store, lambda a: a.mailbox in VALID)


@pytest.mark.parametrize("arch", ["fork-after-trust", "task-per-connection"])
class TestSmtpServerArchitectures:
    def test_delivery_roundtrip(self, tmp_path, arch):
        async def scenario():
            store = MfsStore(tmp_path)
            server = make_server(store, arch)
            async with server:
                mails = [OutgoingMail("s@x.com", ["alice@dest.example"],
                                      b"body\r\n")]
                results = await SmtpClient("127.0.0.1", server.port,
                                           mails).run()
                assert results[0].delivered
            assert store.list_mailbox("alice@dest.example")
            payload = store.read_all("alice@dest.example")[0].payload
            assert b"body" in payload
            store.close()
        run(scenario())

    def test_bounce_and_unfinished_classified(self, tmp_path, arch):
        async def scenario():
            store = MfsStore(tmp_path)
            server = make_server(store, arch)
            async with server:
                bounce = [OutgoingMail("s@x.com", ["ghost@dest.example"],
                                       b"x\r\n")]
                results = await SmtpClient("127.0.0.1", server.port,
                                           bounce).run()
                assert not results[0].delivered
                await SmtpClient("127.0.0.1", server.port, [],
                                 quit_after_helo=True).run()
            assert server.stats.bounce_sessions == 1
            assert server.stats.unfinished_sessions == 1
            assert server.stats.mails_accepted == 0
            store.close()
        run(scenario())

    def test_multi_recipient_spam_stored_once(self, tmp_path, arch):
        async def scenario():
            store = MfsStore(tmp_path)
            server = make_server(store, arch)
            async with server:
                mails = [OutgoingMail("spam@bot.example", sorted(VALID),
                                      b"BUY\r\n" * 50)]
                results = await SmtpClient("127.0.0.1", server.port,
                                           mails).run()
                assert len(results[0].accepted_recipients) == 3
            assert store.shared_record_count() == 1
            assert fsck(store).clean
            store.close()
        run(scenario())

    def test_concurrent_clients(self, tmp_path, arch):
        async def scenario():
            store = MboxStore(tmp_path)
            server = make_server(store, arch, worker_pool_size=4)
            async with server:
                async def one(i):
                    mails = [OutgoingMail(
                        f"s{i}@x.com", ["alice@dest.example"],
                        f"mail {i}\r\n".encode())]
                    return await SmtpClient("127.0.0.1", server.port,
                                            mails).run()
                results = await asyncio.gather(*(one(i) for i in range(20)))
            assert all(r[0].delivered for r in results)
            assert len(store.list_mailbox("alice@dest.example")) == 20
            store.close() if hasattr(store, "close") else None
        run(scenario())


class TestForkAfterTrustSpecifics:
    def test_handoffs_only_for_trusted_sessions(self, tmp_path):
        async def scenario():
            store = MfsStore(tmp_path)
            server = make_server(store, "fork-after-trust")
            async with server:
                await SmtpClient("127.0.0.1", server.port, [OutgoingMail(
                    "s@x.com", ["alice@dest.example"], b"ok\r\n")]).run()
                await SmtpClient("127.0.0.1", server.port, [OutgoingMail(
                    "s@x.com", ["ghost@dest.example"], b"no\r\n")]).run()
                await SmtpClient("127.0.0.1", server.port, [],
                                 quit_after_helo=True).run()
            assert server.stats.handoffs == 1
            assert server.stats.connections == 3
            store.close()
        run(scenario())

    def test_store_failure_answers_451_and_keeps_worker(self, tmp_path):
        """MfsStore refuses a mail that names a mailbox twice: that mail
        gets 451, and the only worker goes on to serve the next session."""
        async def scenario():
            store = MfsStore(tmp_path)
            server = make_server(store, "fork-after-trust", worker_pool_size=1)

            def send(recipients, body):
                client = SmtpClient("127.0.0.1", server.port, [OutgoingMail(
                    "s@x.com", recipients, body)])
                return asyncio.wait_for(client.run(), timeout=10)

            async with server:
                twice = await send(["alice@dest.example"] * 2, b"dup\r\n")
                after = await send(["alice@dest.example"], b"ok\r\n")
            assert not twice[0].delivered
            assert twice[0].reply.startswith("451 4.3.0")
            assert after[0].delivered and after[0].reply.startswith("250 ")
            assert server.stats.mails_failed == 1
            assert server.stats.mails_accepted == 1
            assert len(store.list_mailbox("alice@dest.example")) == 1
            store.close()
        run(scenario())

    def test_blacklisted_client_rejected_at_connect(self, tmp_path):
        async def scenario():
            store = MfsStore(tmp_path)
            config = NetServerConfig(architecture="fork-after-trust")

            async def check(ip: str) -> bool:
                return True  # everyone is blacklisted

            server = SmtpServer(config, store,
                                lambda a: a.mailbox in VALID,
                                blacklist_check=check)
            async with server:
                results = await SmtpClient("127.0.0.1", server.port,
                                           [OutgoingMail(
                                               "s@x.com",
                                               ["alice@dest.example"],
                                               b"x\r\n")]).run()
                assert not results[0].delivered
            assert server.stats.rejected_sessions == 1
            assert server.stats.handoffs == 0
            store.close()
        run(scenario())


class TestLoadGeneratorsOverSockets:
    def test_closed_generator_plays_trace(self, tmp_path):
        async def scenario():
            store = MboxStore(tmp_path)
            server = make_server(store, "fork-after-trust")
            trace = bounce_sweep_trace(0.2, n_connections=15,
                                       unfinished_ratio=0.1,
                                       domain="dest.example")
            # make the valid recipients actually valid on this server
            async with server:
                generator = ClosedLoadGenerator("127.0.0.1", server.port,
                                                trace, concurrency=4)
                stats = await generator.run()
            assert stats.connections == 15
            assert stats.failed_connections == 0
            assert server.stats.connections == 15
        run(scenario())

    def test_send_connection_maps_trace_records(self, tmp_path):
        async def scenario():
            store = MboxStore(tmp_path)
            server = make_server(store, "task-per-connection")
            trace = bounce_sweep_trace(0.0, n_connections=1,
                                       domain="dest.example")
            async with server:
                results = await send_connection("127.0.0.1", server.port,
                                                trace[0])
            assert len(results) == 1
        run(scenario())


class TestUdpDnsblStack:
    def test_ip_and_prefix_strategies(self):
        async def scenario():
            zone = DnsblZone("bl.example", ["10.0.0.5", "10.0.0.200"])
            async with UdpDnsblServer(DnsblServer(zone)) as dns:
                ip_resolver = AsyncDnsblResolver((dns.host, dns.port),
                                                 "bl.example", strategy="ip")
                pf_resolver = AsyncDnsblResolver((dns.host, dns.port),
                                                 "bl.example",
                                                 strategy="prefix")
                assert await ip_resolver.is_listed("10.0.0.5")
                assert not await ip_resolver.is_listed("10.0.0.6")
                assert ip_resolver.queries_sent == 2

                assert await pf_resolver.is_listed("10.0.0.5")
                assert not await pf_resolver.is_listed("10.0.0.6")  # cached
                assert await pf_resolver.is_listed("10.0.0.200")
                assert pf_resolver.queries_sent == 2  # one per /25 half
                await ip_resolver.close()
                await pf_resolver.close()
        run(scenario())

    def test_timeout_when_server_gone(self):
        async def scenario():
            resolver = AsyncDnsblResolver(("127.0.0.1", 1), "bl.example",
                                          timeout=0.2)
            with pytest.raises(DnsError, match="timed out"):
                await resolver.is_listed("10.0.0.5")
            await resolver.close()
        run(scenario())

    def test_invalid_strategy(self):
        with pytest.raises(DnsError):
            AsyncDnsblResolver(("127.0.0.1", 53), "bl.example",
                               strategy="magic")
