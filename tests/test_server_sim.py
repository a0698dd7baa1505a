"""Integration tests for the simulated mail server (both architectures)."""

import pytest

from repro.clients import (ClosedLoopClient, OpenLoopClient, run_closed,
                           run_closed_timed, run_open)
from repro.core import (SpamAwareOptions, build_server, build_spamaware,
                        build_vanilla, make_dnsbl_bank)
from repro.errors import ConfigError
from repro.server import CostModel, MailServerSim, ServerConfig
from repro.sim import Simulator
from repro.traces import (SinkholeConfig, SinkholeTraceGenerator,
                          bounce_sweep_trace, recipient_sequence_trace)


def small_trace(bounce=0.0, n=300, unfinished=0.0):
    return bounce_sweep_trace(bounce, n_connections=n,
                              unfinished_ratio=unfinished)


class TestConfig:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            ServerConfig(architecture="threads")
        with pytest.raises(ConfigError):
            ServerConfig(process_limit=0)
        with pytest.raises(ConfigError):
            ServerConfig(storage_backend="zfs")

    def test_factory_presets(self):
        assert ServerConfig.vanilla().process_limit == 500
        assert ServerConfig.hybrid().process_limit == 700
        assert ServerConfig.vanilla(process_limit=50).process_limit == 50
        assert ServerConfig.hybrid(process_limit=50).process_limit == 50
        storage = ServerConfig.storage_experiment("mfs", None.__class__)  # type: ignore

    def test_cost_model_replace(self):
        costs = CostModel().replace(rtt=0.001)
        assert costs.rtt == 0.001
        assert CostModel().rtt != 0.001


class TestVanillaArchitecture:
    def test_all_connections_complete(self):
        metrics = run_closed(small_trace(0.2, n=200, unfinished=0.1),
                             lambda s: MailServerSim(s, ServerConfig.vanilla()),
                             concurrency=50)
        assert metrics.connections_finished == 200
        assert metrics.mails_accepted > 0
        assert metrics.bounce_connections > 0
        assert metrics.unfinished_connections > 0
        assert metrics.forks > 0

    def test_deliveries_match_acceptance(self):
        metrics = run_closed(small_trace(0.0, n=150),
                             lambda s: MailServerSim(s, ServerConfig.vanilla()),
                             concurrency=30)
        assert metrics.mails_accepted == 150
        assert metrics.mailbox_writes == 150  # single-recipient trace

    def test_process_limit_respected(self):
        sim = Simulator()
        server = MailServerSim(sim, ServerConfig(architecture="vanilla",
                                                 process_limit=5))
        client = ClosedLoopClient(sim, server, small_trace(0.0, n=60),
                                  concurrency=40)
        client.start()
        sim.run()
        assert len(server._workers) <= 5
        assert server.metrics.connections_finished == 60

    def test_worker_recycling_forks_again(self):
        sim = Simulator()
        config = ServerConfig(architecture="vanilla", process_limit=2,
                              worker_max_requests=10)
        server = MailServerSim(sim, config)
        client = ClosedLoopClient(sim, server, small_trace(0.0, n=50),
                                  concurrency=4)
        client.start()
        sim.run()
        metrics = server.finalize(sim.now)
        assert metrics.connections_finished == 50
        # 50 connections / 10 per process => at least 5 forks
        assert metrics.forks >= 5


class TestHybridArchitecture:
    def test_bounces_never_reach_workers(self):
        sim = Simulator()
        server = MailServerSim(sim, ServerConfig.hybrid())
        trace = small_trace(1.0, n=80)  # every connection bounces
        client = ClosedLoopClient(sim, server, trace, concurrency=20)
        client.start()
        sim.run()
        assert server.metrics.bounce_connections == 80
        assert len(server._workers) == 0  # no worker was ever created
        assert server.metrics.forks == 0

    def test_good_mail_delegated_and_delivered(self):
        sim = Simulator()
        server = MailServerSim(sim, ServerConfig.hybrid())
        client = ClosedLoopClient(sim, server, small_trace(0.0, n=100),
                                  concurrency=20)
        client.start()
        sim.run()
        assert server.metrics.mails_accepted == 100
        assert len(server._workers) >= 1

    def test_hybrid_beats_vanilla_on_bouncy_load(self):
        trace = bounce_sweep_trace(0.8, n_connections=1_200)
        mv = run_closed_timed(trace,
                              lambda s: MailServerSim(s, ServerConfig.vanilla()),
                              concurrency=400, duration=15, warmup=4)
        mh = run_closed_timed(trace,
                              lambda s: MailServerSim(s, ServerConfig.hybrid()),
                              concurrency=400, duration=15, warmup=4)
        assert mh.goodput() > 1.5 * mv.goodput()
        assert mh.context_switches < mv.context_switches

    def test_multi_recipient_sessions(self):
        trace = recipient_sequence_trace(5, n_sequences=20)
        metrics = run_closed(trace,
                             lambda s: MailServerSim(s, ServerConfig.hybrid()),
                             concurrency=10)
        assert metrics.mails_accepted == len(trace)
        assert metrics.mailbox_writes == 20 * 15


class TestDnsblIntegration:
    def _run(self, mode, trace, zone_ips):
        def factory(sim):
            config = ServerConfig(architecture="vanilla", process_limit=100,
                                  dnsbl_use_trace_time=True)
            return MailServerSim(sim, config,
                                 resolver=make_dnsbl_bank(zone_ips, mode))
        return run_closed(trace, factory, concurrency=50)

    def test_lookup_accounting(self):
        generator = SinkholeTraceGenerator(SinkholeConfig().scaled(600))
        prefixes = generator.botnet()
        trace = generator.generate(prefixes)
        from repro.traces import BotnetModel
        zone_ips = BotnetModel.zone_ips(prefixes)
        ip_metrics = self._run("ip", trace, zone_ips)
        pf_metrics = self._run("prefix", trace, zone_ips)
        assert ip_metrics.dnsbl_lookups == len(trace)
        assert 0 < pf_metrics.dnsbl_queries < ip_metrics.dnsbl_queries
        assert (pf_metrics.dnsbl_query_fraction()
                < ip_metrics.dnsbl_query_fraction())

    def test_reject_blacklisted_closes_early(self):
        sim = Simulator()
        trace = small_trace(0.0, n=40)
        zone_ips = {c.client_ip for c in trace}
        config = ServerConfig(architecture="vanilla")
        server = MailServerSim(sim, config,
                               resolver=make_dnsbl_bank(zone_ips, "ip"),
                               reject_blacklisted=True)
        client = ClosedLoopClient(sim, server, trace, concurrency=10)
        client.start()
        sim.run()
        assert server.metrics.dnsbl_rejects == 40
        assert server.metrics.mails_accepted == 0


class TestDrivers:
    def test_open_loop_offers_at_rate(self):
        trace = small_trace(0.0, n=50)
        metrics = run_open(trace,
                           lambda s: MailServerSim(s, ServerConfig.vanilla()),
                           rate=50.0, duration=10.0, drain=False)
        # 50/s for 10s ≈ 500 connections started
        assert metrics.connections_started == pytest.approx(500, rel=0.25)

    def test_closed_loop_finished_event(self):
        sim = Simulator()
        server = MailServerSim(sim, ServerConfig.vanilla())
        client = ClosedLoopClient(sim, server, small_trace(0.0, n=30),
                                  concurrency=10)
        client.start()
        sim.run()
        assert client.finished.triggered

    def test_driver_validation(self):
        sim = Simulator()
        server = MailServerSim(sim, ServerConfig.vanilla())
        with pytest.raises(ValueError):
            ClosedLoopClient(sim, server, small_trace(n=10), concurrency=0)
        with pytest.raises(ValueError):
            OpenLoopClient(sim, server, small_trace(n=10), rate=0,
                           duration=10)


class TestSpamAwareFacade:
    def test_options_matrix(self):
        assert SpamAwareOptions.none().fork_after_trust is False
        assert SpamAwareOptions.all().mfs_storage is True

    def test_build_vanilla_and_aware(self):
        sim = Simulator()
        vanilla = build_vanilla(sim)
        assert vanilla.config.architecture == "vanilla"
        assert vanilla.config.storage_backend == "mbox"
        assert vanilla.resolver is None
        sim2 = Simulator()
        aware = build_spamaware(sim2, ["1.2.3.4"])
        assert aware.config.architecture == "hybrid"
        assert aware.config.storage_backend == "mfs"
        assert aware.resolver is not None
        assert len(aware.resolver.resolvers) == 6

    def test_ablation_single_optimisation(self):
        sim = Simulator()
        options = SpamAwareOptions(fork_after_trust=True, mfs_storage=False,
                                   prefix_dnsbl=False)
        server = build_server(sim, options)
        assert server.config.architecture == "hybrid"
        assert server.config.storage_backend == "mbox"
