"""The spam-aware mail server: the paper's three optimisations assembled.

This module is the reproduction's top-level façade.  It builds complete
simulated deployments:

* :func:`build_vanilla` — stock postfix: process-per-connection, one-file-
  per-mailbox (mbox) storage, classic per-IP DNSBL lookups;
* :func:`build_spamaware` — the §8 configuration: fork-after-trust
  concurrency (§5) + MFS storage (§6) + prefix-based DNSBLv6 lookups (§7);

plus :func:`make_dnsbl_bank` which wires a botnet-derived blacklist zone
into the six-provider resolver bank postfix queries in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..dnsbl.latency import PROVIDERS
from ..dnsbl.resolver import STRATEGIES, DnsblBank, DnsblResolver
from ..dnsbl.server import DnsblServer
from ..dnsbl.zone import DnsblZone
from ..server.config import CostModel, ServerConfig
from ..server.simserver import MailServerSim
from ..sim.core import Simulator
from ..sim.random import RngStream
from ..storage.diskmodel import EXT3, FsCostModel

__all__ = ["SpamAwareOptions", "make_dnsbl_bank", "build_vanilla",
           "build_spamaware", "build_server"]

#: 24-hour reply expiration, §7.2
DNSBL_TTL = 86_400.0


@dataclass
class SpamAwareOptions:
    """Which of the three optimisations to enable (for ablations)."""

    fork_after_trust: bool = True
    mfs_storage: bool = True
    prefix_dnsbl: bool = True

    @classmethod
    def none(cls) -> "SpamAwareOptions":
        return cls(False, False, False)

    @classmethod
    def all(cls) -> "SpamAwareOptions":
        return cls(True, True, True)


def make_dnsbl_bank(blacklisted_ips, strategy: str,
                    ttl: float = DNSBL_TTL, seed: int = 7,
                    n_providers: Optional[int] = None) -> DnsblBank:
    """A six-provider resolver bank over a shared blacklist population.

    All providers serve the same zone contents (public DNSBLs overlap
    heavily for botnet hosts) but have distinct latency behaviour (Fig. 5).
    The listings are built once and shared read-only by every provider's
    zone.  ``blacklisted_ips`` holds 32-bit ints (e.g.
    :meth:`~repro.traces.BotnetModel.zone_addrs`) or dotted quads.
    ``strategy`` is ``"ip"`` or ``"prefix"``.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown DNSBL strategy {strategy!r}")
    names = list(PROVIDERS)
    if n_providers is not None:
        names = names[:n_providers]
    listings = DnsblZone(names[0], blacklisted_ips)
    resolvers = []
    for index, name in enumerate(names):
        server = DnsblServer(listings.with_origin(name), ttl=int(ttl))
        resolvers.append(DnsblResolver(
            server, STRATEGIES[strategy](), ttl=ttl,
            latency_model=PROVIDERS[name],
            rng=RngStream(seed * 1000 + index)))
    return DnsblBank(resolvers)


def build_server(sim: Simulator, options: SpamAwareOptions,
                 blacklisted_ips=None, fs_model: FsCostModel = EXT3,
                 dnsbl_use_trace_time: bool = True,
                 discard_delivery: bool = False,
                 costs: Optional[CostModel] = None,
                 dnsbl_seed: int = 7) -> MailServerSim:
    """Build a simulated server with any subset of the optimisations."""
    config = ServerConfig(
        architecture="hybrid" if options.fork_after_trust else "vanilla",
        process_limit=700 if options.fork_after_trust else 500,
        storage_backend="mfs" if options.mfs_storage else "mbox",
        fs_model=fs_model,
        dnsbl_use_trace_time=dnsbl_use_trace_time,
        discard_delivery=discard_delivery,
        costs=costs or CostModel(),
    )
    resolver = None
    if blacklisted_ips is not None:
        resolver = make_dnsbl_bank(
            blacklisted_ips,
            strategy="prefix" if options.prefix_dnsbl else "ip",
            seed=dnsbl_seed)
    return MailServerSim(sim, config, resolver=resolver)


def build_vanilla(sim: Simulator, blacklisted_ips=None,
                  **kwargs) -> MailServerSim:
    """Stock postfix: every optimisation off."""
    return build_server(sim, SpamAwareOptions.none(), blacklisted_ips,
                        **kwargs)


def build_spamaware(sim: Simulator, blacklisted_ips=None,
                    **kwargs) -> MailServerSim:
    """The full §8 spam-aware configuration: all three optimisations."""
    return build_server(sim, SpamAwareOptions.all(), blacklisted_ips,
                        **kwargs)
