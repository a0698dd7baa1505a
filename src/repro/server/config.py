"""Mail-server simulation configuration and cost constants.

The constants model a 2007-class server (Table 1: 3 GHz Xeon, U320 SCSI,
gigabit LAN with an emulated 30 ms delay) and are calibrated so the paper's
anchor numbers hold — most importantly, vanilla postfix peaking at ≈180
mails/sec with 500 smtpd processes under the Univ workload (§3).

All times are seconds of simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from ..storage import BACKENDS
from ..storage.diskmodel import EXT3, FsCostModel

__all__ = ["CostModel", "ServerConfig"]


@dataclass(frozen=True)
class CostModel:
    """CPU and network cost constants.

    Two cost tiers reflect the two execution contexts the paper contrasts:

    * **process context** (an smtpd handling the connection): every protocol
      step involves waking a dedicated OS process — scheduling, socket
      syscalls, and the per-connection dispatch/teardown tax
      (``process_dispatch_cost``).  This tax is why vanilla postfix's
      goodput falls almost linearly with the bounce ratio: a bounce
      connection costs nearly as much as a good one (Fig. 8).
    * **event-loop context** (the hybrid master handling the envelope with
      select/poll, §5.1): a command is a non-blocking read, a parse and a
      small write — one to two orders of magnitude cheaper, and with no
      context switch because the master never yields the CPU between
      connections.
    """

    # -- process (smtpd) context ------------------------------------------
    #: CPU to accept a connection and emit the banner in an smtpd
    accept_cost: float = 120e-6
    #: CPU per envelope command handled inside an smtpd process
    command_cost: float = 200e-6
    #: one-time per-connection tax of dedicating an OS process: dispatch,
    #: scheduler wakeups across the session, socket hand-off and teardown
    process_dispatch_cost: float = 2_050e-6
    # -- event-loop (master) context ---------------------------------------
    #: CPU to accept + banner in the master's event loop
    event_accept_cost: float = 15e-6
    #: CPU per envelope command in the event loop
    event_command_cost: float = 10e-6
    #: master-side cost of delegating a trusted connection (vector send of
    #: the collected state over the UNIX socket, §5.3)
    delegation_cost: float = 50e-6
    # -- shared costs ----------------------------------------------------------
    #: recipient lookup in the local access database (hash probe; both tiers)
    rcpt_lookup_cost: float = 25e-6
    #: fixed CPU to process a received message body (cleanup, enqueue)
    data_fixed_cost: float = 380e-6
    #: CPU per body byte (receive buffers, header rewriting, queue write)
    data_per_byte: float = 0.12e-6
    #: CPU for the queue-manager + local-delivery stages, per mail
    delivery_fixed_cost: float = 350e-6
    #: CPU the local(8) agent spends *per recipient mailbox write* --
    #: opening, locking and writing each destination mailbox separately
    local_write_cost: float = 300e-6
    #: the same work under MFS's ``mail_nwrite``: one shared-mailbox insert
    #: plus a 32-byte key append per recipient under a single lock (§6.2)
    mfs_local_write_cost: float = 125e-6
    #: CPU to build/send/receive one actual DNS query (cache misses only;
    #: charged per provider — a full check fans out to six lists).  Covers
    #: the co-located caching resolver's recursion work as well.
    dns_query_cost: float = 1_200e-6
    #: CPU to check the local DNSBL cache (both hits and misses)
    dns_cache_cost: float = 15e-6
    #: OS context-switch penalty (charged when the CPU switches pids)
    context_switch_cost: float = 30e-6
    #: OS fork+exec cost for a new smtpd process
    fork_cost: float = 800e-6
    #: client/server network round-trip (Table 1 emulates 30 ms)
    rtt: float = 30e-3

    def replace(self, **changes) -> "CostModel":
        """A copy with the given constants overridden."""
        import dataclasses
        return dataclasses.replace(self, **changes)

    @classmethod
    def storage_profile(cls) -> "CostModel":
        """The §6.3 storage-experiment calibration.

        The Figs. 10/11 runs predate the §5 concurrency tuning and show a
        heavier per-connection cost than the tuned Fig. 8 setup (vanilla
        writes ~120 mails/s at 1 recipient there versus the 180 mails/s
        peak of Fig. 8).  We reproduce both by raising the per-connection
        process tax for the storage experiments only.
        """
        return cls(process_dispatch_cost=4_850e-6)


@dataclass
class ServerConfig:
    """One mail-server deployment to simulate."""

    #: "vanilla" (process per connection, Fig. 6) or "hybrid"
    #: (fork-after-trust, Fig. 7)
    architecture: str = "vanilla"
    #: smtpd process limit (paper: vanilla peaks at 500; hybrid run with 700)
    process_limit: int = 500
    #: connections a vanilla smtpd serves before exiting (postfix max_use);
    #: hybrid's delegated smtpd pool is persistent and never recycles
    worker_max_requests: int = 100
    #: tasks one master→smtpd socket buffer holds (§5.3 estimates 28)
    task_queue_depth: int = 28
    #: storage backend for mailbox writes, a key of ``storage.BACKENDS``
    storage_backend: str = "mbox"
    #: filesystem cost model for the mailbox disk
    fs_model: FsCostModel = field(default_factory=lambda: EXT3)
    costs: CostModel = field(default_factory=CostModel)
    #: emulate DNS cache state at trace timestamps rather than replay time
    #: (§7.2's emulation methodology; used by the Fig. 14 experiment)
    dnsbl_use_trace_time: bool = False
    #: sinkhole mode: accept mails but skip mailbox delivery (Fig. 14
    #: measures acceptance throughput at a spam sink)
    discard_delivery: bool = False

    def __post_init__(self):
        if self.architecture not in ("vanilla", "hybrid"):
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        if self.process_limit < 1:
            raise ConfigError("process_limit must be >= 1")
        if self.worker_max_requests < 1:
            raise ConfigError("worker_max_requests must be >= 1")
        if self.task_queue_depth < 1:
            raise ConfigError("task_queue_depth must be >= 1")
        if self.storage_backend not in BACKENDS:
            raise ConfigError(
                f"unknown storage backend {self.storage_backend!r}")

    @classmethod
    def vanilla(cls, **overrides) -> "ServerConfig":
        """The paper's tuned vanilla postfix (500 smtpd processes)."""
        overrides.setdefault("process_limit", 500)
        return cls(architecture="vanilla", **overrides)

    @classmethod
    def storage_experiment(cls, backend: str,
                           fs_model: FsCostModel) -> "ServerConfig":
        """The §6.3 setup: vanilla concurrency, varying storage backend."""
        return cls(architecture="vanilla", process_limit=500,
                   storage_backend=backend, fs_model=fs_model,
                   costs=CostModel.storage_profile())

    @classmethod
    def hybrid(cls, **overrides) -> "ServerConfig":
        """The fork-after-trust configuration (700 sockets, §5.4)."""
        overrides.setdefault("process_limit", 700)
        return cls(architecture="hybrid", **overrides)
