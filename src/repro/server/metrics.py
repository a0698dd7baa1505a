"""Metrics collected during a mail-server simulation run.

Since the observability PR, :class:`ServerMetrics` is a thin attribute
facade over a per-run :class:`~repro.obs.metrics.MetricsRegistry`: every
counter and gauge lives in the registry under its contract name (see
``docs/OBSERVABILITY.md``), and the attribute properties below exist so
the figure experiments and the timed harness keep their historical
``metrics.mails_accepted``-style access.  ``dump()`` snapshots the
registry; the tracer embeds that snapshot in exported traces so a raw
trace file reconciles against the same source of truth the figures read.
"""

from __future__ import annotations

from ..obs.contract import declare
from ..obs.metrics import MetricsRegistry

__all__ = ["ServerMetrics"]

#: attribute name -> contract metric name (counters)
_COUNTERS = {
    "connections_started": "server.connections.started",
    "connections_finished": "server.connections.finished",
    "connections_rejected": "server.connections.rejected",
    "bounce_connections": "server.connections.bounce",
    "unfinished_connections": "server.connections.unfinished",
    "mails_accepted": "server.mails.accepted",
    "mailbox_writes": "server.mailbox.writes",
    "rcpts_accepted": "server.rcpts.accepted",
    "rcpts_rejected": "server.rcpts.rejected",
    "dnsbl_lookups": "server.dnsbl.lookups",
    "dnsbl_queries": "server.dnsbl.queries",
    "dnsbl_rejects": "server.dnsbl.rejects",
}

#: attribute name -> contract metric name (gauges filled at finalize)
_GAUGES = {
    "run_time": "server.run.seconds",
    "context_switches": "server.cpu.context_switches",
    "forks": "server.cpu.forks",
    "cpu_busy": "server.cpu.busy_seconds",
    "disk_busy": "server.disk.busy_seconds",
}


class ServerMetrics:
    """Counters a run produces; rates are computed against the run window.

    *Goodput* follows §5.4: "the number of good mails per second received"
    — a mail counts once it is accepted (queued) by the server.  *Delivered*
    counts mailbox writes completed by the local-delivery stage, the unit
    Figs. 10/11 plot ("mails written to the mailboxes per second": one mail
    to five mailboxes counts five).
    """

    __slots__ = ("registry", "_fields", "_session_hist", "_lookup_hist")

    def __init__(self, registry: MetricsRegistry | None = None):
        reg = registry if registry is not None else MetricsRegistry()
        self.registry = reg
        fields = {}
        for attr, name in _COUNTERS.items():
            fields[attr] = declare(reg, name)
        for attr, name in _GAUGES.items():
            fields[attr] = declare(reg, name)
        self._fields = fields
        self._session_hist = declare(reg, "server.session.seconds")
        self._lookup_hist = declare(reg, "server.dnsbl.lookup.seconds")

    # -- distribution observations ----------------------------------------
    def observe_session(self, duration: float) -> None:
        self._session_hist.observe(duration)

    def observe_lookup(self, latency: float) -> None:
        self._lookup_hist.observe(latency)

    # -- derived rates ------------------------------------------------------
    def goodput(self) -> float:
        """Accepted good mails per second."""
        return self.mails_accepted / self.run_time if self.run_time else 0.0

    def delivery_throughput(self) -> float:
        """Mailbox writes per second (the Figs. 10/11 y-axis)."""
        return self.mailbox_writes / self.run_time if self.run_time else 0.0

    def dnsbl_query_fraction(self) -> float:
        """Fraction of lookups that went to the network (Fig. 15)."""
        return (self.dnsbl_queries / self.dnsbl_lookups
                if self.dnsbl_lookups else 0.0)

    def summary(self) -> dict[str, float]:
        return {
            "connections": float(self.connections_finished),
            "goodput_mails_per_sec": self.goodput(),
            "delivery_throughput": self.delivery_throughput(),
            "context_switches": float(self.context_switches),
            "forks": float(self.forks),
            "cpu_utilisation": (self.cpu_busy / self.run_time
                                if self.run_time else 0.0),
            "disk_utilisation": (self.disk_busy / self.run_time
                                 if self.run_time else 0.0),
            "dnsbl_query_fraction": self.dnsbl_query_fraction(),
        }

    def dump(self) -> dict:
        """Registry snapshot under the contract metric names."""
        return self.registry.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ServerMetrics(accepted={self.mails_accepted}, "
                f"finished={self.connections_finished})")


def _field_property(attr: str) -> property:
    def fget(self):
        return self._fields[attr].value

    def fset(self, value):
        # assignment exists for the timed harness, which rebases counters
        # onto the steady-state window, and for finalize() filling gauges
        field = self._fields[attr]
        if field.kind == "gauge":
            field.set(value)
        else:
            field.value = value

    return property(fget, fset)


for _attr in (*_COUNTERS, *_GAUGES):
    setattr(ServerMetrics, _attr, _field_property(_attr))
del _attr
