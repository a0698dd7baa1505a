"""The loopback workload's server process.

Runs the real asyncio ``SmtpServer`` (fork-after-trust, ``MfsStore``) in a
process of its own, so the benchmark's client and the server do not share
an interpreter.  It talks to the benchmark over its standard streams, one
JSON object per line:

* stdin line 1: ``{"root": ..., "valid": [...], "trace": 0|1}``;
* stdout line 1: ``{"port": N}`` once the server listens;
* ``mark`` on stdin answers with the process's CPU time so far;
* ``stop`` (or end of input) stops the server, closes the store and answers
  with the server's counters, its peak RSS and, when traced, the timings of
  the SMTP state machine and the store.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import resource
import sys
import time

from repro.mfs import MfsStore
from repro.net import NetServerConfig, SmtpServer
from repro.smtp.fsm import ServerSession

from layers import Probe, peak_rss_mb, percentile


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def raise_fd_limit() -> None:
    """Each open MFS mailbox holds two files; allow a few thousand."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    target = 4096 if hard == resource.RLIM_INFINITY else min(4096, hard)
    if soft < target:
        resource.setrlimit(resource.RLIMIT_NOFILE, (target, hard))


async def serve(root: str, valid: frozenset, probe: Probe | None) -> dict:
    store = MfsStore(root)
    if probe is not None:
        probe.time(ServerSession, "receive_data", "smtp.fsm")
        probe.time(type(store), "deliver", "mfs.deliver", keep_samples=True,
                   measure=lambda ops: sum(op.nbytes for op in ops))
    server = SmtpServer(NetServerConfig(architecture="fork-after-trust",
                                        hostname="mail.cs.univ.example"),
                        store, lambda address: address.mailbox in valid)
    await server.start()
    _emit({"port": server.port})
    loop = asyncio.get_running_loop()
    while True:
        command = (await loop.run_in_executor(None, sys.stdin.readline)
                   ).strip()
        if command != "mark":
            break
        _emit({"cpu": time.process_time()})
    await server.stop()
    store.close()
    stats = server.stats
    return {"cpu": time.process_time(), "connections": stats.connections,
            "outcomes": stats.outcomes, "handoffs": stats.handoffs,
            "mails_accepted": stats.mails_accepted}


def main() -> int:
    raise_fd_limit()
    request = json.loads(sys.stdin.readline())
    probe = Probe() if request["trace"] else None
    with probe if probe is not None else contextlib.nullcontext():
        report = asyncio.run(serve(request["root"],
                                   frozenset(request["valid"]), probe))
    report["peak_rss_mb"] = peak_rss_mb()
    if probe is not None:
        deliver = probe.samples["mfs.deliver"]
        report["probe"] = {
            "calls": dict(probe.calls), "seconds": dict(probe.seconds),
            "totals": dict(probe.totals),
            "deliver_p99_s": percentile(deliver, 99) if deliver else 0.0}
    _emit(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
