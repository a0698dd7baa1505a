"""The loopback-smtp workload: real sessions over 127.0.0.1.

The server runs in a child process (``loopback_server.py``); a closed-loop
generator here keeps ``CLIENTS`` sessions in flight, each a real
``SmtpClient`` connection played from the seeded traffic.  Every session's
outcome is checked against the trace, and after the run the ``MfsStore``
is read back and compared with the mail ids the server acknowledged.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ProtocolError
from repro.mfs import MfsStore
from repro.net import SmtpClient
from repro.smtp import ClientSession, OutgoingMail

from layers import Probe
from workloads import loopback as build_inputs

HERE = Path(__file__).resolve().parent
#: one closed-loop session per core of the 2-core reference box
CLIENTS = 2
#: sessions played before the timed section starts
WARMUP_SESSIONS = 50
#: sessions the traced run plays: a fixed count, so its counts repeat
TRACED_SESSIONS = 1_500
SESSION_TIMEOUT = 5.0
SERVER_START_TIMEOUT = 60.0


class ServerProcess:
    """The child process running the SMTP server."""

    def __init__(self, root: Path, valid: frozenset, traced: bool,
                 cpu: int | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(HERE.parent / "src"), str(HERE)])
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "loopback_server.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True)
        try:
            if cpu is not None:
                os.sched_setaffinity(self.proc.pid, {cpu})
            self._send(json.dumps({"root": str(root), "valid": sorted(valid),
                                   "trace": int(traced)}))
            self.port = self._reply()["port"]
        except BaseException:
            self.kill()
            raise

    def _send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("loopback server exited unexpectedly "
                               f"(code {self.proc.wait(5)})")
        return json.loads(line)

    def cpu(self) -> float:
        self._send("mark")
        return self._reply()["cpu"]

    def stop(self) -> dict:
        self._send("stop")
        report = self._reply()
        self.proc.wait(SERVER_START_TIMEOUT)
        return report

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            with contextlib.suppress(OSError):
                stream.close()


@dataclass
class Ledger:
    """What the sessions observed, for the latency and output checks."""

    failed: list = field(default_factory=list)      # (index, reason)
    outcomes: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)    # mailbox -> {mail ids}
    single_ids: set = field(default_factory=set)
    multi_ids: set = field(default_factory=set)
    sessions: int = 0


def outgoing(conn) -> list[OutgoingMail]:
    return [OutgoingMail(sender=f"sender@{conn.helo}",
                         recipients=[r.mailbox for r in mail.recipients],
                         body=b"X" * max(0, mail.size - 2) + b"\r\n")
            for mail in conn.mails]


def check_session(conn, client: SmtpClient, results, ledger: Ledger):
    """Compare one session's results with the trace; returns a reason or
    ``None``, and records acknowledged mail ids on success."""
    if not client.session.succeeded:
        return "session did not complete"
    if conn.unfinished:
        outcome = "unfinished"
        if results:
            return "unfinished session carried mail"
    else:
        outcome = ("delivered" if any(not m.is_bounce for m in conn.mails)
                   else "bounce")
    ids = []
    for mail, result in zip(conn.mails, results):
        valid = [r.mailbox for r in mail.recipients if r.valid]
        invalid = [r.mailbox for r in mail.recipients if not r.valid]
        if (result.accepted_recipients != valid
                or result.rejected_recipients != invalid
                or result.delivered != bool(valid)):
            return f"recipients or delivery differ from the trace: {result}"
        if valid:
            ids.append((result.reply.split()[-1], valid))
    ledger.outcomes[outcome] = ledger.outcomes.get(outcome, 0) + 1
    for mail_id, boxes in ids:
        (ledger.multi_ids if len(boxes) > 1 else ledger.single_ids).add(
            mail_id)
        for box in boxes:
            ledger.expected.setdefault(box, set()).add(mail_id)
    return None


async def play(port: int, connections: list, ledger: Ledger, first: int,
               *, count: int | None = None,
               seconds: float | None = None) -> tuple[float, list]:
    """Run sessions ``first, first + 1, ...`` from a closed loop of
    ``CLIENTS`` clients: exactly ``count`` of them, or as many as start
    within ``seconds``.  Returns the elapsed wall time and the latency of
    every session, connect to QUIT reply, in seconds."""
    order = itertools.count(first)
    stop_at = None if count is None else first + count
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds
    latencies: list = []

    async def session(index: int) -> None:
        conn = connections[index % len(connections)]
        client = SmtpClient("127.0.0.1", port, outgoing(conn),
                            helo=conn.helo, quit_after_helo=conn.unfinished,
                            timeout=SESSION_TIMEOUT)
        t0 = time.perf_counter()
        try:
            results = await asyncio.wait_for(client.run(),
                                              2 * SESSION_TIMEOUT)
            reason = check_session(conn, client, results, ledger)
        except (OSError, asyncio.TimeoutError, ProtocolError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        ledger.sessions += 1
        if reason is not None:
            ledger.failed.append((index, reason))

    async def worker() -> None:
        while True:
            index = next(order)
            if stop_at is not None and index >= stop_at:
                return
            if deadline is not None and time.perf_counter() >= deadline:
                return
            await session(index)

    await asyncio.gather(*(worker() for _ in range(CLIENTS)))
    return time.perf_counter() - start, latencies


def verify_store(root: Path, ledger: Ledger, valid: frozenset) -> list[str]:
    """Read the store back: each mailbox holds exactly the acknowledged
    ids, and every multi-recipient mail sits once in the shared mailbox."""
    problems = []
    with MfsStore(root) as store:
        for box in sorted(valid):
            stored = store.list_mailbox(box)
            want = ledger.expected.get(box, set())
            if len(stored) != len(set(stored)) or set(stored) != want:
                problems.append(f"mailbox {box}: {len(stored)} stored, "
                                f"{len(want)} acknowledged")
        if store.shared_record_count() != len(ledger.multi_ids) or any(
                mail_id not in store.shared for mail_id in ledger.multi_ids):
            problems.append(
                f"shared mailbox holds {store.shared_record_count()} mails, "
                f"{len(ledger.multi_ids)} multi-recipient mails acknowledged")
        if any(mail_id in store.shared for mail_id in ledger.single_ids):
            problems.append("a single-recipient mail reached the shared "
                            "mailbox")
    return problems


def verify_server(report: dict, ledger: Ledger) -> list[str]:
    """The server's own outcome tally must match what the clients saw."""
    problems = []
    if not ledger.failed and report["outcomes"] != ledger.outcomes:
        problems.append(f"server outcomes {report['outcomes']} != "
                        f"client outcomes {ledger.outcomes}")
    if report["handoffs"] != ledger.outcomes.get("delivered", 0):
        problems.append(f"{report['handoffs']} worker handoffs for "
                        f"{ledger.outcomes.get('delivered', 0)} delivered "
                        "sessions")
    return problems


@dataclass
class Setup:
    inputs: object
    server: ServerProcess
    seconds: list      # one per repetition
    generate_seconds: list


def cpu_pair() -> tuple[int, int] | None:
    """Two CPUs for the client and the server, or ``None`` with fewer.

    Pinning keeps the two processes off each other's core; on the 2-core
    reference box it cut the run-to-run spread of the latencies by a
    quarter.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else None


def set_up(seed: int, root: Path, traced: bool, repeats: int,
           cpu: int | None = None) -> Setup:
    """Generate the traffic and start the server until it listens,
    ``repeats`` times; the last server stays up for the run."""
    seconds, generate = [], []
    server = None
    for _ in range(repeats):
        if server is not None:
            server.stop()
            server.kill()
            shutil.rmtree(root, ignore_errors=True)
        t0 = time.perf_counter()
        inputs = build_inputs(seed)
        t1 = time.perf_counter()
        server = ServerProcess(root, inputs.valid_mailboxes, traced, cpu)
        seconds.append(time.perf_counter() - t0)
        generate.append(t1 - t0)
    return Setup(inputs, server, seconds, generate)


@dataclass
class LoopbackRun:
    setup: Setup
    ledger: Ledger
    report: dict
    window_s: float
    latencies: list
    server_cpu_s: float
    client_cpu_s: float
    problems: list
    client_probe: Probe | None


def run(seed: int, workdir: Path, *, seconds: float | None = None,
        traced: bool = False, setup_repeats: int = 3) -> LoopbackRun:
    """Set up, play the traffic, stop the server and check everything.

    The untraced run warms up, then plays for ``seconds``; the traced run
    plays exactly ``TRACED_SESSIONS`` sessions, so its counts repeat."""
    root = workdir / "mfs"
    cpus, affinity = cpu_pair(), os.sched_getaffinity(0)
    if cpus is not None:
        os.sched_setaffinity(0, {cpus[0]})
    try:
        return _run(seed, root, seconds, traced, setup_repeats,
                    cpus[1] if cpus is not None else None)
    finally:
        os.sched_setaffinity(0, affinity)


def _run(seed: int, root: Path, seconds: float | None, traced: bool,
         setup_repeats: int, server_cpu: int | None) -> LoopbackRun:
    setup = set_up(seed, root, traced, setup_repeats, server_cpu)
    server, conns = setup.server, setup.inputs.connections
    ledger = Ledger()
    probe = Probe() if traced else None
    try:
        with probe if probe is not None else contextlib.nullcontext():
            if probe is not None:
                probe.time(ClientSession, "receive_data", "smtp.client_fsm")
            first = 0
            if not traced:
                asyncio.run(play(server.port, conns, ledger, 0,
                                 count=WARMUP_SESSIONS))
                first = WARMUP_SESSIONS
            cpu0, ccpu0 = server.cpu(), time.process_time()
            window, latencies = asyncio.run(play(
                server.port, conns, ledger, first,
                count=TRACED_SESSIONS if traced else None, seconds=seconds))
            cpu1, ccpu1 = server.cpu(), time.process_time()
        report = server.stop()
    finally:
        server.kill()
    problems = verify_server(report, ledger)
    problems += verify_store(root, ledger, setup.inputs.valid_mailboxes)
    shutil.rmtree(root, ignore_errors=True)
    return LoopbackRun(setup, ledger, report, window, latencies,
                       cpu1 - cpu0, ccpu1 - ccpu0, problems, probe)
