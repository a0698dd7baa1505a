"""Golden digests of the flight-recorder stream and the span trace.

One small seeded capture drives every DES event kind through the real
emission sites: vanilla and hybrid servers, each against a DNSBL bank of
both strategies (a short TTL makes cache hits and expiry drops occur),
followed by MFS single and shared deliveries and a shared delete.  The
SHA-256 of the exported recording and of the exported trace are pinned,
so any change to what is emitted, in what order, with which values, or
how it is exported to dicts shows up here.
"""

import hashlib
import json

from repro.clients.closed import run_closed_timed
from repro.core import make_dnsbl_bank
from repro.mfs import MfsStore
from repro.obs import EVENTS, capture
from repro.server import MailServerSim, ServerConfig
from repro.traces import bounce_sweep_trace

#: (record count, SHA-256 of the JSON lines) of ``record_records()``
RECORDING = (2651,
             "02590b0abbc26e08d571a85675a144ef127eec6d463e4e3c1ee25e9e9194bc69")
#: the same for the span trace, ``records()``
TRACE = (962,
         "d90b90ff5dbfb1ff354edf72cafc1ad9ad7bed19fbedf2e80f6cb9e0e3f920d3")


def _digest(records) -> tuple[int, str]:
    lines = [json.dumps(record) for record in records]
    text = "\n".join(lines).encode()
    return len(lines), hashlib.sha256(text).hexdigest()


def _golden_capture(tmp_path, make_message):
    trace = bounce_sweep_trace(0.4, n_connections=40, unfinished_ratio=0.1,
                               mean_interarrival=0.2)
    listed = {conn.client_addr for conn in trace.connections[::3]}
    with capture(context={"exp": "golden"}, record=True) as tr:
        for arch in ("vanilla", "hybrid"):
            for strategy in ("ip", "prefix"):
                def factory(sim, arch=arch, strategy=strategy):
                    config = ServerConfig(architecture=arch,
                                          process_limit=4)
                    bank = make_dnsbl_bank(listed, strategy, ttl=1.0,
                                           n_providers=2)
                    return MailServerSim(sim, config, resolver=bank,
                                         reject_blacklisted=True)
                run_closed_timed(trace, factory, concurrency=6,
                                 duration=2.0, warmup=0.5)
        with MfsStore(tmp_path) as store:
            shared = make_message(["a@d.com", "b@d.com", "c@d.com"])
            store.deliver(make_message(["a@d.com"]))
            store.deliver(shared)
            store.delete("a@d.com", shared.mail_id)
            store.delete("b@d.com", shared.mail_id)
    return tr


def test_capture_covers_every_event_kind(tmp_path, make_message):
    tr = _golden_capture(tmp_path, make_message)
    events = [r for r in tr.record_records() if r["type"] == "event"]
    assert {r["kind"] for r in events} == set(EVENTS)
    reasons = {r["attrs"]["reason"] for r in events
               if r["kind"] == "dnsbl.drop"}
    assert "expired" in reasons
    outcomes = {r["attrs"]["outcome"] for r in events
                if r["kind"] == "conn.close"}
    assert outcomes == {"accepted", "bounce", "unfinished", "rejected"}


def test_recording_and_trace_digests_are_pinned(tmp_path, make_message):
    tr = _golden_capture(tmp_path, make_message)
    assert _digest(tr.record_records()) == RECORDING
    assert _digest(tr.records()) == TRACE
