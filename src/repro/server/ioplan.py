"""I/O plans: what each storage backend does per delivery, for the simulator.

The simulator must charge the disk exactly what the real backends would do.
These planners mirror the real implementations operation-for-operation
(``TestPlanEquivalence`` in ``tests/test_storage.py`` asserts the equivalence
against actual deliveries), assuming the steady state where destination
mailboxes already exist.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..mfs.layout import DATA_HEADER_SIZE, KEY_RECORD_SIZE
from ..storage.diskmodel import IoKind, IoOp

__all__ = ["plan_delivery", "plan_queue_write", "MBOX_RECORD_OVERHEAD"]

#: separator-line overhead per mbox record ("From MAILER <id> <len>\n" + NL)
MBOX_RECORD_OVERHEAD = 33


def plan_delivery(backend: str, payload_len: int,
                  n_rcpts: int) -> list[IoOp]:
    """Disk operations to deliver one ``payload_len``-byte mail to
    ``n_rcpts`` mailboxes on ``backend``.

    Every simulated delivery carries a fresh mail id, so the MFS plan is
    the shared-mailbox write, never §6.2's dedup skip (which
    ``MfsStore.nwrite`` implements for a mail id already stored).
    """
    if n_rcpts < 1:
        raise ConfigError("deliveries need at least one recipient")
    if payload_len < 0:
        raise ConfigError("negative payload length")

    if backend == "mbox":
        record = payload_len + MBOX_RECORD_OVERHEAD
        return [IoOp(IoKind.APPEND, record, "mailbox")] * n_rcpts

    if backend == "maildir":
        return [IoOp(IoKind.CREATE, payload_len, "mailbox")] * n_rcpts

    if backend == "hardlink":
        ops = [IoOp(IoKind.CREATE, payload_len, ".content")]
        ops += [IoOp(IoKind.LINK, 0, "mailbox")] * n_rcpts
        return ops

    if backend == "mfs":
        if n_rcpts == 1:
            return [
                IoOp(IoKind.APPEND, DATA_HEADER_SIZE + payload_len,
                     "mailbox_data"),
                IoOp(IoKind.APPEND, KEY_RECORD_SIZE, "mailbox_key"),
            ]
        ops = [
            IoOp(IoKind.APPEND, DATA_HEADER_SIZE + payload_len,
                 "shmailbox_data"),
            IoOp(IoKind.APPEND, KEY_RECORD_SIZE, "shmailbox_key"),
        ]
        ops += [IoOp(IoKind.APPEND, KEY_RECORD_SIZE, "mailbox_key")] * n_rcpts
        return ops

    raise ConfigError(f"unknown storage backend {backend!r}")


def plan_queue_write(payload_len: int) -> list[IoOp]:
    """The incoming-queue file write every accepted mail pays (all backends;
    §6.3: "the modified postfix continues to use regular files for temporary
    files, such as those in the incoming queue").

    Postfix recycles queue-file inodes, so the steady-state cost is an
    append-sized write plus the (cheap) unlink-equivalent rename; we charge
    one APPEND plus one UPDATE for the queue-manager state.
    """
    return [IoOp(IoKind.APPEND, payload_len, "incoming-queue"),
            IoOp(IoKind.UPDATE, 64, "queue-meta")]
