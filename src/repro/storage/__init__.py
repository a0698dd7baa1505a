"""Mailbox storage backends and filesystem cost models (Figs. 10/11)."""

from ..errors import ConfigError
from ..mfs.store import MfsStore
from .base import MailboxStore, StoredMail
from .diskmodel import EXT3, REISER, MODELS, FsCostModel, IoKind, IoOp
from .maildir import HardlinkStore, MaildirStore
from .mbox import MboxStore

#: The four contenders of §6.3, by experiment-table name.
BACKENDS = {
    "mbox": MboxStore,
    "maildir": MaildirStore,
    "hardlink": HardlinkStore,
    "mfs": MfsStore,
}


def plan_delivery(backend: str, payload_len: int,
                  n_rcpts: int) -> list[IoOp]:
    """Disk operations to deliver one ``payload_len``-byte mail to
    ``n_rcpts`` mailboxes on ``backend``: that backend's :meth:`plan`.

    Every simulated delivery carries a fresh mail id, so the MFS plan is
    the shared-mailbox write, never §6.2's dedup skip (which
    ``MfsStore.nwrite`` implements for a mail id already stored).
    """
    if n_rcpts < 1:
        raise ConfigError("deliveries need at least one recipient")
    return BACKENDS[backend].plan(payload_len, n_rcpts)


__all__ = [
    "MailboxStore", "StoredMail",
    "EXT3", "REISER", "MODELS", "FsCostModel", "IoKind", "IoOp",
    "HardlinkStore", "MaildirStore", "MboxStore", "MfsStore", "BACKENDS",
    "plan_delivery",
]
