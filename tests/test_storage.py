"""Conformance tests across all four storage backends, plus the I/O-plan
equivalence the simulator relies on and the filesystem cost models."""

import pytest

from repro.errors import StorageError
from repro.server.ioplan import plan_delivery, plan_queue_write
from repro.storage import (BACKENDS, EXT3, REISER, FsCostModel, IoKind, IoOp,
                           HardlinkStore, MboxStore)


@pytest.fixture(params=list(BACKENDS))
def store(request, tmp_path):
    return BACKENDS[request.param](tmp_path / request.param)


class TestBackendConformance:
    def test_deliver_list_read(self, store, make_message):
        m1 = make_message(["a@d.com"])
        m2 = make_message(["a@d.com", "b@d.com"], body=b"second\r\n")
        store.deliver(m1)
        store.deliver(m2)
        assert store.list_mailbox("a@d.com") == [m1.mail_id, m2.mail_id]
        assert store.list_mailbox("b@d.com") == [m2.mail_id]
        assert store.read("a@d.com", m2.mail_id).payload == m2.serialized()
        assert store.read("b@d.com", m2.mail_id).payload == m2.serialized()

    def test_empty_mailbox(self, store):
        assert store.list_mailbox("nobody@d.com") == []

    def test_read_missing_raises(self, store, make_message):
        store.deliver(make_message(["a@d.com"]))
        with pytest.raises(Exception):
            store.read("a@d.com", "NOSUCHID")

    def test_delete_removes_only_target_mailbox(self, store, make_message):
        msg = make_message(["a@d.com", "b@d.com"])
        store.deliver(msg)
        store.delete("a@d.com", msg.mail_id)
        assert store.list_mailbox("a@d.com") == []
        assert store.read("b@d.com", msg.mail_id).payload == msg.serialized()

    def test_read_all_in_order(self, store, make_message):
        messages = [make_message(["x@d.com"], body=f"m{i}\r\n".encode())
                    for i in range(5)]
        for message in messages:
            store.deliver(message)
        got = store.read_all("x@d.com")
        assert [s.mail_id for s in got] == [m.mail_id for m in messages]

    def test_ops_reported_for_every_delivery(self, store, make_message):
        ops = store.deliver(make_message(["a@d.com", "b@d.com", "c@d.com"]))
        assert ops, "backends must report their I/O operations"
        assert all(isinstance(op, IoOp) for op in ops)


class TestBackendSpecifics:
    def test_hardlink_stores_one_copy(self, tmp_path, make_message):
        store = HardlinkStore(tmp_path)
        msg = make_message(["a@d.com", "b@d.com", "c@d.com"])
        store.deliver(msg)
        content = list((tmp_path / ".content").glob("*.mail"))
        assert len(content) == 1
        assert content[0].stat().st_nlink == 4  # content + 3 mailboxes

    def test_hardlink_reclaims_content_on_last_delete(self, tmp_path,
                                                      make_message):
        store = HardlinkStore(tmp_path)
        msg = make_message(["a@d.com", "b@d.com"])
        store.deliver(msg)
        store.delete("a@d.com", msg.mail_id)
        assert list((tmp_path / ".content").glob("*.mail"))
        store.delete("b@d.com", msg.mail_id)
        assert not list((tmp_path / ".content").glob("*.mail"))

    def test_mbox_expunge_compacts(self, tmp_path, make_message):
        store = MboxStore(tmp_path)
        m1, m2 = make_message(["u@d.com"]), make_message(["u@d.com"])
        store.deliver(m1)
        store.deliver(m2)
        store.delete("u@d.com", m1.mail_id)
        assert store.list_mailbox("u@d.com") == [m2.mail_id]
        store.expunge("u@d.com")
        assert store.list_mailbox("u@d.com") == [m2.mail_id]
        assert store.read("u@d.com", m2.mail_id).payload == m2.serialized()

    def test_mbox_rejects_corrupt_file(self, tmp_path, make_message):
        store = MboxStore(tmp_path)
        store.deliver(make_message(["u@d.com"]))
        path = next(p for p in tmp_path.iterdir() if p.is_file())
        path.write_bytes(b"garbage")
        with pytest.raises(StorageError):
            store.list_mailbox("u@d.com")


class TestPlanEquivalence:
    """The simulator's I/O planners must match the real backends op-for-op
    (kind multiset and payload-carrying sizes) in the steady state."""

    @pytest.mark.parametrize("backend", list(BACKENDS))
    @pytest.mark.parametrize("n_rcpts", [1, 3, 15])
    def test_plan_matches_real_backend(self, tmp_path, make_message, backend,
                                       n_rcpts):
        store = BACKENDS[backend](tmp_path / backend)
        # steady state: mailboxes already exist
        warm = make_message([f"u{i}@d.com" for i in range(n_rcpts)],
                            body=b"warmup\r\n")
        store.deliver(warm)
        msg = make_message([f"u{i}@d.com" for i in range(n_rcpts)],
                           body=b"B" * 500)
        real_ops = store.deliver(msg)
        planned = plan_delivery(backend, len(msg.serialized()), n_rcpts)
        real_kinds = sorted(op.kind.value for op in real_ops)
        plan_kinds = sorted(op.kind.value for op in planned)
        assert real_kinds == plan_kinds, (backend, n_rcpts)
        # payload-carrying op sizes agree to within the header/separator
        real_big = sorted(op.nbytes for op in real_ops if op.nbytes > 100)
        plan_big = sorted(op.nbytes for op in planned if op.nbytes > 100)
        assert len(real_big) == len(plan_big)
        for real_size, plan_size in zip(real_big, plan_big):
            assert abs(real_size - plan_size) <= 64

    def test_queue_write_plan(self):
        ops = plan_queue_write(5000)
        assert ops[0].kind is IoKind.APPEND and ops[0].nbytes == 5000

    def test_unknown_backend_rejected(self):
        with pytest.raises(Exception):
            plan_delivery("zfs", 100, 1)

    def test_zero_recipients_rejected(self):
        with pytest.raises(Exception):
            plan_delivery("mbox", 100, 0)


class TestCostModels:
    def test_cost_components(self):
        model = FsCostModel("t", append_fixed=1.0, create_fixed=10.0,
                            link_fixed=5.0, unlink_fixed=2.0,
                            update_fixed=0.5, per_byte=0.01)
        assert model.cost(IoOp(IoKind.APPEND, 100)) == pytest.approx(2.0)
        assert model.cost(IoOp(IoKind.CREATE, 100)) == pytest.approx(11.0)
        assert model.cost(IoOp(IoKind.LINK)) == 5.0
        assert model.cost(IoOp(IoKind.UNLINK)) == 2.0
        assert model.cost(IoOp(IoKind.UPDATE, 100)) == pytest.approx(1.5)
        assert model.total_cost([IoOp(IoKind.LINK)] * 3) == 15.0

    def test_negative_size_rejected(self):
        with pytest.raises(StorageError):
            IoOp(IoKind.APPEND, -1)

    def test_published_fs_asymmetries(self):
        """The relative costs that drive Figs. 10/11."""
        # Ext3 small-file creation is far costlier than appends ([16])
        assert EXT3.create_fixed > 5 * EXT3.append_fixed
        # Reiser makes creates and links much cheaper than Ext3
        assert REISER.create_fixed < 0.5 * EXT3.create_fixed
        assert REISER.link_fixed < 0.25 * EXT3.link_fixed
        # streaming bandwidth is a property of the disk, not the FS
        assert EXT3.per_byte == REISER.per_byte
