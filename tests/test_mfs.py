"""Unit tests for the MFS machinery: layout, key/data files, shared mailbox,
mail files, the C-style API, and crash recovery."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MfsError
from repro.mfs import (DataFile, KeyFile, KeyEntry, MailFile, MfsStore,
                       SHARED_REFCOUNT, STATUS_DEAD, STATUS_LIVE, fsck,
                       mail_close, mail_delete, mail_nwrite, mail_open,
                       mail_read, mail_seek, pack_data_header, pack_key,
                       repair, unpack_data_header, unpack_key)
from repro.mfs.shared import SharedMailbox
from repro.obs import capture
from repro.storage.diskmodel import IoKind


class TestLayout:
    def test_key_roundtrip(self):
        entry = KeyEntry("MAILID42", 1234, 7, STATUS_LIVE)
        assert unpack_key(pack_key(entry)) == entry

    def test_shared_sentinel_roundtrip(self):
        entry = KeyEntry("X", 0, SHARED_REFCOUNT)
        back = unpack_key(pack_key(entry))
        assert back.is_shared and back.is_live

    def test_data_header_roundtrip(self):
        raw = pack_data_header("ID1", 999)
        assert unpack_data_header(raw) == ("ID1", 999)

    @pytest.mark.parametrize("bad_id", ["", "X" * 17])
    def test_bad_mail_ids_rejected(self, bad_id):
        with pytest.raises(MfsError):
            pack_key(KeyEntry(bad_id, 0, 1))

    def test_negative_offset_rejected(self):
        with pytest.raises(MfsError):
            pack_key(KeyEntry("A", -1, 1))

    def test_corrupt_status_rejected(self):
        raw = bytearray(pack_key(KeyEntry("A", 0, 1)))
        raw[28] = 99  # status byte
        with pytest.raises(MfsError):
            unpack_key(bytes(raw))

    @given(st.text(alphabet=st.sampled_from("ABCDEF0123456789"),
                   min_size=1, max_size=16),
           st.integers(min_value=0, max_value=2**40),
           st.integers(min_value=-1, max_value=2**20))
    @settings(max_examples=100, deadline=None)
    def test_key_roundtrip_property(self, mail_id, offset, refcount):
        entry = KeyEntry(mail_id, offset, refcount, STATUS_LIVE)
        assert unpack_key(pack_key(entry)) == entry


class TestKeyFile:
    def test_append_and_reload(self, tmp_path):
        path = tmp_path / "k"
        with KeyFile(path) as kf:
            kf.append(KeyEntry("A", 0, 1))
            kf.append(KeyEntry("B", 64, 1))
        with KeyFile(path) as kf:
            assert len(kf) == 2
            assert kf.get("B").offset == 64

    def test_duplicate_append_rejected(self, tmp_path):
        with KeyFile(tmp_path / "k") as kf:
            kf.append(KeyEntry("A", 0, 1))
            with pytest.raises(MfsError, match="collision"):
                kf.append(KeyEntry("A", 10, 1))

    def test_tombstone_persisted(self, tmp_path):
        path = tmp_path / "k"
        with KeyFile(path) as kf:
            kf.append(KeyEntry("A", 0, 1))
            kf.append(KeyEntry("B", 10, 1))
            kf.tombstone("A")
        with KeyFile(path) as kf:
            assert "A" not in kf
            assert list(e.mail_id for e in kf.live_entries()) == ["B"]

    def test_set_refcount_in_place(self, tmp_path):
        path = tmp_path / "k"
        with KeyFile(path) as kf:
            kf.append(KeyEntry("A", 0, 2))
            kf.set_refcount("A", 5)
        with KeyFile(path) as kf:
            assert kf.get("A").refcount == 5

    def test_torn_file_detected(self, tmp_path):
        path = tmp_path / "k"
        path.write_bytes(b"\x00" * 33)  # not a multiple of 32
        with pytest.raises(MfsError, match="torn"):
            KeyFile(path)

    def test_entry_at_live_index(self, tmp_path):
        with KeyFile(tmp_path / "k") as kf:
            for name in ("A", "B", "C"):
                kf.append(KeyEntry(name, 0, 1))
            kf.tombstone("B")
            assert kf.entry_at(1).mail_id == "C"
            with pytest.raises(MfsError):
                kf.entry_at(2)

    def test_tombstone_missing_rejected(self, tmp_path):
        with KeyFile(tmp_path / "k") as kf:
            with pytest.raises(MfsError):
                kf.tombstone("GHOST")


class TestDataFile:
    def test_append_read_roundtrip(self, tmp_path):
        with DataFile(tmp_path / "d") as df:
            off1 = df.append("A", b"first")
            off2 = df.append("B", b"second payload")
            assert df.read(off1) == ("A", b"first")
            assert df.read(off2, expected_mail_id="B") == ("B",
                                                           b"second payload")

    def test_id_mismatch_detected(self, tmp_path):
        with DataFile(tmp_path / "d") as df:
            off = df.append("A", b"x")
            with pytest.raises(MfsError, match="corrupt"):
                df.read(off, expected_mail_id="B")

    def test_scan_yields_all_records(self, tmp_path):
        with DataFile(tmp_path / "d") as df:
            df.append("A", b"one")
            df.append("B", b"two")
            records = [(mid, payload) for _, mid, payload in df.scan()]
        assert records == [("A", b"one"), ("B", b"two")]

    def test_bad_offset_rejected(self, tmp_path):
        with DataFile(tmp_path / "d") as df:
            df.append("A", b"x")
            with pytest.raises(MfsError):
                df.read(-5)
            with pytest.raises(MfsError):
                df.read(10_000)


class TestSharedMailbox:
    def test_add_read_refcount(self, tmp_path):
        shared = SharedMailbox(tmp_path)
        shared.add("M1", b"payload", refcount=3)
        assert shared.read("M1") == b"payload"
        assert shared.refcount("M1") == 3

    def test_readd_same_payload_increfs(self, tmp_path):
        shared = SharedMailbox(tmp_path)
        off1 = shared.add("M1", b"payload", refcount=2)
        off2 = shared.add("M1", b"payload", refcount=3)
        assert off1 == off2
        assert shared.refcount("M1") == 5
        assert shared.data.size() == shared.data.size()  # single record

    def test_collision_attack_rejected(self, tmp_path):
        shared = SharedMailbox(tmp_path)
        shared.add("M1", b"real mail", refcount=1)
        with pytest.raises(MfsError, match="collision"):
            shared.add("M1", b"attacker junk", refcount=1)

    def test_decref_reclaims_at_zero(self, tmp_path):
        shared = SharedMailbox(tmp_path)
        shared.add("M1", b"x", refcount=2)
        assert shared.decref("M1") == 1
        assert shared.decref("M1") == 0
        assert "M1" not in shared
        with pytest.raises(MfsError):
            shared.decref("M1")

    def test_digest_check_survives_reopen(self, tmp_path):
        SharedMailbox(tmp_path).add("M1", b"original", refcount=1)
        reopened = SharedMailbox(tmp_path)
        with pytest.raises(MfsError, match="collision"):
            reopened.add("M1", b"different", refcount=1)

    def test_invalid_refcount_rejected(self, tmp_path):
        with pytest.raises(MfsError):
            SharedMailbox(tmp_path).add("M1", b"x", refcount=0)


class TestMailFileAndStore:
    def test_seek_whence_semantics(self, tmp_path):
        store = MfsStore(tmp_path)
        mf = store.open_mailbox("u@d.com")
        for i in range(3):
            mf.write(f"M{i}", f"body{i}".encode())
        mf.seek(0)
        assert mf.read_next()[0] == "M0"
        mf.seek(-1, os.SEEK_END)
        assert mf.read_next()[0] == "M2"
        mf.seek(0, os.SEEK_SET)
        mf.seek(1, os.SEEK_CUR)
        assert mf.read_next()[0] == "M1"
        with pytest.raises(MfsError):
            mf.seek(99)

    def test_read_past_end_returns_none(self, tmp_path):
        store = MfsStore(tmp_path)
        mf = store.open_mailbox("u@d.com")
        assert mf.read_next() is None

    def test_read_only_mode(self, tmp_path):
        store = MfsStore(tmp_path)
        store.open_mailbox("u@d.com").write("M1", b"x")
        store.sync()
        reader = MailFile(store.root / "mailboxes", "u@d.com", store.shared,
                          mode="r")
        assert reader.read_by_id("M1") == b"x"
        with pytest.raises(MfsError):
            reader.write("M2", b"y")

    def test_open_missing_mailbox_readonly_fails(self, tmp_path):
        store = MfsStore(tmp_path)
        with pytest.raises(MfsError):
            MailFile(store.root / "mailboxes", "ghost@d.com", store.shared,
                     mode="r")

    def test_closed_handle_rejected(self, tmp_path):
        store = MfsStore(tmp_path)
        mf = store.open_mailbox("u@d.com")
        mf.close()
        with pytest.raises(MfsError):
            mf.read_next()

    def test_persistence_across_reopen(self, tmp_path, make_message):
        store = MfsStore(tmp_path)
        msg = make_message(["a@d.com", "b@d.com"])
        store.deliver(msg)
        store.close()
        store2 = MfsStore(tmp_path)
        assert store2.list_mailbox("a@d.com") == [msg.mail_id]
        assert store2.read("b@d.com", msg.mail_id).payload == msg.serialized()
        assert store2.shared.refcount(msg.mail_id) == 2
        store2.close()

    def test_duplicate_recipient_rejected(self, tmp_path, make_message):
        store = MfsStore(tmp_path)
        msg = make_message(["a@d.com", "a@d.com"])
        with pytest.raises(Exception):
            store.deliver(msg)

    def test_nwrite_dedup_hit_moves_only_the_refcount(self, tmp_path):
        # §6.2's skip: a mail id already in the shared mailbox is not
        # written again; only its refcount and the new mailboxes' keys move
        payload = b"P" * 4000
        with capture() as tr, MfsStore(tmp_path) as store:
            store.nwrite(["a@d.com", "b@d.com"], "DUP1", payload)
            data_size = store.shared.data.size()
            ops = store.nwrite(["c@d.com", "d@d.com"], "DUP1", payload)
            updates = [op for op in ops if op.kind is IoKind.UPDATE]
            assert [op.target for op in updates] == ["shmailbox_key"]
            assert not any(op.nbytes >= len(payload) for op in ops)
            assert store.shared.data.size() == data_size
            assert store.shared.refcount("DUP1") == 4
        assert tr.registry.counter("mfs.dedup.hits").value == 1


class TestCApi:
    def test_chunked_mail_read(self, tmp_path):
        store = MfsStore(tmp_path)
        mf = mail_open(store, "u@d.com")
        mail_nwrite(store, [mf], b"0123456789", "M1")
        mail_seek(mf, 0)
        mail_id, chunk, state = mail_read(mf, 4)
        assert (mail_id, chunk) == ("M1", b"0123")
        assert state.in_progress
        _, chunk2, state = mail_read(mf, 4, state)
        _, chunk3, state = mail_read(mf, 4, state)
        assert chunk2 + chunk3 == b"456789"
        assert not state.in_progress
        mail_id, _, _ = mail_read(mf, 4)
        assert mail_id is None  # end of mailbox

    def test_nwrite_multi_goes_shared(self, tmp_path):
        store = MfsStore(tmp_path)
        handles = [mail_open(store, f"u{i}@d.com") for i in range(3)]
        mail_nwrite(store, handles, b"blast", "M9")
        assert store.shared.refcount("M9") == 3
        for handle in handles:
            assert handle.read_by_id("M9") == b"blast"
        mail_delete(handles[0], "M9")
        assert store.shared.refcount("M9") == 2
        assert mail_close(handles[0]) == 0

    def test_bad_buffer_length(self, tmp_path):
        store = MfsStore(tmp_path)
        mf = mail_open(store, "u@d.com")
        with pytest.raises(MfsError):
            mail_read(mf, 0)

    def test_nwrite_needs_descriptors(self, tmp_path):
        store = MfsStore(tmp_path)
        with pytest.raises(MfsError):
            mail_nwrite(store, [], b"x", "M1")


class TestRecovery:
    def _store_with_shared_mail(self, tmp_path, make_message):
        store = MfsStore(tmp_path)
        msg = make_message(["a@d.com", "b@d.com", "c@d.com"])
        store.deliver(msg)
        return store, msg

    def test_clean_store(self, tmp_path, make_message):
        store, _ = self._store_with_shared_mail(tmp_path, make_message)
        report = fsck(store)
        assert report.clean
        assert report.shared_records == 1
        assert report.mailboxes_scanned == 3

    def test_bad_refcount_detected_and_repaired(self, tmp_path, make_message):
        store, msg = self._store_with_shared_mail(tmp_path, make_message)
        store.shared.keys.set_refcount(msg.mail_id, 9)
        report = fsck(store)
        assert report.bad_refcounts == {msg.mail_id: (9, 3)}
        repair(store)
        assert fsck(store).clean
        assert store.shared.refcount(msg.mail_id) == 3

    def test_orphan_detected_and_reclaimed(self, tmp_path, make_message):
        store, msg = self._store_with_shared_mail(tmp_path, make_message)
        for mailbox in ("a@d.com", "b@d.com", "c@d.com"):
            store.open_mailbox(mailbox).keys.tombstone(msg.mail_id)
        report = fsck(store)
        assert report.orphaned_shared == [msg.mail_id]
        repair(store)
        assert store.shared_record_count() == 0

    def test_dangling_reference_detected(self, tmp_path, make_message):
        store, msg = self._store_with_shared_mail(tmp_path, make_message)
        store.shared.keys.tombstone(msg.mail_id)
        report = fsck(store)
        assert len(report.dangling_refs) == 3
        repair(store)
        assert fsck(store).clean


class TestMfsInvariantProperty:
    @given(st.lists(
        st.tuples(st.integers(min_value=1, max_value=4),   # n recipients
                  st.binary(min_size=1, max_size=50)),      # payload
        min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_refcounts_always_match_references(self, tmp_path_factory, ops):
        """After any sequence of deliveries and deletes, every shared
        record's refcount equals the number of live mailbox references."""
        root = tmp_path_factory.mktemp("mfs-prop")
        store = MfsStore(root)
        mailboxes = [f"u{i}@d.com" for i in range(4)]
        counter = 0
        delivered: list[tuple[str, list[str]]] = []
        for n_rcpt, payload in ops:
            counter += 1
            mail_id = f"M{counter}"
            targets = mailboxes[:n_rcpt]
            if n_rcpt == 1:
                store.open_mailbox(targets[0]).write(mail_id, payload)
            else:
                store.nwrite(targets, mail_id, payload)
            delivered.append((mail_id, list(targets)))
            # delete every other delivery from its first mailbox
            if counter % 2 == 0:
                store.delete(targets[0], mail_id)
        report = fsck(store)
        assert report.clean, report
        store.close()


class TestCompaction:
    def test_compact_reclaims_dead_space(self, tmp_path):
        shared = SharedMailbox(tmp_path)
        shared.add("KEEP", b"K" * 500, refcount=1)
        shared.add("DROP", b"D" * 2000, refcount=1)
        shared.decref("DROP")
        assert shared.dead_bytes() == 2000
        freed = shared.compact()
        assert freed >= 2000
        assert shared.dead_bytes() == 0
        # the surviving record is intact and its offset still valid
        assert shared.read("KEEP") == b"K" * 500
        assert shared.refcount("KEEP") == 1

    def test_compact_empty_store(self, tmp_path):
        shared = SharedMailbox(tmp_path)
        assert shared.compact() == 0

    def test_compacted_store_survives_reopen(self, tmp_path):
        shared = SharedMailbox(tmp_path)
        shared.add("A", b"aaa", refcount=2)
        shared.add("B", b"bbb", refcount=1)
        shared.decref("B")
        shared.compact()
        shared.close()
        reopened = SharedMailbox(tmp_path)
        assert reopened.read("A") == b"aaa"
        assert reopened.refcount("A") == 2
        assert "B" not in reopened

    def test_store_remains_consistent_after_compaction(self, tmp_path,
                                                       make_message):
        store = MfsStore(tmp_path)
        keep = make_message(["a@d.com", "b@d.com"])
        drop = make_message(["a@d.com", "b@d.com"], body=b"drop me\r\n")
        store.deliver(keep)
        store.deliver(drop)
        store.delete("a@d.com", drop.mail_id)
        store.delete("b@d.com", drop.mail_id)
        store.shared.compact()
        assert fsck(store).clean
        assert store.read("a@d.com", keep.mail_id).payload \
            == keep.serialized()
        store.close()
