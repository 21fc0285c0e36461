"""Tests for the enclave-resident verifier group: batch dispatch, epoch
close with hash aggregation, and sealed checkpoint/restore (§5.3, §7)."""

from __future__ import annotations

import pytest

from repro.core.keys import BitKey
from repro.core.multiverifier import VerifierGroup
from repro.core.protocol import Client, EpochReceipt, OpReceipt
from repro.core.records import DataValue, MerkleValue
from repro.crypto.mac import MacKey
from repro.enclave.sealed import SealedSlot
from repro.errors import (
    EpochError,
    ProtocolError,
    ReplayError,
    RollbackError,
    SetHashMismatchError,
    SignatureError,
)


def dk(i):
    return BitKey.data_key(i, 8)


ROOT = BitKey.root()


@pytest.fixture
def group():
    g = VerifierGroup(SealedSlot(), n_threads=2, cache_capacity=16)
    g.bulk_load([(dk(i), b"v%d" % i) for i in range(8)])
    return g


@pytest.fixture
def client(group):
    c = Client(1, MacKey.generate())
    group.register_client(c.client_id, c.key.key_bytes())
    return c


def first_parent(group, key):
    """Honest host: find the tree parent by walking thread 0's root."""
    from repro.merkle.sparse import lookup

    def source(k):
        if k.is_root:
            return group.threads[0].cache.get(ROOT).value
        return source.records[k]

    return source


class TestBulkLoad:
    def test_returns_all_records(self, group):
        # already loaded in fixture; reload must fail
        with pytest.raises(ProtocolError):
            group.bulk_load([(dk(1), b"x")])

    def test_root_pinned_in_thread_zero(self, group):
        assert ROOT in group.threads[0].cache
        assert ROOT not in group.threads[1].cache

    def test_start_empty(self):
        g = VerifierGroup(SealedSlot(), n_threads=1, cache_capacity=8)
        root_value = g.start_empty()
        assert root_value == MerkleValue()
        with pytest.raises(ProtocolError):
            g.start_empty()


class TestBatchDispatch:
    def test_unknown_method_rejected(self, group):
        with pytest.raises(ProtocolError):
            group.process_batch(0, [("drop_all_checks", ())])

    def test_raw_update_not_exposed(self, group):
        """The host must not be able to modify data without a client MAC."""
        with pytest.raises(ProtocolError):
            group.process_batch(0, [("update", (dk(1), DataValue(b"EVIL")))])
        with pytest.raises(ProtocolError):
            group.process_batch(0, [("insert_extend",
                                     (dk(200), DataValue(b"x"), ROOT))])

    def test_unknown_thread_rejected(self, group):
        with pytest.raises(ProtocolError):
            group.process_batch(7, [])

    def test_validate_put_requires_client_signature(self, group, client):
        # Cache the record first via its merkle parent chain on thread 0.
        self._cache_record(group, dk(1))
        nonce = client.next_nonce()
        with pytest.raises(SignatureError):
            group.process_batch(0, [
                ("validate_put_update",
                 (client.client_id, dk(1), b"EVIL", nonce, b"\x00" * 32)),
            ])

    def test_honest_get_receipt(self, group, client):
        self._cache_record(group, dk(1))
        nonce = client.next_nonce()
        [receipt] = group.process_batch(0, [
            ("validate_get", (client.client_id, dk(1), nonce)),
        ])
        assert isinstance(receipt, OpReceipt)
        client.accept(receipt)
        assert receipt.payload == b"v1"

    def test_nonce_replay_rejected(self, group, client):
        self._cache_record(group, dk(1))
        nonce = client.next_nonce()
        group.process_batch(0, [("validate_get", (client.client_id, dk(1), nonce))])
        with pytest.raises(ReplayError):
            group.process_batch(0, [("validate_get",
                                     (client.client_id, dk(1), nonce))])

    @staticmethod
    def _cache_record(group, key):
        """Chain the record into thread 0's cache via honest merkle adds."""
        records = {k: v for k, v in group._test_records.items()}
        from repro.merkle.sparse import lookup

        def source(k):
            if k.is_root:
                return group.threads[0].cache.get(ROOT).value
            return records[k]

        result = lookup(source, key)
        thread = group.threads[0]
        batch = []
        for i, node in enumerate(result.path[1:], start=1):
            if node not in thread.cache:
                batch.append(("add_merkle",
                              (node, records[node], result.path[i - 1])))
        batch.append(("add_merkle", (key, records[key], result.terminal)))
        group.process_batch(0, batch)


@pytest.fixture(autouse=True)
def _keep_host_copy(monkeypatch):
    """Retain the bulk-load output so tests can act as the honest host."""
    original = VerifierGroup.bulk_load

    def wrapper(self, items):
        root_value, records = original(self, items)
        self._test_records = dict(records)
        return root_value, records

    monkeypatch.setattr(VerifierGroup, "bulk_load", wrapper)


class TestEpochClose:
    def test_balanced_epoch_closes(self, group, client):
        thread = group.threads[0]
        TestBatchDispatch._cache_record(group, dk(1))
        [ts_epoch] = group.process_batch(0, [("evict_deferred", (dk(1),))])
        ts, epoch = ts_epoch
        closing = group.start_epoch_close()
        assert closing == 0
        group.process_batch(0, [
            ("add_deferred", (dk(1), DataValue(b"v1"), ts, epoch)),
            ("evict_deferred", (dk(1),)),
        ])
        receipts = group.finish_epoch_close(closing)
        assert client.client_id in receipts
        client.accept_epoch(receipts[client.client_id])
        assert group.epochs.verified == 0

    def test_unmigrated_record_fails_close(self, group, client):
        TestBatchDispatch._cache_record(group, dk(1))
        group.process_batch(0, [("evict_deferred", (dk(1),))])
        closing = group.start_epoch_close()
        with pytest.raises(SetHashMismatchError):
            group.finish_epoch_close(closing)

    def test_cannot_close_open_epoch(self, group):
        with pytest.raises(EpochError):
            group.finish_epoch_close(0)

    def test_cross_thread_balance(self, group, client):
        """Evict on thread 0, re-add on thread 1: aggregation balances."""
        TestBatchDispatch._cache_record(group, dk(1))
        [(ts, epoch)] = group.process_batch(0, [("evict_deferred", (dk(1),))])
        closing = group.start_epoch_close()
        group.process_batch(1, [
            ("add_deferred", (dk(1), DataValue(b"v1"), ts, epoch)),
            ("evict_deferred", (dk(1),)),
        ])
        group.finish_epoch_close(closing)
        assert group.epochs.verified == 0


class TestCheckpointRestore:
    def _run_some_ops(self, group, client):
        TestBatchDispatch._cache_record(group, dk(1))
        request_nonce = client.next_nonce()
        tag = client.key.sign(b"PUT", dk(1).to_bytes(), b"\x01xyz",
                              request_nonce.to_bytes(8, "big"))
        group.process_batch(0, [
            ("validate_put_update",
             (client.client_id, dk(1), b"xyz", request_nonce, tag)),
            ("evict_deferred", (dk(1),)),
        ])

    def test_roundtrip_preserves_state(self, group, client):
        self._run_some_ops(group, client)
        blob = group.checkpoint_state()
        # Simulate a reboot: fresh group with the same identity keys.
        g2 = VerifierGroup(group.sealed, n_threads=2, cache_capacity=16,
                           prf=group.prf, sealing_key=group.sealing_key)
        g2.register_client(client.client_id, client.key.key_bytes())
        g2.restore_state(blob)
        assert g2.epochs.current == group.epochs.current
        assert g2.threads[0].clock == group.threads[0].clock
        assert ROOT in g2.threads[0].cache

    def test_restored_group_can_close_epoch(self, group, client):
        self._run_some_ops(group, client)
        blob = group.checkpoint_state()
        g2 = VerifierGroup(group.sealed, n_threads=2, cache_capacity=16,
                           prf=group.prf, sealing_key=group.sealing_key)
        g2.register_client(client.client_id, client.key.key_bytes())
        g2.restore_state(blob)
        # Migrate the put's record honestly, then close.
        rec = group.threads  # the host knows (value, ts, epoch) it stored
        # The put left dk(1) deferred at some (ts, epoch); recompute them:
        # clock after evict == stored ts.
        ts = g2.threads[0].clock
        closing = g2.start_epoch_close()
        g2.process_batch(0, [
            ("add_deferred", (dk(1), DataValue(b"xyz"), ts, 0)),
            ("evict_deferred", (dk(1),)),
        ])
        g2.finish_epoch_close(closing)
        assert g2.epochs.verified == 0

    def test_rollback_to_old_checkpoint_detected(self, group, client):
        self._run_some_ops(group, client)
        old_blob = group.checkpoint_state()
        self._run_some_ops(group, client)
        group.checkpoint_state()  # newer checkpoint advances sealed slot
        g2 = VerifierGroup(group.sealed, n_threads=2, cache_capacity=16,
                           prf=group.prf, sealing_key=group.sealing_key)
        with pytest.raises(RollbackError):
            g2.restore_state(old_blob)

    def test_forged_checkpoint_detected(self, group, client):
        self._run_some_ops(group, client)
        blob = group.checkpoint_state()
        forged = blob[:-1] + bytes([blob[-1] ^ 1])
        g2 = VerifierGroup(group.sealed, n_threads=2, cache_capacity=16,
                           prf=group.prf, sealing_key=group.sealing_key)
        with pytest.raises((SignatureError, RollbackError, ProtocolError,
                            ValueError)):
            g2.restore_state(forged)

    def test_wrong_identity_key_rejected(self, group, client):
        self._run_some_ops(group, client)
        blob = group.checkpoint_state()
        g2 = VerifierGroup(group.sealed, n_threads=2, cache_capacity=16,
                           prf=group.prf, sealing_key=MacKey.generate())
        with pytest.raises(SignatureError):
            g2.restore_state(blob)
