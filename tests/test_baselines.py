"""Tests for the §3/§8.5 baseline systems: correctness and detection."""

from __future__ import annotations

import pytest

from repro import new_client
from repro.baselines.deferred_only import DeferredStore
from repro.baselines.merkle_only import CachedMerkleStore, plain_merkle_store
from repro.core.records import DataValue
from repro.errors import IntegrityError, SignatureError
from repro.instrument import COUNTERS

ITEMS = [(k, b"v%d" % k) for k in range(64)]


def merkle_store(**kwargs):
    db = CachedMerkleStore(ITEMS, key_width=16, cache_capacity=64, **kwargs)
    client = new_client(1)
    db.register_client(client)
    return db, client


class TestCachedMerkleStore:
    def test_get_put(self):
        db, client = merkle_store()
        assert db.get(client, 5) == b"v5"
        db.put(client, 5, b"new")
        assert db.get(client, 5) == b"new"
        db.flush()

    def test_absent(self):
        db, client = merkle_store()
        assert db.get(client, 5000) is None
        db.flush()

    def test_receipts_are_final(self):
        """Merkle validation has no deferred component: results settle at
        flush without any epoch receipt (performance goal P3)."""
        db, client = merkle_store()
        db.get(client, 5)
        db.flush()  # receipts delivered; no exception == validated

    def test_tampering_detected(self):
        db, client = merkle_store()
        bk = db.data_key(9)
        db.records[bk] = DataValue(b"EVIL")
        with pytest.raises(IntegrityError):
            db.get(client, 9)
            db.flush()

    def test_caching_reduces_hashing(self):
        """§4.3: a cached chain turns repeat accesses nearly hash-free."""
        db, client = merkle_store()
        db.get(client, 5)
        db.flush()
        before = COUNTERS.merkle_hashes
        db.get(client, 5)
        db.flush()
        assert COUNTERS.merkle_hashes - before <= 1

    def test_plain_variant_rehashes_every_time(self):
        """The 'M' configuration tears the chain down after each op."""
        db = plain_merkle_store(ITEMS, key_width=16)
        client = new_client(1)
        db.register_client(client)
        db.get(client, 5)
        db.flush()
        before = COUNTERS.merkle_hashes
        db.get(client, 5)
        db.flush()
        assert COUNTERS.merkle_hashes - before >= 2

    def test_eager_propagation_costs_more(self):
        """MV does strictly more hash work per put than lazy caching."""
        def put_hashes(eager):
            COUNTERS.reset()
            db, client = merkle_store(eager_propagation=eager)
            db.get(client, 5)      # warm the chain
            db.flush()
            before = COUNTERS.merkle_hashes
            db.put(client, 5, b"x")
            db.flush()
            return COUNTERS.merkle_hashes - before

        assert put_hashes(True) > put_hashes(False)

    def test_sequential_beats_random_hashing(self):
        """§8.5: sequential access gives chain locality (M1K seq). Same
        key set both ways — only the order differs — under a cache too
        small to hold the whole tree."""
        import random
        items = [(k, b"v%d" % k) for k in range(256)]

        def run(keys):
            COUNTERS.reset()
            db = CachedMerkleStore(items, key_width=16, cache_capacity=24)
            client = new_client(1)
            db.register_client(client)
            for k in keys:
                db.get(client, k)
            db.flush()
            return COUNTERS.merkle_hashes

        ordered = list(range(256))
        shuffled = list(range(256))
        random.Random(5).shuffle(shuffled)
        seq = run(ordered)
        rand = run(shuffled)
        assert seq < 0.7 * rand

    def test_forged_put_rejected(self):
        db, client = merkle_store()
        nonce = client.next_nonce()
        db.log.append("validate_put_update", client.client_id,
                      db.data_key(5), b"EVIL", nonce, b"\x00" * 32)
        with pytest.raises(SignatureError):
            db.flush()


class TestDeferredStore:
    def _store(self, n_workers=2):
        db = DeferredStore(ITEMS, key_width=16, n_workers=n_workers,
                           cache_capacity=16)
        client = new_client(1)
        db.register_client(client)
        return db, client

    def test_get_put_verify(self):
        db, client = self._store()
        assert db.get(client, 5, worker=0) == b"v5"
        db.put(client, 5, b"new", worker=1)
        assert db.get(client, 5, worker=0) == b"new"
        db.verify()
        db.flush()
        assert client.settled_epoch == 0

    def test_verification_scans_whole_database(self):
        """§5.4: verification cost is linear in DB size, touched or not."""
        db, client = self._store()
        db.get(client, 1)
        before = COUNTERS.scan_records
        db.verify()
        assert COUNTERS.scan_records - before >= len(ITEMS)

    def test_multiple_epochs(self):
        db, client = self._store()
        for e in range(3):
            db.put(client, e, b"e%d" % e, worker=e % 2)
            db.verify()
        db.flush()
        assert client.settled_epoch == 2

    def test_tampered_value_fails_epoch(self):
        db, client = self._store()
        db.put(client, 5, b"secret")
        bk = db.data_key(5)
        payload, ts, epoch = db.records[bk]
        db.records[bk] = (b"EVIL", ts, epoch)
        with pytest.raises(IntegrityError):
            db.get(client, 5)
            db.verify()
        db.flush()
        assert client.settled_epoch < 0

    def test_tampered_timestamp_fails_epoch(self):
        db, client = self._store()
        db.put(client, 5, b"secret")
        bk = db.data_key(5)
        payload, ts, epoch = db.records[bk]
        db.records[bk] = (payload, ts + 3, epoch)
        with pytest.raises(IntegrityError):
            db.get(client, 5)
            db.verify()

    def test_rollback_fails_epoch(self):
        db, client = self._store()
        bk = db.data_key(5)
        old = db.records[bk]
        db.put(client, 5, b"new")
        db.records[bk] = old
        with pytest.raises(IntegrityError):
            db.get(client, 5)
            db.verify()

    def test_no_merkle_hashing_at_all(self):
        db, client = self._store()
        before = COUNTERS.merkle_hashes
        for i in range(20):
            db.get(client, i)
        db.verify()
        db.flush()
        assert COUNTERS.merkle_hashes == before
