"""Durability and recovery tests (§7): epoch-synchronized checkpoints,
crash recovery, and rollback attacks on checkpoints (§2.2)."""

from __future__ import annotations

import pytest

from repro.errors import IntegrityError, RollbackError
from tests.conftest import small_fastver


def checkpointed_db():
    db, client = small_fastver(n_records=60)
    for i in range(30):
        db.put(client, i % 20, b"x%d" % i)
    db.verify()
    db.flush()
    return db, client, db.checkpoint()


class TestCheckpointRecovery:
    def test_recover_preserves_data(self):
        db, client, ckpt = checkpointed_db()
        db.recover(ckpt)
        for k in range(20):
            got = db.get(client, k).payload
            assert got is not None and got.startswith(b"x")
        for k in range(20, 60):
            assert db.get(client, k).payload == b"v%d" % k

    def test_recovered_store_verifies(self):
        db, client, ckpt = checkpointed_db()
        settled = client.settled_epoch
        db.recover(ckpt)
        db.put(client, 5, b"post-recovery")
        report = db.verify()
        db.flush()
        assert client.settled_epoch > settled
        assert db.get(client, 5).payload == b"post-recovery"
        db.verify()
        db.flush()

    def test_recovery_with_pre_crash_warm_records(self):
        """Records left deferred at checkpoint time recover as deferred
        and remain fully usable."""
        db, client = small_fastver(n_records=60)
        db.put(client, 7, b"warm")
        db.flush()
        ckpt = db.checkpoint()
        db.recover(ckpt)
        assert db.get(client, 7).payload == b"warm"
        db.verify()
        db.flush()

    def test_recovered_parent_links_match_a_full_cache_scan(self):
        """Recovery relinks cached Merkle records by probing key prefixes;
        the answer must be the one a scan of the whole cache gives."""
        from repro.core.audit import audit
        from repro.core.records import MerkleValue

        def scan(mirror, key):
            best = None
            for candidate, entry in mirror.entries.items():
                if (isinstance(entry.value, MerkleValue)
                        and candidate.is_proper_ancestor_of(key)):
                    ptr = entry.value.pointer(key.direction_from(candidate))
                    if ptr is not None and ptr.key == key:
                        best = candidate
            return best

        db, client, ckpt = checkpointed_db()
        db.recover(ckpt)
        linked = 0
        for mirror in db.mirrors:
            for key, entry in mirror.entries.items():
                assert db._find_cached_parent(mirror, key) == scan(mirror, key)
                linked += entry.via == "merkle"
        assert linked > 0
        assert audit(db).ok

    def test_work_after_checkpoint_is_lost_not_corrupted(self):
        """Updates past the checkpoint vanish at recovery (prefix
        semantics) but the recovered state is still verifiable."""
        db, client, ckpt = checkpointed_db()
        db.put(client, 3, b"lost-update")
        db.flush()
        db.recover(ckpt)
        got = db.get(client, 3).payload
        assert got != b"lost-update"
        db.verify()
        db.flush()

    def test_multiple_checkpoint_generations(self):
        db, client = small_fastver(n_records=40)
        db.put(client, 1, b"gen1")
        db.verify()
        db.checkpoint()
        db.put(client, 1, b"gen2")
        db.verify()
        ckpt2 = db.checkpoint()
        db.recover(ckpt2)
        assert db.get(client, 1).payload == b"gen2"
        db.verify()
        db.flush()


class TestRollbackAttacks:
    def test_old_checkpoint_rejected(self):
        """The §2.2 rollback attack: reboot the enclave and feed it a
        stale checkpoint. The sealed slot catches it."""
        db, client = small_fastver(n_records=40)
        db.put(client, 1, b"old")
        db.verify()
        old_ckpt = db.checkpoint()
        db.put(client, 1, b"new")
        db.verify()
        db.checkpoint()
        with pytest.raises(RollbackError):
            db.recover(old_ckpt)

    def test_forged_blob_rejected(self):
        db, client, ckpt = checkpointed_db()
        ckpt.verifier_blob = ckpt.verifier_blob[:-1] + bytes(
            [ckpt.verifier_blob[-1] ^ 0xFF])
        with pytest.raises(Exception):
            db.recover(ckpt)

    def test_tampering_survives_recovery_detection(self):
        """Tampering done *while the system is down* is still caught after
        recovery."""
        from repro.core.records import DataValue
        from repro.store.hybridlog import LogRecord
        db, client, ckpt = checkpointed_db()
        db.recover(ckpt)
        # Post-recovery records live on the device; tamper the page itself.
        key = db.data_key(25)
        address = db.store.index.lookup(key)
        original = db.store.log.get(address)
        evil = LogRecord(key, DataValue(b"__evil__"), original.aux,
                         original.prev_address)
        db.store.log.device.write(address, evil.serialize())
        with pytest.raises(IntegrityError):
            db.get(client, 25)
            db.flush()
            db.verify()
            db.flush()


class TestAntiReplayFloorAcrossCycles:
    """The verifier's anti-replay floor must survive (and not compound
    across) consecutive checkpoint/recover cycles: stale requests stay
    dead forever, fresh nonces keep working."""

    def test_floor_survives_two_recover_cycles(self):
        from repro.errors import ReplayError

        db, client, ckpt1 = checkpointed_db()
        stale = client.make_put(db.data_key(4), b"stale")  # nonce drawn now
        db.apply_put(client, stale)
        db.flush()

        # Cycle 1: the restore burns every nonce <= the checkpointed mark,
        # including `stale`'s even though it committed after the snapshot.
        db.recover(ckpt1)
        db.put(client, 4, b"fresh-1")  # fresh nonce: admitted
        db.verify()
        db.flush()

        # Cycle 2: checkpoint the healed state and recover again.
        ckpt2 = db.checkpoint()
        db.recover(ckpt2)
        db.put(client, 4, b"fresh-2")
        db.verify()
        db.flush()
        assert db.get(client, 4).payload == b"fresh-2"

        # The pre-cycle request is still a replay, two recoveries later.
        with pytest.raises(ReplayError):
            db.apply_put(client, stale)
            db.flush()

    def test_floor_does_not_compound(self):
        """Each restore burns up to the *checkpointed* high-water mark —
        repeated cycles with no intervening traffic must not creep the
        floor past nonces the client never issued."""
        db, client, ckpt = checkpointed_db()
        for _ in range(2):
            db.recover(ckpt)
            ckpt = db.checkpoint()
        db.put(client, 9, b"still-works")
        db.verify()
        db.flush()
        assert db.get(client, 9).payload == b"still-works"
