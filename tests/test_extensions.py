"""Tests for the extension features: latency tuning (P3), log-scan
recovery, partition rebalancing, and the host-side auditor."""

from __future__ import annotations

import random

import pytest

from repro.core.audit import audit
from repro.core.keys import BitKey
from repro.core.records import DataValue
from repro.errors import ProtocolError, RecoveryError
from repro.instrument import COUNTERS
from repro.sim.tuning import LatencyTuner, run_with_budget
from repro.store.faster import FasterKV
from repro.store.recovery import salvage
from repro.workloads.ycsb import YCSB_A, YcsbGenerator
from tests.conftest import small_fastver


class TestLatencyTuner:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyTuner(0, 1, 100)
        with pytest.raises(ValueError):
            LatencyTuner(1.0, 1, 100, damping=0)

    def test_observe_shrinks_batch_when_over_budget(self):
        from repro.instrument import Counters
        tuner = LatencyTuner(1e-9, 1, 1_000_000, initial_batch=10_000)
        heavy = Counters(multiset_updates=10_000, multiset_hash_bytes=900_000,
                         merkle_hashes=5_000, merkle_hash_bytes=500_000)
        before = tuner.batch
        tuner.observe(heavy)
        assert tuner.batch < before

    def test_observe_grows_batch_when_under_budget(self):
        from repro.instrument import Counters
        tuner = LatencyTuner(10.0, 1, 1_000_000, initial_batch=1_000)
        light = Counters(multiset_updates=10, multiset_hash_bytes=900)
        before = tuner.batch
        tuner.observe(light)
        assert tuner.batch > before

    def test_budget_convergence_end_to_end(self):
        """P3: a client-specified budget is met within a small factor."""
        COUNTERS.reset()
        db, client = small_fastver(n_records=400, n_workers=2,
                                   cache_capacity=64)
        generator = YcsbGenerator(YCSB_A, 400, seed=3)
        target = 2e-4  # 200µs of simulated verification latency
        tuner, metrics = run_with_budget(
            db, client, generator, total_ops=3_000,
            target_latency_s=target, n_workers=2, modeled_db_records=400,
            initial_batch=100)
        # The last few *full* epochs are within 3x of the budget on either
        # side (the final epoch is a partial remainder batch and small).
        tail = [s.latency_s for s in tuner.history[:-1][-3:]]
        assert all(target / 3 <= lat <= target * 3 for lat in tail), tail
        assert metrics.key_ops == 3_000
        db.flush()
        assert client.settled_epoch >= 1


class TestLogScanRecovery:
    def _store(self):
        store = FasterKV(ordered_width=16)
        for i in range(30):
            store.upsert(BitKey.data_key(i, 16), DataValue(b"v%d" % i), aux=i)
        for i in range(10):
            store.upsert(BitKey.data_key(i, 16), DataValue(b"new%d" % i))
        store.delete(BitKey.data_key(5, 16))
        return store

    def _expected(self):
        """What :meth:`_store` holds: key 5 deleted, 0-9 overwritten."""
        return [(i, b"new%d" % i if i < 10 else b"v%d" % i)
                for i in range(30) if i != 5]

    def test_rebuild_matches_original(self):
        store = self._store()
        store.log.flush_until(store.log.tail_address)
        assert salvage(store.log.device, store.log.tail_address,
                       16) == self._expected()

    def test_missing_pages_lose_data_quietly(self):
        store = self._store()
        store.log.flush_until(store.log.tail_address)
        victim = store.index.lookup(BitKey.data_key(20, 16))
        del store.log.device._pages[victim]
        assert salvage(store.log.device, store.log.tail_address, 16) == [
            item for item in self._expected() if item[0] != 20]

    def test_negative_tail_rejected(self):
        with pytest.raises(RecoveryError):
            salvage(FasterKV().log.device, -1, 16)


class TestAudit:
    def test_fresh_store_is_clean(self):
        db, client = small_fastver()
        report = audit(db)
        assert report.ok, report.violations
        assert report.records > 100  # data + merkle records

    def test_clean_after_random_schedule(self):
        db, client = small_fastver(n_records=120, n_workers=3)
        rng = random.Random(11)
        for step in range(400):
            k = rng.randrange(160)
            if rng.random() < 0.5:
                db.put(client, k, b"s%d" % step, worker=step % 3)
            else:
                db.get(client, k, worker=step % 3)
            if step % 120 == 119:
                db.verify()
        db.flush()
        report = audit(db)
        assert report.ok, report.violations[:5]

    def test_detects_planted_inconsistency(self):
        from repro.core.records import Aux
        db, client = small_fastver()
        db.put(client, 7, b"x")
        db.flush()
        # Sabotage the host's own index (a driver bug, not an attack).
        key = db.data_key(7)
        ts, epoch = db.deferred_index[key]
        db.deferred_index[key] = (ts + 1, epoch)
        report = audit(db)
        assert not report.ok
        assert any("disagrees" in v for v in report.violations)


class TestRebalance:
    def grown_db(self):
        db, client = small_fastver(n_records=64, n_workers=2,
                                   partition_depth=3, cache_capacity=64)
        # Grow one region of the key space heavily.
        for k in range(30_000, 30_120):
            db.put(client, k, b"grown")
        db.verify()
        db.flush()
        return db, client

    def test_rebalance_moves_frontier(self):
        db, client = self.grown_db()
        old = set(db.anchors)
        demoted, promoted = db.rebalance_partitions()
        assert demoted + promoted > 0
        assert set(db.anchors) != old
        assert len(db.anchors) <= 1 << db.config.partition_depth

    def test_store_fully_functional_after_rebalance(self):
        db, client = self.grown_db()
        db.rebalance_partitions()
        report = audit(db)
        assert report.ok, report.violations[:5]
        for k in (0, 40, 30_050):
            assert db.get(client, k).payload is not None
        db.put(client, 30_200, b"post")
        assert db.get(client, 30_200).payload == b"post"
        db.verify()
        db.flush()
        assert client.settled_epoch >= 1

    def test_rebalance_requires_quiescence(self):
        db, client = small_fastver()
        db.put(client, 3, b"x")  # leaves a non-anchor deferred record
        with pytest.raises(ProtocolError):
            db.rebalance_partitions()

    def test_rebalance_noop_without_partitioning(self):
        db, client = small_fastver(partition_depth=None, n_workers=1)
        assert db.rebalance_partitions() == (0, 0)

    def test_flush_caches_empties_lru(self):
        db, client = self.grown_db()
        db.flush_caches()
        for vid, mirror in enumerate(db.mirrors):
            non_pinned = [k for k, e in mirror.entries.items()
                          if e.via != "pinned"]
            assert non_pinned == []
        # And everything still works.
        assert db.get(client, 40).payload is not None
        db.verify()
        db.flush()
