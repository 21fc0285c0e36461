"""End-to-end tests of the FastVer verified store (§6–§7)."""

from __future__ import annotations

import random

import pytest

from repro import FastVer, FastVerConfig, new_client
from repro.core.records import Aux, Protection
from repro.errors import ProtocolError
from repro.instrument import COUNTERS
from tests.conftest import small_fastver


class TestBasicOps:
    def test_loaded_values_readable(self, db_and_client):
        db, client = db_and_client
        for k in (0, 1, 50, 99):
            assert db.get(client, k).payload == b"v%d" % k

    def test_put_then_get(self, db_and_client):
        db, client = db_and_client
        db.put(client, 7, b"hello")
        assert db.get(client, 7).payload == b"hello"

    def test_get_absent(self, db_and_client):
        db, client = db_and_client
        assert db.get(client, 40000).payload is None

    def test_insert_new_key(self, db_and_client):
        db, client = db_and_client
        db.put(client, 40000, b"fresh")
        assert db.get(client, 40000).payload == b"fresh"

    def test_many_inserts(self, db_and_client):
        db, client = db_and_client
        for k in range(200, 260):
            db.put(client, k, b"n%d" % k)
        for k in range(200, 260):
            assert db.get(client, k).payload == b"n%d" % k

    def test_delete_tombstones(self, db_and_client):
        db, client = db_and_client
        db.put(client, 7, None)
        assert db.get(client, 7).payload is None

    def test_delete_absent_is_noop(self, db_and_client):
        db, client = db_and_client
        db.put(client, 40000, None)
        assert db.get(client, 40000).payload is None

    def test_reinsert_after_delete(self, db_and_client):
        db, client = db_and_client
        db.put(client, 7, None)
        db.put(client, 7, b"back")
        assert db.get(client, 7).payload == b"back"

    def test_scan_ordered(self, db_and_client):
        db, client = db_and_client
        result = db.scan(client, 10, 5)
        assert [k for k, _ in result] == [10, 11, 12, 13, 14]

    def test_scan_skips_deleted(self, db_and_client):
        db, client = db_and_client
        db.put(client, 11, None)
        result = db.scan(client, 10, 4)
        assert 11 not in [k for k, _ in result]

    def test_empty_database_start(self):
        db = FastVer(FastVerConfig(key_width=16, n_workers=1,
                                   cache_capacity=64))
        client = new_client(1)
        db.register_client(client)
        assert db.get(client, 1).payload is None
        db.put(client, 1, b"first")
        assert db.get(client, 1).payload == b"first"
        db.verify()
        db.flush()
        assert client.settled_epoch == 0

    def test_unregistered_client_rejected(self, db_and_client):
        db, _ = db_and_client
        stranger = new_client(99)
        with pytest.raises(ProtocolError):
            db.get(stranger, 1)
            db.flush()


class TestEpochs:
    def test_verify_settles_clients(self, db_and_client):
        db, client = db_and_client
        result = db.put(client, 3, b"x")
        db.verify()
        db.flush()
        assert client.settled(result.nonce)

    def test_results_provisional_before_verify(self, db_and_client):
        db, client = db_and_client
        result = db.put(client, 3, b"x")
        db.flush()
        assert not client.settled(result.nonce)

    def test_epochs_advance_in_order(self, db_and_client):
        db, client = db_and_client
        for i in range(4):
            db.put(client, i, b"e%d" % i)
            report = db.verify()
            assert report.epoch == i
        db.flush()
        assert client.settled_epoch == 3

    def test_touched_records_return_to_merkle(self, db_and_client):
        db, client = db_and_client
        db.put(client, 3, b"x")
        key = db.data_key(3)
        assert Aux.unpack(db.store.read_record(key).aux).state is Protection.DEFERRED
        db.verify()
        assert Aux.unpack(db.store.read_record(key).aux).state is Protection.MERKLE

    def test_verification_work_scales_with_touched_set(self, db_and_client):
        db, client = db_and_client
        db.put(client, 1, b"x")
        small = db.verify().migrated_data
        for k in range(50):
            db.put(client, k, b"y")
        large = db.verify().migrated_data
        assert small <= 2
        assert large >= 40

    def test_auto_verify_by_batch_ops(self):
        db, client = small_fastver(batch_ops=10)
        for i in range(25):
            db.get(client, i % 7)
        db.flush()
        assert db.current_epoch >= 2  # two closes: epochs 0 and 1 verified

    def test_deferred_population_bounded_after_verify(self, db_and_client):
        db, client = db_and_client
        for i in range(60):
            db.put(client, i % 30, b"z%d" % i)
        assert db.deferred_population() >= 25
        db.verify()
        # Only anchors (if LRU-evicted) may remain deferred.
        assert db.deferred_population() <= len(db.anchors)


class TestWorkers:
    def test_ops_spread_across_workers(self):
        db, client = small_fastver(n_workers=4)
        for i in range(80):
            db.put(client, i % 40, b"w%d" % i, worker=i % 4)
        for i in range(40):
            assert db.get(client, i, worker=i % 4).payload is not None
        db.verify()
        db.flush()
        assert client.settled_epoch == 0

    def test_same_key_different_workers(self):
        db, client = small_fastver(n_workers=4)
        for w in range(4):
            db.put(client, 5, b"from-%d" % w, worker=w)
        assert db.get(client, 5, worker=2).payload == b"from-3"
        db.verify()
        db.flush()

    def test_single_worker_no_partitioning(self):
        db, client = small_fastver(n_workers=1, partition_depth=None)
        assert db.anchors == {}
        db.put(client, 7, b"x")
        assert db.get(client, 7).payload == b"x"
        db.verify()
        db.flush()
        assert client.settled_epoch == 0


class TestPartitioning:
    def test_anchor_count_tracks_depth(self):
        db4, _ = small_fastver(n_records=300, partition_depth=4)
        db2, _ = small_fastver(n_records=300, partition_depth=2)
        assert len(db4.anchors) == 16
        assert len(db2.anchors) == 4

    def test_anchors_stay_deferred_or_cached(self, db_and_client):
        db, client = db_and_client
        for i in range(40):
            db.get(client, i)
        db.verify()
        for anchor in db.anchors:
            if anchor in db.cached_where:
                continue
            aux = Aux.unpack(db.store.read_record(anchor).aux)
            assert aux.state is Protection.DEFERRED

    def test_owners_round_robin(self):
        db, _ = small_fastver(n_records=300, n_workers=4, partition_depth=4)
        owners = set(db.anchors.values())
        assert owners == {0, 1, 2, 3}


class TestCounters:
    def test_warm_ops_do_no_merkle_hashing(self, db_and_client):
        db, client = db_and_client
        db.get(client, 3)          # cold: pulls the chain
        db.flush()
        before = COUNTERS.merkle_hashes
        db.get(client, 3)          # warm now
        db.flush()
        assert COUNTERS.merkle_hashes == before

    def test_cold_ops_hash_logarithmically(self, db_and_client):
        db, client = db_and_client
        before = COUNTERS.merkle_hashes
        db.get(client, 3)
        db.flush()
        chain_hashes = COUNTERS.merkle_hashes - before
        assert 1 <= chain_hashes <= db.config.key_width + 2

    def test_log_amortizes_enclave_entries(self):
        db, client = small_fastver(n_workers=1)
        db.flush()
        before = COUNTERS.enclave_entries
        for i in range(50):
            db.get(client, i % 20)
        db.flush()
        entries = COUNTERS.enclave_entries - before
        assert entries < 20  # far fewer crossings than operations


class TestConfigValidation:
    def test_cache_too_small(self):
        with pytest.raises(ValueError):
            FastVerConfig(key_width=64, cache_capacity=10).validate()

    def test_bad_partition_depth(self):
        with pytest.raises(ValueError):
            FastVerConfig(key_width=16, cache_capacity=64,
                          partition_depth=0).validate()
        with pytest.raises(ValueError):
            FastVerConfig(key_width=16, cache_capacity=64,
                          partition_depth=16).validate()

    def test_bad_workers(self):
        with pytest.raises(ValueError):
            FastVerConfig(n_workers=0).validate()

    def test_bad_batch(self):
        with pytest.raises(ValueError):
            FastVerConfig(key_width=16, cache_capacity=64,
                          batch_ops=0).validate()


class TestRandomizedModelCheck:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_ops_match_dict_model(self, seed):
        db, client = small_fastver(n_records=120, n_workers=3,
                                   partition_depth=3)
        model = {k: b"v%d" % k for k in range(120)}
        rng = random.Random(seed)
        nonces = []
        for step in range(600):
            k = rng.randrange(180)
            worker = rng.randrange(3)
            action = rng.random()
            if action < 0.45:
                got = db.get(client, k, worker=worker)
                assert got.payload == model.get(k)
                nonces.append(got.nonce)
            elif action < 0.85:
                v = b"s%d" % step
                nonces.append(db.put(client, k, v, worker=worker).nonce)
                model[k] = v
            elif action < 0.92:
                nonces.append(db.put(client, k, None, worker=worker).nonce)
                model.pop(k, None)
            else:
                start = rng.randrange(180)
                got = db.scan(client, start, 5, worker=worker)
                expected = [(kk, model[kk]) for kk in sorted(model)
                            if kk >= start][:5]
                # scan counts only 5 directory slots; deleted keys inside
                # the window shrink the result rather than extend it
                assert dict(got).items() <= dict(expected).items() or \
                    [k for k, _ in got] == [k for k, _ in expected][:len(got)]
            if step % 150 == 149:
                db.verify()
        db.verify()
        db.flush()
        # Every operation is settled and every read was model-correct.
        for nonce in nonces:
            assert client.settled(nonce)
        for k, v in model.items():
            assert db.get(client, k).payload == v
        db.verify()
        db.flush()
