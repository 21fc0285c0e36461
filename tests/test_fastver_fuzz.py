"""Property-based system tests: random op schedules against a model store,
and random tampering that must always be detected (§2.2's guarantee)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import FastVer, FastVerConfig, new_client
from repro.core.records import Aux, DataValue, Protection
from repro.errors import IntegrityError
from repro.instrument import COUNTERS

# Operation alphabet for generated schedules.
op_strategy = st.one_of(
    st.tuples(st.just("get"), st.integers(0, 59)),
    st.tuples(st.just("put"), st.integers(0, 59),
              st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("delete"), st.integers(0, 59)),
    st.tuples(st.just("verify")),
)


def build(n_records=40, n_workers=2, key_width=16, cache_capacity=48):
    COUNTERS.reset()
    db = FastVer(
        FastVerConfig(key_width=key_width, n_workers=n_workers,
                      cache_capacity=cache_capacity, partition_depth=3),
        items=[(k, b"v%d" % k) for k in range(n_records)],
    )
    client = new_client(1)
    db.register_client(client)
    return db, client


class TestHonestSchedules:
    # (200, 8, 16): the smallest cache the config admits under a tree whose
    # per-worker share is several times larger, so the eviction policy
    # picks a victim on nearly every op.
    @pytest.mark.parametrize("n_records,key_width,cache_capacity",
                             [(40, 16, 48), (200, 8, 16)])
    @given(st.lists(op_strategy, max_size=80))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_model_and_always_settles(self, n_records, key_width,
                                              cache_capacity, schedule):
        db, client = build(n_records=n_records, key_width=key_width,
                           cache_capacity=cache_capacity)
        model = {k: b"v%d" % k for k in range(n_records)}
        worker = 0
        for op in schedule:
            worker = (worker + 1) % 2
            if op[0] == "get":
                got = db.get(client, op[1], worker=worker)
                assert got.payload == model.get(op[1])
            elif op[0] == "put":
                db.put(client, op[1], op[2], worker=worker)
                model[op[1]] = op[2]
            elif op[0] == "delete":
                db.put(client, op[1], None, worker=worker)
                model.pop(op[1], None)
            else:
                db.verify()
        db.verify()
        db.flush()
        # Full readback after final verification matches the model.
        for k in range(60):
            assert db.get(client, k).payload == model.get(k)
        db.verify()
        db.flush()

    @given(st.lists(op_strategy, max_size=50), st.integers(1, 3))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_protection_states_partition_the_database(self, schedule, workers):
        """At any quiescent point every record is in exactly one protection
        state, and the host's indices agree with the aux words."""
        db, client = build(n_workers=workers)
        for op in schedule:
            if op[0] == "get":
                db.get(client, op[1])
            elif op[0] == "put":
                db.put(client, op[1], op[2])
            elif op[0] == "delete":
                db.put(client, op[1], None)
            else:
                db.verify()
        db.flush()
        for key, value, aux_word in db.store.items():
            aux = Aux.unpack(aux_word)
            if key in db.cached_where:
                assert aux.state is Protection.CACHED
                assert key in db.mirrors[db.cached_where[key]].entries
            elif aux.state is Protection.DEFERRED:
                assert db.deferred_index[key] == (aux.timestamp, aux.epoch)
            else:
                assert aux.state is Protection.MERKLE
                assert key not in db.deferred_index


class TestTamperFuzz:
    @given(
        st.lists(op_strategy, min_size=3, max_size=30),
        st.integers(0, 59),
        st.sampled_from(["value", "flip_payload_bit", "aux_timestamp"]),
    )
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_tampering_prevents_settlement(self, schedule, victim, how):
        """After arbitrary honest traffic, tamper with one record, then
        continue honestly: no further epoch may ever settle."""
        db, client = build()
        for op in schedule:
            if op[0] == "get":
                db.get(client, op[1])
            elif op[0] == "put":
                db.put(client, op[1], op[2])
            elif op[0] == "delete":
                db.put(client, op[1], None)
            else:
                db.verify()
        db.flush()
        settled_before = client.settled_epoch
        record = db.store.read_record(db.data_key(victim))
        if record is None:
            return  # victim never existed; nothing to tamper
        aux = Aux.unpack(record.aux)
        if aux.state is Protection.CACHED:
            return  # in-enclave copy is authoritative; store copy unused
        if how == "value":
            record.value = DataValue(b"__evil__")
        elif how == "flip_payload_bit":
            payload = record.value.payload if isinstance(record.value, DataValue) else None
            if not payload:
                return
            record.value = DataValue(bytes([payload[0] ^ 1]) + payload[1:])
        else:
            if aux.state is not Protection.DEFERRED:
                return
            record.aux = Aux.deferred(aux.timestamp + 5, aux.epoch).pack()
            db.deferred_index[db.data_key(victim)] = (aux.timestamp + 5,
                                                      aux.epoch)
        detected = False
        try:
            db.get(client, victim)
            db.flush()
            db.verify()
            db.flush()
        except IntegrityError:
            detected = True
        assert detected, "tampering escaped every verifier check"
        assert client.settled_epoch == settled_before
