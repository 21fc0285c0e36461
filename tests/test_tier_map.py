"""The verification tiers, pinned: *which* verifier commands and store
writes the host issues, in *what order*.

``COUNTERS`` (and every ``counters_digest`` built on them) pin how much
work ran; two schedules that append the same number of ``add_merkle``
entries in a different order, or upsert the same keys with different aux
words, count the same. The pins here hash the full command stream — each
``VerificationLog.append`` as ``(verifier, method, every argument except
the client MAC tag)`` and each ``FasterKV.upsert`` / ``try_cas`` as
``(key, value, aux word)`` — over a table of deterministic schedules that
between them cross every tier transition: cold and warm ops, LRU
eviction, inserts that extend and split, deletes, absence proofs, the
hot-record tier, unsorted re-application, partition rebalancing,
checkpoint + recovery, record repair on each tier, a poisoned batch, and
the sorted runs — range scans (across partition anchors, with an epoch
close inside, over retained hot records) and dense consecutive-key
touches closed sorted and unsorted.
A hypothesis test at the end checks the reader those transitions keep
honest: ``tier_of`` names the tier the aux word names, for every record.

The digests were recorded at the commit *before* the tier bookkeeping
was gathered into one reader and one set of transitions (the scan and
dense-touch schedules: before chain-ins began to share a tree walk); a
refactor of ``core/fastver.py`` must leave every one of them unchanged.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import FastVer, FastVerConfig, new_client
from repro.core.audit import audit
from repro.core.keys import BitKey
from repro.core.log import VerificationLog
from repro.core.records import Aux, DataValue, encode_value
from repro.errors import RepairForgeryError, SignatureError
from repro.faults import FaultPlan, install_faults
from repro.store.faster import FasterKV


def _plain(arg) -> bytes:
    """A stable byte form of one log argument (keys, values, ints, ...)."""
    if arg is None or isinstance(arg, (int, str, bytes)):
        return repr(arg).encode()
    if isinstance(arg, BitKey):
        return b"K%d:%d" % (arg.length, arg.bits)
    return b"V" + encode_value(arg)


class CommandStream:
    """sha256 over every verifier log entry and store write, in order."""

    def __init__(self, monkeypatch):
        self.hash = hashlib.sha256()
        self.entries = 0
        stream = self
        log_append = VerificationLog.append
        upsert, try_cas = FasterKV.upsert, FasterKV.try_cas

        def append(log, method, *args):
            # validate_put_*: (client, key, payload, nonce, tag, ...) — the
            # tag is a MAC under a per-process random key; everything else
            # is deterministic.
            kept = [a for i, a in enumerate(args)
                    if not (method.startswith("validate_put") and i == 4)]
            stream.feed(b"L", b"%d" % log.verifier_id, method.encode(), *kept)
            return log_append(log, method, *args)

        def traced_upsert(store, key, value, aux=0):
            stream.feed(b"U", key, value, aux)
            return upsert(store, key, value, aux)

        def traced_cas(store, key, old_value, old_aux, new_value, new_aux):
            won = try_cas(store, key, old_value, old_aux, new_value, new_aux)
            stream.feed(b"C", key, new_value, new_aux, int(won))
            return won

        monkeypatch.setattr(VerificationLog, "append", append)
        monkeypatch.setattr(FasterKV, "upsert", traced_upsert)
        monkeypatch.setattr(FasterKV, "try_cas", traced_cas)

    def feed(self, *parts) -> None:
        self.entries += 1
        for part in parts:
            blob = part if isinstance(part, bytes) and len(part) == 1 \
                else _plain(part)
            self.hash.update(len(blob).to_bytes(4, "big"))
            self.hash.update(blob)

    def digest(self) -> str:
        return f"{self.entries}:{self.hash.hexdigest()[:32]}"


def build(n_records=60, **cfg):
    cfg.setdefault("key_width", 16)
    cfg.setdefault("cache_capacity", 32)
    db = FastVer(FastVerConfig(**cfg),
                 items=[(k * 7, b"v%d" % k) for k in range(n_records)])
    client = new_client(1)
    db.register_client(client)
    return db, client


def mixed_ops(db, client, steps, workers=1, span=500, stride=37):
    """Gets, updates, inserts (extend + split), deletes and absent reads
    from one arithmetic sequence — no RNG, so the schedule is the code."""
    for i in range(steps):
        key = (i * stride) % span
        if i % 3:
            key = (key % 60) * 7        # two in three land on loaded keys
        worker = i % workers
        if i % 5 == 0:
            db.put(client, key, b"p%d" % i, worker=worker)
        elif i % 11 == 3:
            db.put(client, key, None, worker=worker)
        else:
            db.get(client, key, worker=worker)
        if i % 50 == 49:
            db.verify()
    db.verify()
    db.flush()


# ----------------------------------------------------------------------
# The schedules
# ----------------------------------------------------------------------
def cold_one_worker():
    db, client = build()
    mixed_ops(db, client, 160)
    db.put(client, 40_000, b"right")          # extends the root's empty side
    db.verify()


def partitioned_four_workers():
    db, client = build(n_workers=4, partition_depth=3)
    mixed_ops(db, client, 240, workers=4)
    # Dense inserts under one prefix: splits above and extends below.
    for k in range(40_000, 40_030):
        db.put(client, k, b"grow", worker=k % 4)
    db.get(client, 65_000, worker=1)          # absent
    db.put(client, 65_001, None, worker=2)    # delete of an absent key
    db.verify()


def hot_records():
    db, client = build(n_workers=2, partition_depth=2, cache_hot_records=True)
    mixed_ops(db, client, 200, workers=2, span=120)
    db.flush_caches()
    mixed_ops(db, client, 60, workers=2, span=120, stride=13)


def unsorted_reapplication():
    db, client = build(n_workers=2, partition_depth=2,
                       sorted_merkle_updates=False)
    mixed_ops(db, client, 150, workers=2)


def grow_then_rebalance():
    db, client = build(n_workers=2, partition_depth=3, cache_capacity=64)
    for k in range(30_000, 30_120):
        db.put(client, k, b"grown", worker=k % 2)
    db.verify()
    db.flush()
    moved = db.rebalance_partitions()
    assert moved != (0, 0)
    mixed_ops(db, client, 80, workers=2)
    db.rebalance_partitions()
    db.verify()


def checkpoint_recover_continue():
    db, client = build(n_workers=2, partition_depth=3, cache_hot_records=True)
    mixed_ops(db, client, 90, workers=2)
    checkpoint = db.checkpoint()
    for i in range(20):
        db.put(client, i * 7, b"lost%d" % i, worker=i % 2)
    db.enclave.reboot()
    db.recover(checkpoint)
    mixed_ops(db, client, 90, workers=2, stride=41)


def repair_each_tier():
    db, client = build(n_workers=2, partition_depth=3, cache_hot_records=True)
    db.verify()
    db.get(client, 7)                          # retained: cached tier
    db.checkpoint()
    cached = db.data_key(7)
    assert cached in db.cached_where
    assert db.repair_record(cached, None) == "cached"
    deferred = min(db.deferred_index, key=lambda k: (k.length, k.bits))
    authentic = db.store.read_record(deferred).value
    assert db.repair_record(deferred, authentic) == "deferred"
    merkle = db.data_key(14)
    assert merkle not in db.cached_where and merkle not in db.deferred_index
    with pytest.raises(RepairForgeryError):    # host pre-vet refuses
        db.repair_record(merkle, DataValue(b"forged"))
    assert db.repair_record(merkle, DataValue(b"v2")) == "merkle"
    other = db.data_key(21)
    with pytest.raises(RepairForgeryError):    # enclave gate refuses
        db.repair_record(other, DataValue(b"forged"), host_prevet=False)


def poisoned_batch():
    db, client = build(n_workers=2, partition_depth=3)
    db.verify()
    db.checkpoint()
    install_faults(db, FaultPlan(3, {"batch.partial": [0]}))
    ops = []
    for i in range(8):
        key = db.data_key(i * 7)
        if i % 3 == 2:
            ops.append((client, client.make_get(key), "get", i % 2))
        else:
            ops.append((client, client.make_put(key, b"b%d" % i), "put", i % 2))
    outcomes = db.apply_batch(ops)
    failed = [o for o in outcomes if o.error is not None]
    assert len(failed) == 1 and isinstance(failed[0].error, SignatureError)
    install_faults(db, None)
    db.verify()


def scan_run(db, client, starts, count, workers, close_every=None):
    """Range scans from an arithmetic sequence of start keys."""
    for i, start in enumerate(starts):
        db.scan(client, start, count, worker=i % workers)
        if close_every and i % close_every == close_every - 1:
            db.verify()
    db.verify()
    db.flush()


def scans_across_partition_anchors():
    db, client = build(n_records=200, n_workers=4, partition_depth=3)
    scan_run(db, client, [(i * 211) % 1400 for i in range(12)], 45,
             workers=4, close_every=4)


def scan_with_close_inside():
    db, client = build(n_records=200, n_workers=2, partition_depth=2,
                       batch_ops=25)              # verify() lands mid-scan
    scan_run(db, client, [(i * 300) % 1400 for i in range(8)], 60, workers=2)


def scan_over_hot_and_deferred():
    db, client = build(n_records=120, n_workers=2, partition_depth=2,
                       cache_hot_records=True)
    for k in range(0, 840, 35):                   # inserted: deferred tier
        db.put(client, k + 3, b"new", worker=k % 2)
    for k in range(0, 120, 4):                    # read: retained in cache
        db.get(client, k * 7, worker=k % 2)
    scan_run(db, client, [(i * 130) % 800 for i in range(7)], 50,
             workers=2, close_every=4)


def dense_touch(sorted_updates):
    db, client = build(n_records=200, n_workers=2, partition_depth=2,
                       sorted_merkle_updates=sorted_updates)
    for base in (40, 70, 100):                    # overlapping dense ranges
        for j in range(50):
            k = base + (j * 37) % 50              # consecutive keys, shuffled
            if k % 4:
                db.get(client, k * 7, worker=k % 2)
            else:
                db.put(client, k * 7, b"d%d" % j, worker=k % 2)
        db.verify()
    db.flush()


def dense_touch_sorted_close():
    dense_touch(True)


def dense_touch_unsorted_close():
    dense_touch(False)


SCHEDULES = {
    cold_one_worker: "2643:18a2d501fff740913c4c04b7d88ee03f",
    partitioned_four_workers: "1941:cc36e67aa88c406d95d192d808bf62c7",
    hot_records: "2215:027898b0b88407e54071a8dbac5b9aee",
    unsorted_reapplication: "1454:253f0c0cdf78b1fe5a8e536e40ac53d0",
    grow_then_rebalance: "2682:6e519a7089ede6dca08a88b5329f182a",
    checkpoint_recover_continue: "1321:daaab41c11e4cc7126fccf11d9c48150",
    repair_each_tier: "221:ac11c923c96182a7e314ab0ff0a078af",
    poisoned_batch: "300:aac7c96b77c979f44263549979408df3",
    scans_across_partition_anchors: "6301:916790ed37d757c78acbf33c0812417a",
    scan_with_close_inside: "5413:38bf8df210756ecf1c09f559b43c8438",
    scan_over_hot_and_deferred: "3869:62cb7f17debedb2f2cb27c2c3df92e1f",
    dense_touch_sorted_close: "2793:0394d8ba297b29b0a16b85ead5ca86f9",
    dense_touch_unsorted_close: "3245:7aed7a4395a42a0f76743a3c4b28233a",
}


@pytest.mark.parametrize("schedule", list(SCHEDULES), ids=lambda f: f.__name__)
def test_command_stream_pin(schedule, monkeypatch):
    stream = CommandStream(monkeypatch)
    schedule()
    assert stream.digest() == SCHEDULES[schedule]


# ----------------------------------------------------------------------
# The tier map agrees with the aux words after any schedule
# ----------------------------------------------------------------------
step_strategy = st.one_of(
    st.tuples(st.sampled_from(["get", "delete"]), st.integers(0, 79)),
    st.tuples(st.just("put"), st.integers(0, 79),          # 40.. inserts
              st.binary(min_size=1, max_size=6)),
    st.tuples(st.sampled_from(
        ["verify", "flush_caches", "rebalance", "checkpoint+recover"])),
)


@pytest.mark.parametrize("hot", [False, True], ids=["evict", "retain"])
@given(st.lists(step_strategy, max_size=40), st.integers(1, 3))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_tier_of_names_the_tier_the_aux_word_names(hot, schedule, workers):
    """Whatever moved records between tiers — ops, the LRU, epoch close,
    partitioning, recovery — every stored key's ``tier_of`` is the tier
    its aux word names, and the full host audit is clean."""
    db = FastVer(FastVerConfig(key_width=16, n_workers=workers,
                               cache_capacity=32, partition_depth=2,
                               cache_hot_records=hot),
                 items=[(k, b"v%d" % k) for k in range(40)])
    client = new_client(1)
    db.register_client(client)
    for i, step in enumerate(schedule):
        worker = i % workers
        if step[0] == "get":
            db.get(client, step[1], worker=worker)
        elif step[0] == "put":
            db.put(client, step[1], step[2], worker=worker)
        elif step[0] == "delete":
            db.put(client, step[1], None, worker=worker)
        elif step[0] == "verify":
            db.verify()
        elif step[0] == "flush_caches":
            db.flush_caches()
        elif step[0] == "rebalance":
            db.verify()
            db.rebalance_partitions()
        else:
            db.verify()
            db.recover(db.checkpoint())
    db.flush()
    for key, _value, aux_word in db.store.items():
        assert db.tier_of(key) == Aux.unpack(aux_word).state.name.lower()
    assert db.tier_of(db.data_key(60_000)) is None
    report = audit(db)
    assert report.ok, report.violations[:5]
