"""Wall-clock cost of the store primitives (ROADMAP item 1(d)).

``bench_crypto_rates.py`` documents the substrate under the verifier and
``bench_obs_rates.py`` the one that watches it; this documents the one
that *holds* the records, and what a checkpoint costs afterwards.
Nanoseconds per ``HybridLog.get`` in the mutable region, on a stable page
whose decode is not cached (two addresses sharing a slot, read in turn)
and on one whose decode is; per ``LogRecord.serialize`` / ``deserialize``
of a data and of a Merkle record; per entry of the checkpoint's index
blob; per record of ``checkpoint.recover``. Then the count the read cache
exists for: stable-page decodes and cache hits per op over ``COLD_OPS``
YCSB-A ops against a cold 20K-record ``FastVer`` right after a checkpoint
(``HybridLog.page_decodes`` / ``page_hits``). Then that store's whole
``db.recover()`` per index entry, and the page decodes one recovery makes
per entry (both scans read every page; how many they decode is the count);
ns per entry of that checkpoint's index parse as recovery runs it (filling
the table of key encodings), and the ``BitKey`` instances one recovery
builds per entry (the parse builds one; page and pointer keys come from
the table), and ns per entry of ``salvage()`` over that store's device
(the log scan the recovery ladder falls back to when the checkpoint is
unusable). Last, the bulk load: ns per record of
``FastVer(config, items=...)`` on ``COLD_RECORDS`` records, and ns per
``KeyDirectory.add`` of keys in the ascending order that load hands the
scan directory.

Run as ``python benchmarks/bench_store_rates.py``: prints one JSON object.
No threshold — the timings are wall-clock numbers on whatever box runs
them, each the fastest of ``ROUNDS`` rounds; the four counts repeat exactly.
"""

from __future__ import annotations

import json
import random
import sys
import time

from repro import FastVer, FastVerConfig, new_client
from repro.core.keys import BitKey
from repro.core.records import DataValue, MerkleValue, Pointer
from repro.store.checkpoint import (
    _deserialize_index,
    _serialize_index,
    recover,
    take_checkpoint,
)
from repro.store.faster import FasterKV, KeyDirectory
from repro.store.hybridlog import PAGE_CACHE_SLOTS, HybridLog, LogRecord
from repro.store.recovery import salvage

CALLS = 20_000
ROUNDS = 5
KEY_WIDTH = 32
#: Index entries and recovered records: the size of the store the cold
#: workloads checkpoint (20K data records + their Merkle nodes).
INDEX_ENTRIES = 40_000
COLD_RECORDS = 20_000
COLD_OPS = 2_000
COLD_CONFIG = FastVerConfig(key_width=KEY_WIDTH, n_workers=4,
                            partition_depth=4, cache_capacity=512)
COLD_ITEMS = [(k, b"v%d" % k) for k in range(COLD_RECORDS)]


def fastest_ns(setup, body, per: int) -> float:
    """Fastest of ``ROUNDS``: ``setup()`` builds fresh state, ``body(state)``
    is the timed region, the figure is per ``per`` units of its work."""
    best = float("inf")
    for _ in range(ROUNDS):
        state = setup()
        start = time.perf_counter_ns()
        body(state)
        best = min(best, (time.perf_counter_ns() - start) / per)
    return round(best, 1)


def data_record(i: int = 7) -> LogRecord:
    return LogRecord(BitKey.data_key(i, KEY_WIDTH), DataValue(b"v" * 16), i, i)


def merkle_record() -> LogRecord:
    left = Pointer(BitKey.data_key(3, KEY_WIDTH), b"\x11" * 32)
    right = Pointer(BitKey.data_key(2 ** 31 + 3, KEY_WIDTH), b"\x22" * 32)
    return LogRecord(BitKey.from_bits_string("0101"),
                     MerkleValue(left, right), 5, 9)


def bench_get(stable: bool, addresses: tuple[int, int]) -> float:
    def setup():
        log = HybridLog()
        for i in range(PAGE_CACHE_SLOTS + 1):
            log.append(data_record(i))
        if stable:
            log.flush_until(log.tail_address)
        return log

    def body(log):
        get, (a, b) = log.get, addresses
        for _ in range(CALLS // 2):
            get(a)
            get(b)

    return fastest_ns(setup, body, CALLS)


def bench_codec(record: LogRecord) -> tuple[float, float]:
    blob = record.serialize()

    def encode(_):
        for _ in range(CALLS):
            record.serialize()

    def decode(_):
        deserialize = LogRecord.deserialize
        for _ in range(CALLS):
            deserialize(blob)

    return (fastest_ns(lambda: None, encode, CALLS),
            fastest_ns(lambda: None, decode, CALLS))


def checkpointed_store() -> FasterKV:
    store = FasterKV(ordered_width=KEY_WIDTH)
    for i in range(INDEX_ENTRIES):
        store.upsert(BitKey.data_key(i * 7919, KEY_WIDTH),
                     DataValue(b"v" * 16), i)
    return store


def cold_run() -> tuple[FastVer, float, float]:
    """The cold store, and stable decodes and hits per op over the first
    ``COLD_OPS`` ops after a checkpoint dropped every in-memory record."""
    db = FastVer(COLD_CONFIG, items=COLD_ITEMS)
    client = new_client(1)
    db.register_client(client)
    db.flush()
    db.verify()
    db.flush()
    db.checkpoint()
    log = db.store.log
    decodes, hits = log.page_decodes, log.page_hits
    rng = random.Random(1)
    for i in range(COLD_OPS):
        key = rng.randrange(COLD_RECORDS)
        if i % 2:
            db.put(client, key, b"w%d" % i)
        else:
            db.get(client, key)
    db.flush()
    return (db, (log.page_decodes - decodes) / COLD_OPS,
            (log.page_hits - hits) / COLD_OPS)


def bench_fastver_recover(db: FastVer) -> tuple[int, float, float, float]:
    """Index entries of the checkpoint, ns of ``db.recover()`` per entry,
    pages decoded per entry by one recovery (the recovered store's log is
    new, so its count is that recovery's alone), and ``BitKey`` instances
    one more recovery builds per entry (counted at ``__init__``)."""
    ckpt = db.last_checkpoint
    total_ns = fastest_ns(lambda: None, lambda _: db.recover(ckpt), 1)
    entries = len(db.store)
    decodes = db.store.log.page_decodes / entries
    built, init = 0, BitKey.__init__

    def counting(key, length, bits):
        nonlocal built
        built += 1
        init(key, length, bits)
    BitKey.__init__ = counting
    try:
        db.recover(ckpt)
    finally:
        BitKey.__init__ = init
    return entries, round(total_ns / entries, 1), decodes, built / entries


def bench_directory_add() -> float:
    keys = [BitKey.data_key(i * 7919, KEY_WIDTH) for i in range(COLD_RECORDS)]

    def body(directory):
        add = directory.add
        for key in keys:
            add(key)

    return fastest_ns(KeyDirectory, body, COLD_RECORDS)


def run_rates() -> dict:
    store = checkpointed_store()
    token = take_checkpoint(store, version=1)
    serialize_data, deserialize_data = bench_codec(data_record())
    serialize_merkle, deserialize_merkle = bench_codec(merkle_record())
    db, decodes_per_op, hits_per_op = cold_run()
    recover_entries, fastver_recover, recover_decodes, keys_built = \
        bench_fastver_recover(db)
    cold_blob = db.last_checkpoint.store_token.index_blob
    return {
        "unit": "ns",
        "calls": CALLS,
        "rounds": ROUNDS,
        "python": sys.version.split()[0],
        "page_cache_slots": PAGE_CACHE_SLOTS,
        "get_mutable": bench_get(False, (0, PAGE_CACHE_SLOTS)),
        "get_stable_miss": bench_get(True, (0, PAGE_CACHE_SLOTS)),
        "get_stable_hit": bench_get(True, (0, 1)),
        "serialize_data": serialize_data,
        "deserialize_data": deserialize_data,
        "serialize_merkle": serialize_merkle,
        "deserialize_merkle": deserialize_merkle,
        "index_entries": INDEX_ENTRIES,
        "serialize_index_per_entry": fastest_ns(
            lambda: None, lambda _: _serialize_index(store.index),
            INDEX_ENTRIES),
        "deserialize_index_per_entry": fastest_ns(
            lambda: None, lambda _: _deserialize_index(token.index_blob),
            INDEX_ENTRIES),
        "recover_per_record": fastest_ns(
            lambda: None, lambda _: recover(token, store.log.device),
            INDEX_ENTRIES),
        "cold_ops": COLD_OPS,
        "cold_stable_decodes_per_op": decodes_per_op,
        "cold_stable_hits_per_op": hits_per_op,
        "fastver_recover_entries": recover_entries,
        "fastver_recover_per_record": fastver_recover,
        "recover_decodes_per_record": recover_decodes,
        "index_decode_per_entry": fastest_ns(
            lambda: None, lambda _: _deserialize_index(cold_blob, {}),
            recover_entries),
        "recover_keys_built_per_record": keys_built,
        "salvage_per_record": fastest_ns(
            lambda: db.store.log,
            lambda log: salvage(log.device, log.tail_address, KEY_WIDTH),
            recover_entries),
        "bulk_load_records": COLD_RECORDS,
        "bulk_load_per_record": fastest_ns(
            lambda: None, lambda _: FastVer(COLD_CONFIG, items=COLD_ITEMS),
            COLD_RECORDS),
        "directory_add_per_key": bench_directory_add(),
    }


if __name__ == "__main__":
    print(json.dumps(run_rates(), indent=2))
