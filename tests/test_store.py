"""Tests for the FASTER-style store substrate: log, index, CAS."""

from __future__ import annotations

import bisect
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.adversary.host import _writeback
from repro.core.keys import BitKey
from repro.core.records import DataValue, MerkleValue, Pointer
from repro.errors import (
    CorruptPageError,
    ReproError,
    StoreError,
    TransientIOError,
)
from repro.faults import FaultPlan
from repro.instrument import COUNTERS
from repro.store.atomic import compare_and_swap_pair
from repro.store.checkpoint import recover, take_checkpoint
from repro.store.faster import FasterKV, KeyDirectory
from repro.store import hybridlog
from repro.store.hashindex import HashIndex
from repro.store.hybridlog import (
    NULL_ADDRESS,
    PAGE_CACHE_SLOTS,
    HybridLog,
    LogDevice,
    LogRecord,
)
from tests.conftest import fresh_copy


def dk(i, width=16):
    return BitKey.data_key(i, width)


# ---------------------------------------------------------------------------
# Hybrid log
# ---------------------------------------------------------------------------
class TestHybridLog:
    def test_append_and_get(self):
        log = HybridLog()
        addr = log.append(LogRecord(dk(1), DataValue(b"v"), 7))
        record = log.get(addr)
        assert record.key == dk(1)
        assert record.value == DataValue(b"v")
        assert record.aux == 7

    def test_addresses_monotone(self):
        log = HybridLog()
        a = log.append(LogRecord(dk(1), DataValue(b"a"), 0))
        b = log.append(LogRecord(dk(2), DataValue(b"b"), 0))
        assert b == a + 1
        assert log.tail_address == b + 1

    def test_unallocated_address_rejected(self):
        log = HybridLog()
        with pytest.raises(StoreError):
            log.get(0)
        with pytest.raises(StoreError):
            log.get(-5)

    def test_in_place_update_in_mutable_region(self):
        log = HybridLog()
        addr = log.append(LogRecord(dk(1), DataValue(b"a"), 0))
        assert log.is_mutable(addr)
        log.update_in_place(addr, DataValue(b"b"), 9)
        assert log.get(addr).value == DataValue(b"b")
        assert log.get(addr).aux == 9

    def test_update_below_read_only_rejected(self):
        log = HybridLog()
        addr = log.append(LogRecord(dk(1), DataValue(b"a"), 0))
        log.read_only_address = addr + 1
        with pytest.raises(StoreError):
            log.update_in_place(addr, DataValue(b"b"), 0)

    def test_flush_and_reread_from_device(self):
        log = HybridLog()
        addr = log.append(LogRecord(dk(5), DataValue(b"payload"), 3,
                                    prev_address=NULL_ADDRESS))
        flushed = log.flush_until(addr + 1)
        assert flushed == 1
        assert not log.in_memory(addr)
        reads = log.device.reads
        record = log.get(addr)  # re-read through the device
        assert record.value == DataValue(b"payload")
        assert record.aux == 3
        # One device read per stable get, whether the decode is cached or not.
        assert log.device.reads == reads + 1
        assert log.get(addr).value == DataValue(b"payload")
        assert log.device.reads == reads + 2
        assert (log.page_decodes, log.page_hits) == (1, 1)

    def test_memory_budget_spills(self):
        log = HybridLog(memory_budget_records=10)
        for i in range(25):
            log.append(LogRecord(dk(i), DataValue(b"x"), 0))
        assert len(log._records) <= 11
        assert len(log.device) >= 14
        # Every record still readable.
        for addr in range(25):
            assert log.get(addr).key == dk(addr)

    def test_serialize_roundtrip_data(self):
        rec = LogRecord(dk(9), DataValue(b"xyz"), 0xDEADBEEF,
                        prev_address=42, tombstone=True)
        got = LogRecord.deserialize(rec.serialize())
        assert (got.key, got.value, got.aux, got.prev_address, got.tombstone) \
            == (rec.key, rec.value, rec.aux, rec.prev_address, rec.tombstone)

    def test_serialize_roundtrip_merkle(self):
        value = MerkleValue(Pointer(dk(3), b"\x11" * 32), None)
        rec = LogRecord(BitKey.from_bits_string("0101"), value, 5)
        got = LogRecord.deserialize(rec.serialize())
        assert got.value == value

    def test_deserialize_rejects_truncation(self):
        rec = LogRecord(dk(1), DataValue(b"v"), 0)
        with pytest.raises(StoreError):
            LogRecord.deserialize(rec.serialize()[:10])

    @pytest.mark.xfail(strict=True, reason=(
        "deserialize never checks 21 + klen + 4 + vlen == len(blob); the "
        "check moves chaos digests (server+scrub seed 7), so it waits for "
        "its own re-pin: ROADMAP 'Smaller items', EXPERIMENTS N5"))
    @pytest.mark.parametrize("damage", [
        lambda blob: blob[:len(blob) // 2],     # torn: 33 of 100 value bytes
        lambda blob: blob + b"\x00",            # trailing junk
    ])
    def test_deserialize_rejects_a_length_mismatch(self, damage):
        blob = LogRecord(dk(1), DataValue(b"v" * 100), 7).serialize()
        with pytest.raises(StoreError):
            LogRecord.deserialize(damage(blob))

    def test_deserialize_shares_the_expected_key(self):
        key, child = dk(9), dk(3)
        blob = LogRecord(dk(9), DataValue(b"v"), 0).serialize()
        encodings = {key.to_bytes(): key, child.to_bytes(): child}
        assert LogRecord.deserialize(blob, encodings).key is key
        other = LogRecord.deserialize(blob, {dk(8).to_bytes(): dk(8)}).key
        assert other == key and other is not key
        merkle = LogRecord(BitKey.from_bits_string("0"), MerkleValue(
            Pointer(dk(3), b"\x11" * 32), Pointer(dk(9), b"\x22" * 32)), 0)
        value = LogRecord.deserialize(merkle.serialize(), encodings).value
        assert value.ptr0.key is child and value.ptr1.key is key

    def test_device_missing_address(self):
        device = LogDevice()
        with pytest.raises(StoreError):
            device.read(7)


# ---------------------------------------------------------------------------
# The decoded-page cache under HybridLog.get: speed only, never an answer
# ---------------------------------------------------------------------------
def fields(record):
    return (record.key, record.value, record.aux, record.prev_address,
            record.tombstone)


def flushed_log(n=1):
    log = HybridLog()
    for i in range(n):
        log.append(LogRecord(dk(i), DataValue(b"v%d" % i), i))
    log.flush_until(log.tail_address)
    return log


class UncachedLog(HybridLog):
    """The reference: ``get`` as it was before the cache, decoding every
    stable page it reads."""

    def get(self, address):
        COUNTERS.store_reads += 1
        record = self._records.get(address)
        if record is not None:
            return record
        if address < 0 or address >= self._next_address:
            raise StoreError(f"address {address} was never allocated")
        blob = self.device.read_with_retry(address)
        try:
            return LogRecord.deserialize(blob)
        except (StoreError, ValueError) as exc:
            raise CorruptPageError(
                f"page at address {address} failed structural decode: "
                f"{exc}") from exc


class TestPageCache:
    def test_equal_content_in_a_new_page_object_is_decoded_again(self):
        log = flushed_log()
        log.get(0)
        log.get(0)
        assert (log.page_decodes, log.page_hits) == (1, 1)
        pages = log.device._pages
        pages[0] = fresh_copy(pages[0])
        assert fields(log.get(0)) == (dk(0), DataValue(b"v0"), 0,
                                      NULL_ADDRESS, False)
        # Identity, not equality: the cache never compares page contents.
        assert (log.page_decodes, log.page_hits) == (2, 1)

    def test_tamper_after_a_hit_is_seen_on_the_next_read(self):
        log = flushed_log()
        log.get(0)
        assert log.get(0).value == DataValue(b"v0")
        log.device.write(0, LogRecord(dk(0), DataValue(b"evil"), 9).serialize())
        assert fields(log.get(0))[1:3] == (DataValue(b"evil"), 9)

    def test_rot_after_a_hit_is_seen_on_the_read_that_rots(self):
        log = flushed_log()
        log.get(0)
        log.device.faults = FaultPlan(specs={"device.read.bitrot": [0]})
        assert log.get(0).value != DataValue(b"v0")
        assert log.page_hits == 0

    def test_transient_fault_on_a_cached_address_still_raises(self):
        log = flushed_log()
        log.get(0)
        log.get(0)
        reads = log.device.reads
        log.device.faults = FaultPlan(
            specs={"device.read.transient": [0, 1, 2]})
        with pytest.raises(TransientIOError):
            log.get(0)
        assert log.device.reads == reads + 3
        assert log.get(0).value == DataValue(b"v0")
        assert log.page_hits == 2

    def test_mutating_a_stable_read_needs_writeback_to_be_seen(self):
        store = FasterKV()
        store.upsert(dk(1), DataValue(b"v"), 7)
        store.log.flush_until(store.log.tail_address)
        for _ in range(2):  # once off a miss, once off a hit
            record = store.read_record(dk(1))
            record.value = DataValue(b"__tampered__")
            record.aux = 99
            assert store.read(dk(1)) == (DataValue(b"v"), 7)
        _writeback(SimpleNamespace(store=store), record)
        assert store.read(dk(1)) == (DataValue(b"__tampered__"), 99)

    def test_recovered_store_starts_with_an_empty_cache(self):
        store = FasterKV(ordered_width=16)
        for i in range(8):
            store.upsert(dk(i), DataValue(b"v%d" % i), i)
        token = take_checkpoint(store, version=1)
        for i in range(8):
            store.read(dk(i))
            store.read(dk(i))
        assert store.log.page_hits == 8
        recovered = recover(token, store.log.device)
        assert (recovered.log.page_decodes, recovered.log.page_hits) == (8, 0)

    def test_addresses_sharing_a_slot_evict_each_other(self):
        log = flushed_log(PAGE_CACHE_SLOTS + 1)
        for address in (0, PAGE_CACHE_SLOTS, 0):
            assert log.get(address).key == dk(address)
        assert (log.page_decodes, log.page_hits) == (3, 0)
        log.get(0)
        assert (log.page_decodes, log.page_hits) == (3, 1)


FAULT_SPECS = {"device.read.transient": 0.3, "device.read.bitrot": 0.1}


class PageCacheMachine(RuleBasedStateMachine):
    """The same steps against a cached and an uncached log: every answer,
    error, device count, store-read count and fault firing must agree."""

    def __init__(self):
        super().__init__()
        # Four slots: these few addresses collide all the time.
        self.slots = hybridlog.PAGE_CACHE_SLOTS
        hybridlog.PAGE_CACHE_SLOTS = 4
        self.cached = FasterKV()
        self.plain = FasterKV()
        self.plain.log = UncachedLog()
        self.stores = (self.cached, self.plain)
        for store in self.stores:
            store.log.device.faults = FaultPlan(seed=5, specs=FAULT_SPECS)

    def both(self, step):
        """Run ``step(store)`` on each side; compare outcome and reads."""
        outcomes = []
        for store in self.stores:
            before = COUNTERS.store_reads
            try:
                result = step(store)
            except ReproError as exc:  # every typed failure
                result = (type(exc), str(exc))
            outcomes.append((result, COUNTERS.store_reads - before))
        assert outcomes[0] == outcomes[1]
        return outcomes[0][0]

    def stable_address(self, pick):
        head = self.cached.log.head_address
        return pick % head if head else None

    @rule(k=st.integers(0, 5), payload=st.binary(max_size=6),
          aux=st.integers(0, 2 ** 64 - 1))
    def upsert(self, k, payload, aux):
        self.both(lambda store: store.upsert(dk(k), DataValue(payload), aux))

    @rule(k=st.integers(0, 5), tombstone=st.booleans())
    def append(self, k, tombstone):
        self.both(lambda store: store.log.append(LogRecord(
            dk(k), DataValue(b"a"), 1, store.log.tail_address - 1, tombstone)))

    @rule(share=st.floats(0, 1))
    def flush_until(self, share):
        self.both(lambda store: store.log.flush_until(
            int(share * store.log.tail_address)))

    @rule(pick=st.integers(0, 10 ** 6))
    def get(self, pick):
        tail = self.cached.log.tail_address
        address = pick % (tail + 2) - 1     # -1 and tail: never allocated

        def step(store):
            record = store.log.get(address)
            got = fields(record)
            if not store.log.in_memory(address):
                # A stable read is the caller's own copy: scribbling on it
                # must not reach any later reader.
                record.value, record.aux, record.tombstone = None, -1, True
            return got
        self.both(step)

    @rule(pick=st.integers(0, 10 ** 6), same_content=st.booleans(),
          payload=st.binary(max_size=6))
    def rewrite_page(self, pick, same_content, payload):
        address = self.stable_address(pick)
        if address is None:
            return
        for store in self.stores:
            pages = store.log.device._pages
            if same_content:
                pages[address] = fresh_copy(pages[address])
            else:
                pages[address] = LogRecord(
                    dk(7), DataValue(payload), 3).serialize()

    @rule(pick=st.integers(0, 10 ** 6))
    def tear_page(self, pick):
        address = self.stable_address(pick)
        if address is None:
            return
        for store in self.stores:
            pages = store.log.device._pages
            pages[address] = pages[address][:len(pages[address]) // 2]

    def teardown(self):
        hybridlog.PAGE_CACHE_SLOTS = self.slots

    @invariant()
    def devices_and_fault_logs_agree(self):
        a, b = (store.log.device for store in self.stores)
        assert (a.reads, a.writes, a._pages) == (b.reads, b.writes, b._pages)
        assert a.faults.trace == b.faults.trace


TestPageCacheMachine = PageCacheMachine.TestCase
TestPageCacheMachine.settings = settings(max_examples=60,
                                         stateful_step_count=40,
                                         deadline=None)


# ---------------------------------------------------------------------------
# Hash index
# ---------------------------------------------------------------------------
class TestHashIndex:
    def test_lookup_absent(self):
        assert HashIndex().lookup(dk(1)) == NULL_ADDRESS

    def test_cas_install(self):
        idx = HashIndex()
        assert idx.try_update(dk(1), NULL_ADDRESS, 5)
        assert idx.lookup(dk(1)) == 5

    def test_cas_fails_on_stale_expectation(self):
        idx = HashIndex()
        idx.try_update(dk(1), NULL_ADDRESS, 5)
        assert not idx.try_update(dk(1), NULL_ADDRESS, 9)
        assert idx.lookup(dk(1)) == 5

    def test_snapshot_restore(self):
        idx = HashIndex()
        idx.try_update(dk(1), NULL_ADDRESS, 5)
        snap = dict(idx.items())
        idx.try_update(dk(1), 5, 7)
        idx.restore(snap)
        assert idx.lookup(dk(1)) == 5

    def test_remove(self):
        idx = HashIndex()
        idx.try_update(dk(1), NULL_ADDRESS, 5)
        idx.remove(dk(1))
        assert dk(1) not in idx
        assert len(idx) == 0


# ---------------------------------------------------------------------------
# Atomic pair CAS
# ---------------------------------------------------------------------------
class TestAtomicPair:
    def test_success(self):
        rec = LogRecord(dk(1), DataValue(b"a"), 7)
        assert compare_and_swap_pair(rec, DataValue(b"a"), 7, DataValue(b"b"), 9)
        assert rec.value == DataValue(b"b")
        assert rec.aux == 9

    def test_fails_on_value_mismatch(self):
        rec = LogRecord(dk(1), DataValue(b"a"), 7)
        assert not compare_and_swap_pair(rec, DataValue(b"z"), 7,
                                         DataValue(b"b"), 9)
        assert rec.value == DataValue(b"a")

    def test_fails_on_aux_mismatch(self):
        rec = LogRecord(dk(1), DataValue(b"a"), 7)
        assert not compare_and_swap_pair(rec, DataValue(b"a"), 8,
                                         DataValue(b"b"), 9)


# ---------------------------------------------------------------------------
# FasterKV
# ---------------------------------------------------------------------------
class TestFasterKV:
    def test_upsert_read(self):
        store = FasterKV()
        store.upsert(dk(1), DataValue(b"v"), 42)
        assert store.read(dk(1)) == (DataValue(b"v"), 42)

    def test_read_absent(self):
        assert FasterKV().read(dk(1)) is None

    def test_upsert_overwrites_in_place(self):
        store = FasterKV()
        store.upsert(dk(1), DataValue(b"a"))
        tail = store.log.tail_address
        store.upsert(dk(1), DataValue(b"b"), 9)
        assert store.log.tail_address == tail  # in-place, no new version
        assert store.read(dk(1)) == (DataValue(b"b"), 9)

    def test_upsert_below_read_only_copies(self):
        store = FasterKV()
        store.upsert(dk(1), DataValue(b"a"))
        store.log.read_only_address = store.log.tail_address
        store.upsert(dk(1), DataValue(b"b"))
        assert store.read(dk(1))[0] == DataValue(b"b")
        newest = store.read_record(dk(1))
        assert store.log.get(newest.prev_address).value == DataValue(b"a")

    def test_rmw(self):
        store = FasterKV()
        store.upsert(dk(1), DataValue(b"a"), 1)
        value, aux = store.rmw(
            dk(1), lambda v, a: (DataValue(v.payload + b"!"), a + 1))
        assert value == DataValue(b"a!")
        assert aux == 2
        assert store.read(dk(1)) == (DataValue(b"a!"), 2)

    def test_rmw_creates_absent(self):
        store = FasterKV()
        value, aux = store.rmw(dk(1), lambda v, a: (DataValue(b"init"), 5))
        assert value == DataValue(b"init")
        assert store.read(dk(1)) == (DataValue(b"init"), 5)

    def test_delete_tombstones(self):
        store = FasterKV(ordered_width=16)
        store.upsert(dk(1), DataValue(b"a"))
        assert store.delete(dk(1))
        assert store.read(dk(1)) is None
        assert store.read_record(dk(1)).tombstone
        assert not store.delete(dk(2))

    def test_try_cas_pair(self):
        store = FasterKV()
        store.upsert(dk(1), DataValue(b"a"), 7)
        assert store.try_cas(dk(1), DataValue(b"a"), 7, DataValue(b"b"), 8)
        assert not store.try_cas(dk(1), DataValue(b"a"), 7, DataValue(b"c"), 9)
        assert store.read(dk(1)) == (DataValue(b"b"), 8)

    def test_try_cas_absent_key(self):
        assert not FasterKV().try_cas(dk(1), DataValue(b"a"), 0,
                                      DataValue(b"b"), 0)

    def test_try_cas_below_read_only_uses_rcu(self):
        store = FasterKV()
        store.upsert(dk(1), DataValue(b"a"), 7)
        store.log.read_only_address = store.log.tail_address
        assert store.try_cas(dk(1), DataValue(b"a"), 7, DataValue(b"b"), 8)
        assert store.read(dk(1)) == (DataValue(b"b"), 8)

    def test_scan_ordered(self):
        store = FasterKV(ordered_width=16)
        for i in (5, 1, 9, 3):
            store.upsert(dk(i), DataValue(b"v%d" % i))
        got = store.scan_from(dk(2), 2)
        assert [k.bits for k, _, _ in got] == [3, 5]

    def test_scan_skips_merkle_keys(self):
        store = FasterKV(ordered_width=16)
        store.upsert(dk(1), DataValue(b"v"))
        store.upsert(BitKey.from_bits_string("01"), MerkleValue())
        got = store.scan_from(dk(0), 10)
        assert len(got) == 1

    def test_items_enumeration(self):
        store = FasterKV(ordered_width=16)
        for i in range(5):
            store.upsert(dk(i), DataValue(b"v"))
        store.delete(dk(2))
        assert len(list(store.items())) == 4

    def test_len(self):
        store = FasterKV()
        store.upsert(dk(1), DataValue(b"v"))
        assert len(store) == 1


class TestKeyDirectory:
    def test_ordered_range(self):
        d = KeyDirectory()
        for i in (9, 2, 7, 4):
            d.add(dk(i))
        assert [k.bits for k in d.range_from(dk(3), 2)] == [4, 7]

    def test_duplicate_add_idempotent(self):
        d = KeyDirectory()
        d.add(dk(1))
        d.add(dk(1))
        assert len(d) == 1

    def test_remove(self):
        d = KeyDirectory()
        d.add(dk(1))
        d.remove(dk(1))
        d.remove(dk(1))  # idempotent
        assert len(d) == 0
        assert dk(1) not in d

    @given(st.lists(st.integers(0, 1000), max_size=50),
           st.lists(st.integers(0, 1000), max_size=50))
    def test_extend_matches_one_add_per_key(self, first, second):
        bulk, single = KeyDirectory(), KeyDirectory()
        for batch in (first, second):
            bulk.extend([dk(k) for k in batch])
            for k in batch:
                single.add(dk(k))
        assert bulk.keys() == single.keys()
        assert len(bulk) == len(single)
        assert all(dk(k) in bulk for k in first + second)

    @given(st.sets(st.integers(0, 1000), max_size=50),
           st.integers(0, 1000), st.integers(0, 10))
    def test_range_matches_sorted_model(self, keys, start, count):
        d = KeyDirectory()
        for k in keys:
            d.add(dk(k))
        expected = [k for k in sorted(keys) if dk(k) >= dk(start)][:count]
        assert [k.bits for k in d.range_from(dk(start), count)] == expected


class KeyDirectoryMachine(RuleBasedStateMachine):
    """``KeyDirectory`` against a sorted list of ``bits`` and the first key
    object added per ``bits``: scans return the directory's own objects,
    and a key of another width with the same ``bits`` is never a member."""

    def __init__(self):
        super().__init__()
        self.directory = KeyDirectory()
        self.model: list[int] = []
        self.objects: dict[int, BitKey] = {}

    def track(self, key):
        if key.bits not in self.objects:
            self.objects[key.bits] = key
            bisect.insort(self.model, key.bits)

    @rule(k=st.integers(0, 63))
    def add(self, k):
        key = dk(k)
        self.directory.add(key)
        self.track(key)

    @rule(k=st.integers(0, 63))
    def remove(self, k):
        self.directory.remove(dk(k))
        if self.objects.pop(k, None) is not None:
            self.model.remove(k)

    @rule(ks=st.lists(st.integers(0, 63), max_size=8))
    def extend(self, ks):
        keys = [dk(k) for k in ks]
        self.directory.extend(keys)
        for key in keys:
            self.track(key)

    @rule(start=st.integers(0, 64), count=st.integers(0, 10))
    def range_from(self, start, count):
        got = self.directory.range_from(dk(start), count)
        expected = [b for b in self.model if b >= start][:count]
        assert [key.bits for key in got] == expected
        assert all(key is self.objects[key.bits] for key in got)

    @rule(k=st.integers(0, 63), width=st.sampled_from([8, 15, 17, 24]))
    def other_width_is_not_a_member(self, k, width):
        assert BitKey(width, k) not in self.directory
        assert (dk(k) in self.directory) == (k in self.objects)

    @invariant()
    def matches_the_model(self):
        assert len(self.directory) == len(self.model)
        keys = self.directory.keys()
        assert [key.bits for key in keys] == self.model
        assert all(key is self.objects[key.bits] for key in keys)


TestKeyDirectoryMachine = KeyDirectoryMachine.TestCase
TestKeyDirectoryMachine.settings = settings(max_examples=60,
                                            stateful_step_count=40,
                                            deadline=None)
