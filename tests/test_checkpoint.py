"""Tests for CPR-style checkpointing and recovery of the host store (§7)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.keys import BitKey
from repro.core.records import DataValue
from repro.errors import CheckpointError, RecoveryError, TransientIOError
from repro.faults import FaultPlan
from repro.instrument import COUNTERS
from repro.store.checkpoint import (
    _deserialize_index,
    _serialize_index,
    recover,
    take_checkpoint,
)
from repro.store.faster import FasterKV
from repro.store.hybridlog import LogRecord


def dk(i):
    return BitKey.data_key(i, 16)


def loaded_store(n=20):
    store = FasterKV(ordered_width=16)
    for i in range(n):
        store.upsert(dk(i), DataValue(b"v%d" % i), aux=i)
    return store


class TestCheckpoint:
    def test_roundtrip(self):
        store = loaded_store()
        token = take_checkpoint(store, version=1)
        recovered = recover(token, store.log.device)
        for i in range(20):
            assert recovered.read(dk(i)) == (DataValue(b"v%d" % i), i)

    def test_recovered_store_is_writable(self):
        store = loaded_store()
        token = take_checkpoint(store, version=1)
        recovered = recover(token, store.log.device)
        recovered.upsert(dk(5), DataValue(b"new"))
        assert recovered.read(dk(5))[0] == DataValue(b"new")
        assert recovered.read(dk(6))[0] == DataValue(b"v6")

    def test_recovered_directory_supports_scans(self):
        store = loaded_store()
        token = take_checkpoint(store, version=1)
        recovered = recover(token, store.log.device)
        got = recovered.scan_from(dk(3), 3)
        assert [k.bits for k, _, _ in got] == [3, 4, 5]
        assert recovered.directory.keys() == store.directory.keys()

    def test_tombstones_not_resurrected(self):
        store = loaded_store()
        store.delete(dk(7))
        token = take_checkpoint(store, version=2)
        recovered = recover(token, store.log.device)
        assert recovered.read(dk(7)) is None
        assert dk(7) not in recovered.directory

    def test_checkpoint_version_validation(self):
        with pytest.raises(CheckpointError):
            take_checkpoint(loaded_store(), version=0)

    def test_updates_after_checkpoint_not_in_it(self):
        store = loaded_store()
        token = take_checkpoint(store, version=1)
        store.upsert(dk(0), DataValue(b"post-checkpoint"))
        recovered = recover(token, store.log.device)
        assert recovered.read(dk(0))[0] == DataValue(b"v0")

    def test_destroyed_log_detected(self):
        store = loaded_store()
        token = take_checkpoint(store, version=1)
        # Adversary destroys a page the index needs.
        victim = next(iter(store.index.items()))[1]
        del store.log.device._pages[victim]
        with pytest.raises(RecoveryError):
            recover(token, store.log.device)

    def test_swapped_pages_detected(self):
        store = loaded_store()
        token = take_checkpoint(store, version=1)
        pages = store.log.device._pages
        a0 = store.index.lookup(dk(0))
        a1 = store.index.lookup(dk(1))
        pages[a0], pages[a1] = pages[a1], pages[a0]
        with pytest.raises(RecoveryError):
            recover(token, store.log.device)

    def test_recover_reads_and_decodes_each_entry_once(self):
        store = loaded_store(40)
        store.delete(dk(7))
        token = take_checkpoint(store, version=1)
        device = store.log.device
        device.faults = FaultPlan(specs={"device.read.transient": [5, 6]})
        reads, store_reads = device.reads, COUNTERS.store_reads
        recovered = recover(token, device)
        n = len(recovered)
        assert n == 40
        assert device.reads - reads == n + 2
        assert COUNTERS.store_reads - store_reads == n
        assert device.faults.trace == [("device.read.transient", 5),
                                       ("device.read.transient", 6)]
        assert (recovered.log.page_decodes, recovered.log.page_hits) == (n, 0)

    def test_a_page_that_fails_three_reads_is_not_a_recovery_error(self):
        store = loaded_store()
        token = take_checkpoint(store, version=1)
        store.log.device.faults = FaultPlan(
            specs={"device.read.transient": [2, 3, 4]})
        with pytest.raises(TransientIOError):
            recover(token, store.log.device)

    def test_a_page_decoding_to_another_key_is_named(self):
        store = loaded_store()
        token = take_checkpoint(store, version=1)
        address = store.index.lookup(dk(3))
        store.log.device._pages[address] = LogRecord(
            dk(4), DataValue(b"v3"), 3).serialize()
        with pytest.raises(RecoveryError, match="resolves to a record for"):
            recover(token, store.log.device)

    def test_corrupt_index_blob_detected(self):
        store = loaded_store()
        token = take_checkpoint(store, version=1)
        token.index_blob = token.index_blob + b"junk"
        with pytest.raises(RecoveryError):
            recover(token, store.log.device)


def reference_index_blob(entries: dict[BitKey, int]) -> bytes:
    """The index encoder as first written, one field at a time: the format
    every retained token is in, kept here as the oracle."""
    parts = [len(entries).to_bytes(8, "big")]
    for key, address in entries.items():
        enc = key.to_bytes()
        parts.append(len(enc).to_bytes(4, "big"))
        parts.append(enc)
        parts.append(address.to_bytes(8, "big", signed=True))
    return b"".join(parts)


def bit_keys(max_length=256):
    return st.integers(0, max_length).flatmap(
        lambda n: st.builds(BitKey, st.just(n),
                            st.integers(0, (1 << n) - 1 if n else 0)))


class TestIndexBlobFormat:
    def test_edge_keys_and_addresses(self):
        entries = {
            BitKey.root(): -1,
            BitKey(1, 1): 0,
            BitKey(7, 0b1010101): -(1 << 63),
            BitKey(9, 0b100000001): (1 << 63) - 1,
            BitKey(256, (1 << 256) - 1): 123456789,
            dk(5): -2,
        }
        blob = _serialize_index(entries)
        assert blob == reference_index_blob(entries)
        assert _deserialize_index(blob) == entries

    @given(st.dictionaries(bit_keys(), st.integers(-(1 << 63), (1 << 63) - 1),
                           max_size=12))
    def test_matches_the_reference_encoder(self, entries):
        assert _serialize_index(entries) == reference_index_blob(entries)

    def test_checkpoint_serialises_the_live_index(self):
        store = loaded_store()
        token = take_checkpoint(store, version=1)
        assert token.index_blob == reference_index_blob(store.index.snapshot())
