"""Tests for CPR-style checkpointing and recovery of the host store (§7)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.keys import BitKey
from repro.core.records import DataValue, MerkleValue, Pointer
from repro.crypto.hashing import decode_fields
from repro.errors import (
    AvailabilityError,
    CheckpointError,
    CorruptPageError,
    RecoveryError,
    StoreError,
    TransientIOError,
)
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
        assert token.index_blob == reference_index_blob(dict(store.index.items()))


# ---------------------------------------------------------------------------
# The decoders recovery had before it resolved keys through a table of the
# index blob's encodings, kept as the oracle: every key is decoded from its
# bytes, except a page's own key when the page carries the entry's encoding
# ---------------------------------------------------------------------------
def reference_deserialize_index(blob: bytes) -> dict[BitKey, int]:
    if len(blob) < 8:
        raise RecoveryError("truncated index blob")
    count = int.from_bytes(blob[:8], "big")
    entries: dict[BitKey, int] = {}
    off = 8
    try:
        for _ in range(count):
            klen = int.from_bytes(blob[off:off + 4], "big")
            off += 4
            if off + klen > len(blob):
                raise RecoveryError("index blob ends mid-entry")
            key = BitKey.from_encoded(blob[off:off + klen])
            off += klen
            address = int.from_bytes(blob[off:off + 8], "big", signed=True)
            off += 8
            entries[key] = address
    except RecoveryError:
        raise
    except Exception as exc:
        raise RecoveryError(f"undecodable index blob: {exc}") from exc
    if off != len(blob):
        raise RecoveryError("trailing bytes in index blob")
    return entries


def reference_decode_value(blob: bytes):
    if blob.startswith(b"DN"):
        return DataValue(None)
    if blob.startswith(b"DV"):
        return DataValue(blob[2:])
    if blob[4:6] == b"MV":
        fields = decode_fields(blob)
        if len(fields) != 3 or fields[0] != b"MV":
            raise ValueError("malformed MerkleValue encoding")
        sides = []
        for raw in fields[1:]:
            if not raw:
                sides.append(None)
                continue
            key = BitKey.from_encoded(raw[:-32])
            sides.append(Pointer(key, raw[-32:]))
        return MerkleValue(sides[0], sides[1])
    raise ValueError(f"unknown value encoding tag: {blob[:2]!r}")


def reference_deserialize(blob: bytes, key: BitKey | None = None) -> LogRecord:
    if len(blob) < 21:
        raise StoreError("truncated log record")
    aux = int.from_bytes(blob[1:9], "big")
    prev = int.from_bytes(blob[9:17], "big", signed=True)
    off = 21 + int.from_bytes(blob[17:21], "big")
    if key is None or blob[21:off] != key.to_bytes():
        key = BitKey.from_encoded(blob[21:off])
    vlen = int.from_bytes(blob[off:off + 4], "big")
    value = reference_decode_value(blob[off + 4:off + 4 + vlen])
    return LogRecord(key, value, aux, prev, tombstone=bool(blob[0] & 1))


def reference_decode(log, address: int, blob: bytes,
                     key: BitKey | None = None) -> LogRecord:
    log.page_decodes += 1
    try:
        return reference_deserialize(blob, key)
    except (StoreError, ValueError) as exc:
        raise CorruptPageError(
            f"page at address {address} failed structural decode: "
            f"{exc}") from exc


def reference_recover(token, device) -> FasterKV:
    """``checkpoint.recover`` over the reference decoders."""
    store = FasterKV(ordered_width=token.ordered_width, device=device)
    entries = reference_deserialize_index(token.index_blob)
    store.index.restore(entries)
    store.log._next_address = token.tail_address
    store.log.head_address = token.tail_address
    store.log.read_only_address = token.tail_address
    live: list[BitKey] = []
    for key, address in entries.items():
        if address not in device:
            raise RecoveryError(f"log page {address} missing from device")
        try:
            page = store.log.fetch(address)
            record = reference_decode(store.log, address, page, key)
        except AvailabilityError:
            raise
        except Exception as exc:
            raise RecoveryError(
                f"log page {address} is undecodable: {exc}") from exc
        if record.key is not key and record.key != key:
            raise RecoveryError(
                f"index entry for {key!r} resolves to a record for {record.key!r}"
            )
        if not record.tombstone and key.length == token.ordered_width:
            live.append(key)
    store.directory.extend(live)
    return store


def outcome(call):
    """``call()``'s result, or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def fields_of(record: LogRecord) -> tuple:
    return (record.key, record.value, record.aux, record.prev_address,
            record.tombstone)


def view_of(store: FasterKV) -> tuple:
    return (dict(store.index.items()), store.directory.keys(),
            store.log.page_decodes, store.log.tail_address)


@st.composite
def checkpointed(draw):
    """A store of data, tombstone and Merkle records under keys of mixed
    length (16 is the ordered width), whose pointers name keys of the store
    and keys outside it; checkpointed, its blob and one page then damaged."""
    keys = draw(st.lists(bit_keys(20), min_size=1, max_size=8, unique=True))
    targets = st.sampled_from(keys) | bit_keys(20)
    pointers = st.none() | st.builds(Pointer, targets, st.binary(min_size=32,
                                                                 max_size=32))
    store = FasterKV(ordered_width=16)
    for key in keys:
        kind = draw(st.sampled_from(("data", "tombstone", "merkle")))
        if kind == "merkle":
            value = MerkleValue(draw(pointers), draw(pointers))
        else:
            value = DataValue(draw(st.binary(max_size=6)))
        store.upsert(key, value, aux=draw(st.integers(0, (1 << 64) - 1)))
        if kind == "tombstone":
            store.delete(key)
    token = take_checkpoint(store, version=1)
    damage = draw(st.sampled_from(("none", "flip", "truncate", "duplicate")))
    at = draw(st.integers(0, 1 << 16))
    blob = token.index_blob
    if damage == "flip":
        pos = at % len(blob)
        bit = draw(st.integers(0, 7))
        blob = blob[:pos] + bytes([blob[pos] ^ (1 << bit)]) + blob[pos + 1:]
    elif damage == "truncate":
        blob = blob[:at % len(blob)]
    elif damage == "duplicate":
        key, address = list(store.index.items())[at % len(store.index)]
        address = draw(st.sampled_from((address, address + 1)))
        blob = ((len(store.index) + 1).to_bytes(8, "big") + blob[8:]
                + reference_index_blob({key: address})[8:])
    token.index_blob = blob
    pages = store.log.device._pages
    address = draw(st.sampled_from(sorted(pages)))
    page = pages[address]
    page_damage = draw(st.sampled_from(("none", "flip", "truncate")))
    pos = draw(st.integers(0, len(page) - 1))
    if page_damage == "flip":
        pages[address] = (page[:pos] + bytes([page[pos] ^ draw(st.integers(1, 255))])
                          + page[pos + 1:])
    elif page_damage == "truncate":
        pages[address] = page[:pos]
    return store, token


def repeated_keys(blob: bytes, parsed) -> tuple | None:
    """The error for a blob the reference parses into fewer keys than its
    count (it kept the last of two entries for one key), else None."""
    count = int.from_bytes(blob[:8], "big")
    if isinstance(parsed, dict) and len(parsed) != count:
        return (RecoveryError, f"index blob repeats a key: {count} entries, "
                               f"{len(parsed)} keys")
    return None


class TestDecodersMatchTheReference:
    """The index parse, each page's decode and the whole store-side recovery,
    against the reference decoders above: equal entries, records and
    recovered stores, or the same exception type and message. The one
    intended difference: a blob that repeats a key is rejected."""

    @settings(max_examples=300, deadline=None)
    @given(case=checkpointed())
    def test_same_entries_records_and_stores(self, case):
        store, token = case
        device, blob = store.log.device, token.index_blob
        reference = outcome(lambda: reference_deserialize_index(blob))
        repeated = repeated_keys(blob, reference)
        encodings: dict[bytes, BitKey] = {}
        entries = outcome(lambda: _deserialize_index(blob, encodings))
        assert entries == (repeated or reference)
        # The table is what from_encoded makes of each encoding...
        assert all(BitKey.from_encoded(encoded) == key
                   for encoded, key in encodings.items())
        if isinstance(entries, dict):  # ...as the index's own key object
            assert {id(key) for key in encodings.values()} \
                == {id(key) for key in entries}
        named = reference if isinstance(reference, dict) else {}
        by_address = {address: key for key, address in named.items()}
        for address, page in device._pages.items():
            key = by_address.get(address)
            assert outcome(lambda: fields_of(
                LogRecord.deserialize(page, encodings))) \
                == outcome(lambda: fields_of(reference_deserialize(page, key)))
        expected = outcome(lambda: view_of(reference_recover(token, device)))
        assert outcome(lambda: view_of(recover(token, device))) \
            == (repeated or expected)

    def test_a_repeated_entry_is_rejected_not_folded(self):
        store = loaded_store()
        token = take_checkpoint(store, version=1)
        entry = reference_index_blob({dk(4): store.index.lookup(dk(4))})[8:]
        token.index_blob = ((21).to_bytes(8, "big") + token.index_blob[8:]
                            + entry)
        assert len(reference_deserialize_index(token.index_blob)) == 20
        with pytest.raises(RecoveryError,
                           match="repeats a key: 21 entries, 20 keys"):
            recover(token, store.log.device)

    def test_a_non_canonical_index_encoding_names_an_equal_key(self):
        """``from_encoded`` ignores padding bits, so a rotted blob can spell
        a key in bytes its page does not use: the page's key then misses
        the table, decodes to an equal key, and recovery accepts it."""
        store = FasterKV(ordered_width=12)
        key = BitKey.data_key(0xABC, 12)
        store.upsert(key, DataValue(b"v"))
        token = take_checkpoint(store, version=1)
        canonical = key.to_bytes()
        assert canonical[-1] & 0x0F == 0
        rotted = canonical[:-1] + bytes([canonical[-1] | 0x01])
        token.index_blob = token.index_blob.replace(canonical, rotted)
        encodings: dict[bytes, BitKey] = {}
        assert _deserialize_index(token.index_blob, encodings) == {key: 0}
        assert list(encodings) == [rotted]
        recovered = recover(token, store.log.device)
        assert recovered.read(key) == (DataValue(b"v"), 0)
        assert recovered.directory.keys() == [key]
