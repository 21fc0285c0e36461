"""Tests for record values and the 64-bit aux word (§4.2, §7)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.keys import BitKey
from repro.core.records import (
    MAX_EPOCH,
    MAX_SLOT,
    MAX_TIMESTAMP,
    MAX_VERIFIER,
    Aux,
    DataValue,
    MerkleValue,
    Pointer,
    Protection,
    decode_value,
    encode_value,
    entry_fields,
    value_hash,
)


def bk(s):
    return BitKey.from_bits_string(s)


class TestDataValue:
    def test_payload(self):
        assert DataValue(b"x").payload == b"x"
        assert DataValue(b"x").encode() == b"DVx"

    def test_tombstone(self):
        assert DataValue(None).payload is None
        assert DataValue(None).encode() == b"DN"

    def test_type_check(self):
        with pytest.raises(TypeError):
            DataValue("not bytes")

    def test_equality(self):
        assert DataValue(b"x") == DataValue(b"x")
        assert DataValue(b"x") != DataValue(b"y")
        assert DataValue(None) != DataValue(b"")

    def test_encoding_distinguishes_tombstone_from_empty(self):
        assert encode_value(DataValue(None)) != encode_value(DataValue(b""))


class TestMerkleValue:
    def test_empty(self):
        assert MerkleValue() == MerkleValue(None, None)
        assert MerkleValue().pointer(0) is None
        assert MerkleValue().pointer(1) is None

    def test_with_pointer_immutability(self):
        ptr = Pointer(bk("01"), b"\x01" * 32)
        original = MerkleValue()
        updated = original.with_pointer(0, ptr)
        assert original.pointer(0) is None
        assert updated.pointer(0) == ptr

    def test_pointer_side_validation(self):
        with pytest.raises(ValueError):
            MerkleValue().pointer(2)
        with pytest.raises(ValueError):
            MerkleValue().with_pointer(7, None)

    def test_equality(self):
        ptr = Pointer(bk("01"), b"\x01" * 32)
        assert MerkleValue(ptr, None) == MerkleValue(ptr, None)
        assert MerkleValue(ptr, None) != MerkleValue(None, ptr)

    def test_value_hash_depends_on_sides(self):
        ptr = Pointer(bk("01"), b"\x01" * 32)
        assert value_hash(MerkleValue(ptr, None)) != value_hash(MerkleValue(None, ptr))


class TestValueCodec:
    def test_data_roundtrip(self):
        for v in (DataValue(b"hello"), DataValue(b""), DataValue(None)):
            assert decode_value(encode_value(v)) == v

    def test_merkle_roundtrip(self):
        ptr0 = Pointer(bk("0101"), b"\xab" * 32)
        ptr1 = Pointer(bk("11"), b"\xcd" * 32)
        for v in (MerkleValue(ptr0, ptr1), MerkleValue(None, ptr1),
                  MerkleValue(ptr0, None), MerkleValue(None, None)):
            assert decode_value(encode_value(v)) == v

    def test_derived_values_never_reuse_their_source_encoding(self):
        """``with_pointer`` / ``with_hash`` build new values; whatever an
        encoding memo may hold for the source must not leak into them."""
        ptr0 = Pointer(bk("0101"), b"\xab" * 32)
        ptr1 = Pointer(bk("11"), b"\xcd" * 32)
        source = MerkleValue(ptr0, ptr1)
        before = encode_value(source)           # source now encoded once
        rehashed = ptr1.with_hash(b"\xee" * 32)
        for derived, fresh in (
                (source.with_pointer(1, rehashed), MerkleValue(ptr0, rehashed)),
                (source.with_pointer(0, None), MerkleValue(None, ptr1))):
            assert encode_value(derived) == encode_value(fresh) != before
            assert value_hash(derived) == value_hash(fresh) != value_hash(source)
            assert decode_value(encode_value(derived)) == derived == fresh
        assert encode_value(source) == before   # and the source is untouched
        assert decode_value(encode_value(source)) == source
        assert (ptr1.key, ptr1.hash) == (bk("11"), b"\xcd" * 32)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            decode_value(b"ZZgarbage")

    @given(st.binary(max_size=64))
    def test_data_roundtrip_property(self, payload):
        assert decode_value(encode_value(DataValue(payload))) == DataValue(payload)

    def test_kind_domain_separation(self):
        """A data value can never encode identically to a merkle value."""
        data = encode_value(DataValue(b"MV"))
        assert decode_value(data) == DataValue(b"MV")


class TestAux:
    def test_merkle_roundtrip(self):
        assert Aux.unpack(Aux.merkle().pack()).state is Protection.MERKLE

    def test_deferred_roundtrip(self):
        aux = Aux.unpack(Aux.deferred(12345, 678).pack())
        assert aux.state is Protection.DEFERRED
        assert aux.timestamp == 12345
        assert aux.epoch == 678

    def test_cached_roundtrip(self):
        aux = Aux.unpack(Aux.cached(31, 999).pack())
        assert aux.state is Protection.CACHED
        assert aux.verifier_id == 31
        assert aux.slot == 999

    def test_is_64_bits(self):
        for aux in (Aux.merkle(), Aux.deferred(MAX_TIMESTAMP, MAX_EPOCH),
                    Aux.cached(MAX_VERIFIER, MAX_SLOT)):
            assert 0 <= aux.pack() < (1 << 64)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            Aux.deferred(MAX_TIMESTAMP + 1, 0)
        with pytest.raises(ValueError):
            Aux.deferred(0, MAX_EPOCH + 1)
        with pytest.raises(ValueError):
            Aux.cached(MAX_VERIFIER + 1, 0)
        with pytest.raises(ValueError):
            Aux.cached(0, MAX_SLOT + 1)
        with pytest.raises(ValueError):
            Aux.unpack(1 << 64)

    def test_equality_via_pack(self):
        assert Aux.deferred(1, 2) == Aux.deferred(1, 2)
        assert Aux.deferred(1, 2) != Aux.deferred(2, 1)
        assert Aux.merkle() != Aux.deferred(0, 0)

    @given(st.integers(0, MAX_TIMESTAMP), st.integers(0, MAX_EPOCH))
    def test_deferred_roundtrip_property(self, ts, epoch):
        aux = Aux.unpack(Aux.deferred(ts, epoch).pack())
        assert (aux.timestamp, aux.epoch) == (ts, epoch)

    @given(st.integers(0, MAX_VERIFIER), st.integers(0, MAX_SLOT))
    def test_cached_roundtrip_property(self, vid, slot):
        aux = Aux.unpack(Aux.cached(vid, slot).pack())
        assert (aux.verifier_id, aux.slot) == (vid, slot)


class TestEntryFields:
    def test_identity_includes_all_components(self):
        base = entry_fields(bk("0101"), DataValue(b"v"), 7, 3)
        assert entry_fields(bk("0101"), DataValue(b"v"), 7, 3) == base
        assert entry_fields(bk("0111"), DataValue(b"v"), 7, 3) != base
        assert entry_fields(bk("0101"), DataValue(b"w"), 7, 3) != base
        assert entry_fields(bk("0101"), DataValue(b"v"), 8, 3) != base
        assert entry_fields(bk("0101"), DataValue(b"v"), 7, 4) != base
