"""Unit and property tests for the bit-string key algebra (§4.2)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.keys import KEY_BITS, BitKey


def bk(s: str) -> BitKey:
    return BitKey.from_bits_string(s)


def covers(ancestor: BitKey, key: BitKey) -> bool:
    """``ancestor`` is ``key`` or a proper prefix of it."""
    return ancestor == key or ancestor.is_proper_ancestor_of(key)


def proper_prefixes(key: BitKey) -> list[BitKey]:
    """Every proper ancestor, nearest first, ending with the root."""
    return [key.prefix(n) for n in range(key.length - 1, -1, -1)]


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------
class TestConstruction:
    def test_root_is_empty_string(self):
        assert BitKey.root().length == 0
        assert BitKey.root().is_root
        assert BitKey.root().to_bits_string() == ""

    def test_from_bits_string_roundtrip(self):
        assert bk("0101").to_bits_string() == "0101"
        assert bk("").is_root

    def test_from_bits_string_rejects_junk(self):
        with pytest.raises(ValueError):
            bk("012")

    def test_bits_must_fit_length(self):
        with pytest.raises(ValueError):
            BitKey(2, 4)  # 4 needs 3 bits

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            BitKey(-1, 0)

    def test_data_key_width(self):
        key = BitKey.data_key(5, width=16)
        assert key.length == 16
        assert key.bits == 5

    def test_data_key_range_check(self):
        with pytest.raises(ValueError):
            BitKey.data_key(1 << 16, width=16)
        with pytest.raises(ValueError):
            BitKey.data_key(-1, width=16)

    def test_default_width_is_256(self):
        assert BitKey.data_key(1).length == KEY_BITS

    def test_from_bytes_full_width(self):
        key = BitKey.from_bytes(b"\xff\x00")
        assert key.length == 16
        assert key.to_bits_string() == "1111111100000000"

    def test_from_bytes_partial_width(self):
        key = BitKey.from_bytes(b"\xf0", length=4)
        assert key.to_bits_string() == "1111"

    def test_from_bytes_insufficient(self):
        with pytest.raises(ValueError):
            BitKey.from_bytes(b"\x00", length=16)

    def test_immutable(self):
        key = bk("01")
        for slot in BitKey.__slots__:
            with pytest.raises(AttributeError):
                setattr(key, slot, 5)

    def test_pickle_and_deepcopy_rebuild_an_equal_key(self):
        import copy
        import pickle
        for key in (BitKey.root(), bk("01"), BitKey.data_key(2**200 + 7)):
            for clone in (pickle.loads(pickle.dumps(key)), copy.deepcopy(key),
                          BitKey.from_encoded(key.to_bytes())):
                assert clone == key and hash(clone) == hash(key)
                assert {key: 1}[clone] == 1


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------
class TestStructure:
    def test_bit_indexing_msb_first(self):
        key = bk("0110")
        assert [key.bit(i) for i in range(4)] == [0, 1, 1, 0]

    def test_bit_out_of_range(self):
        with pytest.raises(IndexError):
            bk("01").bit(2)

    def test_children(self):
        assert bk("01").child(0) == bk("010")
        assert bk("01").child(1) == bk("011")

    def test_child_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            bk("01").child(2)

    def test_parent(self):
        assert bk("010").parent() == bk("01")
        assert bk("0").parent().is_root

    def test_root_has_no_parent(self):
        with pytest.raises(ValueError):
            BitKey.root().parent()

    def test_prefix(self):
        assert bk("010110").prefix(3) == bk("010")
        assert bk("010110").prefix(0).is_root
        assert bk("010110").prefix(6) == bk("010110")

    def test_prefix_range(self):
        with pytest.raises(ValueError):
            bk("01").prefix(3)


# ---------------------------------------------------------------------------
# Relationships (the §4.2 algebra)
# ---------------------------------------------------------------------------
class TestRelationships:
    def test_ancestor(self):
        assert covers(bk("01"), bk("0101"))
        assert covers(bk("01"), bk("01"))
        assert not covers(bk("01"), bk("00"))
        assert not covers(bk("0101"), bk("01"))

    def test_root_is_ancestor_of_everything(self):
        assert BitKey.root().is_proper_ancestor_of(bk("1"))
        assert covers(BitKey.root(), BitKey.root())

    def test_proper_ancestor(self):
        assert bk("01").is_proper_ancestor_of(bk("0101"))
        assert not bk("01").is_proper_ancestor_of(bk("01"))

    def test_direction_from_paper_example(self):
        # dir(1011, 1) = 0 (the paper's example in §4.2)
        assert bk("1011").direction_from(bk("1")) == 0

    def test_direction_from(self):
        assert bk("0101").direction_from(BitKey.root()) == 0
        assert bk("1101").direction_from(BitKey.root()) == 1
        assert bk("0101").direction_from(bk("010")) == 1

    def test_direction_requires_proper_ancestor(self):
        with pytest.raises(ValueError):
            bk("01").direction_from(bk("01"))
        with pytest.raises(ValueError):
            bk("01").direction_from(bk("11"))

    def test_lca(self):
        assert bk("0101").lca(bk("0110")) == bk("01")
        assert bk("0101").lca(bk("1101")).is_root
        assert bk("0101").lca(bk("0101")) == bk("0101")
        assert bk("0101").lca(bk("01")) == bk("01")

    def test_ancestors_order(self):
        assert proper_prefixes(bk("010")) == [bk("01"), bk("0"), BitKey.root()]
        assert proper_prefixes(BitKey.root()) == []


# ---------------------------------------------------------------------------
# Serialization and ordering
# ---------------------------------------------------------------------------
class TestSerialization:
    def test_roundtrip(self):
        for s in ("", "0", "1", "0101", "1" * 255):
            key = bk(s)
            assert BitKey.from_encoded(key.to_bytes()) == key

    def test_length_disambiguates(self):
        assert bk("0").to_bytes() != bk("00").to_bytes()

    def test_truncated_encoding_rejected(self):
        with pytest.raises(ValueError):
            BitKey.from_encoded(b"\x00")
        with pytest.raises(ValueError):
            BitKey.from_encoded(bk("0101").to_bytes() + b"x")

    def test_lexicographic_order(self):
        assert bk("0") < bk("1")
        assert bk("01") < bk("010")   # prefix sorts first
        assert bk("0011") < bk("01")
        assert sorted([bk("1"), bk("0101"), bk("00"), bk("011")]) == [
            bk("00"), bk("0101"), bk("011"), bk("1")
        ]

    def test_hash_eq_consistency(self):
        assert hash(bk("0101")) == hash(BitKey(4, 5))
        assert bk("0101") == BitKey(4, 5)
        assert bk("0101") != bk("00101")


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------
keys = st.builds(
    lambda bits: BitKey.from_bits_string(bits),
    st.text(alphabet="01", max_size=64),
)


class TestProperties:
    @given(keys)
    def test_encode_roundtrip(self, key):
        assert BitKey.from_encoded(key.to_bytes()) == key

    @given(keys)
    def test_encoding_is_length_then_left_aligned_bits(self, key):
        nbytes = (key.length + 7) // 8
        padded = key.bits << (8 * nbytes - key.length)
        assert key.to_bytes() == (key.length.to_bytes(2, "big")
                                  + padded.to_bytes(nbytes, "big"))

    @given(keys, keys)
    def test_ancestry_matches_string_prefixes(self, a, b):
        sa, sb = a.to_bits_string(), b.to_bits_string()
        proper = len(sa) < len(sb) and sb.startswith(sa)
        assert a.is_proper_ancestor_of(b) == proper
        if proper:
            assert b.direction_from(a) == int(sb[len(sa)]) == b.bit(a.length)
        else:
            with pytest.raises(ValueError):
                b.direction_from(a)

    @given(keys, keys)
    def test_lca_is_common_ancestor(self, a, b):
        m = a.lca(b)
        assert covers(m, a) and covers(m, b)

    @given(keys, keys)
    def test_lca_is_deepest(self, a, b):
        m = a.lca(b)
        if m.length < min(a.length, b.length):
            # One level deeper on either side must not cover both.
            for side in (0, 1):
                child = m.child(side)
                assert not (covers(child, a) and covers(child, b))

    @given(keys, keys)
    def test_lca_commutes(self, a, b):
        assert a.lca(b) == b.lca(a)

    @given(keys)
    def test_child_parent_inverse(self, key):
        for side in (0, 1):
            assert key.child(side).parent() == key
            assert key.child(side).direction_from(key) == side

    @given(keys, keys)
    def test_order_total_and_consistent(self, a, b):
        assert (a < b) + (b < a) + (a == b) == 1

    @given(keys, keys)
    def test_order_matches_string_order(self, a, b):
        assert (a < b) == (a.to_bits_string() < b.to_bits_string())

    @given(keys)
    def test_ancestors_are_prefixes(self, key):
        for anc in proper_prefixes(key):
            assert anc.is_proper_ancestor_of(key)
            assert key.to_bits_string().startswith(anc.to_bits_string())
