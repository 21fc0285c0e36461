"""Tests for hashing, multiset hashing, PRFs, and MACs."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.crypto.hashing import (
    DIGEST_SIZE,
    decode_fields,
    encode_fields,
    hash_bytes,
    hash_fields,
    hash_key_to_data_key_bytes,
)
from repro.crypto.mac import MacKey
from repro.crypto.multiset import EMPTY_HASH, MultisetHasher, aggregate
from repro.crypto.prf import PRF_SIZE, Prf
from repro.errors import SignatureError
from repro.instrument import COUNTERS


# ---------------------------------------------------------------------------
# Field encoding
# ---------------------------------------------------------------------------
class TestFieldEncoding:
    def test_roundtrip(self):
        fields = [b"", b"a", b"hello world", b"\x00" * 100]
        assert decode_fields(encode_fields(*fields)) == fields

    def test_no_concatenation_ambiguity(self):
        assert encode_fields(b"ab", b"c") != encode_fields(b"a", b"bc")

    def test_decode_rejects_truncation(self):
        blob = encode_fields(b"hello")
        with pytest.raises(ValueError):
            decode_fields(blob[:-1])
        with pytest.raises(ValueError):
            decode_fields(blob[:2])

    @given(st.lists(st.binary(max_size=64), max_size=8))
    def test_roundtrip_property(self, fields):
        assert decode_fields(encode_fields(*fields)) == fields


# ---------------------------------------------------------------------------
# Hashing
# ---------------------------------------------------------------------------
class TestHashing:
    def test_digest_size(self):
        assert len(hash_bytes(b"x")) == DIGEST_SIZE

    def test_deterministic(self):
        assert hash_bytes(b"abc") == hash_bytes(b"abc")
        assert hash_bytes(b"abc") != hash_bytes(b"abd")

    def test_hash_fields_separates(self):
        assert hash_fields(b"ab", b"c") != hash_fields(b"a", b"bc")

    def test_counters_incremented(self):
        before = COUNTERS.merkle_hashes
        hash_bytes(b"x" * 100)
        assert COUNTERS.merkle_hashes == before + 1
        assert COUNTERS.merkle_hash_bytes >= 100

    def test_application_key_mapping(self):
        assert len(hash_key_to_data_key_bytes(b"user@example.com")) == 32
        already = b"k" * 32
        assert hash_key_to_data_key_bytes(already) == already


# ---------------------------------------------------------------------------
# PRF
# ---------------------------------------------------------------------------
class TestPrf:
    def test_output_size(self):
        prf = Prf.generate()
        assert len(prf.evaluate(b"x")) == PRF_SIZE

    def test_keyed(self):
        a, b = Prf.generate(), Prf.generate()
        assert a.evaluate(b"x") != b.evaluate(b"x")

    def test_deterministic_under_key(self):
        prf = Prf(b"k" * 32)
        assert prf.evaluate(b"x") == Prf(b"k" * 32).evaluate(b"x")

    def test_key_length_bounds(self):
        with pytest.raises(ValueError):
            Prf(b"short")

    def test_int_form(self):
        prf = Prf.generate()
        assert prf.evaluate_int(b"m") == int.from_bytes(prf.evaluate(b"m"), "big")


# ---------------------------------------------------------------------------
# Multiset hashing (the §5.1 primitive)
# ---------------------------------------------------------------------------
@pytest.fixture
def prf():
    return Prf(b"0" * 32)


class TestMultisetHash:
    def test_empty(self, prf):
        assert MultisetHasher(prf).value == EMPTY_HASH

    def test_order_independence(self, prf):
        a = MultisetHasher(prf)
        b = MultisetHasher(prf)
        for x in (b"x", b"y", b"z"):
            a.insert(x)
        for x in (b"z", b"x", b"y"):
            b.insert(x)
        assert a.value == b.value

    def test_multiset_sensitivity_add_combiner(self, prf):
        """The 'add' combiner distinguishes multiplicities — the property
        plain XOR lacks and double-add detection needs."""
        once = MultisetHasher(prf, combiner="add")
        once.insert(b"x")
        twice = MultisetHasher(prf, combiner="add")
        twice.insert(b"x")
        twice.insert(b"x")
        assert once.value != twice.value
        assert twice.value != EMPTY_HASH

    def test_xor_combiner_cancels_duplicates(self, prf):
        """Documents why XOR alone is insufficient (kept for ablation)."""
        twice = MultisetHasher(prf, combiner="xor")
        twice.insert(b"x")
        twice.insert(b"x")
        assert twice.value == EMPTY_HASH

    def test_aggregate_matches_pairwise(self, prf):
        hashers = [MultisetHasher(prf) for _ in range(4)]
        total = MultisetHasher(prf)
        for i, h in enumerate(hashers):
            h.insert(b"e%d" % i)
            total.insert(b"e%d" % i)
        assert aggregate([h.value for h in hashers]) == total.value

    def test_insert_entry_uses_canonical_fields(self, prf):
        a = MultisetHasher(prf)
        b = MultisetHasher(prf)
        a.insert_entry(b"ab", b"c")
        b.insert_entry(b"a", b"bc")
        assert a.value != b.value

    def test_bad_combiner_rejected(self, prf):
        with pytest.raises(ValueError):
            MultisetHasher(prf, combiner="mult")
        with pytest.raises(ValueError):
            aggregate([1], combiner="mult")

    def test_spawn_is_fresh_same_key(self, prf):
        h = MultisetHasher(prf)
        h.insert(b"x")
        h2 = h.spawn()
        assert h2.value == EMPTY_HASH
        h2.insert(b"x")
        h3 = MultisetHasher(prf)
        h3.insert(b"x")
        assert h2.value == h3.value

    @given(st.lists(st.binary(min_size=1, max_size=16), max_size=20))
    def test_permutation_invariance(self, elements):
        prf = Prf(b"1" * 32)
        import random
        shuffled = list(elements)
        random.Random(7).shuffle(shuffled)
        a = MultisetHasher(prf)
        b = MultisetHasher(prf)
        for x in elements:
            a.insert(x)
        for x in shuffled:
            b.insert(x)
        assert a.value == b.value

    @given(st.lists(st.binary(min_size=1, max_size=8), min_size=1, max_size=10),
           st.lists(st.binary(min_size=1, max_size=8), min_size=1, max_size=10))
    def test_different_multisets_differ(self, xs, ys):
        from collections import Counter
        if Counter(xs) == Counter(ys):
            return
        prf = Prf(b"2" * 32)
        a = MultisetHasher(prf)
        b = MultisetHasher(prf)
        for x in xs:
            a.insert(x)
        for y in ys:
            b.insert(y)
        assert a.value != b.value


# ---------------------------------------------------------------------------
# MACs
# ---------------------------------------------------------------------------
class TestMac:
    def test_sign_verify_roundtrip(self):
        key = MacKey.generate()
        tag = key.sign(b"msg", b"extra")
        key.verify(tag, b"msg", b"extra")  # no raise

    def test_verify_rejects_modified_fields(self):
        key = MacKey.generate()
        tag = key.sign(b"msg")
        with pytest.raises(SignatureError):
            key.verify(tag, b"msG")

    def test_verify_rejects_field_shuffle(self):
        key = MacKey.generate()
        tag = key.sign(b"ab", b"c")
        with pytest.raises(SignatureError):
            key.verify(tag, b"a", b"bc")

    def test_keys_are_independent(self):
        a, b = MacKey.generate(), MacKey.generate()
        tag = a.sign(b"m")
        with pytest.raises(SignatureError):
            b.verify(tag, b"m")

    def test_minimum_key_size(self):
        with pytest.raises(ValueError):
            MacKey(b"tiny")

    def test_mac_counter(self):
        before = COUNTERS.mac_ops
        key = MacKey.generate()
        key.verify(key.sign(b"m"), b"m")
        assert COUNTERS.mac_ops == before + 2
