"""Tests for the sparse Merkle encoding and bulk build (§4.1–4.2,
Example 4.1)."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro import FastVer, FastVerConfig, new_client
from repro.core.hostmirror import VerifierMirror
from repro.core.keys import BitKey
from repro.core.records import DataValue, MerkleValue, Pointer, value_hash
from repro.errors import StoreError
from repro.instrument import COUNTERS, Counters
from repro.merkle.sparse import (
    ABSENT_NULL,
    ABSENT_SPLIT,
    FOUND,
    build_tree,
    check_invariants,
    lookup,
    merkle_parent_of,
    path_to_root,
)
from repro.store.faster import FasterKV


def dk(i, width=8):
    return BitKey.data_key(i, width)


def build_db(keys, width=8):
    """Build a tree and return (source function, root value, records)."""
    items = sorted((dk(k, width), DataValue(b"v%d" % k)) for k in keys)
    merkle, root = build_tree(items)
    records = dict(items)
    records.update(merkle)

    def source(key):
        return records.get(key)

    return source, root, records


# ---------------------------------------------------------------------------
# Bulk build
# ---------------------------------------------------------------------------
class TestBuildTree:
    def test_empty(self):
        merkle, root = build_tree([])
        assert merkle == {}
        assert root == MerkleValue()

    def test_single_key(self):
        items = [(dk(5), DataValue(b"v"))]
        merkle, root = build_tree(items)
        assert merkle == {}
        ptr = root.pointer(0)  # 5 = 00000101, starts with 0
        assert ptr.key == dk(5)
        assert ptr.hash == value_hash(DataValue(b"v"))

    def test_invariants_hold(self):
        source, root, records = build_db(range(50))
        n = check_invariants(source, root, data_width=8)
        assert n >= 50

    def test_patricia_minimality(self):
        """Internal nodes (non-root) always branch: the record count is at
        most 2*keys - 1 plus the root."""
        source, root, records = build_db(range(64))
        merkle_count = sum(1 for k in records if k.length < 8)
        assert merkle_count <= 63

    def test_requires_sorted_input(self):
        items = [(dk(5), DataValue(b"a")), (dk(1), DataValue(b"b"))]
        with pytest.raises(ValueError):
            build_tree(items)

    def test_requires_distinct_keys(self):
        items = [(dk(1), DataValue(b"a")), (dk(1), DataValue(b"b"))]
        with pytest.raises(ValueError):
            build_tree(items)

    @pytest.mark.parametrize("keys, message", [
        ([dk(5), dk(1)], "sorted by key"),
        ([dk(1), dk(3), dk(3)], "distinct keys"),
        ([dk(3), dk(1), dk(1)], "sorted by key"),
        ([dk(1, 4), dk(200)], "one width"),
        ([dk(1), BitKey(9, 200)], "one width"),
    ])
    def test_bad_input_messages(self, keys, message):
        with pytest.raises(ValueError, match=message):
            build_tree([(k, DataValue(b"v")) for k in keys])

    @given(st.sets(st.integers(0, 255), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_invariants_property(self, keys):
        source, root, records = build_db(keys)
        check_invariants(source, root, data_width=8)


def linear_split_build_tree(items, counters=None):
    """Reference bulk builder: each slice's LCA from ``BitKey.lca`` and its
    split found by a linear scan of ``bit()``, the straightforward reading
    of the Patricia construction that :func:`build_tree` must match."""
    keys = [k for k, _ in items]
    values = dict(items)
    records = {}

    def build_slice(lo, hi):
        if hi - lo == 1:
            return Pointer(keys[lo], value_hash(values[keys[lo]], counters=counters))
        node = keys[lo].lca(keys[hi - 1])
        split = lo
        while keys[split].bit(node.length) == 0:
            split += 1
        value = MerkleValue(build_slice(lo, split), build_slice(split, hi))
        records[node] = value
        return Pointer(node, value_hash(value, counters=counters))

    if not keys:
        return records, MerkleValue(None, None)
    split = 0
    while split < len(keys) and keys[split].bit(0) == 0:
        split += 1
    ptr0 = build_slice(0, split) if split > 0 else None
    ptr1 = build_slice(split, len(keys)) if split < len(keys) else None
    return records, MerkleValue(ptr0, ptr1)


@st.composite
def sorted_key_sets(draw):
    """Distinct sorted ``bits`` at one width (4-32), in the shapes that
    stress the splits: any set, one key, two adjacent keys, every key on
    one side of the root, and a dense run."""
    width = draw(st.integers(4, 32))
    top = (1 << width) - 1
    half = 1 << (width - 1)
    shape = draw(st.sampled_from(["any", "one", "adjacent", "one_side", "dense"]))
    if shape == "one":
        bits = {draw(st.integers(0, top))}
    elif shape == "adjacent":
        low = draw(st.integers(0, top - 1))
        bits = {low, low + 1}
    elif shape == "one_side":
        side = draw(st.sampled_from([0, half]))
        bits = {side + b for b in draw(
            st.sets(st.integers(0, half - 1), min_size=1, max_size=40))}
    elif shape == "dense":
        start = draw(st.integers(0, top))
        bits = set(range(start, min(start + draw(st.integers(1, 70)), top + 1)))
    else:
        bits = draw(st.sets(st.integers(0, top), max_size=60))
    return width, sorted(bits)


class TestBuildTreeDifferential:
    @given(sorted_key_sets())
    @settings(max_examples=300, deadline=None)
    def test_matches_linear_split_builder(self, drawn):
        width, bits = drawn
        items = [(BitKey(width, b), DataValue(b"%x" % b)) for b in bits]
        outcomes = []
        for builder in (build_tree, linear_split_build_tree):
            counters = Counters()
            records, root = builder(items, counters)
            outcomes.append((
                [(k, v.encode()) for k, v in records.items()],
                root.encode(),
                counters.merkle_hashes,
                counters.merkle_hash_bytes,
            ))
        assert outcomes[0] == outcomes[1]
        # One hash per leaf and per internal node below the root.
        assert outcomes[0][2] == len(bits) + len(outcomes[0][0])


# ---------------------------------------------------------------------------
# Navigation
# ---------------------------------------------------------------------------
class TestLookup:
    def test_found(self):
        source, root_value, records = build_db([1, 2, 3, 200])

        def src(key):
            return root_value if key.is_root else source(key)

        result = lookup(src, dk(2))
        assert result.kind == FOUND
        assert result.path[0].is_root
        assert result.terminal == result.path[-1]

    def test_absent_null_side(self):
        source, root_value, records = build_db([1, 2])  # all start with 0

        def src(key):
            return root_value if key.is_root else source(key)

        result = lookup(src, dk(200))  # 11001000: right of root is empty
        assert result.kind == ABSENT_NULL
        assert result.terminal.is_root

    def test_absent_split(self):
        source, root_value, records = build_db([0b00000001, 0b00000010])

        def src(key):
            return root_value if key.is_root else source(key)

        # 0b01000000 shares only the top bit: pointer bypasses it.
        result = lookup(src, dk(0b01000000))
        assert result.kind == ABSENT_SPLIT
        assert result.bypass is not None
        assert not result.bypass.is_proper_ancestor_of(dk(0b01000000))

    def test_missing_record_raises(self):
        def src(key):
            return None

        with pytest.raises(StoreError):
            lookup(src, dk(1))

    def test_parent_and_path(self):
        source, root_value, records = build_db(range(16))

        def src(key):
            return root_value if key.is_root else source(key)

        parent = merkle_parent_of(src, dk(5))
        assert parent.is_proper_ancestor_of(dk(5))
        path = path_to_root(src, dk(5))
        assert path[0].is_root
        assert path[-1] == parent

    def test_path_to_root_of_root(self):
        assert path_to_root(lambda k: None, BitKey.root()) == []

    def test_parent_of_unreachable_key_raises(self):
        src = rooted_source([1, 2])
        for absent in (dk(200), dk(0b01000000)):    # null side, bypassed
            with pytest.raises(StoreError):
                merkle_parent_of(src, absent)
            with pytest.raises(StoreError):
                path_to_root(src, absent)
        with pytest.raises(StoreError):
            merkle_parent_of(src, BitKey.root())


# ---------------------------------------------------------------------------
# A run of lookups: each resumes where the previous one left the tree
# ---------------------------------------------------------------------------
def rooted_source(keys):
    """A record source over ``keys`` that also serves the root record."""
    source, root_value, _records = build_db(keys)
    return lambda key: root_value if key.is_root else source(key)


def same_answer(resumed, fresh):
    """Equal field for field, apart from how much was taken over."""
    return replace(resumed, kept=0) == fresh


class TestResumedLookup:
    @given(st.sets(st.integers(0, 255), min_size=1, max_size=40),
           st.lists(st.integers(0, 255), min_size=1, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_resumed_equals_fresh_for_any_key_order(self, keys, probes):
        """Field for field, whatever the previous key was and however its
        lookup ended; what the resumed walk took over is a prefix of the
        previous path, and it probed nothing above the last kept node."""
        source, probed = rooted_source(keys), []

        def src(key):
            probed.append(key)
            return source(key)

        prev = None
        for probe in probes:
            fresh = lookup(src, dk(probe))
            assert fresh.kept == 0
            del probed[:]
            resumed = lookup(src, dk(probe), prev)
            assert same_answer(resumed, fresh)
            if prev is None:
                assert resumed.kept == 0 and probed == fresh.path
            else:
                kept = resumed.kept
                assert 1 <= kept <= len(prev.path)
                assert resumed.path[:kept] == prev.path[:kept]
                assert probed == resumed.path[kept - 1:]
            prev = resumed

    @pytest.mark.parametrize("first,kind", [
        (0b00000001, FOUND), (0b11001000, ABSENT_NULL),
        (0b01000000, ABSENT_SPLIT)])
    def test_resumes_from_each_kind_of_predecessor(self, first, kind):
        src = rooted_source([0b00000001, 0b00000010, 0b00000111, 0b00100000])
        prev = lookup(src, dk(first))
        assert prev.kind == kind
        for probe in (0b00000010, 0b00000011, 0b00100000, 0b11111111,
                      0b01111111, first):
            assert same_answer(lookup(src, dk(probe), prev),
                               lookup(src, dk(probe)))

    def test_previous_result_is_left_untouched(self):
        src = rooted_source(range(32))
        prev = lookup(src, dk(5))
        path = list(prev.path)
        resumed = lookup(src, dk(200), prev)
        assert prev.path == path and resumed.path is not prev.path


class TestChainInCost:
    """One store read per uncached chain node plus one for the key; the
    next key of a sorted run pays only from the fork down."""

    def _cold_db(self):
        db = FastVer(FastVerConfig(key_width=16, cache_capacity=32),
                     items=[(k * 7, b"v%d" % k) for k in range(60)])
        client = new_client(1)
        db.register_client(client)
        db.verify()
        db.flush_caches()           # every chain node below the root: cold
        return db, client

    def _watch(self, monkeypatch):
        import repro.core.fastver as core
        seen = {"read": [], "probe": [], "touch": []}
        read_record, touch = FasterKV.read_record, VerifierMirror.touch
        walk = core.lookup

        def traced_read(store, key):
            seen["read"].append(key)
            return read_record(store, key)

        def traced_touch(mirror, key):
            seen["touch"].append(key)
            return touch(mirror, key)

        def traced_lookup(source, key, prev=None):
            def probing(node):
                seen["probe"].append(node)
                return source(node)
            return walk(probing, key, prev)

        monkeypatch.setattr(FasterKV, "read_record", traced_read)
        monkeypatch.setattr(VerifierMirror, "touch", traced_touch)
        monkeypatch.setattr(core, "lookup", traced_lookup)
        return seen

    def test_one_cold_get_reads_each_record_once(self, monkeypatch):
        db, client = self._cold_db()
        key = db.data_key(21 * 7)
        path = lookup(db.host_value, key).path
        assert len(path) > 2
        seen = self._watch(monkeypatch)
        writes, reads = COUNTERS.store_writes, COUNTERS.store_reads
        assert db.get(client, 21 * 7).payload == b"v21"
        assert seen["probe"] == path
        # The op's own read of the key, then each chain node below the
        # pinned root exactly once — by the walk, never again by the chain.
        assert seen["read"] == [key] + path[1:]
        # `store_reads` ticks at the index probe and at the log slot: twice
        # per read, twice per write (all in-place upserts here).
        assert COUNTERS.store_reads - reads == \
            2 * len(path) + 2 * (COUNTERS.store_writes - writes)

    def test_records_that_came_off_the_device_are_read_again(
            self, monkeypatch):
        """Fault plans fire on the n-th device read, so once the log has
        pages on the device every read goes back to the store and the n-th
        stays the n-th; records are handed on only while it has none."""
        db, client = self._cold_db()
        db.checkpoint()             # every record now lives on the device
        key = db.data_key(21 * 7)
        path = lookup(db.host_value, key).path
        seen = self._watch(monkeypatch)
        device_reads = db.store.log.device.reads
        assert db.get(client, 21 * 7).payload == b"v21"
        assert seen["read"] == [key] + path[1:] + path[1:] + [key]
        assert db.store.log.device.reads - device_reads == 2 * len(path)

    def test_second_key_of_a_sorted_pair_pays_from_the_fork_down(
            self, monkeypatch):
        db, client = self._cold_db()
        first, second = db.data_key(20 * 7), db.data_key(21 * 7)
        path1 = lookup(db.host_value, first).path
        path2 = lookup(db.host_value, second).path
        shared = sum(1 for a, b in zip(path1, path2) if a == b)
        assert 1 < shared < len(path2)      # a fork below the root
        seen = self._watch(monkeypatch)
        assert db.scan(client, 20 * 7, 2) == [(140, b"v20"), (147, b"v21")]
        # The second walk starts at the fork node, the second chain below it.
        assert seen["probe"] == path1 + path2[shared - 1:]
        assert seen["read"] == [first] + path1[1:] + [second] + path2[shared:]
        assert seen["touch"] == [BitKey.root()]     # by the first key only
        assert db._run is None
