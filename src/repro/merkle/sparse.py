"""Host-side sparse Merkle tree logic over record encoding (§4.1–4.2).

The *records* of the tree live in the untrusted store; this module contains
the navigation an honest host performs to serve operations:

* :func:`lookup` — descend from the root along pointers to classify a data
  key as present / absent-at-null-side / absent-needs-split, returning the
  Merkle path that a verifier interaction will need;
* :func:`build_tree` — bulk-construct the Patricia tree for a sorted batch
  of records (one hash per node), used to initialize large databases
  without pushing every record through the verifier cache machinery.

Nothing here is trusted: the verifier re-checks every structural claim
(`repro.core.merkle_mode`), and the adversary tests feed it corrupted
navigation results.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

from repro.core.keys import BitKey
from repro.core.records import DataValue, MerkleValue, Pointer, Value, value_hash
from repro.errors import StoreError

#: How a lookup terminated.
FOUND = "found"
ABSENT_NULL = "absent-null"        # the covering pointer side is null
ABSENT_SPLIT = "absent-split"      # a pointer exists but bypasses the key

RecordSource = Callable[[BitKey], Value | None]


@dataclass
class LookupResult:
    """Outcome of descending the tree toward ``key``.

    ``path`` lists the Merkle keys visited, root first; ``terminal`` is the
    last Merkle node examined (the tree parent for FOUND, the insertion
    point otherwise); ``bypass`` is the pointer target that proves absence
    in the ABSENT_SPLIT case; ``kept`` counts the leading ``path`` nodes
    taken over, unprobed, from the previous result of a run.
    """

    kind: str
    key: BitKey
    path: list[BitKey]
    terminal: BitKey
    bypass: BitKey | None = None
    kept: int = 0


def lookup(source: RecordSource, key: BitKey,
           prev: LookupResult | None = None) -> LookupResult:
    """Descend along pointers toward ``key`` (a data or a Merkle key).

    ``prev``, the previous result of a run of lookups over a tree whose
    structure has not changed since, lets the descent resume at the deepest
    node of its path that is still a proper ancestor of ``key``: the walk
    from the root would get there by the same pointers. Any key order is
    correct; sorted order makes the kept prefix long.
    """
    path, kept = [BitKey.root()], 0
    if prev is not None:
        path = prev.path
        kept = len(path)
        while kept > 1 and not path[kept - 1].is_proper_ancestor_of(key):
            kept -= 1
        path = path[:kept]
    node = path[-1]
    while True:
        value = source(node)
        if not isinstance(value, MerkleValue):
            raise StoreError(f"merkle record missing or malformed at {node!r}")
        ptr = value.pointer(key.direction_from(node))
        if ptr is None:
            return LookupResult(ABSENT_NULL, key, path, node, None, kept)
        if ptr.key == key:
            return LookupResult(FOUND, key, path, node, None, kept)
        if not ptr.key.is_proper_ancestor_of(key):
            return LookupResult(ABSENT_SPLIT, key, path, node, ptr.key, kept)
        node = ptr.key
        path.append(node)


def path_to_root(source: RecordSource, key: BitKey) -> list[BitKey]:
    """Merkle keys from the root down to (excluding) ``key``, a data or
    Merkle key that must be in the tree. The descent follows pointers, so
    it works while child hashes are lazily stale: only structure is read."""
    if key.is_root:
        return []
    result = lookup(source, key)
    if result.kind != FOUND:
        raise StoreError(f"{key!r} is not in the tree")
    return result.path


def merkle_parent_of(source: RecordSource, key: BitKey) -> BitKey:
    """The tree parent (the Merkle node whose pointer targets ``key``);
    raises if the key is not in the tree (the root has no parent)."""
    if key.is_root:
        raise StoreError("the root has no tree parent")
    return path_to_root(source, key)[-1]


def build_tree(items: list[tuple[BitKey, DataValue]],
               counters=None) -> tuple[dict[BitKey, MerkleValue], MerkleValue]:
    """Construct the Patricia sparse Merkle tree for sorted data records.

    Returns ``(merkle_records, root_value)`` where ``merkle_records`` maps
    each internal Merkle key (root excluded) to its value, and
    ``root_value`` is the root record's value the verifier will pin.
    One :func:`value_hash` per node/leaf, children first. The keys share
    one width, so key order is ``bits`` order: a slice's LCA is the common
    prefix of its first and last ``bits``, and its split a bisect.
    """
    width = items[0][0].length if items else 0
    bits: list[int] = []
    for key, _ in items:
        if key.length != width:
            raise ValueError("build_tree requires keys of one width")
        if bits and key.bits <= bits[-1]:
            raise ValueError("build_tree requires distinct keys"
                             if key.bits == bits[-1] else
                             "build_tree requires items sorted by key")
        bits.append(key.bits)
    records: dict[BitKey, MerkleValue] = {}

    def build_slice(lo: int, hi: int) -> Pointer:
        """Build the subtree for items[lo:hi] (non-empty); return the
        pointer a parent should hold for it."""
        if hi - lo == 1:
            key, value = items[lo]
            return Pointer(key, value_hash(value, counters=counters))
        below = (bits[lo] ^ bits[hi - 1]).bit_length()  # bits below the LCA
        prefix = bits[lo] >> below
        # The right child's keys are those with the branch bit set.
        split = bisect_left(bits, (2 * prefix + 1) << (below - 1), lo, hi)
        value = MerkleValue(build_slice(lo, split), build_slice(split, hi))
        node = BitKey(width - below, prefix)
        records[node] = value
        return Pointer(node, value_hash(value, counters=counters))

    if not items:
        return records, MerkleValue(None, None)
    # Partition the full set at the root's branch bit (depth 0).
    split = bisect_left(bits, 1 << (width - 1))
    ptr0 = build_slice(0, split) if split > 0 else None
    ptr1 = build_slice(split, len(items)) if split < len(items) else None
    return records, MerkleValue(ptr0, ptr1)


def check_invariants(source: RecordSource, root_value: MerkleValue,
                     data_width: int) -> int:
    """Validate Patricia invariants over the whole tree; returns node count.

    Checks, for every reachable pointer ``(m, side) -> (k, h)``:
    ``m`` is a proper ancestor of ``k``; ``k`` descends on ``side``; ``h``
    equals the hash of ``k``'s record; internal nodes have two children
    (Patricia minimality) except possibly the root; leaves are data-width.
    Used by tests and the consistency checker, not by the hot path.
    """
    count = 0
    stack: list[tuple[BitKey, MerkleValue]] = [(BitKey.root(), root_value)]
    while stack:
        node, value = stack.pop()
        count += 1
        children = 0
        for side in (0, 1):
            ptr = value.pointer(side)
            if ptr is None:
                continue
            children += 1
            if not node.is_proper_ancestor_of(ptr.key):
                raise StoreError(f"{node!r} points to non-descendant {ptr.key!r}")
            if ptr.key.direction_from(node) != side:
                raise StoreError(f"{ptr.key!r} on wrong side of {node!r}")
            child_value = source(ptr.key)
            if child_value is None:
                raise StoreError(f"dangling pointer to {ptr.key!r}")
            if value_hash(child_value) != ptr.hash:
                raise StoreError(f"stale hash for {ptr.key!r} at {node!r}")
            if ptr.key.length == data_width:
                if not isinstance(child_value, DataValue):
                    raise StoreError(f"leaf {ptr.key!r} is not a data record")
                count += 1
            else:
                if not isinstance(child_value, MerkleValue):
                    raise StoreError(f"internal {ptr.key!r} is not a merkle record")
                stack.append((ptr.key, child_value))
        if children < 2 and not node.is_root:
            raise StoreError(f"non-root internal node {node!r} has {children} child")
    return count
