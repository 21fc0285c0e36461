"""Host-side mirrors of verifier state (§5.3, §7).

Verifier clocks and cache contents are *protected* (tamper-proof) but not
*confidential*, and they evolve deterministically from the command stream
the host itself produces. FastVer exploits this: each host worker mirrors
its verifier's clock to predict evict timestamps without a round trip, and
mirrors the cache contents to navigate the tree and write evicted records
back to the store.

:class:`VerifierMirror` is that shadow for one verifier thread. It also
carries the host's cache *policy* metadata — LRU order, parent links, and
cached-children counts — which the verifier itself never needs: the policy
only exists so the host evicts records in an order that keeps every
eviction executable (a Merkle evict needs the parent still cached).
"""

from __future__ import annotations

import hashlib
from heapq import heapify, heappop, heappush, heapreplace

from repro.core.keys import BitKey
from repro.core.records import Value, encode_value
from repro.errors import ProtocolError
from repro.instrument import COUNTERS

#: How a shadow entry entered the cache (host policy metadata).
VIA_MERKLE = "merkle"
VIA_DEFERRED = "deferred"
VIA_PINNED = "pinned"


def host_value_hash(value: Value) -> bytes:
    """The host's own copy of H(v), for mirroring parent-pointer updates.

    Untrusted duplicate of the verifier's hash — if the host computed it
    wrong its next ``add_merkle`` would fail — counted separately so the
    cost model can price host-side hashing apart from verifier hashing.
    """
    blob = encode_value(value)
    COUNTERS.host_merkle_hashes += 1
    COUNTERS.host_merkle_hash_bytes += len(blob)
    return hashlib.blake2b(blob, digest_size=32).digest()


class ShadowEntry:
    """Host's view of one verifier-cached record.

    ``tick`` stamps the last add/touch (0 once evicted); ``queued`` says the
    mirror's eviction heap holds a record for this entry.
    """

    __slots__ = ("key", "value", "via", "parent_key", "children_cached",
                 "slot", "tick", "queued")

    def __init__(self, key: BitKey, value: Value, via: str,
                 parent_key: BitKey | None, slot: int):
        self.key = key
        self.value = value
        self.via = via
        self.parent_key = parent_key
        self.children_cached = 0
        self.slot = slot
        self.tick = 0
        self.queued = False

    @property
    def evictable(self) -> bool:
        """Not pinned, and no cached Merkle child: a child's own Merkle
        evict needs this entry still cached, so parents go after children."""
        return self.via != VIA_PINNED and not self.children_cached


class VerifierMirror:
    """Host shadow of one verifier thread: clock + cache + policy state."""

    def __init__(self, verifier_id: int, capacity: int):
        self.verifier_id = verifier_id
        self.capacity = capacity
        self.clock = 0
        # Insertion-ordered: flush, audit and recovery iterate it and their
        # order reaches the log stream, so recency lives beside it.
        self.entries: dict[BitKey, ShadowEntry] = {}
        # Eviction-policy index: a min-heap of (tick when queued, entry).
        # ``touch`` only restamps ``entry.tick``, so the paths that never
        # evict pay nothing for ordering; a record whose tick went stale is
        # requeued or dropped when it surfaces in ``victims``. At most one
        # record per entry, and every evictable entry has one. Ticks are
        # unique, so tuple comparison never reaches the entries.
        self._tick = 0
        self._heap: list[tuple[int, ShadowEntry]] = []
        # Replica of the verifier cache's slot freelist (same arithmetic as
        # VerifierCache, so predicted slots match the enclave's).
        self._free_slots: list[int] = list(range(capacity - 1, -1, -1))

    # ------------------------------------------------------------------
    # Clock mirroring (the §5.3 prediction trick)
    # ------------------------------------------------------------------
    def observe_add(self, timestamp: int) -> None:
        """Mirror the verifier's Lamport rule on a deferred add."""
        if timestamp > self.clock:
            self.clock = timestamp

    def predict_evict(self) -> int:
        """The timestamp the verifier *will* stamp on the next deferred
        evict; advances the mirror so the prediction is consumed."""
        self.clock += 1
        return self.clock

    # ------------------------------------------------------------------
    # Shadow cache maintenance
    # ------------------------------------------------------------------
    def __contains__(self, key: BitKey) -> bool:
        return key in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def free(self) -> int:
        return self.capacity - len(self.entries)

    def get(self, key: BitKey) -> ShadowEntry:
        entry = self.entries.get(key)
        if entry is None:
            raise ProtocolError(f"{key!r} not in shadow cache {self.verifier_id}")
        return entry

    def touch(self, key: BitKey) -> ShadowEntry:
        entry = self.get(key)
        self._tick = entry.tick = self._tick + 1
        return entry

    def _queue(self, entry: ShadowEntry) -> None:
        entry.queued = True
        heap = self._heap
        heappush(heap, (entry.tick, entry))
        if len(heap) > 2 * self.capacity:
            # Evicted entries leave their record behind until it surfaces;
            # a cache that adds and evicts without ever asking for victims
            # would grow the heap without bound.
            heap[:] = [(e.tick, e) for e in self.entries.values() if e.queued]
            heapify(heap)

    def _release_child(self, parent: ShadowEntry) -> None:
        parent.children_cached -= 1
        if parent.evictable and not parent.queued:
            self._queue(parent)

    def add(self, key: BitKey, value: Value, via: str,
            parent_key: BitKey | None = None) -> ShadowEntry:
        if key in self.entries:
            raise ProtocolError(f"shadow double-add of {key!r}")
        if len(self.entries) >= self.capacity:
            raise ProtocolError(f"shadow cache {self.verifier_id} overflow")
        if via == VIA_MERKLE and parent_key is not None:
            self.get(parent_key).children_cached += 1
        entry = ShadowEntry(key, value, via, parent_key, self._free_slots.pop())
        self._tick = entry.tick = self._tick + 1
        self.entries[key] = entry
        if via != VIA_PINNED:
            self._queue(entry)
        return entry

    def remove(self, key: BitKey) -> ShadowEntry:
        # Validate, then mutate: a rejected call must leave ``entries`` (and
        # so flush/audit iteration order) exactly as it found it.
        entry = self.entries.get(key)
        if entry is None:
            raise ProtocolError(f"shadow evict of absent {key!r}")
        if entry.children_cached:
            raise ProtocolError(f"shadow evict of {key!r} with cached children")
        del self.entries[key]
        entry.tick = 0
        if entry.via == VIA_MERKLE and entry.parent_key is not None:
            parent = self.entries.get(entry.parent_key)
            if parent is not None:
                self._release_child(parent)
        self._free_slots.append(entry.slot)
        return entry

    def reparent(self, key: BitKey, new_parent: BitKey) -> None:
        """Fix a cached child's parent link after an edge split."""
        entry = self.entries.get(key)
        if entry is None or entry.via != VIA_MERKLE:
            return
        adopter = self.get(new_parent)
        old_parent = self.entries.get(entry.parent_key) if entry.parent_key else None
        if old_parent is not None:
            self._release_child(old_parent)
        entry.parent_key = new_parent
        adopter.children_cached += 1

    def adopt_merkle_parent(self, key: BitKey, parent_key: BitKey) -> None:
        """Relink a cached entry as the Merkle-added child of ``parent_key``.

        Recovery re-adds every dumped cache entry without policy metadata;
        this restores the link so the entry evicts back to Merkle protection
        and its parent stays cached until it has.
        """
        parent = self.get(parent_key)
        entry = self.get(key)
        entry.via = VIA_MERKLE
        entry.parent_key = parent_key
        parent.children_cached += 1

    def victims(self, locked: set[BitKey], need: int) -> list[ShadowEntry]:
        """The ``need`` least recently used evictable entries, LRU first.

        Exact LRU over the entries that are :attr:`~ShadowEntry.evictable`
        and not locked by the in-flight operation. A record's tick never
        exceeds its entry's, so once the heap's top record is current it is
        the oldest of all; stale tops are settled on the way.
        """
        if need <= 0:
            return []
        heap = self._heap
        out: list[ShadowEntry] = []
        passed = []
        while heap:
            tick, entry = heap[0]
            if entry.tick != tick or entry.children_cached:
                if entry.tick and not entry.children_cached:
                    heapreplace(heap, (entry.tick, entry))  # touched since
                else:
                    # Evicted, or a parent now: ``_release_child`` queues it
                    # again when its last child leaves.
                    heappop(heap)
                    entry.queued = False
                continue
            if entry.key not in locked:
                out.append(entry)
                if len(out) == need:
                    break
            passed.append(heappop(heap))
        for record in passed:
            heappush(heap, record)
        if len(out) < need:
            raise ProtocolError(
                f"cache {self.verifier_id} cannot free {need} slots "
                f"(capacity {self.capacity} too small for the working chain)"
            )
        return out
