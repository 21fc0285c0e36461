"""The verifier cache (§3, §4.3): trusted record storage inside the enclave.

A bounded map from keys to record values. Records inside the cache need no
integrity checking at all — the cache *is* the protected state — which puts
caching at the top of the verification hierarchy (§6.1). Capacity is a hard
bound standing for scarce enclave memory (performance goal P1).

The cache hands out stable *slot* numbers so the host's aux word can record
exactly where a record lives (§7), and it pins the root record, which the
protocol never evicts.
"""

from __future__ import annotations

from repro.core.keys import BitKey
from repro.core.records import Value
from repro.errors import CacheStateError, CapacityError


class CacheEntry:
    __slots__ = ("key", "value", "slot")

    def __init__(self, key: BitKey, value: Value, slot: int):
        self.key = key
        self.value = value
        self.slot = slot


class VerifierCache:
    """Slotted, bounded, trusted record cache."""

    def __init__(self, capacity: int):
        if capacity < 2:
            raise ValueError("cache needs capacity >= 2 (root + working entry)")
        self.capacity = capacity
        self._entries: dict[BitKey, CacheEntry] = {}
        self._free_slots: list[int] = list(range(capacity - 1, -1, -1))
        self._pinned: set[BitKey] = set()

    def __contains__(self, key: BitKey) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: BitKey) -> CacheEntry:
        entry = self._entries.get(key)
        if entry is None:
            raise CacheStateError(f"{key!r} is not in the verifier cache")
        return entry

    def add(self, key: BitKey, value: Value, pinned: bool = False) -> int:
        """Insert a record; returns its slot. Duplicate adds are byzantine
        behavior (an honest host tracks residency in the aux word)."""
        if key in self._entries:
            raise CacheStateError(f"duplicate add of {key!r} to one cache")
        if not self._free_slots:
            raise CapacityError("verifier cache is full; evict first")
        slot = self._free_slots.pop()
        self._entries[key] = CacheEntry(key, value, slot)
        if pinned:
            self._pinned.add(key)
        return slot

    def update(self, key: BitKey, value: Value) -> None:
        self.get(key).value = value

    def remove(self, key: BitKey) -> Value:
        """Drop an entry and return its (possibly updated) value."""
        if key in self._pinned:
            raise CacheStateError(f"{key!r} is pinned and cannot be evicted")
        entry = self._entries.pop(key, None)
        if entry is None:
            raise CacheStateError(f"{key!r} is not in the verifier cache")
        self._free_slots.append(entry.slot)
        return entry.value

    def keys(self) -> list[BitKey]:
        return list(self._entries)

    def items(self) -> list[tuple[BitKey, Value]]:
        return [(k, e.value) for k, e in self._entries.items()]
