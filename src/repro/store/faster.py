"""FasterKV: the FASTER-style host key-value store (§7 substrate).

This is the untrusted host database of Figure 1. It composes the hash
index and the hybrid-log allocator into the API FastVer builds on:

* ``read`` / ``upsert`` / ``rmw`` / ``delete`` — point operations that keep
  per-record (value, aux) pairs and update them in place in the mutable
  region or by read-copy-update below it;
* ``try_cas`` — the atomic (value, aux) swap the FastVer worker loop uses
  for speculative updates (§5.3);
* ``scan_from`` — ordered scans over data keys (YCSB-E).

The store is *byzantine* in the threat model: nothing here is trusted, and
the adversary package mutates these structures directly in tests.
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterable, Iterator

from repro.core.keys import BitKey
from repro.core.records import Value
from repro.instrument import COUNTERS
from repro.store.atomic import compare_and_swap_pair
from repro.store.hashindex import HashIndex
from repro.store.hybridlog import NULL_ADDRESS, HybridLog, LogDevice, LogRecord


class KeyDirectory:
    """Sorted directory of data keys, supporting ordered scans.

    FASTER itself is hash-organized; range scans in YCSB-E need key order.
    Every directory key has one width, so key order is ``bits`` order: the
    sorted list holds the ``bits`` ints (bisected at C speed) and a dict
    maps each back to the key object added. Inserts are O(n) in the worst
    case, which is fine at YCSB-E's 5% insert rate.
    """

    def __init__(self):
        self._sorted: list[int] = []
        self._keys: dict[int, BitKey] = {}

    def add(self, key: BitKey) -> None:
        if key.bits not in self._keys:
            self._keys[key.bits] = key
            bisect.insort(self._sorted, key.bits)

    def extend(self, keys: Iterable[BitKey]) -> None:
        """Add many keys with one sort (recovery)."""
        for key in keys:
            self._keys.setdefault(key.bits, key)
        self._sorted = sorted(self._keys)

    def remove(self, key: BitKey) -> None:
        if key in self:
            del self._keys[key.bits]
            del self._sorted[bisect.bisect_left(self._sorted, key.bits)]

    def range_from(self, start: BitKey, count: int) -> list[BitKey]:
        """The first ``count`` keys >= ``start`` in key order."""
        idx = bisect.bisect_left(self._sorted, start.bits)
        return list(map(self._keys.__getitem__, self._sorted[idx:idx + count]))

    def __len__(self) -> int:
        return len(self._sorted)

    def __contains__(self, key: BitKey) -> bool:
        return self._keys.get(key.bits) == key

    def keys(self) -> list[BitKey]:
        return list(map(self._keys.__getitem__, self._sorted))


class FasterKV:
    """The host store.

    ``ordered_width`` selects which key length participates in the sorted
    scan directory (FastVer passes its data-key width; Merkle keys stay out
    of scan results).
    """

    def __init__(self, ordered_width: int | None = None,
                 memory_budget_records: int = 1 << 30,
                 mutable_fraction: float = 0.9,
                 device: LogDevice | None = None):
        self.index = HashIndex()
        self.log = HybridLog(mutable_fraction=mutable_fraction,
                             memory_budget_records=memory_budget_records,
                             device=device)
        self.directory = KeyDirectory()
        self.ordered_width = ordered_width
        # Device addresses the scrubber has quarantined (repro.scrub) and
        # not yet repaired; a checkpoint clears them.
        self.quarantined_addresses: list[int] = []

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------
    def read(self, key: BitKey) -> tuple[Value, int] | None:
        """Current (value, aux) for a key, or None if absent/tombstoned."""
        record = self.read_record(key)
        if record is None or record.tombstone:
            return None
        return record.value, record.aux

    def read_record(self, key: BitKey) -> LogRecord | None:
        """The latest record version (including tombstones), or None."""
        address = self.index.lookup(key)
        if address == NULL_ADDRESS:
            return None
        return self.log.get(address)

    def upsert(self, key: BitKey, value: Value, aux: int = 0) -> None:
        """Blind write: install (value, aux) as the key's latest version."""
        while True:
            address = self.index.lookup(key)
            if address != NULL_ADDRESS and self.log.is_mutable(address):
                self.log.update_in_place(address, value, aux)
                record = self.log.get(address)
                record.tombstone = False
                break
            record = LogRecord(key, value, aux, prev_address=address)
            new_address = self.log.append(record)
            if self.index.try_update(key, address, new_address):
                break
        self._track(key, present=True)

    def rmw(self, key: BitKey,
            update: Callable[[Value | None, int], tuple[Value, int]]) -> tuple[Value, int]:
        """Read-modify-write: ``update(old_value_or_None, old_aux)`` returns
        the new (value, aux); retried on index races. Returns the new pair."""
        while True:
            address = self.index.lookup(key)
            if address != NULL_ADDRESS:
                old = self.log.get(address)
                old_value = None if old.tombstone else old.value
                new_value, new_aux = update(old_value, old.aux)
                if self.log.is_mutable(address):
                    self.log.update_in_place(address, new_value, new_aux)
                    old.tombstone = False
                    self._track(key, present=True)
                    return new_value, new_aux
            else:
                new_value, new_aux = update(None, 0)
            record = LogRecord(key, new_value, new_aux, prev_address=address)
            new_address = self.log.append(record)
            if self.index.try_update(key, address, new_address):
                self._track(key, present=True)
                return new_value, new_aux

    def delete(self, key: BitKey) -> bool:
        """Tombstone a key; returns whether it was present."""
        address = self.index.lookup(key)
        if address == NULL_ADDRESS:
            return False
        record = LogRecord(key, self.log.get(address).value, 0,
                           prev_address=address, tombstone=True)
        new_address = self.log.append(record)
        while not self.index.try_update(key, address, new_address):
            address = self.index.lookup(key)
        self._track(key, present=False)
        return True

    def try_cas(self, key: BitKey, expected_value: Value, expected_aux: int,
                new_value: Value, new_aux: int) -> bool:
        """Atomic (value, aux) swap on the latest version (§5.3, §7).

        Only succeeds when the latest version is in the mutable region and
        still holds the expected pair; callers fall back to ``upsert``-style
        RCU (or retry) on failure, as the FastVer worker loop does.
        """
        address = self.index.lookup(key)
        if address == NULL_ADDRESS:
            COUNTERS.cas_attempts += 1
            COUNTERS.cas_failures += 1
            return False
        if not self.log.is_mutable(address):
            # RCU path: append a copy and CAS the index instead.
            old = self.log.get(address)
            if old.tombstone or old.value != expected_value or old.aux != expected_aux:
                COUNTERS.cas_attempts += 1
                COUNTERS.cas_failures += 1
                return False
            record = LogRecord(key, new_value, new_aux, prev_address=address)
            new_address = self.log.append(record)
            return self.index.try_update(key, address, new_address)
        record = self.log.get(address)
        if record.tombstone:
            COUNTERS.cas_attempts += 1
            COUNTERS.cas_failures += 1
            return False
        return compare_and_swap_pair(record, expected_value, expected_aux,
                                     new_value, new_aux)

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def scan_from(self, start: BitKey, count: int) -> list[tuple[BitKey, Value, int]]:
        """The next ``count`` live data records in key order (YCSB-E)."""
        out: list[tuple[BitKey, Value, int]] = []
        for key in self.directory.range_from(start, count):
            pair = self.read(key)
            if pair is not None:
                out.append((key, pair[0], pair[1]))
        return out

    # ------------------------------------------------------------------
    # Enumeration (verification scans, checkpoints)
    # ------------------------------------------------------------------
    def items(self) -> Iterator[tuple[BitKey, Value, int]]:
        """All live (key, value, aux) triples, index order. Walks the index
        itself, not a copy: do not write to the store while iterating."""
        for key, address in self.index.items():
            record = self.log.get(address)
            if not record.tombstone:
                yield key, record.value, record.aux

    def aux_words(self, pages: list[bytes], auxes: list[int | None]
                  ) -> Iterator[tuple[BitKey, int]]:
        """``(key, aux)`` of every live record, given what the scan of
        :func:`~repro.store.checkpoint.recover` saw. Every page is read
        again; one the device returns as the *same object* (every write, rot
        or tear installs a new one) stands, any other is decoded."""
        fetch, decode = self.log.fetch, self.log.decode
        for (key, address), page, aux in zip(self.index.items(), pages, auxes,
                                             strict=True):
            blob = fetch(address)
            if blob is not page:
                record = decode(address, blob)
                aux = None if record.tombstone else record.aux
            if aux is not None:
                yield key, aux

    def __len__(self) -> int:
        return len(self.index)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _track(self, key: BitKey, present: bool) -> None:
        if self.ordered_width is None or key.length != self.ordered_width:
            return
        if present:
            self.directory.add(key)
        else:
            self.directory.remove(key)
