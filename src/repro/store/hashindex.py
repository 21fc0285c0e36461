"""FASTER's hash index: keys to log addresses, with CAS semantics.

The index maps each key to the log address of its latest record version.
FASTER updates entries with compare-and-swap so racing threads linearize;
we expose the same :meth:`try_update` discipline (the simulated executor
injects CAS failures to model contention, and the FastVer worker loop
retries exactly as §5.3 / §7 describe).
"""

from __future__ import annotations

from typing import Iterator

from repro.core.keys import BitKey
from repro.instrument import COUNTERS
from repro.store.hybridlog import NULL_ADDRESS


class HashIndex:
    """Key → latest-version log address."""

    def __init__(self):
        self._entries: dict[BitKey, int] = {}

    def lookup(self, key: BitKey) -> int:
        """Latest address for the key, or ``NULL_ADDRESS`` if absent.

        Counts as one memory touch: a FASTER index probe is a real cache
        line access, and the cost model prices it like any store touch.
        """
        COUNTERS.store_reads += 1
        return self._entries.get(key, NULL_ADDRESS)

    def try_update(self, key: BitKey, expected: int, new: int) -> bool:
        """Install ``new`` iff the entry still reads ``expected`` (CAS)."""
        COUNTERS.cas_attempts += 1
        current = self._entries.get(key, NULL_ADDRESS)
        if current != expected:
            COUNTERS.cas_failures += 1
            return False
        self._entries[key] = new
        return True

    def remove(self, key: BitKey) -> None:
        self._entries.pop(key, None)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: BitKey) -> bool:
        return key in self._entries

    def items(self) -> Iterator[tuple[BitKey, int]]:
        return iter(self._entries.items())

    def restore(self, entries: dict[BitKey, int]) -> None:
        self._entries = dict(entries)
