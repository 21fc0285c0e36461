"""Collision-resistant multiset hashing (§5.1, §7).

Deferred memory verification needs a hash over *multisets* of records such
that two different multisets collide only with negligible probability, and
such that hashes held by different verifier threads can be combined cheaply
at epoch close (§5.3).

The paper uses "the construction suggested in Concerto with AES-CMAC as a
PRF". We implement the same family — an incremental multiset hash over PRF
outputs (Clarke et al., ASIACRYPT 2003) — with one deliberate choice: the
default combiner is **addition mod 2^128** (MSet-Add-Hash) rather than plain
XOR. Plain XOR is only *set*-collision-resistant: an element inserted an
even number of times cancels out, which would let a byzantine host hide a
double-add/double-evict pair. MSet-Add-Hash is multiset-collision-resistant
without auxiliary counts, and aggregation across verifier threads remains a
single 128-bit modular addition of 16-byte values. The XOR combiner is kept
available (``combiner="xor"``) for ablation experiments.
"""

from __future__ import annotations

from repro.crypto.hashing import encode_fields
from repro.crypto.prf import PRF_SIZE, Prf
from repro.instrument import COUNTERS

#: The hash of the empty multiset under either combiner.
EMPTY_HASH = 0

_MOD = 1 << (8 * PRF_SIZE)
_MASK = _MOD - 1

#: Supported combining operations.
COMBINERS = ("add", "xor")


class MultisetHasher:
    """Streaming multiset-hash accumulator under a shared PRF key.

    One hasher per (verifier thread, epoch, read/write side); all hashers in
    a deployment share the PRF key so their accumulators can be aggregated at
    epoch close.
    """

    __slots__ = ("_prf", "value", "combiner", "_counters")

    def __init__(self, prf: Prf, combiner: str = "add", counters=None):
        if combiner not in COMBINERS:
            raise ValueError(f"combiner must be one of {COMBINERS}")
        self._prf = prf
        self.combiner = combiner
        self.value: int = EMPTY_HASH
        self._counters = counters if counters is not None else COUNTERS

    def insert(self, element: bytes) -> None:
        """Add one element to the multiset."""
        self._counters.multiset_updates += 1
        self._counters.multiset_hash_bytes += len(element)
        h = self._prf.evaluate_int(element)
        if self.combiner == "add":
            self.value = (self.value + h) & _MASK
        else:
            self.value ^= h

    def insert_entry(self, *fields: bytes) -> None:
        """Add an element given as a tuple of byte fields (canonical form)."""
        self.insert(encode_fields(*fields))

    def reset(self) -> None:
        self.value = EMPTY_HASH

    def spawn(self) -> "MultisetHasher":
        """A fresh empty accumulator under the same key and combiner."""
        return MultisetHasher(self._prf, combiner=self.combiner,
                              counters=self._counters)


def aggregate(values: list[int], combiner: str = "add") -> int:
    """Aggregate per-thread set-hash values into one 16-byte value (§5.3)."""
    if combiner not in COMBINERS:
        raise ValueError(f"combiner must be one of {COMBINERS}")
    acc = EMPTY_HASH
    for v in values:
        if combiner == "add":
            acc = (acc + v) & _MASK
        else:
            acc ^= v
    return acc
