"""Records, values, and the 64-bit aux protection word (§4.2, §6, §7).

FastVer treats *everything* — client data and internal Merkle nodes — as
key-value records, which is what makes the hybrid scheme possible: any
record can move between the three integrity-protection mechanisms (verifier
cache / deferred verification / Merkle hashing) independently of any other.

Two value kinds exist:

* :class:`DataValue` — a client payload, or a tombstone (``payload is None``)
  for a deleted key (deletion-as-tombstone is our extension; the paper only
  needs get/put).
* :class:`MerkleValue` — the pair ``(kh0, kh1)`` of §4.2: per side, either
  ``None`` or a :class:`Pointer` ``(descendant key, hash of its value)``,
  where the descendant is the least common ancestor of all non-null data
  keys in that subtree.

:class:`Aux` reproduces the paper's per-record 64-bit aux field (§7), which
records the current protection mechanism plus its payload (timestamp+epoch
for deferred, verifier/slot for cached). The host store persists it next to
the value; it is *untrusted* — lying in it only ever causes a verifier check
to fail later.
"""

from __future__ import annotations

from enum import IntEnum

from repro.crypto.hashing import decode_fields, encode_fields, hash_bytes
from repro.core.keys import BitKey


class Protection(IntEnum):
    """Which mechanism currently guards a record's integrity (§6)."""

    MERKLE = 0      # hash of the value is stored at the Merkle tree parent
    DEFERRED = 1    # value+timestamp are accounted in a write-set hash
    CACHED = 2      # the record lives inside a verifier cache


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------
class DataValue:
    """A client-visible value; ``payload is None`` marks a tombstone."""

    __slots__ = ("payload",)

    def __init__(self, payload: bytes | None):
        if payload is not None and not isinstance(payload, bytes):
            raise TypeError("DataValue payload must be bytes or None")
        self.payload = payload

    def encode(self) -> bytes:
        if self.payload is None:
            return b"DN"
        return b"DV" + self.payload

    def __eq__(self, other) -> bool:
        return isinstance(other, DataValue) and self.payload == other.payload

    def __hash__(self) -> int:
        return hash(("DataValue", self.payload))

    def __repr__(self) -> str:
        return f"DataValue({self.payload!r})"


class Pointer:
    """One side of a Merkle value: a descendant key and its value hash."""

    __slots__ = ("key", "hash")

    def __init__(self, key: BitKey, hash_: bytes):
        self.key = key
        self.hash = hash_

    def with_hash(self, hash_: bytes) -> "Pointer":
        return Pointer(self.key, hash_)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Pointer)
            and self.key == other.key
            and self.hash == other.hash
        )

    def __hash__(self) -> int:
        return hash((self.key, self.hash))

    def __repr__(self) -> str:
        return f"Pointer({self.key!r}, {self.hash.hex()[:8]}…)"


class MerkleValue:
    """The value of a Merkle record: pointers for the 0-side and 1-side."""

    __slots__ = ("ptr0", "ptr1")

    def __init__(self, ptr0: Pointer | None = None, ptr1: Pointer | None = None):
        self.ptr0 = ptr0
        self.ptr1 = ptr1

    def pointer(self, side: int) -> Pointer | None:
        if side == 0:
            return self.ptr0
        if side == 1:
            return self.ptr1
        raise ValueError(f"side must be 0 or 1, got {side}")

    def with_pointer(self, side: int, ptr: Pointer | None) -> "MerkleValue":
        """A copy with one side replaced (values are treated immutably)."""
        if side == 0:
            return MerkleValue(ptr, self.ptr1)
        if side == 1:
            return MerkleValue(self.ptr0, ptr)
        raise ValueError(f"side must be 0 or 1, got {side}")

    def encode(self) -> bytes:
        ptr0, ptr1 = self.ptr0, self.ptr1
        return encode_fields(
            b"MV",
            b"" if ptr0 is None else ptr0.key.to_bytes() + ptr0.hash,
            b"" if ptr1 is None else ptr1.key.to_bytes() + ptr1.hash)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MerkleValue)
            and self.ptr0 == other.ptr0
            and self.ptr1 == other.ptr1
        )

    def __hash__(self) -> int:
        return hash((self.ptr0, self.ptr1))

    def __repr__(self) -> str:
        return f"MerkleValue(0={self.ptr0!r}, 1={self.ptr1!r})"


#: Either kind of record value.
Value = DataValue | MerkleValue


def encode_value(value: Value) -> bytes:
    """Canonical byte encoding of a value (domain-separated by kind)."""
    return value.encode()


def value_hash(value: Value, counters=None) -> bytes:
    """The collision-resistant hash H(v) stored at Merkle parents."""
    return hash_bytes(encode_value(value), counters=counters)


def decode_value(blob: bytes,
                 encodings: dict[bytes, BitKey] | None = None) -> Value:
    """Inverse of :func:`encode_value` (used by checkpoints and recovery).
    A pointer key whose encoding is in ``encodings`` is the key found there."""
    if blob.startswith(b"DN"):
        return DataValue(None)
    if blob.startswith(b"DV"):
        return DataValue(blob[2:])
    if blob[4:6] == b"MV":
        # MerkleValue.encode() is encode_fields(b"MV", side0, side1), so the
        # blob opens with the 4-byte length of the tag field, then the tag.
        fields = decode_fields(blob)
        if len(fields) != 3 or fields[0] != b"MV":
            raise ValueError("malformed MerkleValue encoding")
        sides: list[Pointer | None] = []
        for raw in fields[1:]:
            if not raw:
                sides.append(None)
                continue
            key = encodings and encodings.get(raw[:-32])
            key = key or BitKey.from_encoded(raw[:-32])
            sides.append(Pointer(key, raw[-32:]))
        return MerkleValue(sides[0], sides[1])
    raise ValueError(f"unknown value encoding tag: {blob[:2]!r}")


# ---------------------------------------------------------------------------
# Aux word
# ---------------------------------------------------------------------------
_STATE_SHIFT = 62
_TS_BITS = 40
_EPOCH_BITS = 22
_SLOT_BITS = 46
_VERIFIER_BITS = 16

MAX_TIMESTAMP = (1 << _TS_BITS) - 1
MAX_EPOCH = (1 << _EPOCH_BITS) - 1
MAX_SLOT = (1 << _SLOT_BITS) - 1
MAX_VERIFIER = (1 << _VERIFIER_BITS) - 1


class Aux:
    """The 64-bit per-record bookkeeping word (§7).

    Layout (bits 63..0):

    * ``[63:62]`` protection state (:class:`Protection`)
    * deferred: ``[61:40]`` epoch, ``[39:0]`` timestamp
    * cached:   ``[61:46]`` verifier thread id, ``[45:0]`` cache slot
    * merkle:   payload bits are zero

    ``pack()``/``unpack()`` round-trip through a real 64-bit integer so the
    store can hold the aux exactly as FASTER would, and the CAS emulation can
    swap (value, aux) pairs atomically.
    """

    __slots__ = ("state", "timestamp", "epoch", "verifier_id", "slot")

    def __init__(self, state: Protection, timestamp: int = 0, epoch: int = 0,
                 verifier_id: int = 0, slot: int = 0):
        self.state = state
        self.timestamp = timestamp
        self.epoch = epoch
        self.verifier_id = verifier_id
        self.slot = slot

    # -- constructors ---------------------------------------------------
    @classmethod
    def merkle(cls) -> "Aux":
        """Record is protected by the hash at its Merkle parent."""
        return cls(Protection.MERKLE)

    @classmethod
    def deferred(cls, timestamp: int, epoch: int) -> "Aux":
        """Record is accounted in epoch ``epoch``'s write set at ``timestamp``."""
        if not 0 <= timestamp <= MAX_TIMESTAMP:
            raise ValueError(f"timestamp {timestamp} exceeds {_TS_BITS} bits")
        if not 0 <= epoch <= MAX_EPOCH:
            raise ValueError(f"epoch {epoch} exceeds {_EPOCH_BITS} bits")
        return cls(Protection.DEFERRED, timestamp=timestamp, epoch=epoch)

    @classmethod
    def cached(cls, verifier_id: int, slot: int) -> "Aux":
        """Record currently lives in a verifier cache."""
        if not 0 <= verifier_id <= MAX_VERIFIER:
            raise ValueError(f"verifier id {verifier_id} exceeds {_VERIFIER_BITS} bits")
        if not 0 <= slot <= MAX_SLOT:
            raise ValueError(f"slot {slot} exceeds {_SLOT_BITS} bits")
        return cls(Protection.CACHED, verifier_id=verifier_id, slot=slot)

    # -- 64-bit round trip -----------------------------------------------
    def pack(self) -> int:
        word = int(self.state) << _STATE_SHIFT
        if self.state is Protection.DEFERRED:
            word |= (self.epoch << _TS_BITS) | self.timestamp
        elif self.state is Protection.CACHED:
            word |= (self.verifier_id << _SLOT_BITS) | self.slot
        return word

    @classmethod
    def unpack(cls, word: int) -> "Aux":
        if not 0 <= word < (1 << 64):
            raise ValueError(f"aux word 0x{word:x} is not a 64-bit value")
        state = Protection((word >> _STATE_SHIFT) & 0x3)
        payload = word & ((1 << _STATE_SHIFT) - 1)
        if state is Protection.DEFERRED:
            return cls.deferred(payload & MAX_TIMESTAMP, payload >> _TS_BITS)
        if state is Protection.CACHED:
            return cls.cached(payload >> _SLOT_BITS, payload & MAX_SLOT)
        return cls.merkle()

    def __eq__(self, other) -> bool:
        return isinstance(other, Aux) and self.pack() == other.pack()

    def __hash__(self) -> int:
        return hash(self.pack())

    def __repr__(self) -> str:
        if self.state is Protection.DEFERRED:
            return f"Aux(DEFERRED, ts={self.timestamp}, epoch={self.epoch})"
        if self.state is Protection.CACHED:
            return f"Aux(CACHED, verifier={self.verifier_id}, slot={self.slot})"
        return "Aux(MERKLE)"


def entry_fields(key: BitKey, value: Value, timestamp: int, epoch: int) -> tuple:
    """The canonical field tuple hashed into read/write multisets (§5.1).

    Including the timestamp makes every entry of an honest run unique;
    including the epoch pins each entry to the epoch whose set-equality
    check must account for it.
    """
    return (
        key.to_bytes(),
        encode_value(value),
        timestamp.to_bytes(8, "big"),
        epoch.to_bytes(8, "big"),
    )
