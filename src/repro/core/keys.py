"""Bit-string keys and the binary key tree of Section 4.2.

FastVer organizes *all* keys — client data keys and internal Merkle keys —
as nodes of one binary tree. A key is a bit string; the empty string is the
root, and string ``k`` is the parent of ``k+'0'`` and ``k+'1'``. Data keys
are full-width strings (``KEY_BITS`` bits, 256 in the paper); Merkle keys
are any strictly shorter prefix.

:class:`BitKey` is an immutable value type implementing exactly the algebra
the paper uses: prefix/ancestor tests, ``dir(k, k')`` (which side of a proper
ancestor a key descends on), least common ancestors, and a total
lexicographic order used by the sorted-Merkle-updates optimization (§6.3).

Keys are stored as ``(length, bits)`` where ``bits`` is the big-endian
integer value of the string, so all operations are O(1)-ish integer ops and
keys of any width up to 256 bits stay cheap.
"""

from __future__ import annotations

from functools import total_ordering

#: Width of data keys in bits. The paper uses 256 (SHA-256 of client keys);
#: the algebra works for any width and tests exercise small widths too.
KEY_BITS = 256


_set = object.__setattr__


@total_ordering
class BitKey:
    """An immutable bit-string key: a node in the binary key tree.

    ``BitKey(length, bits)`` denotes the bit string of ``length`` bits whose
    big-endian integer value is ``bits``. ``BitKey(0, 0)`` is the tree root
    (the empty string).
    """

    __slots__ = ("length", "bits", "_hash")

    def __init__(self, length: int, bits: int):
        if length < 0:
            raise ValueError(f"key length must be >= 0, got {length}")
        if bits < 0 or (length < bits.bit_length()):
            raise ValueError(f"bits 0x{bits:x} do not fit in {length} bits")
        _set(self, "length", length)
        _set(self, "bits", bits)
        # Keys are dict keys everywhere hot (store index, mirrors, caches,
        # owner maps) and nearly every key built is hashed at least once.
        _set(self, "_hash", hash((length, bits)))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("BitKey is immutable")

    def __reduce__(self):  # pickle/deepcopy rebuild through __init__
        return (BitKey, (self.length, self.bits))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def root(cls) -> "BitKey":
        """The empty string: root of the key tree."""
        return _ROOT

    @classmethod
    def from_bits_string(cls, s: str) -> "BitKey":
        """Parse a key from a literal like ``"0101"`` (empty string = root)."""
        if s and set(s) - {"0", "1"}:
            raise ValueError(f"not a bit string: {s!r}")
        return cls(len(s), int(s, 2) if s else 0)

    @classmethod
    def from_bytes(cls, data: bytes, length: int | None = None) -> "BitKey":
        """Build a key from raw bytes (big-endian), default full-byte width."""
        if length is None:
            length = 8 * len(data)
        value = int.from_bytes(data, "big")
        excess = 8 * len(data) - length
        if excess < 0:
            raise ValueError(f"{len(data)} bytes cannot supply {length} bits")
        return cls(length, value >> excess)

    @classmethod
    def data_key(cls, value: int, width: int = KEY_BITS) -> "BitKey":
        """A full-width data key with the given integer value.

        This mirrors the paper's benchmark setup, where 8-byte YCSB keys are
        padded out to 32 bytes: the integer is simply the low-order bits of a
        ``width``-bit string.
        """
        if value < 0 or value >= (1 << width):
            raise ValueError(f"value {value} out of range for {width}-bit key")
        return cls(width, value)

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    @property
    def is_root(self) -> bool:
        return self.length == 0

    def bit(self, i: int) -> int:
        """The ``i``-th bit from the top (depth ``i`` branch direction)."""
        if not 0 <= i < self.length:
            raise IndexError(f"bit {i} out of range for length {self.length}")
        return (self.bits >> (self.length - 1 - i)) & 1

    def child(self, direction: int) -> "BitKey":
        """The key one level down on side ``direction`` (0=left, 1=right)."""
        if direction not in (0, 1):
            raise ValueError(f"direction must be 0 or 1, got {direction}")
        return BitKey(self.length + 1, (self.bits << 1) | direction)

    def parent(self) -> "BitKey":
        """The key one level up; the root has no parent."""
        if self.is_root:
            raise ValueError("root has no parent")
        return BitKey(self.length - 1, self.bits >> 1)

    def prefix(self, length: int) -> "BitKey":
        """The ancestor of this key at depth ``length``."""
        if not 0 <= length <= self.length:
            raise ValueError(f"prefix length {length} out of range")
        return BitKey(length, self.bits >> (self.length - length))

    # ------------------------------------------------------------------
    # Tree relationships
    # ------------------------------------------------------------------
    def is_proper_ancestor_of(self, other: "BitKey") -> bool:
        """True iff ``self`` is a strict prefix of ``other``."""
        shift = other.length - self.length
        return shift > 0 and (other.bits >> shift) == self.bits

    def direction_from(self, ancestor: "BitKey") -> int:
        """``dir(self, ancestor)``: 0/1 side on which ``self`` descends.

        ``ancestor`` must be a proper ancestor; the result is the bit of
        ``self`` at depth ``len(ancestor)``, e.g. ``dir(1011, 1) == 0``.
        """
        shift = self.length - ancestor.length
        if shift <= 0 or (self.bits >> shift) != ancestor.bits:
            raise ValueError(f"{ancestor!r} is not a proper ancestor of {self!r}")
        return (self.bits >> (shift - 1)) & 1

    def lca(self, other: "BitKey") -> "BitKey":
        """Least common ancestor: the longest common prefix of the two keys."""
        n = min(self.length, other.length)
        a = self.bits >> (self.length - n)
        b = other.bits >> (other.length - n)
        diff = a ^ b
        common = n - diff.bit_length()
        return BitKey(common, a >> (n - common))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Canonical encoding: 2-byte length followed by the padded bits.

        Distinct keys get distinct encodings (the explicit length keeps
        ``"0"`` and ``"00"`` apart), which the crypto layer relies on.
        """
        length = self.length
        nbits = (length + 7) & ~7
        return ((length << nbits) | (self.bits << (nbits - length))
                ).to_bytes(2 + nbits // 8, "big")

    @classmethod
    def from_encoded(cls, data: bytes) -> "BitKey":
        """Inverse of :meth:`to_bytes`."""
        if len(data) < 2:
            raise ValueError("truncated key encoding")
        length = int.from_bytes(data[:2], "big")
        nbytes = (length + 7) // 8
        if len(data) != 2 + nbytes:
            raise ValueError("key encoding has wrong payload size")
        padded = int.from_bytes(data[2:], "big")
        return cls(length, padded >> (8 * nbytes - length))

    def to_bits_string(self) -> str:
        """Render as a literal bit string, e.g. ``'0101'`` ('' for root)."""
        if self.is_root:
            return ""
        return format(self.bits, f"0{self.length}b")

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, BitKey):
            return NotImplemented
        return self.length == other.length and self.bits == other.bits

    def __lt__(self, other) -> bool:
        """Lexicographic bit-string order (prefix sorts before extension).

        This is the order the sorted-Merkle-updates optimization uses: keys
        adjacent in this order share long prefixes, so their Merkle ancestor
        records exhibit the locality of reference §6.3 manufactures.
        """
        if not isinstance(other, BitKey):
            return NotImplemented
        n = min(self.length, other.length)
        a = self.bits >> (self.length - n) if self.length else 0
        b = other.bits >> (other.length - n) if other.length else 0
        if a != b:
            return a < b
        return self.length < other.length

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"BitKey('{self.to_bits_string()}')"


_ROOT = BitKey(0, 0)
