"""Collision-resistant hashing for Merkle records.

The paper uses a C implementation of Blake3 (§7). ``hashlib.blake2b`` is the
closest C-speed primitive in the standard library; we fix a 32-byte digest to
match the paper's hash width. The cost model (``repro.sim.costs``) charges
Merkle hashing at the paper's measured ~400 MB/s regardless of what the
wall clock says here, so the substitution does not distort the evaluation.

All multi-field hashing goes through :func:`encode_fields`, a length-prefixed
canonical encoding, so distinct field tuples can never collide by
concatenation ambiguity.
"""

from __future__ import annotations

import hashlib

from repro.instrument import COUNTERS

#: Digest size in bytes for Merkle hashing (matches SHA-256/Blake3 width).
DIGEST_SIZE = 32

#: Hash of the absent value — used for null pointers in Merkle values.
NULL_HASH = b"\x00" * DIGEST_SIZE


def encode_fields(*parts: bytes) -> bytes:
    """Length-prefix and concatenate byte fields into one unambiguous blob.

    ``encode_fields(b"ab", b"c") != encode_fields(b"a", b"bc")`` — each part
    is prefixed with its 4-byte big-endian length.
    """
    out: list[bytes] = []
    for part in parts:
        out.append(len(part).to_bytes(4, "big"))
        out.append(part)
    return b"".join(out)


def decode_fields(blob: bytes) -> list[bytes]:
    """Inverse of :func:`encode_fields`; raises ``ValueError`` on bad input."""
    parts: list[bytes] = []
    i = 0
    while i < len(blob):
        if i + 4 > len(blob):
            raise ValueError("truncated field length")
        n = int.from_bytes(blob[i:i + 4], "big")
        i += 4
        if i + n > len(blob):
            raise ValueError("truncated field payload")
        parts.append(blob[i:i + n])
        i += n
    return parts


def hash_bytes(data: bytes, counters=None) -> bytes:
    """Collision-resistant hash of a byte string (the Merkle hash H)."""
    c = counters if counters is not None else COUNTERS
    c.merkle_hashes += 1
    c.merkle_hash_bytes += len(data)
    return hashlib.blake2b(data, digest_size=DIGEST_SIZE).digest()


def hash_fields(*parts: bytes, counters=None) -> bytes:
    """Hash a tuple of byte fields under the canonical encoding."""
    return hash_bytes(encode_fields(*parts), counters=counters)


def hash_key_to_data_key_bytes(application_key: bytes) -> bytes:
    """Map an arbitrary application key to a 32-byte data key (§2.1).

    The paper hashes client keys with SHA-256 when they are not already
    32 bytes; we do the same (uninstrumented — it is part of request parsing,
    not verification work).
    """
    if len(application_key) == DIGEST_SIZE:
        return application_key
    return hashlib.sha256(application_key).digest()
