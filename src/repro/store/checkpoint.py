"""CPR-style checkpointing (Prasaad et al., SIGMOD 2019; used per §7).

FASTER's Concurrent Prefix Recovery takes fuzzy checkpoints that commit a
*prefix* of each thread's operations. FastVer aligns its verification
epochs with CPR epochs so that "epoch e verified" coincides with "epoch e's
state persisted" (§7 Durability).

A checkpoint consists of: a version number, the log tail address, a full
flush of in-memory log records to the device, and an explicit binary
serialization of the hash index. The verifier separately checkpoints its
*own* state under a MAC (see ``repro.core.multiverifier``); this module
only covers the untrusted database state.
"""

from __future__ import annotations

from repro.core.keys import BitKey
from repro.errors import AvailabilityError, CheckpointError, RecoveryError
from repro.store.faster import FasterKV
from repro.store.hashindex import HashIndex
from repro.store.hybridlog import LogDevice


class CheckpointToken:
    """A durable database checkpoint."""

    __slots__ = ("version", "tail_address", "index_blob", "ordered_width")

    def __init__(self, version: int, tail_address: int, index_blob: bytes,
                 ordered_width: int | None):
        self.version = version
        self.tail_address = tail_address
        self.index_blob = index_blob
        self.ordered_width = ordered_width


def _serialize_index(entries: HashIndex | dict[BitKey, int]) -> bytes:
    """Count, then per entry 4-byte key length | :meth:`BitKey.to_bytes`
    | 8-byte signed address, packed into one integer per ``to_bytes``."""
    parts = [len(entries).to_bytes(8, "big")]
    for key, address in entries.items():
        length = key.length
        nbits = (length + 7) & ~7
        klen = 2 + (nbits >> 3)
        parts.append((((klen << (16 + nbits) | length << nbits
                        | key.bits << (nbits - length)) << 64)
                      | (address & 0xFFFFFFFFFFFFFFFF)
                      ).to_bytes(12 + klen, "big"))
    return b"".join(parts)


def _deserialize_index(blob: bytes, encodings: dict[bytes, BitKey] | None = None
                       ) -> dict[BitKey, int]:
    """The blob's entries; ``encodings`` (if given) gets key bytes -> key."""
    if len(blob) < 8:
        raise RecoveryError("truncated index blob")
    count = int.from_bytes(blob[:8], "big")
    entries: dict[BitKey, int] = {}
    off = 8
    try:
        for _ in range(count):
            klen = int.from_bytes(blob[off:off + 4], "big")
            off += 4
            if off + klen > len(blob):
                raise RecoveryError("index blob ends mid-entry")
            encoded = blob[off:off + klen]
            key = BitKey.from_encoded(encoded)
            off += klen
            address = int.from_bytes(blob[off:off + 8], "big", signed=True)
            off += 8
            entries[key] = address
            if encodings is not None:
                encodings[encoded] = key
    except RecoveryError:
        raise
    except Exception as exc:
        # Bit rot produces arbitrary decode failures; surface them all as
        # the one typed recovery error so callers can fall back to the
        # lenient log-scan rebuild.
        raise RecoveryError(f"undecodable index blob: {exc}") from exc
    if off != len(blob):
        raise RecoveryError("trailing bytes in index blob")
    if len(entries) != count:
        raise RecoveryError(
            f"index blob repeats a key: {count} entries, {len(entries)} keys")
    return entries


def take_checkpoint(store: FasterKV, version: int,
                    faults=None) -> CheckpointToken:
    """Persist the store: flush the log, snapshot the index.

    The flush is ``flush_until(tail)`` rather than a re-write of every
    in-memory record: addresses below the head are already on the device
    and — because in-place updates only happen in the mutable tail — their
    pages never change again. Device pages are therefore write-once, which
    is what makes recovery from an *older* token safe even when a *newer*
    checkpoint's flush died partway: the older token's addresses are
    untouched by the failed flush.

    A flush failure (partial flush, unhealable torn write) propagates as a
    typed availability error and **no token is issued** — the previous
    checkpoint stays the recovery point. ``faults`` (a FaultPlan) can
    truncate or corrupt the serialized index blob after a successful
    flush, modeling bit rot on untrusted checkpoint storage; that damage
    is detected at :func:`recover` time, which is why callers keep the
    lenient log-scan rebuild as a fallback.
    """
    if version <= 0:
        raise CheckpointError("checkpoint version must be positive")
    store.log.flush_until(store.log.tail_address)
    blob = _serialize_index(store.index)
    if faults is not None:
        if faults.fire("checkpoint.blob.truncate"):
            blob = blob[:len(blob) // 2]
        if faults.fire("checkpoint.blob.corrupt") and blob:
            mid = len(blob) // 2
            blob = blob[:mid] + bytes([blob[mid] ^ 0xFF]) + blob[mid + 1:]
    token = CheckpointToken(version, store.log.tail_address, blob,
                            store.ordered_width)
    # The quarantine list is the scrubber's: a checkpoint empties it, and a
    # page still damaged is found again by the scrubber's next walk.
    store.quarantined_addresses = []
    return token


def rot_blob_at_rest(token: CheckpointToken, faults) -> bool:
    """Fire ``checkpoint.blob.bitrot`` against a *retained* token.

    Unlike ``checkpoint.blob.corrupt`` (which damages the blob as it is
    written), this models rot that sets in while the token sits as the
    recovery point: callers that consult a retained blob — recovery, the
    background scrubber — fire this first, and a hit flips one byte of the
    token *persistently*, exactly like device bitrot. Returns whether the
    blob rotted on this consultation (the damage itself is only ever
    observed through :func:`_deserialize_index` failing later).
    """
    if faults is None or not token.index_blob:
        return False
    if not faults.fire("checkpoint.blob.bitrot"):
        return False
    blob = token.index_blob
    pos = (len(blob) * 2) // 3
    token.index_blob = blob[:pos] + bytes([blob[pos] ^ 0x10]) + blob[pos + 1:]
    return True


def recover(token: CheckpointToken, device: LogDevice,
            pages: list | None = None, auxes: list | None = None) -> FasterKV:
    """Rebuild a store from a checkpoint and its log device.

    Every index entry must resolve on the device; a missing page means the
    adversary destroyed the log (§7 notes durability cannot survive that —
    the failure is *detected*, not repaired). ``pages`` / ``auxes`` (empty
    lists, for :meth:`FasterKV.aux_words`) take, in index order, the page
    object each entry's own read returned — rotted, if that read rotted it —
    and its aux word, ``None`` for a tombstone.
    """
    store = FasterKV(ordered_width=token.ordered_width, device=device)
    # Page and Merkle pointer keys are index keys in the blob's bytes: this
    # call's table of them (bytes and keys only) leaves only misses to decode.
    encodings: dict[bytes, BitKey] = {}
    entries = _deserialize_index(token.index_blob, encodings)
    store.index.restore(entries)
    store.log._next_address = token.tail_address
    store.log.head_address = token.tail_address
    store.log.read_only_address = token.tail_address
    live: list[BitKey] = []
    for key, address in entries.items():
        if address not in device:
            raise RecoveryError(f"log page {address} missing from device")
        try:
            page = store.log.fetch(address)
            record = store.log.decode(address, page, encodings)
        except AvailabilityError:
            raise  # transient; the caller's bounded retry handles it
        except Exception as exc:
            raise RecoveryError(
                f"log page {address} is undecodable: {exc}") from exc
        if record.key is not key and record.key != key:
            raise RecoveryError(
                f"index entry for {key!r} resolves to a record for {record.key!r}"
            )
        if pages is not None:
            pages.append(page)
            auxes.append(None if record.tombstone else record.aux)
        if not record.tombstone and key.length == token.ordered_width:
            live.append(key)
    store.directory.extend(live)
    return store
