"""Log-scan salvage: what survives on the device when the checkpoint does not.

CPR recovery normally restores the index from the checkpoint blob
(:mod:`repro.store.checkpoint`). When the blob is lost or damaged but the
log device survives, the data can still be read back by scanning the log:
the newest version of each key is the one at the highest address (FASTER's
version chains grow toward the tail). This is the classic recovery-by-
replay path; FastVer's *integrity* does not depend on it (the verifier
re-checks everything after a fresh load), but availability does.
"""

from __future__ import annotations

from repro.core.keys import BitKey
from repro.errors import RecoveryError, StoreError
from repro.store.hybridlog import LogDevice, LogRecord


def salvage(device: LogDevice, tail_address: int,
            width: int) -> list[tuple[int, bytes]]:
    """The live data records of the log below ``tail_address``, as sorted
    ``(key bits, payload)`` pairs of full-width keys — what a fresh load
    over the survivors takes.

    The read pass runs with the device's faults off. A page that is missing
    (never flushed, or destroyed) or undecodable (torn, rotten) is skipped,
    and every decodable page — including those *behind* a bad one — still
    counts. A key whose newest version was lost falls back to its newest
    surviving version; one whose newest survivor is a tombstone stays
    deleted. Integrity machinery treats such staleness exactly like any
    other rollback, so salvage can degrade availability but never integrity.
    """
    if tail_address < 0:
        raise RecoveryError("tail address cannot be negative")
    device.faults = None
    newest: dict[BitKey, LogRecord] = {}
    for address in range(tail_address):
        if address not in device:
            continue
        try:
            record = LogRecord.deserialize(device.read(address))
        except (StoreError, ValueError):
            continue
        if record.key.length == width:  # the load rebuilds Merkle records
            newest[record.key] = record  # addresses ascend: the last one wins
    survivors = []
    for key, record in newest.items():
        payload = getattr(record.value, "payload", None)  # None: a null value
        if not record.tombstone and payload is not None:
            survivors.append((key.bits, payload))
    return sorted(survivors)
