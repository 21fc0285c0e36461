"""Log-scan recovery: rebuild the hash index from the device alone.

CPR recovery normally restores the index from the checkpoint blob
(:mod:`repro.store.checkpoint`). When the blob is lost or damaged but the
log device survives, the index can be reconstructed by scanning the log:
the newest version of each key is the one at the highest address (FASTER's
version chains grow toward the tail). This is the classic recovery-by-
replay path; FastVer's *integrity* does not depend on it (the verifier
re-checks everything), but availability does.
"""

from __future__ import annotations

from repro.core.keys import BitKey
from repro.errors import RecoveryError, TransientIOError
from repro.store.faster import FasterKV
from repro.store.hybridlog import NULL_ADDRESS, LogDevice, LogRecord


def rebuild_index_from_log(device: LogDevice, tail_address: int,
                           ordered_width: int | None = None,
                           strict: bool = True) -> FasterKV:
    """Reconstruct a store by scanning every page below ``tail_address``.

    Pages may be missing (never flushed, or destroyed); a key whose newest
    surviving version is a tombstone stays deleted. Missing pages merely
    lose data, which the verifier will flag when the client next touches
    an affected key.

    Undecodable pages (torn writes, bit rot) depend on ``strict``:

    * ``strict=True`` (default) raises :class:`RecoveryError` at the first
      one — nothing is salvaged.
    * ``strict=False`` *quarantines* the page — it is skipped, its address
      is recorded in ``store.quarantined_addresses`` on the returned
      store, and every decodable page (including those *behind* the bad
      one) is still recovered. A key whose newest version was quarantined
      falls back to its newest decodable version; integrity machinery
      treats such staleness exactly like any other rollback, so lenient
      rebuild can degrade availability but never integrity.

    Transient read failures are retried a bounded number of times; in
    lenient mode a persistently unreadable page is quarantined rather
    than aborting the rebuild.
    """
    if tail_address < 0:
        raise RecoveryError("tail address cannot be negative")
    store = FasterKV(ordered_width=ordered_width, device=device)
    newest: dict[BitKey, tuple[int, LogRecord]] = {}
    quarantined: list[int] = []
    for address in range(tail_address):
        if address not in device:
            continue
        try:
            record = LogRecord.deserialize(device.read_with_retry(address))
        except TransientIOError as exc:
            if strict:
                raise
            quarantined.append(address)
            continue
        except Exception as exc:
            if strict:
                raise RecoveryError(
                    f"page {address} is undecodable: {exc}") from exc
            quarantined.append(address)
            continue
        current = newest.get(record.key)
        if current is None or address > current[0]:
            newest[record.key] = (address, record)
    store.log._next_address = tail_address
    store.log.head_address = tail_address
    store.log.read_only_address = tail_address
    live: list[BitKey] = []
    for key, (address, record) in newest.items():
        store.index.try_update(key, NULL_ADDRESS, address)
        if not record.tombstone and key.length == ordered_width:
            live.append(key)
    store.directory.extend(live)
    store.quarantined_addresses = quarantined
    return store
