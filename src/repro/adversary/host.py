"""Byzantine host behaviours (§2.2's threat model, §6.4's attack surface).

Each attack mutates FastVer's *untrusted* state — the store, the aux
words, the host's own bookkeeping — exactly as an adversary with full
control of the server could. The guarantee under test: after any attack,
either some verifier check raises an :class:`~repro.errors.IntegrityError`
on the next interaction, or the epoch's aggregated set-hash equality fails
at the next ``verify()`` — before any epoch receipt reaches a client.

Attacks are plain functions ``attack(db, key_int) -> str`` returning a
short description; ``ATTACKS`` is the registry the parametrized
integration tests and the attack-demo example iterate.
"""

from __future__ import annotations

from repro.core.fastver import FastVer
from repro.core.records import Aux, DataValue, MerkleValue, Pointer, Protection
from repro.errors import ProtocolError


def _record(db: FastVer, key: int):
    record = db.store.read_record(db.data_key(key))
    if record is None:
        raise ProtocolError(f"attack target {key} not in store")
    return record


def _writeback(db: FastVer, record) -> None:
    """Make a tampered record durable. ``read_record`` hands back the live
    object for in-memory addresses (mutations are immediately visible) but
    a transient deserialized copy for device-resident ones — and a host
    that owns the disk simply rewrites the evicted bytes."""
    address = db.store.index.lookup(record.key)
    if not db.store.log.in_memory(address):
        db.store.log.device.write(address, record.serialize())


def tamper_value(db: FastVer, key: int) -> str:
    """Overwrite a record's value in the store behind the verifier's back."""
    record = _record(db, key)
    record.value = DataValue(b"__tampered__")
    _writeback(db, record)
    return "store value overwritten"


def tamper_timestamp(db: FastVer, key: int) -> str:
    """Perturb a deferred record's timestamp (break the Blum discipline)."""
    record = _record(db, key)
    aux = Aux.unpack(record.aux)
    if aux.state is not Protection.DEFERRED:
        raise ProtocolError("timestamp attack needs a deferred record")
    record.aux = Aux.deferred(aux.timestamp + 17, aux.epoch).pack()
    _writeback(db, record)
    # Keep the host's own index consistent with the lie, as a clever
    # attacker controlling the whole host would.
    db.deferred_index[db.data_key(key)] = (aux.timestamp + 17, aux.epoch)
    return "deferred timestamp inflated by 17"


def rollback_record(db: FastVer, key: int, put) -> str:
    """Capture a record's state, let an authorized put advance it, then
    restore the stale (value, aux) pair — serving pre-update data."""
    record = _record(db, key)
    old_value, old_aux = record.value, record.aux
    put()  # the legitimate update the adversary wants to hide
    record = _record(db, key)
    record.value, record.aux = old_value, old_aux
    _writeback(db, record)
    bk = db.data_key(key)
    old = Aux.unpack(old_aux)
    if old.state is Protection.DEFERRED:
        db.deferred_index[bk] = (old.timestamp, old.epoch)
    else:
        db.deferred_index.pop(bk, None)
    return "record rolled back to pre-update state"


def cross_mode_confusion(db: FastVer, key: int) -> str:
    """Relabel a deferred record as Merkle-protected (§6.4's example):
    the stale parent hash may match an old value, but the dangling write
    entry unbalances the epoch sets."""
    record = _record(db, key)
    aux = Aux.unpack(record.aux)
    if aux.state is not Protection.DEFERRED:
        raise ProtocolError("cross-mode attack needs a deferred record")
    record.aux = Aux.merkle().pack()
    _writeback(db, record)
    db.deferred_index.pop(db.data_key(key), None)
    return "deferred record relabelled as merkle"


def corrupt_merkle_pointer(db: FastVer, key: int) -> str:
    """Corrupt a hash along the Merkle chain guarding a cold record.

    Walks from the leaf upward and flips the pointer hash at the first
    ancestor whose record is *not* verifier-cached (a cached holder's
    store copy is never consulted, so corrupting it would be a no-op).
    """
    bk = db.data_key(key)
    from repro.merkle.sparse import FOUND, lookup
    result = lookup(db.host_value, bk)
    if result.kind != FOUND:
        raise ProtocolError("target not in tree")
    chain = list(result.path)  # root ... terminal
    child = bk
    for holder in reversed(chain):
        # A meaningful corruption needs the child's next add_merkle to be
        # checked against this holder's stored hash: both must be uncached
        # and the child must be Merkle-protected.
        child_ok = (db.tier_of(child) != "cached"
                    and db.store.read_record(child) is not None
                    and Aux.unpack(db.store.read_record(child).aux).state
                    is Protection.MERKLE)
        if db.tier_of(holder) == "cached" or not child_ok:
            child = holder
            continue
        record = db.store.read_record(holder)
        value = record.value
        assert isinstance(value, MerkleValue)
        side = child.direction_from(holder)
        ptr = value.pointer(side)
        record.value = value.with_pointer(side, Pointer(ptr.key, b"\xff" * 32))
        _writeback(db, record)
        return f"merkle hash corrupted at {holder!r}"
    raise ProtocolError("chain effectively cache-protected; nothing to corrupt")


def skip_migration(db: FastVer, key: int) -> str:
    """'Forget' to migrate a deferred record at epoch close: its write
    entry stays unmatched, so the close must fail."""
    bk = db.data_key(key)
    if db.tier_of(bk) != "deferred":
        raise ProtocolError("skip-migration attack needs a deferred record")
    del db.deferred_index[bk]
    return "record dropped from the migration index"


def duplicate_read_entry(db: FastVer, key: int) -> str:
    """Present the same deferred record to two verifier caches at once —
    the double-add that a multiset-secure combiner must catch."""
    bk = db.data_key(key)
    record = _record(db, key)
    aux = Aux.unpack(record.aux)
    if aux.state is not Protection.DEFERRED:
        raise ProtocolError("double-add attack needs a deferred record")
    vid = 0
    # The attacker controls the host, so it keeps its own mirrors and
    # prediction audit consistent with the injection (§5.3: verifier
    # clocks are predictable by anyone seeing the command stream).
    db._make_room(vid, 1, {bk})
    mirror = db.mirrors[vid]
    mirror.observe_add(aux.timestamp)
    ts_new = mirror.predict_evict()
    db.logs[vid].append("add_deferred", bk, record.value, aux.timestamp,
                        aux.epoch)
    db.logs[vid].append("evict_deferred", bk)
    db._expected_evicts[vid].append((ts_new, db.current_epoch))
    # The extra (add, evict) pair leaves the epoch's sets unbalanced:
    # one surplus read entry and one surplus write entry with a *different*
    # timestamp, plus the original write entry now double-consumed.
    return "record double-added through the verifier log"


def forge_receipt_payload(receipt) -> None:
    """Flip a receipt's payload in transit (client-side MAC must catch)."""
    receipt.payload = b"__forged__"


# ----------------------------------------------------------------------
# Receipt-channel attacks: the adversary owns the host→client wire.
# These install a FaultPlan on ``db.receipt_channel`` and return a
# description; the guarantee under test is that none of them can settle a
# wrong answer — drops only degrade availability (the op never settles),
# duplicates and reorders are absorbed by idempotent, order-insensitive
# acceptance.
# ----------------------------------------------------------------------

def drop_receipts(db: FastVer, client) -> str:
    """Swallow every receipt in transit: ops never settle, never lie."""
    from repro.faults import FaultPlan
    db.receipt_channel.faults = FaultPlan(seed=0, specs={"receipt.drop": 1.0})
    return "all receipts dropped in transit"


def duplicate_receipts(db: FastVer, client) -> str:
    """Deliver every receipt twice (replay by the transport)."""
    from repro.faults import FaultPlan
    db.receipt_channel.faults = FaultPlan(
        seed=0, specs={"receipt.duplicate": 1.0})
    return "all receipts duplicated in transit"


def reorder_receipts(db: FastVer, client) -> str:
    """Withhold receipts and deliver them late, in reversed order."""
    from repro.faults import FaultPlan
    db.receipt_channel.faults = FaultPlan(
        seed=0, specs={"receipt.reorder": 1.0})
    return "all receipts delivered late and reversed"


#: Attacks runnable generically over a warm (deferred) target key.
WARM_ATTACKS = {
    "tamper_value": tamper_value,
    "tamper_timestamp": tamper_timestamp,
    "cross_mode_confusion": cross_mode_confusion,
    "skip_migration": skip_migration,
    "duplicate_read_entry": duplicate_read_entry,
}

#: Attacks over a cold (merkle) target key.
COLD_ATTACKS = {
    "tamper_value": tamper_value,
    "corrupt_merkle_pointer": corrupt_merkle_pointer,
}

#: Attacks on the untrusted receipt transport, ``attack(db, client) -> str``.
RECEIPT_ATTACKS = {
    "drop_receipts": drop_receipts,
    "duplicate_receipts": duplicate_receipts,
    "reorder_receipts": reorder_receipts,
}
