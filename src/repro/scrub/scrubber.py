"""Background integrity scrubber with verified record-level repair.

Latent corruption — bit rot, torn pages that slipped past a crash, a
checkpoint blob quietly decaying at rest — is *detected* by FastVer's
verification machinery, but only when the damaged record is next touched
by a client operation. A cold record can sit rotten for days, and the
first touch then costs a full restore (or worse, the retained checkpoint
itself has rotted and the restore falls through to lenient salvage).
The scrubber closes that window: it re-verifies device-resident pages in
the background, on a page budget per pump so it never starves admission,
and repairs what it finds *surgically* — one record, re-vetted through
the enclave, instead of one store, rebuilt from scratch.

Trust model
-----------
The scrubber is **host-side** code: nothing it computes is trusted, and
nothing needs to be. Its hash checks are an *early-warning mirror* of
the checks the enclave would perform on first touch (the same
``H(value)``-vs-parent-pointer comparison ``add_merkle`` authenticates).
A false negative merely re-opens the window the verifier already covers;
a false positive quarantines a healthy page, and repair re-installs the
same bytes. The load-bearing step is **repair re-vetting**: every
repaired record is pulled through the enclave's normal cold path, so a
corrupt *repair source* (a lying standby, a tampered retained tail)
is caught by exactly the check that would have caught the host serving
the forgery to a client — see :meth:`repro.core.fastver.FastVer.repair_record`.

Repair sources, in priority order:

1. the freshest live quorum standby's committed view
   (:meth:`ReplicationManager.repair_payload`, which falls back to the
   shipper's retained tail);
2. the server's durable read cache (``committed_reads``);
3. a caller-supplied ``candidate_fn`` (the chaos harness's workload
   model — standing in for an operator's external backup);
4. for interior Merkle nodes only: reconstruction from the children's
   current store values (sound only in the merkle-at-rest steady state;
   anything else fails retryably and the supervisor ladder covers it).

Every attempt — quarantine, repair, failure, rejected forgery — lands in
an append-only :class:`RepairLedger` whose digest is part of the chaos
determinism check.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.hostmirror import host_value_hash
from repro.core.keys import BitKey
from repro.core.records import (
    Aux,
    DataValue,
    MerkleValue,
    Pointer,
    Value,
    encode_value,
)
from repro.errors import (
    AvailabilityError,
    RecoveryError,
    RepairFailedError,
    RepairForgeryError,
)
from repro.instrument import COUNTERS
from repro.merkle.sparse import FOUND, lookup
from repro.obs.trace import TRACER
from repro.store.checkpoint import _deserialize_index, rot_blob_at_rest
from repro.store.hybridlog import LogRecord


#: Simulated cost per scrubbed page (ticks).
SCRUB_TICK_PER_PAGE = 0.02
#: Cost of one verified record repair (fixed part + its one page) — the
#: MTTR driver. Orders of magnitude under the supervisor's restore and
#: salvage bases: that gap IS the self-healing argument (BENCH_repair.json
#: quantifies it).
REPAIR_TICKS = 0.2


@dataclass(frozen=True)
class RepairAction:
    """One ledger line: something the scrubber decided about one page."""

    ts: float
    address: int
    key_length: int
    key_bits: int
    reason: str      # why the page drew attention (hash-mismatch, ...)
    source: str      # where the repair candidate came from ("" if n/a)
    outcome: str     # quarantined | repaired | failed | forged | superseded
                     # | checkpoint-rot

    def line(self) -> str:
        return (f"{self.ts:.3f}|{self.address}|{self.key_length}"
                f":{self.key_bits}|{self.reason}|{self.source}|{self.outcome}")


class RepairLedger:
    """Append-only record of every scrub/repair decision.

    The ledger is the audit trail the paper's threat model wants from a
    self-healing store: *which* pages rotted, *where* the replacement
    bytes came from, and *what* the enclave said about them. Its digest
    folds into the chaos determinism check, so a run that heals the same
    damage a different way fails reproducibility loudly.
    """

    def __init__(self):
        self.actions: list[RepairAction] = []

    def record(self, ts: float, address: int, key: BitKey | None,
               reason: str, outcome: str, source: str = "") -> None:
        self.actions.append(RepairAction(
            ts=ts, address=address,
            key_length=key.length if key is not None else -1,
            key_bits=key.bits if key is not None else -1,
            reason=reason, source=source, outcome=outcome))

    def digest(self) -> str:
        h = hashlib.sha256()
        for action in self.actions:
            h.update(action.line().encode())
            h.update(b"\n")
        return h.hexdigest()

    def outcomes(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for action in self.actions:
            out[action.outcome] = out.get(action.outcome, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.actions)


class Scrubber:
    """Incremental device-page verifier and repair driver.

    One :meth:`pump` does a bounded slice of work in three steps:
    validate the retained checkpoint blob (rot-at-rest is only
    observable when someone consults the blob — better the scrubber now
    than recovery later), attempt repair of every quarantined page, then
    walk at most ``budget_pages`` device-resident pages forward from a
    persistent cursor. The cursor orders pages top-down by key
    ``(length, bits)``, so a corrupt interior node is found — and
    repaired — before the scrub reaches records beneath it whose chain
    checks would otherwise fail on the dirty ancestor.

    In-memory pages are skipped: the memory copy is authoritative and
    the next flush rewrites the device page anyway.
    """

    def __init__(self, db, budget_pages: int = 4, repl=None, server=None,
                 candidate_fn=None, now_fn=None, advance_fn=None):
        self.db = db
        self.budget_pages = max(1, budget_pages)
        self.repl = repl
        self.server = server
        self.candidate_fn = candidate_fn
        self._now = now_fn if now_fn is not None else (lambda: 0.0)
        self._advance = advance_fn if advance_fn is not None else (lambda t: None)
        self.ledger = RepairLedger()
        # Walk state: cursor is the (length, bits) of the last key checked.
        self._cursor: tuple[int, int] | None = None
        self.full_passes = 0
        self.pages_checked = 0
        self.mismatches_found = 0
        self.repairs_done = 0
        # Retained-checkpoint validation state.
        self.checkpoint_stale = False
        self._checkpoint_version = None
        self._quarantine_keys: dict[int, BitKey] = {}
        self._repair_ticks_acc = 0.0

    def inherit(self, old: "Scrubber | None") -> "Scrubber":
        """Carry the audit trail over from the scrubber this one replaces
        (the store under it was salvaged, promoted or re-provisioned):
        the ledger and the lifetime stats outlive any one store."""
        if old is not None:
            self.ledger = old.ledger
            self.pages_checked = old.pages_checked
            self.mismatches_found = old.mismatches_found
            self.repairs_done = old.repairs_done
            self.full_passes = old.full_passes
        return self

    # ------------------------------------------------------------------
    # Pump
    # ------------------------------------------------------------------
    def pump(self) -> dict:
        """One bounded scrub slice; returns a summary for callers/tests."""
        self._check_retained_checkpoint()
        repaired = self.repair_pending()
        pages, mismatches = self._walk()
        if pages:
            self._advance(pages * SCRUB_TICK_PER_PAGE)
        self._note_quarantine_gauge()
        summary = {
            "pages": pages,
            "mismatches": mismatches,
            "repaired": repaired,
            "quarantined": len(self.db.store.quarantined_addresses),
            "checkpoint_stale": self.checkpoint_stale,
        }
        if pages or mismatches or repaired:
            TRACER.record("scrub", self._now(), **summary)
        return summary

    def scrub_to_convergence(self, max_passes: int = 8,
                             max_pumps: int = 10000) -> bool:
        """Pump until one full pass finds nothing and the quarantine is
        empty (the chaos soak's zero-quarantine oracle), or give up."""
        pumps = 0
        for _ in range(max_passes):
            target = self.full_passes + 1
            found_before = self.mismatches_found
            while self.full_passes < target and pumps < max_pumps:
                self.pump()
                pumps += 1
            if (self.full_passes >= target
                    and self.mismatches_found == found_before
                    and not self.db.store.quarantined_addresses):
                return True
        return False

    # ------------------------------------------------------------------
    # Retained checkpoint blob
    # ------------------------------------------------------------------
    def _check_retained_checkpoint(self) -> None:
        checkpoint = self.db.last_checkpoint
        if checkpoint is None:
            return
        token = checkpoint.store_token
        if self._checkpoint_version != token.version:
            # A fresh checkpoint replaced the blob we flagged.
            self._checkpoint_version = token.version
            self.checkpoint_stale = False
        if self.checkpoint_stale:
            return  # known-rotted; waiting for the next checkpoint
        rot_blob_at_rest(token, self.db.faults)
        try:
            _deserialize_index(token.index_blob)
        except RecoveryError as exc:
            # The recovery point itself decayed. Nothing to repair in
            # place (the blob is not Merkle-protected; its integrity
            # story *is* replacement) — flag it so the next maintenance
            # checkpoint supersedes it before anyone needs to restore.
            self.checkpoint_stale = True
            COUNTERS.scrub_checkpoint_refreshes += 1
            self.ledger.record(self._now(), -1, None,
                               reason=f"retained-blob-rot:{exc}",
                               outcome="checkpoint-rot")
            TRACER.record("scrub", self._now(), checkpoint_rot=True,
                          version=token.version)

    # ------------------------------------------------------------------
    # Quarantine repair
    # ------------------------------------------------------------------
    def repair_pending(self) -> int:
        """Attempt a verified repair of every quarantined page; returns
        how many came back clean."""
        repaired = 0
        for address in list(self.db.store.quarantined_addresses):
            key = self._quarantine_keys.get(address)
            if key is None:
                key = self._key_for_address(address)
            if self._repair_one(address, key):
                repaired += 1
        self._note_quarantine_gauge()
        return repaired

    def _key_for_address(self, address: int) -> BitKey | None:
        """Best-effort reverse lookup for pages quarantined by someone
        else (lenient salvage) that arrive without a key attached."""
        store = self.db.store
        try:
            record = LogRecord.deserialize(
                store.log.device.read_with_retry(address))
        except Exception:
            record = None
        if record is not None and store.index.lookup(record.key) == address:
            return record.key
        for key, addr in store.index.items():
            if addr == address:
                return key
        return None

    def _repair_one(self, address: int, key: BitKey | None) -> bool:
        db, store = self.db, self.db.store
        source = ""
        try:
            if db.faults is not None and db.faults.fire("scrub.repair.fail"):
                raise RepairFailedError(
                    "injected repair failure (scrub.repair.fail)")
            if key is None:
                raise RepairFailedError(
                    f"no index entry resolves quarantined page {address}")
            if store.index.lookup(key) != address:
                # The index moved past this version; the rotten page is
                # unreferenced dead weight, not live state.
                self._dequarantine(address)
                self.ledger.record(self._now(), address, key,
                                   reason="index-moved", outcome="superseded")
                return False
            candidate, source = self._candidate_for(key)
            tier = db.repair_record(key, candidate)
        except RepairFailedError as exc:
            self._note_unrepaired(address, key, exc, source, "failed")
            return False
        except RepairForgeryError as exc:
            if source == "reconstruction":
                # Our own reconstruction disagreed with the authenticated
                # root — a stale/rotted *child*, not a lying courier.
                # Retryable: the child's own scrub pass repairs it first.
                self._note_unrepaired(address, key, exc, source, "failed")
                return False
            # An external candidate failed enclave re-vetting: that is a
            # detected forgery, and it surfaces as the integrity error it
            # is — the supervisor treats it like any tamper detection.
            self._note_unrepaired(address, key, exc, source, "forged")
            raise
        else:
            self._dequarantine(address)
            COUNTERS.scrub_repairs += 1
            self.repairs_done += 1
            self.ledger.record(self._now(), address, key, reason=tier,
                               source=source, outcome="repaired")
            TRACER.record("repair", self._now(), address=address,
                          source=source, tier=tier, outcome="repaired")
            return True
        finally:
            self._advance(REPAIR_TICKS)
            self._repair_ticks_acc += REPAIR_TICKS
            whole = int(self._repair_ticks_acc)
            if whole:
                COUNTERS.repair_ticks += whole
                self._repair_ticks_acc -= whole

    def _note_unrepaired(self, address: int, key: BitKey | None,
                         exc: Exception, source: str, outcome: str) -> None:
        """Count, ledger and trace one repair attempt that left its page
        quarantined (``failed`` is retryable, ``forged`` is a detection)."""
        if outcome == "forged":
            COUNTERS.repair_forgeries += 1
        else:
            COUNTERS.repair_failures += 1
        self.ledger.record(self._now(), address, key, reason=str(exc)[:120],
                           source=source, outcome=outcome)
        TRACER.record("repair", self._now(), address=address, source=source,
                      outcome=outcome)

    def _dequarantine(self, address: int) -> None:
        store = self.db.store
        if address in store.quarantined_addresses:
            store.quarantined_addresses.remove(address)
        self._quarantine_keys.pop(address, None)

    # ------------------------------------------------------------------
    # Candidate sourcing
    # ------------------------------------------------------------------
    def _candidate_for(self, key: BitKey) -> tuple[Value | None, str]:
        db = self.db
        if db.tier_of(key) == "cached":
            # The enclave already holds the authentic value (the host
            # mirror shadows it), so the repair needs no courier at all —
            # sourcing one here would fail spuriously when the rotted page
            # is an interior node whose children are not merkle-at-rest.
            return None, "verifier-cache"
        if key.length == db.config.key_width:
            if self.repl is not None:
                found, payload = self.repl.repair_payload(key.bits)
                if found:
                    return DataValue(payload), "standby"
            if self.server is not None:
                cache = self.server.committed_reads
                if key in cache:
                    return DataValue(cache[key]), "server-cache"
            if self.candidate_fn is not None:
                found, payload = self.candidate_fn(key.bits)
                if found:
                    return DataValue(payload), "external"
            raise RepairFailedError(
                f"no authentic source offers a candidate for {key!r}")
        return self._reconstruct_node(key), "reconstruction"

    def _reconstruct_node(self, key: BitKey) -> MerkleValue:
        """Rebuild an interior Merkle value from its children's current
        store values. Sound only when both children are merkle-at-rest:
        a cached or deferred child's parent-pointer hash is legitimately
        stale, so reconstructing from its *current* value would produce a
        parent the enclave never authenticated."""
        db = self.db
        snapshot = dict(db.store.index.items())
        ptrs: list[Pointer | None] = [None, None]
        for side in (0, 1):
            child = self._closure_child(snapshot, key, side)
            if child is None:
                continue
            if db.tier_of(child) != "merkle":
                raise RepairFailedError(
                    f"child {child!r} of {key!r} is not merkle-at-rest; "
                    f"reconstruction would forge a stale parent")
            try:
                child_value = db.host_value(child)
            except AvailabilityError:
                raise
            except Exception as exc:
                raise RepairFailedError(
                    f"child {child!r} of {key!r} is unreadable: {exc}"
                ) from exc
            if child_value is None:
                raise RepairFailedError(
                    f"child {child!r} of {key!r} has no value")
            ptrs[side] = Pointer(child, host_value_hash(child_value))
        if ptrs == [None, None]:
            raise RepairFailedError(
                f"interior node {key!r} has no surviving children")
        return MerkleValue(*ptrs)

    @staticmethod
    def _closure_child(snapshot: dict[BitKey, int], node: BitKey,
                       side: int) -> BitKey | None:
        """The tree child of ``node`` on ``side``: the topmost index key
        strictly below ``node`` on that side (unique because the key set
        is closed under pairwise LCA)."""
        best = None
        for key in snapshot:
            if not node.is_proper_ancestor_of(key):
                continue
            if key.bit(node.length) != side:
                continue
            if best is None or (key.length, key.bits) < (best.length, best.bits):
                best = key
        return best

    # ------------------------------------------------------------------
    # Budgeted walk
    # ------------------------------------------------------------------
    def _walk(self) -> tuple[int, int]:
        store = self.db.store
        snapshot = dict(store.index.items())
        keys = sorted(snapshot, key=lambda k: (k.length, k.bits))
        if not keys:
            return 0, 0
        start = 0
        if self._cursor is not None:
            while start < len(keys) and \
                    (keys[start].length, keys[start].bits) <= self._cursor:
                start += 1
            if start >= len(keys):
                start = 0
                self._cursor = None
        pages = mismatches = 0
        device = store.log.device
        # The access-pattern hint a byzantine host can key on: scrub
        # reads are distinguishable from serving reads (they are!), and
        # the scrub_evasion red-team campaign exploits exactly this flag.
        device.scrub_reading = True
        index = start
        try:
            while pages < self.budget_pages and index < len(keys):
                key = keys[index]
                index += 1
                address = snapshot[key]
                if address < 0 or store.log.in_memory(address):
                    continue
                pages += 1
                self.pages_checked += 1
                reason = self._check_page(key, address)
                if reason is not None and \
                        address not in store.quarantined_addresses:
                    self.quarantine(key, address, reason)
                    mismatches += 1
        finally:
            device.scrub_reading = False
        if index >= len(keys):
            self._cursor = None
            self.full_passes += 1
        else:
            last = keys[index - 1]
            self._cursor = (last.length, last.bits)
        COUNTERS.scrubbed_pages += pages
        return pages, mismatches

    def quarantine(self, key: BitKey, address: int, reason: str) -> None:
        """Fence one dirty page off until a verified repair clears it."""
        self.db.store.quarantined_addresses.append(address)
        self._quarantine_keys[address] = key
        COUNTERS.scrub_mismatches += 1
        self.mismatches_found += 1
        self.ledger.record(self._now(), address, key, reason=reason,
                           outcome="quarantined")

    def triage(self, keys) -> bool:
        """Re-check the device page behind each of ``keys`` out of walk
        order — the keys whose touch just raised an integrity alarm —
        quarantine the ones that really are dirty and repair them. Returns
        True when nothing is left quarantined."""
        store = self.db.store
        for key in keys:
            address = store.index.lookup(key)
            if address < 0 or store.log.in_memory(address) \
                    or address in store.quarantined_addresses:
                continue
            reason = self._check_page(key, address)
            if reason is not None:
                self.quarantine(key, address, f"suspect:{reason}")
        self.repair_pending()
        return not store.quarantined_addresses

    def _check_page(self, key: BitKey, address: int) -> str | None:
        """Re-verify one device page; a string reason means quarantine."""
        db, store = self.db, self.db.store
        try:
            blob = store.log.device.read_with_retry(address)
        except AvailabilityError:
            return None  # transient; the next pass retries
        except Exception:
            return "missing"
        try:
            record = LogRecord.deserialize(blob)
        except Exception:
            return "undecodable"
        if record.key != key:
            return "key-mismatch"
        tier = db.tier_of(key)
        if tier == "cached":
            # Enclave-cached: the mirror shadows the authoritative value.
            if encode_value(record.value) != encode_value(db.host_value(key)):
                return "cached-divergence"
            return None
        if tier == "deferred":
            # Individually unverifiable by design (the multiset check is
            # aggregate), but the aux word is host metadata we *can* vet.
            ts, epoch = db.deferred_index[key]
            if record.aux != Aux.deferred(ts, epoch).pack():
                return "aux-divergence"
            return None
        # Merkle-at-rest: H(value) must match the authenticated parent
        # pointer — the same comparison add_merkle would make on touch.
        try:
            result = lookup(db.host_value, key)
            if result.kind != FOUND:
                return "unreachable"
            parent_value = db.host_value(result.terminal)
        except AvailabilityError:
            return None
        except Exception:
            return "chain-error"
        ptr = db.pointer_at(parent_value, result.terminal, key)
        if ptr is None:
            return "orphaned"
        if host_value_hash(record.value) != ptr.hash:
            return "hash-mismatch"
        return None

    # ------------------------------------------------------------------
    def _note_quarantine_gauge(self) -> None:
        depth = len(self.db.store.quarantined_addresses)
        if depth > COUNTERS.quarantined_pages:
            COUNTERS.quarantined_pages = depth
