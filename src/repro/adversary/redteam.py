"""The distributed red-team engine: active, stateful byzantine attacks.

Where :mod:`repro.faults.chaos` models an *accident-prone* host (random
drops, reboots, torn writes), this module models a *malicious* one. Each
attack here is a choreographed campaign against the distributed surface
grown around the verifier — checkpoints, log shipping, failover, group
commit, and the idempotency table — exploiting exactly the levers a real
byzantine host holds: it runs the scheduler, it carries every message,
and it owns every byte outside the enclave.

The attacks (the ``REDTEAM_ATTACKS`` registry):

* ``rollback_fork`` — restart the host from a stale-but-genuine
  checkpoint (a forked timeline with a replayed log prefix) and try to
  keep serving. Caught by the enclave's sealed anti-rollback slot.
* ``receipt_replay`` — capture genuine epoch receipts and replay them
  later: pre-fence receipts after a failover (caught by the client's
  epoch fence), or already-accepted receipts to re-settle a forked
  timeline (caught by the client's (epoch, chain) dedup).
* ``split_brain`` — skip the deposed primary's teardown at promotion and
  keep it answering under its old generation alongside the new leader.
  Caught by the SDK's generation-monotonicity check.
* ``double_lease`` — the lease-layer variant of split-brain: the deposed
  primary's host courts a group member for a lease grant at the old
  generation, then forges the grant tag outright. Caught by the member
  enclave's pinned generation floor (the promoted leader re-acquired the
  lease at the new generation) and by the channel MAC on the grant.
* ``stale_replica_replay`` — a byzantine replica answers a budgeted
  stale read with a genuine-but-superseded value while claiming it is
  fresh. Caught by the SDK vetting stale answers against its own settled
  receipt history.
* ``shipping_fork`` — feed the standby a divergent-but-internally-
  consistent log suffix sealed with a *valid* channel MAC (the host can
  invoke ``repl_sign``). Caught by the standby enclave re-validating
  every entry: the replayed put trips its anti-replay window.
* ``dedup_tamper`` — rewrite a recorded answer in the idempotency table
  between the response-wire loss and the client's dedup query. Caught by
  the SDK cross-checking the dedup answer against the verifier-signed op
  receipt the client already holds.
* ``batch_tamper`` — mutate a staged operation between admission and
  flush (group commit) or just before apply (legacy path). Caught by the
  enclave's client-MAC validation.
* ``scrub_evasion`` — rot a device page but serve the background
  scrubber pristine bytes (keying on its access-pattern hint), so the
  scrub pass comes back clean. Caught by the enclave's cold-path hash
  check on first client touch: the scrubber is an early-warning mirror,
  never the trust anchor.
* ``settle_swap`` — in the pipelined topology, swap two in-flight
  streamed receipts between flush and settle so each ticket resolves
  with the other op's genuine result. Caught by the SDK binding every
  result to its request's nonce.

Every campaign yields a typed :class:`AttackVerdict` — detected or
escaped, which detector fired, and the detection latency in simulated
ticks — and leaves an ``attack``/``detect`` event pair in the
:mod:`repro.obs` ring so the forensic story is reconstructable from the
trace alone. ``run_redteam`` drives the full attack × topology matrix;
the zero-escape gate (tests + the CI ``redteam-smoke`` job) requires
every cell to come back detected.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro.client import RetryingClient
from repro.core.fastver import FastVer
from repro.errors import (
    IntegrityError,
    ReceiptBindingError,
    ReplayError,
    RollbackError,
    SignatureError,
    SplitBrainError,
    StaleReplayError,
)
from repro.faults.plan import FaultPlan
from repro.obs import TRACER
from repro.obs import reset as obs_reset
from repro.replication.shipper import body_digest, encode_body
from repro.server import FastVerServer
from repro.topology import Topology, build


@dataclass
class AttackVerdict:
    """The outcome of one attack campaign in one topology."""

    attack: str
    topology: str
    seed: int
    detected: bool
    #: Which check fired: ``sealed_slot``, ``client_fence``,
    #: ``client_chain``, ``sdk_generation``, ``lease_generation``,
    #: ``sdk_stale_replay``, ``standby_revalidation``,
    #: ``sdk_receipt_binding``, ``client_mac``, ``enclave_merkle`` — or
    #: "" on an escape.
    detector: str
    #: Simulated ticks between injection and detection (0 in direct mode,
    #: whose ops are instantaneous).
    latency_ticks: float
    #: Human-readable evidence summary.
    note: str
    #: Trace id of this campaign's span in the repro.obs ring.
    trace: str

    @property
    def escaped(self) -> bool:
        return not self.detected

    def as_dict(self) -> dict:
        return {
            "attack": self.attack,
            "topology": self.topology,
            "seed": self.seed,
            "detected": self.detected,
            "detector": self.detector,
            "latency_ticks": self.latency_ticks,
            "note": self.note,
            "trace": self.trace,
        }


@dataclass
class RedTeamReport:
    """Aggregated verdicts for one seeded red-team run."""

    seed: int
    verdicts: list[AttackVerdict] = field(default_factory=list)
    #: Ring-buffer forensics, captured when any campaign escapes (same
    #: shape the chaos harness emits, so CI tooling is shared).
    forensics: dict | None = None

    @property
    def escapes(self) -> int:
        return sum(1 for v in self.verdicts if v.escaped)

    @property
    def ok(self) -> bool:
        return self.escapes == 0

    def digest(self) -> str:
        """Stable digest of the verdict matrix (reproducibility check)."""
        h = hashlib.sha256()
        for v in self.verdicts:
            h.update(repr((v.attack, v.topology, v.seed, v.detected,
                           v.detector, round(v.latency_ticks, 6))).encode())
        return h.hexdigest()

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "verdicts": [v.as_dict() for v in self.verdicts],
            "escapes": self.escapes,
            "ok": self.ok,
            "digest": self.digest(),
        }


# ======================================================================
# Per-campaign context
# ======================================================================
class _Campaign:
    """One fresh system under attack: the small loaded stack the cell's
    :class:`Topology` names, built by the same :func:`repro.topology.build`
    the chaos soaks use, so the attacks run against exactly the stack the
    soaks exercise."""

    RECORDS = 48

    def __init__(self, seed: int, topology: str):
        self.seed = seed
        self.topology = topology
        stack = build(REDTEAM_TOPOLOGIES[topology],
                      [(k, b"seed-%d" % k) for k in range(self.RECORDS)],
                      seed=seed, label=f"redteam-{seed}")
        self.client = stack.client
        self.server: FastVerServer | None = stack.server
        self.sdk: RetryingClient | None = stack.sdk
        self.op = stack.op
        self.close_epoch = stack.close_epoch
        self._stack = stack
        if topology == "failover":
            # Attacks in this cell run *post-promotion*: a failover
            # already happened, the client adopted its fence, and
            # auto_reattach has bootstrapped a fresh standby.
            self.sdk.put(0, b"pre-failover")
            self.server.maintain()
            self.server.replication.promote()
            self.sdk.get(0)  # follow the redirect, adopt the fence

    @property
    def db(self) -> FastVer:
        return self._stack.db

    @property
    def now(self) -> float:
        return self._stack.now

    def sync_standby(self) -> None:
        """Pump the shipping channel until the standby fully caught up."""
        mgr = self.server.replication
        for _ in range(16):
            mgr.pump()
            if not mgr.shipper.outbox and not mgr.shipper.unacked:
                return
        raise RuntimeError("standby failed to catch up (harness bug)")


# ======================================================================
# The attacks. Each takes a fresh campaign and returns
# (detected, detector, note); an uncaught exception is a harness bug and
# is surfaced as an escape by the scheduler (failing loud beats failing
# silent in a zero-escape gate).
# ======================================================================
def attack_rollback_fork(c: _Campaign):
    """Fork the timeline: keep serving from a stale checkpoint whose log
    prefix the host replays. The enclave's sealed slot moved on with the
    later checkpoint, so restoring the stale blob must be refused."""
    c.op(5, b"fork-base")
    c.close_epoch()
    stale = c.db.last_checkpoint
    # The honest timeline continues: more writes, another sealed advance.
    c.op(5, b"fork-tip")
    c.op(6, b"fork-tip-2")
    c.close_epoch()
    settled_before = c.client.settled_epoch
    try:
        c.db.recover(stale)
    except RollbackError as exc:
        return True, "sealed_slot", f"restore refused: {exc}"
    # The fork took: the host is now serving the stale timeline.
    return False, "", (
        "stale checkpoint restored without a rollback alarm "
        f"(settled epoch {settled_before})")


def attack_receipt_replay(c: _Campaign):
    """Capture genuine epoch receipts, then replay them. Across a
    failover the replays are pre-fence (client_fence drops them); on a
    stable leader they are exact duplicates (client_chain dedups them).
    Either way nothing may (re-)settle."""
    captured = []
    original = c.client.accept_epoch

    def spy(receipt):
        captured.append(replace(receipt))
        original(receipt)

    c.client.accept_epoch = spy
    try:
        c.op(7, b"replay-bait")
        c.close_epoch()
        c.op(8, b"replay-bait-2")
        c.close_epoch()
    finally:
        c.client.accept_epoch = original
    if not captured:
        return False, "", "harness bug: no epoch receipts captured"
    if c.topology == "failover":
        # Promote again: the captured receipts become pre-fence.
        c.sync_standby()
        c.server.replication.promote()
        c.sdk.get(7)  # adopt the new fence
        expected_counter = "fenced_receipts"
        detector = "client_fence"
    else:
        expected_counter = "replayed_epoch_receipts"
        detector = "client_chain"
    settled_before = c.client.settled_epoch
    before = getattr(c.client, expected_counter)
    for receipt in captured:
        c.client.accept_epoch(receipt)
    rejected = getattr(c.client, expected_counter) - before
    if rejected == len(captured) and \
            c.client.settled_epoch == settled_before:
        return True, detector, (
            f"{rejected}/{len(captured)} replayed receipts dropped; "
            f"settled epoch pinned at {settled_before}")
    return False, "", (
        f"only {rejected}/{len(captured)} replays rejected; settled "
        f"epoch moved {settled_before} -> {c.client.settled_epoch}")


def attack_split_brain(c: _Campaign):
    """Double-serving: the byzantine host skips the deposed primary's
    teardown at promotion and keeps it answering under the old
    generation. The SDK must refuse to walk back to it."""
    old_db = c.server.db
    # The host runs the teardown choreography — so it can simply not.
    old_db.enclave.teardown = lambda: None
    c.sync_standby()
    c.server.replication.promote()
    c.sdk.get(1)  # honest client observes the failover, adopts the fence
    assert old_db.enclave.probe()["alive"], "harness bug: primary died"
    # The rogue host now fronts the live deposed enclave with its own
    # serving loop, still announcing the old (pre-promotion) generation,
    # and hijacks the client's connection.
    rogue = FastVerServer(old_db)
    real = c.sdk.server
    c.sdk.server = rogue
    try:
        result = c.sdk.get(2)
    except SplitBrainError as exc:
        return True, "sdk_generation", f"rogue leader refused: {exc}"
    finally:
        c.sdk.server = real
    return False, "", (
        f"deposed primary answered get(2) -> {result.payload!r} under a "
        f"regressed generation")


def attack_shipping_fork(c: _Campaign):
    """Feed the standby a divergent-but-internally-consistent log
    suffix. The channel framing is *valid* — the host can call
    ``repl_sign`` — so the channel checks pass; the standby enclave's
    per-entry re-validation is the wall: the replayed put's nonce trips
    its anti-replay window."""
    mgr = c.server.replication
    # A genuine, shipped, acknowledged put whose request the host kept.
    request = c.sdk.envelope("put", 9, b"genuine")
    genuine = request.op
    c.server.handle(request)
    c.close_epoch()
    c.sync_standby()
    # Forge the fork: a fresh shipment whose body replays the applied
    # put, signed with a *legitimately minted* channel MAC.
    entries = [("put", genuine)]
    body = encode_body(entries)
    seq, chain = mgr.shipper.next_seq, mgr.shipper._chain
    tag = mgr._sign(seq, chain, body_digest(body))
    try:
        admitted = mgr.standby.admit(seq, chain, body, tag, entries)
    except (ReplayError, SignatureError) as exc:
        return True, "standby_revalidation", f"forged suffix refused: {exc}"
    if not admitted:
        return False, "", ("standby rejected the shipment at the channel "
                           "layer only (availability, not detection)")
    # The poisoned entry sits in the standby's log buffer (per-op checks
    # are deferred into the batched ecall, §7). The fork only matters if
    # the replica can ever be *promoted* — and promotion closes epochs,
    # which flushes the buffer through the standby enclave's validation.
    try:
        mgr.promote()
    except (ReplayError, SignatureError) as exc:
        return True, "standby_revalidation", (
            f"forked standby refused at promotion: {exc}")
    return False, "", ("standby with a forked log suffix was promoted "
                       "and can now serve")


def attack_double_lease(c: _Campaign):
    """Split-brain through the lease layer: the byzantine host skips the
    deposed primary's teardown at promotion and then tries to keep its
    leadership lease alive — first by courting a group member for a grant
    at the deposed generation, then by forging the grant tag outright.
    The member enclaves pinned the new generation when the promoted
    leader re-acquired its lease, so the regressed request must be
    refused; the forged tag cannot carry the channel MAC."""
    mgr = c.server.replication
    old_db = c.server.db
    old_generation = c.server.generation
    # The host runs the teardown choreography — so it can simply not.
    old_db.enclave.teardown = lambda: None
    c.sync_standby()
    mgr.promote()
    c.sdk.get(1)  # honest client observes the failover, adopts the fence
    assert old_db.enclave.probe()["alive"], "harness bug: primary died"
    member = mgr.standby
    if member is None:
        return False, "", "harness bug: no group member after promotion"
    horizon = c.server.now + 10_000.0
    # Prong 1: court a member for a lease grant at the deposed
    # generation (the request travels through the host, so the host can
    # just send it).
    try:
        member.grant_lease(old_generation, horizon)
        return False, "", (
            f"member co-signed a lease at deposed generation "
            f"{old_generation}; both leaders can now hold a lease")
    except SplitBrainError as exc:
        evidence = f"regressed-generation grant refused: {exc}"
    # Prong 2: no member will sign, so the host forges the grant tag and
    # feeds it to the deposed enclave's verify path.
    forged = bytes(16)
    try:
        old_db._ecall("repl_verify_lease", old_generation, horizon, forged)
        return False, "", (
            "deposed enclave accepted a forged lease grant; it would "
            "serve past expiry")
    except SignatureError as exc:
        return True, "lease_generation", (
            f"{evidence}; forged grant tag refused: {exc}")


def attack_stale_replica_replay(c: _Campaign):
    """A byzantine replica host answers a budgeted stale read with a
    *superseded* value while claiming it is fresh: the payload is
    genuine (it really was committed once), the staleness it reports is
    within the client's budget, and no MAC is broken — only the
    freshness claim is a lie. The SDK's stale-read vetting holds the
    answer against the client's own receipt history: a settled
    overwrite older than the claimed as-of epoch cannot reappear."""
    mgr = c.server.replication
    superseded = b"v1-superseded"
    c.op(14, superseded)
    c.close_epoch()
    c.op(14, b"v2-current")
    c.close_epoch()
    c.sync_standby()
    fresh_epoch = c.server.db.current_epoch

    # The replica host owns the read path; it serves the old value under
    # a fresh-looking verification claim.
    mgr.replica_read = lambda key_bits: (superseded, fresh_epoch, 0)
    try:
        result = c.sdk.get_stale(14, budget_epochs=2)
    except StaleReplayError as exc:
        return True, "sdk_stale_replay", f"superseded replay refused: {exc}"
    return False, "", (
        f"client accepted the superseded value {result.payload!r} as "
        f"fresh-as-of epoch {result.as_of_epoch}")


def attack_dedup_tamper(c: _Campaign):
    """Rewrite the idempotency table between admission and the client's
    dedup query: lose the response on the wire, then answer the retry
    with a doctored recorded result. The client holds the verifier's op
    receipt for that nonce, so the lie cannot bind."""
    server = c.server
    # The host drops exactly the first response off the wire...
    server.faults = FaultPlan(c.seed, {"server.wire.response": [0]})
    original_query = server.query

    def evil_query(client_id, nonce):
        # ...delivers the verifier's receipts faithfully (it wants the
        # client happy), then rewrites the recorded answer.
        server.db.flush()
        hit = server.completed.get((client_id, nonce))
        if hit is not None:
            hit.result = replace(hit.result, payload=b"doctored")
        return original_query(client_id, nonce)

    server.query = evil_query
    try:
        result = c.sdk.put(11, b"the-truth")
    except ReceiptBindingError as exc:
        return True, "sdk_receipt_binding", f"doctored dedup refused: {exc}"
    finally:
        server.query = original_query
        server.faults = None
    return False, "", (
        f"client accepted a rewritten recorded answer {result.payload!r}")


def attack_batch_tamper(c: _Campaign):
    """Mutate a staged operation between admission and flush (group
    commit) or just before apply (legacy path). The client's MAC binds
    (key, value, nonce), so the doctored payload cannot validate."""
    server = c.server
    if server.config.group_commit:
        original = server._flush_shard

        def evil_flush(shard):
            for ticket in server._shard_batches.get(shard, []):
                if ticket.request.kind == "put":
                    ticket.request.op.payload = b"doctored"
            return original(shard)

        server._flush_shard = evil_flush
        restore = lambda: setattr(server, "_flush_shard", original)
    else:
        original = server._apply

        def evil_apply(request):
            if request.kind == "put":
                request.op.payload = b"doctored"
            return original(request)

        server._apply = evil_apply
        restore = lambda: setattr(server, "_apply", original)
    try:
        result = c.sdk.put(12, b"the-truth")
    except SignatureError as exc:
        return True, "client_mac", f"doctored op refused in-enclave: {exc}"
    finally:
        restore()
    # On the legacy path the validation is deferred into the next batched
    # ecall (§7): the ack above is *provisional* — no op receipt exists
    # yet, so nothing can settle. The epoch close runs the check.
    try:
        c.close_epoch()
    except SignatureError as exc:
        if not c.client.settled(result.nonce):
            return True, "client_mac", (
                f"doctored op refused at flush, before any receipt: {exc}")
        return False, "", (
            f"alarm fired but the tampered op had already settled: {exc}")
    return False, "", (
        f"tampered staged put applied and acknowledged "
        f"({result.payload!r})")


def attack_scrub_evasion(c: _Campaign):
    """Game the background scrubber's access pattern: scrub reads are
    distinguishable from serving reads (the device-level
    ``scrub_reading`` hint the scrubber sets around its walk), so a
    byzantine host serves *pristine* bytes whenever the scrubber looks
    and the rotted page to everyone else. The scrub pass comes back
    clean — the evasion works — but the scrubber was never the trust
    anchor: it is an early-warning mirror of the enclave's cold-path
    hash check, which re-runs the same comparison on first client touch
    and must refuse the rot before anything settles."""
    server = c.server
    server.config.scrub_enabled = True
    c.close_epoch()  # everything device-resident, merkle-at-rest
    db = c.db
    target = t_address = None
    for key, address in sorted(db.store.index.items(),
                               key=lambda kv: (kv[0].length, kv[0].bits)):
        if (key.length == db.config.key_width
                and not db.store.log.in_memory(address)
                and db.tier_of(key) == "merkle"):
            target, t_address = key, address
            break
    if target is None:
        return False, "", "harness bug: no device-resident merkle record"
    device = db.store.log.device
    pristine = device.read(t_address)
    rotted = pristine[:-2] + bytes([pristine[-2] ^ 0x40]) + pristine[-1:]
    device.write(t_address, rotted)
    real_read = device.read

    def two_faced_read(address):
        if address == t_address and getattr(device, "scrub_reading", False):
            return pristine  # the clean face, shown only to the scrubber
        return real_read(address)

    device.read = two_faced_read
    try:
        scrub = server.scrubber()
        target_pass = scrub.full_passes + 1
        for _ in range(4096):
            if scrub.full_passes >= target_pass:
                break
            scrub.pump()
        evaded = (scrub.mismatches_found == 0
                  and not db.store.quarantined_addresses)
        # The serving path reads the rotted bytes; the enclave's hash
        # check must fire before any answer can settle.
        scrub_face = ("scrub pass clean (evasion worked)" if evaded
                      else "scrub alarmed despite the clean face")
        try:
            result = c.sdk.get(target.bits)
        except IntegrityError as exc:
            # Group commit validated the read inside the flush ecall.
            return True, "enclave_merkle", (
                f"{scrub_face}; cold-path hash check refused the rot on "
                f"first touch: {exc}")
        # On the legacy path the answer above is *provisional* — per-op
        # checks are deferred into the next batched ecall (§7), so no op
        # receipt exists yet and nothing can settle. The epoch close
        # runs the deferred add_merkle check.
        try:
            c.close_epoch()
        except IntegrityError as exc:
            if not c.client.settled(result.nonce):
                return True, "enclave_merkle", (
                    f"{scrub_face}; rot refused at epoch close, before "
                    f"any receipt: {exc}")
            return False, "", (
                f"alarm fired but the rotted read had already settled: "
                f"{exc}")
    finally:
        device.read = real_read
    return False, "", (
        f"rotted value {result.payload!r} served and settled while the "
        f"scrubber was shown only pristine bytes")


def attack_settle_swap(c: _Campaign):
    """The streamed-settlement window is new byzantine surface: between
    a pipelined flush and its settle pump, the batch's receipts sit in
    host memory. Swap two of them so each ticket resolves with the
    *other* op's genuine result — every MAC is intact and both results
    really were issued by the verifier; only the pairing lies. The SDK
    binds each result to its request's nonce, so the mis-paired receipt
    cannot validate."""
    server = c.server
    original = server._settle_inflight
    swapped = []

    def evil_settle(force=False):
        for record in server._inflight:
            resolved = [i for i, (_, res, err) in enumerate(record.entries)
                        if err is None and res is not None]
            if len(resolved) >= 2 and not swapped:
                i, j = resolved[:2]
                ti, ri, ei = record.entries[i]
                tj, rj, ej = record.entries[j]
                record.entries[i] = (ti, rj, ei)
                record.entries[j] = (tj, ri, ej)
                swapped.append((i, j))
        return original(force)

    server._settle_inflight = evil_settle
    # A background op submitted straight to the server lands in the same
    # shard batch as the SDK's op (n_workers=2: even keys share a shard),
    # giving the host two in-flight receipts to mis-pair.
    server.submit(c.sdk.envelope("put", 20, b"bait"))
    try:
        result = c.sdk.put(22, b"the-truth")
    except ReceiptBindingError as exc:
        return True, "sdk_receipt_binding", (
            f"mis-paired streamed receipt refused: {exc}")
    finally:
        server._settle_inflight = original
    if not swapped:
        return False, "", ("harness bug: the two ops never shared an "
                           "in-flight batch, nothing was swapped")
    return False, "", (
        f"client accepted another op's receipt as its own "
        f"({result.payload!r})")


#: name -> attack(campaign) -> (detected, detector, note)
REDTEAM_ATTACKS = {
    "rollback_fork": attack_rollback_fork,
    "receipt_replay": attack_receipt_replay,
    "split_brain": attack_split_brain,
    "double_lease": attack_double_lease,
    "stale_replica_replay": attack_stale_replica_replay,
    "shipping_fork": attack_shipping_fork,
    "dedup_tamper": attack_dedup_tamper,
    "batch_tamper": attack_batch_tamper,
    "scrub_evasion": attack_scrub_evasion,
    "settle_swap": attack_settle_swap,
}

#: Cell name (the verdict label, so a digest input) -> the stack under
#: attack. Every served cell carries one warm standby — the split-brain
#: and shipping-fork campaigns need one, and a real deployment of the
#: failover stack always has one — so the ``server`` cell is the
#: ``failover`` topology, and the ``failover`` cell is that same stack
#: with one promotion already performed (see :class:`_Campaign`).
REDTEAM_TOPOLOGIES = {
    "direct": Topology.parse("direct"),
    "server": Topology.parse("failover"),
    "batched": Topology.parse("batched+failover"),
    "failover": Topology.parse("failover"),
    "pipelined": Topology.parse("pipelined+failover"),
}

#: Attack set for the synchronous-settlement topologies: everything but
#: the streamed-settlement campaign (their ``_inflight`` deque is always
#: empty, so there is no window to attack).
_SYNC_ATTACKS = tuple(sorted(a for a in REDTEAM_ATTACKS
                             if a != "settle_swap"))

#: Which attacks make sense per topology. Direct mode has no serving
#: layer, replication, or idempotency table: only the store-level
#: campaigns apply there. The pipelined topology runs the full set —
#: every synchronous-era attack must stay detected under streamed
#: settlement, plus the settlement-window swap that only exists there.
APPLICABLE = {
    "direct": ("receipt_replay", "rollback_fork"),
    "server": _SYNC_ATTACKS,
    "batched": _SYNC_ATTACKS,
    "failover": _SYNC_ATTACKS,
    "pipelined": tuple(sorted(REDTEAM_ATTACKS)),
}


def matrix(topologies=None, attacks=None):
    """The (attack, topology) cells a run will schedule."""
    cells = []
    for topology in (topologies or REDTEAM_TOPOLOGIES):
        if topology not in APPLICABLE:
            raise ValueError(f"unknown red-team topology {topology!r}")
        for attack in APPLICABLE[topology]:
            if attacks is None or attack in attacks:
                cells.append((attack, topology))
    return cells


def run_redteam(seed: int = 7, topologies=None,
                attacks=None) -> RedTeamReport:
    """Drive the full attack × topology matrix; every cell gets a fresh
    system, an ``attack`` trace event at injection, and a ``detect``
    trace event at verdict time."""
    obs_reset()
    # Spool-backed forensics: an escape's dump must cover the whole
    # matrix run, not the ring's tail — a 30-cell sweep records far more
    # than 4096 events, and the cell that escaped may be long evicted.
    from repro.obs.sink import TraceSpool
    TRACER.attach_sink(TraceSpool())
    report = RedTeamReport(seed=seed)
    for attack, topology in matrix(topologies, attacks):
        trace = f"redteam-{attack}-{topology}"
        campaign = _Campaign(seed, topology)
        injected_at = campaign.now
        TRACER.record("attack", injected_at, trace, attack=attack,
                      topology=topology, seed=seed)
        try:
            detected, detector, note = REDTEAM_ATTACKS[attack](campaign)
        except IntegrityError as exc:
            # An alarm the campaign didn't classify still counts: the
            # system detected *something*, and the type names the check.
            detected, detector = True, type(exc).__name__
            note = f"unclassified alarm: {exc}"
        except Exception as exc:  # harness bug -> loud escape
            detected, detector = False, ""
            note = f"attack harness error: {type(exc).__name__}: {exc}"
        latency = max(0.0, campaign.now - injected_at)
        TRACER.record("detect", campaign.now, trace, detector=detector,
                      detected=detected, latency=latency)
        report.verdicts.append(AttackVerdict(
            attack=attack, topology=topology, seed=seed,
            detected=detected, detector=detector, latency_ticks=latency,
            note=note, trace=trace))
    if report.escapes:
        spool = TRACER.sink
        source = spool if spool is not None else TRACER
        report.forensics = {
            "seed": seed,
            "ring_dropped": TRACER.dropped,
            "source": "spool" if spool is not None else "ring",
            "spool": spool.stats() if spool is not None else None,
            "events": [e.as_dict() for e in (
                source.events() if spool is not None
                else TRACER.last(200))],
        }
    return report
