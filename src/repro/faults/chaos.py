"""The chaos soak harness: YCSB under a fault schedule, with an oracle.

Runs a seeded YCSB-A stream against a small FastVer while a
:class:`~repro.faults.FaultPlan` injects failures at every untrusted
boundary, and checks the **tri-state invariant** on every operation:

1. the operation succeeds and its answer matches the oracle's expected
   value (a shadow model of what an honest store would hold), or
2. it raises an :class:`~repro.errors.IntegrityError` — allowed only when
   the harness actually tampered, or
3. it raises a typed :class:`~repro.errors.AvailabilityError`, after which
   a recovery sequence (checkpoint recovery, falling back to lenient
   log-scan salvage) restores service.

Anything else — above all a *silent wrong answer* — is a hard failure.

The whole run is deterministic: the same ``seed`` produces the same
workload, the same injection trace, and the same report digest, twice in a
row (the reproducibility acceptance criterion; ``--check-deterministic``
in the CLI runs it both ways and compares).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro.adversary.host import tamper_value
from repro.core.fastver import FastVer
from repro.errors import (
    AvailabilityError,
    IntegrityError,
    NotLeaderError,
    RecoveryError,
    RepairForgeryError,
    UnrecoverableError,
)
from repro.faults.plan import FaultPlan, FaultSpec, install_faults
from repro.instrument import COUNTERS
from repro.obs import LATENCIES, TRACER
from repro.obs import reset as obs_reset
from repro.obs.sink import TraceSpool, replay_fidelity
from repro.obs.slo import SloConfig
from repro.scrub import Scrubber
from repro.store.recovery import salvage
from repro.topology import Topology, build
from repro.workloads.ycsb import OP_GET, OP_PUT, WORKLOADS, YcsbGenerator

#: Default benign fault mix: every point exercised, rates low enough that
#: a 2000-op smoke finishes in seconds but still trips several recoveries.
DEFAULT_SPECS = {
    "device.read.transient": 0.002,
    "device.write.torn": 0.01,
    "device.flush.partial": 0.01,
    "checkpoint.blob.truncate": 0.05,
    "checkpoint.blob.corrupt": 0.05,
    "ecall.transient": 0.01,
    "ecall.reboot": 0.002,
    "receipt.drop": 0.01,
    "receipt.duplicate": 0.02,
    "receipt.reorder": 0.02,
}

#: A served topology adds the serving-layer boundaries: shed admissions,
#: lossy wire both ways, spurious breaker trips, stalled heal attempts.
SERVER_SPECS = dict(DEFAULT_SPECS, **{
    "server.queue.shed": 0.002,
    "server.wire.request": 0.01,
    "server.wire.response": 0.01,
    "server.breaker.trip": 0.002,
    "server.supervisor.stall": 0.25,
})

#: ``failover`` arms the replication channel on top of the server
#: mix: lossy/corrupting/reordering shipment delivery, standby lag
#: spikes, and (added per-run with explicit encounter indices, so every
#: soak exercises it) the primary-enclave kill that forces promotion.
FAILOVER_SPECS = dict(SERVER_SPECS, **{
    "repl.ship.drop": 0.02,
    "repl.ship.reorder": 0.02,
    "repl.ship.corrupt": 0.02,
    "repl.standby.lag": 0.01,
})

#: With a replication group (``failover:N``, N > 1) the soak also arms a
#: *correlated* standby kill — pinned to the same encounter indices as
#: ``repl.primary.kill``, and both points are consulted exactly once per
#: replication pump in a fixed order, so they land in the same tick: the
#: promotion that follows must survive losing the primary AND a group
#: member at once (the quorum rule's whole job) — plus a low-rate lease
#: partition that makes single grant messages vanish.
QUORUM_EXTRA_SPECS = {
    "repl.lease.partition": 0.01,
}

#: ``scrub`` arms *latent* corruption on top of whichever mix the
#: topology selected: silent bit rot on device reads (persisted — every
#: later read sees it), rot-at-rest in the retained checkpoint blob, and
#: injected failures of individual repair attempts. Bounded by
#: ``max_fires`` so the post-soak convergence check (zero quarantined
#: pages once the faults are disarmed) is a fair oracle: rot stops
#: accumulating, repair must win.
SCRUB_EXTRA_SPECS = {
    "device.read.bitrot": FaultSpec(probability=0.0005, max_fires=5),
    "checkpoint.blob.bitrot": FaultSpec(probability=0.002, max_fires=2),
    "scrub.repair.fail": FaultSpec(probability=0.25, max_fires=2),
}


#: ``+slo`` arms these objectives on the server. The tight p99 budget is
#: deliberate: a chaos soak's recovery stalls push verified latencies far
#: past it, so every such soak demonstrably fires a deterministic
#: burn-rate alert whose exemplar-backed lifecycle the acceptance test
#: reconstructs from the persisted spool alone.
CHAOS_SLO = SloConfig(verified_p99_budget=64.0)


def fault_specs(topology: Topology, ops: int) -> dict:
    """The fault mix a topology arms (docs/PROTOCOL.md, "Topologies")."""
    if topology.standbys:
        specs = dict(FAILOVER_SPECS)
        # Kill the primary enclave at fixed points mid-run so every
        # failover soak exercises promotion (twice: the re-attached
        # standby absorbs a double failover).
        kills = (max(1, ops // 3), max(2, 2 * ops // 3))
        specs["repl.primary.kill"] = FaultSpec(at_counts=kills)
        if topology.standbys > 1:
            # Correlated double-kill: same encounter indices, and the
            # manager draws both points once per pump in fixed order,
            # so the standby dies in the very tick the primary does —
            # promotion must ride on the surviving quorum.
            specs["repl.standby.kill"] = FaultSpec(at_counts=kills)
            specs.update(QUORUM_EXTRA_SPECS)
    else:
        specs = dict(SERVER_SPECS if topology.served else DEFAULT_SPECS)
    if topology.scrub:
        specs.update(SCRUB_EXTRA_SPECS)
    return specs


@dataclass
class ChaosReport:
    """Outcome of one chaos run (digestible, comparable across runs)."""

    seed: int
    ops_attempted: int = 0
    ops_ok: int = 0
    availability_errors: int = 0
    recoveries: int = 0
    salvages: int = 0
    integrity_detections: int = 0
    receipts_dropped: int = 0
    #: Heal sessions resolved by promoting the warm standby (``failover``).
    failovers: int = 0
    #: Authenticated shipments the primary packaged for the standby.
    shipped_batches: int = 0
    #: Shipments the standby's enclave rejected (drop/reorder/corrupt —
    #: each one retransmitted; rejects are the *detection* count).
    repl_rejects: int = 0
    #: Replication group size the soak ran with (``failover:N``).
    standbys: int = 1
    #: Lagging/rejoining members caught up via tail redelivery.
    delta_resyncs: int = 0
    #: Members rebuilt from a full snapshot (tail GC'd, or enclave gone).
    snapshot_resyncs: int = 0
    #: Leadership lease lapses the primary observed.
    lease_expiries: int = 0
    #: Post-soak convergence: exactly one live leader holding (or owed)
    #: a quorum lease once the dust settles. False is a hard failure.
    leader_converged: bool = True
    #: The recovery ladder ran out of rungs (UnrecoverableError).
    unrecoverable: bool = False
    #: The soak ran with the background scrubber armed (``scrub``).
    scrub: bool = False
    #: The soak ran the batched loop with pipelined settlement
    #: (``pipelined``): per-shard flushes dispatch without resolving
    #: tickets; receipts stream back across the following pumps.
    pipelined: bool = False
    #: Shard batches dispatched as pipelined ecalls (``pipelined`` only).
    pipelined_batches: int = 0
    #: Device pages the scrubber re-verified.
    scrub_pages: int = 0
    #: Pages the scrubber caught corrupt and quarantined.
    scrub_mismatches: int = 0
    #: Quarantined pages repaired in place through the enclave.
    scrub_repairs: int = 0
    #: Post-soak convergence: with the faults disarmed, one full scrub
    #: pass found nothing and the quarantine drained to zero. False is a
    #: hard failure under ``scrub``.
    scrub_converged: bool = True
    #: Pages still quarantined when the soak ended (must be 0).
    quarantined_final: int = 0
    #: Reads answered with a rot-damaged value *provisionally* (§7:
    #: deferred records are verified in aggregate at epoch close, so the
    #: answer precedes the check). Each one must be followed by a
    #: detection or rollback before the epoch settles — a provisional
    #: serve that reaches a clean settlement is a hard failure.
    provisional_serves: int = 0
    #: Digest of the repair ledger (every quarantine/repair decision) —
    #: part of the determinism check under ``scrub``.
    repair_ledger_digest: str = ""
    #: The soak armed the full observability pipeline (``slo``): SLO
    #: engine on the server, exemplar digest folded into the run digest.
    obs_armed: bool = False
    #: Objectives that started firing during the soak (``slo``, served
    #: modes; 0 elsewhere).
    slo_alerts: int = 0
    #: Objectives still firing when the soak ended, sorted.
    slo_firing: list = field(default_factory=list)
    #: Digest of the retained exemplar set (``slo``; folded into digest).
    exemplar_digest: str = ""
    #: Events the persistent spool retained (spools attach in every
    #: soak; the ring is just its cache).
    spool_events: int = 0
    #: Replay contract held: every span still in the ring was
    #: reconstructable from the spool. False is a hard failure.
    spool_replay_ok: bool = True
    fault_fires: dict = field(default_factory=dict)
    trace_digest: str = ""
    #: Tri-state violations. MUST stay empty; each entry is a hard failure.
    hard_failures: list = field(default_factory=list)
    #: Last-N trace events keyed by the fault seed, populated on any hard
    #: failure or UnrecoverableError (the operator's forensics handle —
    #: ``python -m repro chaos`` writes it to a JSON file). Excluded from
    #: :meth:`digest`: forensics describe a failure, they don't define it.
    forensics: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.hard_failures

    def digest(self) -> str:
        """Stable hash of everything observable: workload outcome plus the
        full injection trace (bit-for-bit reproducibility check)."""
        h = hashlib.sha256()
        h.update(self.trace_digest.encode())
        for part in (self.seed, self.ops_attempted, self.ops_ok,
                     self.availability_errors, self.recoveries,
                     self.salvages, self.integrity_detections,
                     self.failovers, self.shipped_batches,
                     self.repl_rejects, self.standbys,
                     self.delta_resyncs, self.snapshot_resyncs,
                     self.lease_expiries, int(self.leader_converged),
                     int(self.unrecoverable)):
            h.update(str(part).encode() + b";")
        if self.scrub:
            for part in (self.scrub_pages, self.scrub_mismatches,
                         self.scrub_repairs, int(self.scrub_converged),
                         self.quarantined_final, self.provisional_serves):
                h.update(str(part).encode() + b";")
            h.update(self.repair_ledger_digest.encode() + b";")
        if self.pipelined:
            # Opt-in fold (mirrors scrub): legacy synchronous digests
            # stay byte-identical to their pinned values.
            h.update(f"pipelined={self.pipelined_batches};".encode())
        if self.obs_armed:
            # Opt-in fold (same pattern): exemplar selection and the SLO
            # alert sequence are deterministic per seed, so they join
            # the reproducibility contract — but only in ``slo`` runs.
            h.update(f"slo_alerts={self.slo_alerts};".encode())
            h.update(("slo_firing=" + ",".join(self.slo_firing)
                      + ";").encode())
            h.update(f"exemplars={self.exemplar_digest};".encode())
        for point in sorted(self.fault_fires):
            h.update(f"{point}={self.fault_fires[point]};".encode())
        for failure in self.hard_failures:
            h.update(failure.encode() + b"\n")
        return h.hexdigest()


class _ChaosRun:
    """One soak: owns the database, the oracle, and the recovery logic."""

    MAX_RECOVER_ATTEMPTS = 3
    VERIFY_EVERY = 250

    #: Burst width in batched topologies: ops accumulated before one pump.
    BURST = 4

    #: Direct-mode scrub cadence: one budgeted scrub slice every N ops
    #: (the server modes pump theirs from the serving loop instead).
    SCRUB_EVERY = 4

    #: Trace events preserved in the forensics dump on a hard failure.
    FORENSICS_LAST = 200

    def __init__(self, seed: int, ops: int, records: int,
                 plan: FaultPlan | None, tamper_every: int | None,
                 topology: Topology = Topology()):
        self.seed = seed
        self.n_ops = ops
        self.n_records = records
        self.topology = topology
        self.plan = plan if plan is not None else FaultPlan(
            seed=seed, specs=fault_specs(topology, ops))
        self.tamper_every = tamper_every
        #: Ops accumulated for the next group-commit pump (batched).
        self._burst: list[tuple] = []
        self._scrubber = None  # standalone Scrubber under direct ``scrub``
        self._seen_heals = 0
        #: Rot-damaged answers served provisionally (§7 deferred reads):
        #: each must be refuted by a detection or rolled back by a heal
        #: before the next clean settlement, or the run hard-fails.
        self._unsettled_serves: list[str] = []
        self.report = ChaosReport(seed=seed, scrub=topology.scrub,
                                  pipelined=topology.serving == "pipelined",
                                  obs_armed=topology.slo)
        self.generator = YcsbGenerator(WORKLOADS["YCSB-A"], records,
                                       distribution="zipfian", theta=0.9,
                                       seed=seed)
        # The oracle: expected current values, every value ever written per
        # key (fabrication detection for salvage), and the state as of the
        # last durable checkpoint (recovery rolls `current` back to it).
        self.current: dict[int, bytes] = {}
        self.history: dict[int, set[bytes]] = {}
        self.committed: dict[int, bytes] = {}
        self._next_client_id = 1
        self._provision(self.generator.initial_items())

    # ------------------------------------------------------------------
    # Provisioning / recovery plumbing
    # ------------------------------------------------------------------
    @property
    def db(self) -> FastVer:
        """The live database (a server swaps its own out during salvage
        and promotion, so always read through here)."""
        return self.stack.db

    def _provision(self, items: list[tuple[int, bytes]]) -> None:
        """Build the topology's stack over ``items`` with its clean
        baseline checkpoint taken (and its standbys bootstrapped)
        *before* faults are armed, so there is always a sane recovery
        point. A direct-mode scrubber repairs from the oracle's
        expected-current map — standing in for an operator's external
        backup, which is all a topology without a quorum group has — and
        its audit trail survives re-provisioning."""
        self.stack = build(
            self.topology, items, seed=self.seed,
            label=f"chaos-{self._next_client_id}",
            client_id=self._next_client_id,
            server={"slo": CHAOS_SLO}, salvage=self._vet_survivors,
            promote=self._promote_hook)
        self.client = self.stack.client
        self.server = self.stack.server
        self.sdk = self.stack.sdk
        self._next_client_id += 1
        for k, payload in items:
            self.current[k] = payload
            self.history.setdefault(k, set()).add(payload)
        self.committed = dict(self.current)
        self._seen_heals = 0
        if self.topology.scrub and not self.topology.served:
            self._scrubber = Scrubber(
                self.db, budget_pages=4, candidate_fn=self._model_candidate,
            ).inherit(self._scrubber)
        install_faults(self.db, self.plan)

    def _model_candidate(self, key_bits: int) -> tuple[bool, bytes | None]:
        value = self.current.get(key_bits)
        return value is not None, value

    def _absorb_heals(self) -> None:
        """Fold server-side self-healing into the oracle: each completed
        heal rolled the database back to its last durable state, so the
        oracle's ``current`` must roll back to ``committed`` with it (a
        salvage already rebased ``committed`` via the hook)."""
        heals = self.server.supervisor.heals
        if heals != self._seen_heals:
            self.report.recoveries += heals - self._seen_heals
            self._seen_heals = heals
            self.current = dict(self.committed)
            # Rolled back: provisionally-served rot never settled.
            self._unsettled_serves.clear()

    def _vet_survivors(self, items: list[tuple[int, bytes]]):
        """Called by a lenient salvage (the server's, or :meth:`_salvage`)
        with the records it recovered: validate each against the write
        history (a value we never wrote is fabrication — a hard failure)
        and rebase the oracle on the survivors, which are the durable
        truth from here on (possibly stale, never fabricated; keys that
        didn't survive are data loss, not lies)."""
        self.report.salvages += 1
        survivors: list[tuple[int, bytes]] = []
        for k, payload in items:
            if k in self.history and payload not in self.history[k]:
                if self._latent_rot_fired():
                    # Injected rot reached the log the salvage rebuilt
                    # from; a lenient rebuild resurrecting the damaged
                    # bytes is a rot casualty the oracle drops (data
                    # loss — salvage's documented trade), not the host
                    # fabricating state.
                    continue
                self.report.hard_failures.append(
                    f"salvage fabrication: key {k} holds {payload!r}, "
                    f"never written")
                continue
            survivors.append((k, payload))
        self.current = dict(survivors)
        self.committed = dict(survivors)
        return survivors

    def _promote_hook(self, items: list[tuple[int, bytes]]) -> None:
        """Called at each failover promotion with the promoted database's
        records. Two checks, then the oracle rebases wholesale:

        * **fabrication** — a value never written is the standby lying;
        * **lost acknowledged write** — a key the oracle expects (an op
          the SDK reported applied) missing from the promoted state means
          the handoff dropped an acknowledged write. The *value* may
          legitimately be newer than the oracle's (a completed put whose
          response was still in flight), which the history check covers.
        """
        promoted: dict[int, bytes] = {}
        for k, payload in items:
            if k in self.history and payload not in self.history[k]:
                self.report.hard_failures.append(
                    f"failover fabrication: key {k} holds {payload!r}, "
                    f"never written")
                continue
            promoted[k] = payload
        for k, expected in self.current.items():
            if expected is not None and k not in promoted:
                self.report.hard_failures.append(
                    f"failover lost acknowledged write: key {k} "
                    f"(expected {expected!r}) missing after promotion")
        self.report.failovers += 1
        self.current = dict(promoted)
        self.committed = dict(promoted)

    def _recover_sequence(self) -> None:
        """Restore service after an availability error: checkpoint
        recovery first, lenient log-scan salvage as the last resort."""
        for _ in range(self.MAX_RECOVER_ATTEMPTS):
            try:
                self.db.recover(self.db.last_checkpoint)
                self.report.recoveries += 1
                # Un-checkpointed (provisional, unsettled) work rolls back.
                self.current = dict(self.committed)
                self._unsettled_serves.clear()
                return
            except AvailabilityError:
                self.report.availability_errors += 1
                continue
            except RecoveryError:
                break  # the checkpoint itself is damaged: salvage
        self._salvage()

    def _salvage(self) -> None:
        """The checkpoint is unusable: salvage the log, vet the survivors
        against the oracle, and re-provision over them."""
        log = self.db.store.log
        survivors = self._vet_survivors(
            salvage(log.device, log.tail_address, self.db.config.key_width))
        self._unsettled_serves.clear()
        self._provision(survivors)

    # ------------------------------------------------------------------
    # The op loop
    # ------------------------------------------------------------------
    def _maintain(self) -> None:
        """Periodic epoch close + checkpoint (the §7 durability cadence)."""
        if self.topology.batched:
            # The maintain marker lands on a burst boundary, never inside
            # one — mirrors the server flushing open batches first.
            self._flush_burst()
        if self.server is not None:
            try:
                self.server.maintain()
            except Exception:
                self._absorb_heals()
                raise
            # A heal inside maintain() rolled the database back before the
            # checkpoint was cut; roll the oracle back before promoting.
            self._absorb_heals()
            self._check_settlement()
            self.committed = dict(self.current)
            return
        self.db.verify()
        self._check_settlement()
        self.db.checkpoint()
        self.committed = dict(self.current)

    def _check_settlement(self) -> None:
        """An epoch just settled cleanly (no alarm, no rollback). Any
        rot-damaged answer still provisionally outstanding has now
        settled silently — the escape the §7 deferral is *not* allowed
        to produce."""
        if self._unsettled_serves:
            self.report.hard_failures.append(
                f"provisional rot-damaged answer settled with no "
                f"detection: {self._unsettled_serves[0]}")
            self._unsettled_serves.clear()

    def _one_op(self, kind: str, k: int, payload: bytes | None) -> None:
        """One op through whatever stack the topology has.

        Served, the SDK's contract makes the oracle tractable: a return
        means the operation was applied exactly once; a raise means it
        provably never was (the SDK cancels before giving up). Heals that
        happened mid-call are folded in *before* this op's own effect,
        because the attempt that finally succeeded ran after the last
        heal."""
        if self.topology.batched:
            self._burst.append((kind, k, payload))
            if len(self._burst) >= self.BURST:
                self._flush_burst()
            return
        served = self.server is not None
        self.report.ops_attempted += 1
        if served and kind == OP_PUT:
            # Record the *attempted* value up front: a put interrupted
            # mid-apply can still leave its record in the log, where a
            # later salvage may legitimately resurrect it.
            self.history.setdefault(k, set()).add(payload)
        try:
            result = self.stack.op(k, payload, worker=k % 2)
        finally:
            if served:
                self._absorb_heals()
        if kind == OP_GET:
            # A degraded read is served from the durable tier and says so;
            # its truth is the checkpointed state, not the provisional one.
            expected = (self.committed.get(k) if served and result.degraded
                        else self.current.get(k))
            if result.payload != expected:
                degraded = f" (degraded={result.degraded})" if served else ""
                desc = (f"get({k}) returned {result.payload!r}{degraded}, "
                        f"oracle says {expected!r}")
                if not self._note_provisional_serve(desc):
                    self.report.hard_failures.append(
                        f"silent wrong answer: {desc}")
                return
        else:
            self.current[k] = payload
            self.history.setdefault(k, set()).add(payload)
        self.report.ops_ok += 1

    def _classify_burst_error(self, desc: str, err: Exception) -> bool:
        """Tri-state classification of one burst ticket's typed error.
        Returns True when the error escalated past the recovery ladder."""
        if isinstance(err, UnrecoverableError):
            self.report.availability_errors += 1
            return True
        if isinstance(err, AvailabilityError):
            self.report.availability_errors += 1
        elif isinstance(err, IntegrityError):
            if self._latent_rot_fired():
                self.report.integrity_detections += 1
            else:
                self.report.hard_failures.append(
                    f"{desc}: spurious {type(err).__name__} with no "
                    f"tampering: {err}")
        else:
            self.report.hard_failures.append(
                f"{desc}: untyped {type(err).__name__}: {err}")
        return False

    def _flush_burst(self) -> None:
        """Drive one accumulated burst through the batched serving loop.

        The oracle has to understand *batched* completion: tickets resolve
        in submission order, and ops on the same key land in the same
        shard (worker = key bits), so same-key effects commit in order
        even though different shards settle independently. Puts resolve
        through ``cancel`` — definitive applied/not-applied even when an
        intra-pump heal rolled an already-committed batch back. A get's
        answer may predate such a heal, so it is also honest if it matches
        the pre-heal oracle state.
        """
        burst, self._burst = self._burst, []
        if not burst:
            return
        tickets: list[tuple] = []
        for kind, k, payload in burst:
            self.report.ops_attempted += 1
            if kind == OP_PUT:
                self.history.setdefault(k, set()).add(payload)
            request = self.sdk.envelope(kind, k, payload,
                                        generation=self.server.generation)
            try:
                ticket = self.server.submit(request)
            except AvailabilityError:
                # Shed or dropped on the wire: never admitted anywhere.
                self.report.availability_errors += 1
                continue
            tickets.append((kind, k, payload, ticket))
        self._pump_until_done(tickets)
        self._retry_fenced(tickets)
        pre = dict(self.current)
        self._absorb_heals()
        unrecoverable = False
        for kind, k, payload, ticket in tickets:
            if not ticket.done:
                self.report.hard_failures.append(
                    f"burst {kind} {k}: ticket left unresolved by pump")
                continue
            if kind == OP_PUT:
                outcome = self.server.cancel(self.client.client_id,
                                             ticket.request.nonce)
                if outcome is not None:
                    # In the completed table now = applied and surviving
                    # (a heal would have rolled a non-durable entry out).
                    self.current[k] = payload
                    pre[k] = payload
                if ticket.error is None:
                    self.report.ops_ok += 1
                elif self._classify_burst_error(f"burst put {k}",
                                                ticket.error):
                    unrecoverable = True
            elif ticket.error is not None:
                if self._classify_burst_error(f"burst get {k}",
                                              ticket.error):
                    unrecoverable = True
            else:
                result = ticket.result
                expected = (self.committed.get(k) if result.degraded
                            else self.current.get(k))
                if result.payload != expected and \
                        result.payload != pre.get(k):
                    self.report.hard_failures.append(
                        f"silent wrong answer: batched get({k}) returned "
                        f"{result.payload!r} (degraded={result.degraded}), "
                        f"oracle says {expected!r}")
                else:
                    self.report.ops_ok += 1
        if unrecoverable:
            raise UnrecoverableError(
                "a burst operation escalated past the recovery ladder")

    def _retry_fenced(self, tickets: list) -> None:
        """One redirect-and-retry round for burst tickets fenced by a
        mid-pump failover (``NotLeaderError``), mirroring what the SDK
        does for the per-op path: adopt the new generation's fence
        receipt, re-submit the *same* signed op (a fenced request was
        provably never applied, so its nonce is still fresh) under the
        current generation, and pump once more. Tickets are updated in
        place; a retry that fails again is classified like any other."""
        fenced = [i for i, (_, _, _, t) in enumerate(tickets)
                  if isinstance(t.error, NotLeaderError)]
        if not fenced:
            return
        generation, fence = self.server.leader_info(self.client.client_id)
        if fence is not None:
            self.client.accept_fence(fence)
        retried = False
        for i in fenced:
            kind, k, payload, ticket = tickets[i]
            old = ticket.request
            request = replace(
                old, generation=generation,
                deadline=self.server.now + self.server.config.default_deadline)
            COUNTERS.retried += 1
            TRACER.record("retry", self.server.now, old.trace, attempt=1,
                          after="NotLeaderError")
            try:
                new_ticket = self.server.submit(request)
            except AvailabilityError:
                continue  # the original fenced error stands for this op
            tickets[i] = (kind, k, payload, new_ticket)
            retried = True
        if retried:
            self._pump_until_done(tickets)

    def _pump_until_done(self, tickets: list) -> None:
        """One pump, then — pipelined flushes resolve tickets on *later*
        pumps by design — keep pumping until every streamed receipt
        settles. A ticket still pending after the bounded drain is a
        genuine liveness bug, and the unresolved-ticket hard failure in
        :meth:`_flush_burst` names it."""
        self.server.pump()
        self.server.drain([t for _, _, _, t in tickets])

    def _tamper_round(self, k: int) -> None:
        """Scheduled tampering: corrupt the store, demand detection."""
        install_faults(self.db, None)  # isolate: pure-integrity check
        try:
            if self.server is not None and self.server.degraded:
                # A prior op left recovery in flight; finish it (faults are
                # disarmed) so the tamper probes hit a healthy verifier.
                if not self.server.supervisor.try_heal():
                    self.report.hard_failures.append(
                        f"pre-tamper heal failed for key {k} with no "
                        f"faults armed")
                    return
                self._absorb_heals()
            # A put first, so the key's latest record is the in-memory
            # tail object the attack mutates (a flushed record would be
            # re-read from the immutable device and the tamper would be
            # a no-op, falsely reading as "undetected").
            staged = b"tmpr%04d" % (k % 10000)
            self.db.put(self.client, k, staged, worker=k % 2)
            self.current[k] = staged
            self.history.setdefault(k, set()).add(staged)
            tamper_value(self.db, k)
            try:
                self.db.get(self.client, k, worker=k % 2)
                self.db.flush()
                self.db.verify()
            except IntegrityError:
                self.report.integrity_detections += 1
            else:
                self.report.hard_failures.append(
                    f"tampering with key {k} went undetected through verify")
            # The store is poisoned either way; restore from the (clean)
            # pre-tamper checkpoint before continuing.
            if self.server is not None:
                # Route through the supervisor so the serving layer's own
                # bookkeeping (dedup table, caches) rolls back in step.
                if not self.server.force_heal():
                    self.report.hard_failures.append(
                        f"post-tamper heal failed for key {k} with no "
                        f"faults armed")
                self._absorb_heals()
            else:
                try:
                    self.db.recover(self.db.last_checkpoint)
                except RecoveryError:
                    # An earlier device fault corrupted the checkpoint's
                    # index blob: an undecodable checkpoint is treated the
                    # same as a missing one — fall through to salvage.
                    self._salvage()
                else:
                    self.report.recoveries += 1
                    self.current = dict(self.committed)
                    self._unsettled_serves.clear()
        finally:
            install_faults(self.db, self.plan)

    # ------------------------------------------------------------------
    # Background scrub (``scrub``)
    # ------------------------------------------------------------------
    def _latent_rot_fired(self) -> bool:
        """Whether injected latent corruption has actually landed yet. An
        IntegrityError is an *expected detection* only when it has — the
        tri-state rule ("alarms only under real tampering") otherwise
        stands unchanged under ``scrub``."""
        return self.topology.scrub and (
            self.plan.fires("device.read.bitrot")
            + self.plan.fires("checkpoint.blob.bitrot")) > 0

    def _note_provisional_serve(self, desc: str) -> bool:
        """A read came back wrong while injected rot is live. For a
        *deferred* record that is §7 semantics, not an escape: the value
        is served provisionally and the aggregate set-hash check at epoch
        close is where the rot alarms. Track it — the detection (or a
        rollback) must land before the next clean settlement — and the
        tri-state rule stays intact for every other case."""
        if not self._latent_rot_fired():
            return False
        self._unsettled_serves.append(desc)
        self.report.provisional_serves += 1
        return True

    def _heal_after_detection(self, i: int) -> bool:
        """The verifier alarmed on injected rot; the store holds poisoned
        pages, so heal before the next touch re-trips the same alarm.
        Returns whether the soak can continue."""
        if self.server is not None:
            try:
                self.server.force_heal()
            except UnrecoverableError:
                self.report.unrecoverable = True
                self.report.availability_errors += 1
                return False
            except AvailabilityError:
                # The session failed under the armed faults; the server
                # stays degraded and later ops drive further sessions.
                self.report.availability_errors += 1
            self._absorb_heals()
            return True
        return self._try_recover(i)

    def _scrub_pump_direct(self, i: int) -> bool:
        """One budgeted scrub slice in direct mode (the server modes pump
        theirs from the serving loop). Returns whether the soak can
        continue."""
        try:
            self._scrubber.pump()
        except AvailabilityError:
            # A fault fired mid-repair. The enclave session may have
            # advanced past the host's clock mirror, so this is not
            # retriable in place: recover, like any availability error.
            self.report.availability_errors += 1
            return self._try_recover(i)
        except RepairForgeryError as exc:
            # The repair candidate came from the oracle's own model; the
            # enclave refusing it means the scrubber tried to install
            # something the authenticated state contradicts — with an
            # honest source that is a scrubber bug, not a detection.
            self.report.hard_failures.append(
                f"scrub repair rejected an honest candidate: "
                f"{type(exc).__name__}: {exc}")
        except IntegrityError as exc:
            # A repair session flushes the op backlog before it starts;
            # buffered poison from injected rot detonates there, exactly
            # like an op-time detection — heal, same as the op path.
            if self._latent_rot_fired():
                self.report.integrity_detections += 1
                return self._heal_after_detection(i)
            self.report.hard_failures.append(
                f"scrub pump raised spurious {type(exc).__name__} with "
                f"no rot landed: {exc}")
        return True

    def _check_scrub_convergence(self) -> None:
        """The ``scrub`` acceptance oracle: once the faults are disarmed,
        the scrubber must converge — a full pass finding nothing and the
        quarantine drained to zero. Anything left quarantined means a
        rotted page the repair path could not heal."""
        if self.report.unrecoverable:
            return
        install_faults(self.db, None)
        try:
            converged = False
            scrub = None
            for attempt in range(2):
                if self.server is not None:
                    if self.server.degraded or self.server._integrity_dirty:
                        # Finish the heal the last alarm started, now
                        # that the boundary is clean.
                        if not self.server.force_heal():
                            self.report.hard_failures.append(
                                "post-soak heal failed with no faults "
                                "armed")
                            return
                        self._absorb_heals()
                        # The heal may have salvaged (fresh database);
                        # disarm the boundary on whatever is live now.
                        install_faults(self.db, None)
                scrub = (self.server.scrubber() if self.server is not None
                         else self._scrubber)
                try:
                    # Settle first: any rot-damaged answer still served
                    # provisionally must alarm at this epoch close (or
                    # _check_settlement flags the silent escape), and the
                    # op backlog drains so convergence starts clean.
                    self._maintain()
                    converged = scrub.scrub_to_convergence()
                except IntegrityError as exc:
                    if attempt == 0 and self._latent_rot_fired():
                        # Poison buffered during the soak's tail
                        # detonated inside the convergence drain: that
                        # is the detection the rot owed us. Heal once
                        # (the boundary is clean) and converge on the
                        # healed store.
                        self.report.integrity_detections += 1
                        if self.server is not None:
                            if not self.server.force_heal():
                                self.report.hard_failures.append(
                                    "post-detection heal failed with no "
                                    "faults armed")
                                return
                            self._absorb_heals()
                        else:
                            self._recover_sequence()
                        install_faults(self.db, None)
                        continue
                    self.report.hard_failures.append(
                        f"scrub convergence raised {type(exc).__name__} "
                        f"with no faults armed: {exc}")
                break
        finally:
            install_faults(self.db, self.plan)
        self.report.scrub_converged = converged
        self.report.scrub_pages = scrub.pages_checked
        self.report.scrub_mismatches = scrub.mismatches_found
        self.report.scrub_repairs = scrub.repairs_done
        self.report.quarantined_final = \
            len(self.db.store.quarantined_addresses)
        self.report.repair_ledger_digest = scrub.ledger.digest()
        if not converged or self.report.quarantined_final:
            self.report.hard_failures.append(
                f"scrub did not converge: "
                f"{self.report.quarantined_final} page(s) still "
                f"quarantined after the faults were disarmed")

    def _try_recover(self, i: int) -> bool:
        """Run the recovery sequence; an untyped escape from *recovery* is
        itself a tri-state violation (recovery must succeed or fail with a
        typed error). Returns whether the soak can continue."""
        try:
            self._recover_sequence()
            return True
        except Exception as exc:
            self.report.hard_failures.append(
                f"recovery after op {i} failed untyped: "
                f"{type(exc).__name__}: {exc}")
            return False

    def _check_convergence(self) -> None:
        """Post-soak leader convergence (the quorum-HA acceptance check):
        once the faults are disarmed and one quiet pump lets the group
        repair itself, there must be exactly one live leader enclave
        holding (or, in the degenerate no-group mode, owed) a valid
        quorum lease. Skipped when the ladder legitimately ran out of
        rungs or the run ended mid-heal — those are availability
        outcomes, not split-brain."""
        if self.report.unrecoverable or self.server.degraded:
            return
        install_faults(self.db, None)  # settle with a clean boundary
        repl = self.server.replication
        try:
            if not self.db.enclave.probe()["alive"]:
                # The last kill landed after the final op, so no request
                # ever tripped the watchdog: run the heal the next op
                # would have triggered (promotion, in failover mode).
                self.server.force_heal()
            repl.pump()
            probe = self.db.enclave.probe()
            converged = bool(probe["alive"] and probe["loaded"]
                             and repl.lease_ok())
        except AvailabilityError:
            converged = False
        finally:
            install_faults(self.db, self.plan)
        if not converged:
            self.report.leader_converged = False
            self.report.hard_failures.append(
                "leader convergence failed: no single live leased leader "
                "after the soak settled")

    def run(self) -> ChaosReport:
        since_maintain = 0
        for i, (kind, k, payload) in enumerate(
                self.generator.operations(self.n_ops)):
            if kind not in (OP_GET, OP_PUT):
                kind, payload = OP_GET, None  # A-mix never scans; belt+braces
            try:
                self._one_op(kind, k, payload)
            except UnrecoverableError:
                # The ladder escalated: typed, definitive, run over. Not a
                # hard failure — the invariant held all the way down; the
                # operator gets the seed + trace repro handle in the error.
                self.report.unrecoverable = True
                self.report.availability_errors += 1
                break
            except AvailabilityError:
                self.report.availability_errors += 1
                # In a served topology the pipeline heals itself (supervisor +
                # SDK); a typed failure here is a definitively-abandoned
                # op, not a cue for harness-driven recovery.
                if self.server is None and not self._try_recover(i):
                    break
            except IntegrityError as exc:
                if self._latent_rot_fired():
                    # Injected bit rot really landed, and the verifier
                    # caught it on touch before answering: that is the
                    # detection the tri-state invariant demands.
                    self.report.integrity_detections += 1
                    if not self._heal_after_detection(i):
                        break
                else:
                    self.report.hard_failures.append(
                        f"op {i} ({kind} {k}): spurious "
                        f"{type(exc).__name__} with no tampering: {exc}")
            except Exception as exc:  # untyped escape = tri-state violation
                self.report.hard_failures.append(
                    f"op {i} ({kind} {k}): untyped {type(exc).__name__}: "
                    f"{exc}")
                break
            if self.topology.scrub and self.server is None and \
                    (i + 1) % self.SCRUB_EVERY == 0:
                if not self._scrub_pump_direct(i):
                    break
            since_maintain += 1
            if since_maintain >= self.VERIFY_EVERY:
                since_maintain = 0
                try:
                    self._maintain()
                except UnrecoverableError:
                    self.report.unrecoverable = True
                    self.report.availability_errors += 1
                    break
                except AvailabilityError:
                    self.report.availability_errors += 1
                    if self.server is None and not self._try_recover(i):
                        break
                except IntegrityError as exc:
                    if self._latent_rot_fired():
                        # Rot on a deferred page is individually
                        # unverifiable by design; the aggregate set-hash
                        # check at epoch close is where it surfaces.
                        self.report.integrity_detections += 1
                        if not self._heal_after_detection(i):
                            break
                    else:
                        self.report.hard_failures.append(
                            f"maintenance after op {i}: spurious "
                            f"{type(exc).__name__}: {exc}")
            if self.tamper_every and (i + 1) % self.tamper_every == 0:
                if self.topology.batched:
                    try:
                        self._flush_burst()
                    except UnrecoverableError:
                        self.report.unrecoverable = True
                        self.report.availability_errors += 1
                        break
                self._tamper_round(k)
        if self.topology.batched and self._burst:
            try:
                self._flush_burst()
            except UnrecoverableError:
                self.report.unrecoverable = True
                self.report.availability_errors += 1
        self.report.fault_fires = {
            point: self.plan.fires(point)
            for point in self.plan.points()
            if self.plan.fires(point)
        }
        self.report.receipts_dropped = self.db.receipt_channel.dropped
        if self.report.pipelined:
            self.report.pipelined_batches = self.server.batches_pipelined
        if self.server is not None and self.server.replication is not None:
            self._check_convergence()  # may run one settling heal first
            repl = self.server.replication
            self.report.failovers = self.server.supervisor.failovers
            self.report.shipped_batches = repl.shipped_batches
            self.report.repl_rejects = repl.rejects
            self.report.standbys = self.topology.standbys
            self.report.delta_resyncs = repl.delta_resyncs
            self.report.snapshot_resyncs = repl.snapshot_resyncs
            self.report.lease_expiries = repl.lease_expiries
        if self.topology.scrub:
            self._check_scrub_convergence()
        self.report.trace_digest = self.plan.trace_digest()
        spool = TRACER.sink
        if spool is not None:
            self.report.spool_events = len(spool)
            # The replay contract is checked on *every* soak (the spool
            # always rides along): a spool that cannot reconstruct the
            # ring's spans is broken observability, a hard failure.
            self.report.spool_replay_ok = replay_fidelity(TRACER, spool)
            if not self.report.spool_replay_ok:
                self.report.hard_failures.append(
                    "trace spool failed replay fidelity: a span in the "
                    "ring is not reconstructable from the spool")
        if self.topology.slo:
            self.report.exemplar_digest = LATENCIES.exemplar_digest()
            if self.server is not None and self.server._slo is not None:
                self.report.slo_alerts = self.server._slo.alerts
                self.report.slo_firing = sorted(self.server._slo.firing())
        if self.report.hard_failures or self.report.unrecoverable:
            # Forensics keyed by the fault seed (the repro handle). With
            # the spool attached — every soak — the dump covers the whole
            # run within retention, not just the ring's last events.
            source = spool if spool is not None else TRACER
            events = (source.events() if spool is not None
                      else TRACER.last(self.FORENSICS_LAST))
            self.report.forensics = {
                "seed": self.seed,
                "trace_digest": self.report.trace_digest,
                "ring_dropped": TRACER.dropped,
                "source": "spool" if spool is not None else "ring",
                "spool": spool.stats() if spool is not None else None,
                "events": [e.as_dict() for e in events],
            }
        return self.report


def run_chaos(seed: int = 7, ops: int = 2000, records: int = 200,
              plan: FaultPlan | None = None,
              tamper_every: int | None = None,
              topology: Topology | str = Topology(),
              spool_dir: str | None = None) -> ChaosReport:
    """Run one chaos soak; see the module docstring for the contract.

    ``topology`` (a :class:`~repro.topology.Topology` or its string
    form) picks the stack under test, the fault mix armed against it and
    the extra oracles the report asserts — the table in
    docs/PROTOCOL.md, "Topologies", is the reference. In short: a served
    topology drives the SDK -> server -> FastVer pipeline and leaves
    recovery to the server's own heal ladder; ``batched`` / ``pipelined``
    submit bursts and resolve puts through the idempotency table;
    ``failover[:N]`` kills the primary twice mid-run (with a correlated
    standby kill for N > 1) and demands leader convergence and no lost
    acknowledged write; ``scrub`` arms latent rot and demands
    convergence to zero quarantined pages; ``slo`` arms the burn-rate
    engine. The scrub, pipelined and slo tallies fold into the digest
    only when their term is present, so every other digest is untouched
    by them.

    The observability layer (repro.obs) is reset at the start of each
    soak and a persistent trace spool is attached, so the trace ring and
    histograms afterwards describe exactly this run — ``python -m repro
    trace`` dumps them, and a hard failure's ``forensics`` field dumps
    the *whole run* from the spool (bounded by retention, not by the
    ring). ``spool_dir`` persists the spool's segments to disk for
    ``python -m repro obs replay``. The spool is behaviorally inert —
    attaching it changes no counter, latency, or event.
    """
    if isinstance(topology, str):
        topology = Topology.parse(topology)
    obs_reset()
    TRACER.attach_sink(TraceSpool(directory=spool_dir))
    try:
        return _ChaosRun(seed, ops, records, plan, tamper_every,
                         topology).run()
    finally:
        if TRACER.sink is not None:
            TRACER.sink.flush()
