"""Wires a primary server to its replication group: shipping, leases,
quorum promotion, delta resync, and verified-stale replica reads.

The :class:`ReplicationManager` lives host-side (untrusted): it carries
shipments between the enclaves, which is why nothing here is load-
bearing for integrity — the enclave-side channel checks (``repl_sign`` /
``repl_admit``), the lease MACs (``repl_grant_lease`` /
``repl_verify_lease``), and the clients' own receipt MACs are. What the
manager *is* responsible for is availability choreography:

* **pump** — package the outbox into signed shipments and fan them out
  to every live standby, subject to the ``repl.*`` fault points
  (drop/reorder/corrupt deliveries are rejected by the standbys and
  retransmitted — the host is a delay-only adversary on this channel);
  plus the periodic work that keeps the group healthy: rebuilding failed
  members, rejoining detached ones, cutting size/time-triggered epoch
  markers, and renewing the leadership lease;
* **promote** — the supervisor's failover rung: collect
  ``(epoch, seq)`` votes from a **quorum** of live standbys, pick the
  member with the highest verified position (ties broken on the lowest
  standby id, deterministically), drain the tail it has not yet admitted,
  fence, seal, and swap it in as the server's database under a bumped
  leadership generation. Surviving losers keep tailing the same hash
  chain under the new primary — ``repl_sign`` signs positions rather
  than consuming them, so the stream continues where the deposed
  primary left off;
* **leases** — the primary serves only under a lease co-signed by a
  quorum of standby enclaves. A standby's enclave refuses to grant a
  generation below the highest it has seen, so once a promotion bumps
  the generation the deposed primary's renewal is starved and its lease
  expiry stops it *before* its first rejected ecall;
* **resync** — a failed or lagging member rejoins by replaying only the
  retained shipped tail from its last admitted seq (*delta resync*),
  falling back to a full snapshot rebuild only when the tail has been
  garbage-collected past its floor (or the member's enclave state is
  gone);
* **replica reads** — tailing standbys serve *verified-stale* reads:
  values covered by a completed set-hash verification at a known primary
  epoch, within an explicit epoch-distance staleness budget that the
  size/time epoch markers keep enforceable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.protocol import ReceiptChannel
from repro.crypto.mac import MacKey
from repro.errors import AvailabilityError, IntegrityError, ProtocolError
from repro.instrument import COUNTERS
from repro.obs import TRACER
from repro.replication.shipper import LogShipper
from repro.replication.standby import StandbyVerifier


#: Headroom added above the observed worst member lag when growing the
#: adaptive retain depth.
RETAIN_MARGIN = 16
#: Leadership lease length in simulated ticks.
LEASE_DURATION_TICKS = 240.0
#: Renew when the remaining lease drops below this fraction of the
#: duration (an honest primary renews long before expiry).
LEASE_RENEW_MARGIN = 0.5
#: Promotion vote-collection cost per live standby (ticks).
VOTE_TICK_PER_STANDBY = 0.2
#: Fixed resync handshake cost (ticks), both delta and snapshot.
RESYNC_BASE_TICKS = 1.0
#: Marginal delta-resync cost per redelivered entry (ticks).
RESYNC_TICK_PER_ENTRY = 0.02
#: Marginal snapshot-rebuild cost per copied record (ticks) — the
#: asymmetry that makes delta resync worth having.
SNAPSHOT_TICK_PER_RECORD = 0.05


@dataclass
class ReplicationConfig:
    """Replication tuning knobs."""

    #: Ship when the outbox holds at least this many entries (an epoch
    #: marker or an idle channel ships immediately regardless).
    batch_entries: int = 8
    #: After a promotion or member failure, restore the group back to
    #: ``n_standbys`` from the live primary (double-failover support).
    auto_reattach: bool = True
    #: Replication group size (number of standbys tailing the primary).
    n_standbys: int = 1
    #: Fully-admitted shipments retained for delta resync; a member
    #: further behind than this takes the snapshot path. This is the
    #: *floor*: the shipper's live retain depth adapts upward to the
    #: deepest member lag observed (plus ``RETAIN_MARGIN``), so a member
    #: that has once fallen N behind keeps a delta path N deep.
    retain_shipments: int = 64
    #: Cut an epoch marker after this many shipped entries since the
    #: last one (bounds standby verification lag by size)…
    epoch_marker_entries: int = 64
    #: …or after this many ticks with entries pending (bounds it by
    #: time, independent of the maintain cadence).
    epoch_marker_ticks: float = 256.0
    #: Replica reads may be at most this many epochs behind the primary.
    staleness_budget_epochs: int = 2

    @property
    def quorum(self) -> int:
        """Majority of the configured group: ⌈(n_standbys+1)/2⌉."""
        return self.n_standbys // 2 + 1


class ReplicationManager:
    """Log shipping + quorum failover for one :class:`FastVerServer`."""

    def __init__(self, server, config: ReplicationConfig | None = None,
                 promote_hook=None):
        self.server = server
        self.config = config or ReplicationConfig()
        #: Called with the promoted database's ``items_snapshot()`` right
        #: after a promotion (the chaos oracle rebases on it).
        self.promote_hook = promote_hook
        self.standbys: list[StandbyVerifier] = []
        self.shipper = LogShipper(
            self._sign, retain=self.config.retain_shipments)
        self.failovers = 0
        self.shipped_batches = 0
        self.rejects = 0
        self.lag_max = 0
        self.delta_resyncs = 0
        self.snapshot_resyncs = 0
        self.lease_expiries = 0
        self.epoch_markers = 0
        self.replica_reads = 0
        self._key_bytes: bytes | None = None
        #: Whether the *current* primary enclave holds the session key.
        #: Heals wipe it (channel state is deliberately not checkpointed);
        #: regrowing members around a keyless primary would poison the
        #: stream at the first signature, so top-up checks this first.
        self._primary_keyed = False
        self._next_standby_id = 0
        self._needs_top_up = False
        self._lease_expires_at = float("-inf")
        self._lease_alarmed = False
        self._entries_since_marker = 0
        self._last_marker_at = server.now
        self._member_lag_high_water = 0
        self._bootstrap()

    # ------------------------------------------------------------------
    # Group membership
    # ------------------------------------------------------------------
    @property
    def standby(self) -> StandbyVerifier | None:
        """The group's first member (single-standby compatibility view)."""
        return self.standbys[0] if self.standbys else None

    def live_standbys(self) -> list[StandbyVerifier]:
        """Members currently tailing the stream (healthy, not detached)."""
        return [s for s in self.standbys if s.healthy() and not s.detached]

    def _sign(self, seq: int, prev_digest: bytes, digest: bytes) -> bytes:
        return self.server.db._ecall("repl_sign", seq, prev_digest, digest)

    def _client_source(self, client_id: int):
        return self.server.db.clients.get(client_id)

    def _spawn(self) -> StandbyVerifier:
        """One fresh member bootstrapped from the live primary, joining
        the group's single chain at the shipper's current position."""
        db = self.server.db
        sh = self.shipper
        sid = self._next_standby_id
        self._next_standby_id += 1
        member = StandbyVerifier(
            db.config, db.items_snapshot(), list(db.clients.values()),
            self._key_bytes, client_source=self._client_source,
            faults_source=lambda: self.server.faults,
            standby_id=sid, join_seq=sh.next_seq, join_chain=sh.chain,
            as_of_epoch=db.current_epoch)
        # Attest the current leadership generation at join: the grant tag
        # is discarded (this extends no lease), but the member's enclave
        # pins its generation floor, so a deposed primary can never court
        # a freshly spawned member for an old-generation lease grant.
        member.grant_lease(self.server.generation, self.server.now)
        return member

    def _bootstrap(self) -> None:
        """Provision the full group from the current primary's live
        records and install a fresh replication session key on every
        enclave, anchored at the shipper's *current* chain position (zero
        on first bootstrap; wherever the stream stands on a re-anchor)."""
        db = self.server.db
        db.flush()
        key = MacKey.generate("repl-channel")
        self._key_bytes = key.key_bytes()
        sh = self.shipper
        db._ecall("repl_set_key", self._key_bytes, sh.next_seq, sh.chain)
        self._primary_keyed = True
        self.standbys = [self._spawn()
                         for _ in range(self.config.n_standbys)]
        self._lease_expires_at = float("-inf")
        self._lease_alarmed = False

    def _try_bootstrap(self) -> None:
        try:
            self._bootstrap()
        except AvailabilityError:
            # Primary not healthy enough to snapshot right now; serve
            # without a group (the restore/salvage rungs still work).
            self.standbys = []

    def resync(self) -> None:
        """Re-anchor the group against a healed primary.

        A restore/salvage heal rolled the primary's enclave back past the
        volatile replication session (channel state is deliberately not
        checkpointed) and may have rolled its timeline back past writes
        the standbys already applied — the heal replays acknowledged
        writes through the normal serving path, and a member that kept
        its old state would trip its own anti-replay on the re-shipped
        copies. So every member is rebuilt from the healed snapshot.

        What must survive is the shipper's *position*: the in-flight tail
        is discarded (the healed snapshot covers every acknowledged
        write), but the new session is keyed at the shipper's current
        ``(seq, chain)`` and members join there — reconciling the chain
        position with what the standbys had admitted instead of assuming
        a fresh chain at zero, so seq stays monotone across heals and a
        member's last-admitted seq is always comparable with the
        shipper's floor.
        """
        self.shipper.drain_entries()
        self._primary_keyed = False  # the heal wiped the channel session
        self._try_bootstrap()

    def resync_standby(self, index: int) -> None:
        """Rejoin one failed/lagging member.

        Delta path: redeliver only the retained shipments from the
        member's last admitted seq — cost scales with the *gap*, not the
        dataset. Snapshot path (member's enclave state is gone, or its
        position fell below the retained floor): full rebuild — cost
        scales with the record count.
        """
        member = self.standbys[index]
        next_needed = member.last_admitted_seq + 1
        if member.failed or next_needed < self.shipper.floor:
            self._rebuild_standby(index)
            return
        shipments = self.shipper.pending_for(next_needed)
        entries = sum(len(s.entries) for s in shipments)
        for shipment in shipments:
            if not member.admit(shipment.seq, shipment.prev_digest,
                                shipment.body, shipment.tag,
                                shipment.entries):
                self._rebuild_standby(index)
                return
        member.detached = False
        self.delta_resyncs += 1
        COUNTERS.delta_resyncs += 1
        self.server._advance(RESYNC_BASE_TICKS
                             + entries * RESYNC_TICK_PER_ENTRY)
        TRACER.record("resync", self.server.now, None, mode="delta",
                      standby=member.standby_id,
                      shipments=len(shipments), entries=entries)

    def _rebuild_standby(self, index: int) -> None:
        """Snapshot-rebuild one member from the live primary."""
        db = self.server.db
        db.flush()
        sh = self.shipper
        if sh.outbox:
            # Pin the unshipped tail into the stream *before* taking the
            # snapshot: the snapshot includes these entries, so shipping
            # them to the fresh member later would double-apply them and
            # trip its own anti-replay. Packaged now, they sit below the
            # join point and only reach the surviving members.
            sh.make_shipment()
        member = self._spawn()
        self.standbys[index] = member
        records = len(member.committed_reads)
        self.snapshot_resyncs += 1
        COUNTERS.snapshot_resyncs += 1
        self.server._advance(RESYNC_BASE_TICKS
                             + records * SNAPSHOT_TICK_PER_RECORD)
        TRACER.record("resync", self.server.now, None, mode="snapshot",
                      standby=member.standby_id, records=records)

    def _top_up(self) -> None:
        """Grow the group back to its configured size from the live
        primary (post-promotion, deferred out of the RTO-critical path)."""
        self._needs_top_up = False
        if not self._primary_keyed:
            # A heal wiped the primary's channel session and the re-anchor
            # bootstrap could not complete (primary was still unhealthy).
            # Members spawned now would tail a primary that cannot sign a
            # single shipment — re-anchor the whole group instead, and on
            # failure stay queued for the next pump.
            self._try_bootstrap()
            if not self._primary_keyed:
                self._needs_top_up = True
            return
        try:
            while len(self.standbys) < self.config.n_standbys:
                db = self.server.db
                db.flush()
                if self.shipper.outbox:
                    self.shipper.make_shipment()
                self.standbys.append(self._spawn())
        except AvailabilityError:
            self._needs_top_up = True

    # ------------------------------------------------------------------
    # Shipping
    # ------------------------------------------------------------------
    def note_put(self, request) -> None:
        self.shipper.note_put(request)
        self._entries_since_marker += 1

    def note_epoch(self, epoch: int) -> None:
        """An epoch closed on the primary (maintain cadence or marker):
        mark it in-stream and reset the marker clocks."""
        self.shipper.note_epoch(epoch)
        self._entries_since_marker = 0
        self._last_marker_at = self.server.now

    def note_boundary(self) -> None:
        self.shipper.note_boundary()

    def lag(self) -> int:
        """Acknowledged-but-unreplicated entries (observable lag bound)."""
        return self.shipper.backlog()

    def maybe_mark_epoch(self) -> None:
        """Cut a size/time-triggered epoch marker.

        The maintain cadence closes epochs on its own schedule; under a
        write burst (or a stalled maintain loop) the shipped stream could
        run arbitrarily far past the last marker, which would make every
        standby's verified position — and therefore the replica-read
        staleness bound — unboundedly stale. Markers close an epoch on
        the primary whenever enough entries or ticks have accumulated,
        so standby verification lag is bounded independently of maintain.
        Durability is not this path's job: no checkpoint is taken here
        (maintain still owns the sealed floor cadence).
        """
        if self.server.degraded:
            return
        cfg = self.config
        due_size = self._entries_since_marker >= cfg.epoch_marker_entries
        due_time = (self._entries_since_marker > 0
                    and self.server.now - self._last_marker_at
                    >= cfg.epoch_marker_ticks)
        if not (due_size or due_time):
            return
        db = self.server.db
        try:
            report = db.verify()
        except AvailabilityError:
            return  # primary gate is down; the supervisor acts next
        self.server._settle_verified(epoch=report.epoch)
        self.epoch_markers += 1
        COUNTERS.epoch_markers += 1
        self.note_epoch(report.epoch)

    def pump(self) -> None:
        """One replication round: kills, repairs, markers, lease upkeep,
        then package-and-deliver under fault injection."""
        faults = self.server.faults
        if faults is not None and faults.fire("repl.primary.kill"):
            enclave = self.server.db.enclave
            if enclave.probe()["alive"]:
                enclave.teardown()
        if faults is not None and faults.fire("repl.standby.kill"):
            # Consulted in the same round as repl.primary.kill (fixed
            # order, one draw each per pump), so specs pinned to the same
            # encounter index model a *correlated* same-tick kill.
            victim = next((s for s in self.standbys if s.healthy()), None)
            if victim is not None:
                victim.db.enclave.reboot()
                victim.failed = True
        if self.config.auto_reattach:
            if self._needs_top_up:
                self._top_up()
            for i, member in enumerate(self.standbys):
                if member.failed or member.detached:
                    try:
                        self.resync_standby(i)
                    except AvailabilityError:
                        break  # primary down; the supervisor acts next
        self.maybe_mark_epoch()
        self.lease_ok()
        if self.live_standbys():
            try:
                self._pump_inner(faults)
            except AvailabilityError:
                pass  # the primary's gate is down; the supervisor acts next
        self._detach_laggards()
        self._note_lag()

    def _pump_inner(self, faults) -> None:
        sh = self.shipper
        live = self.live_standbys()
        if sh.outbox and (len(sh.outbox) >= self.config.batch_entries
                          or sh.epoch_pending or sh.boundary_pending
                          or not sh.unacked):
            entries = len(sh.outbox)
            sh.make_shipment()
            self.shipped_batches += 1
            TRACER.record("ship", self.server.now, None, entries=entries,
                          unacked=len(sh.unacked))
        if not sh.unacked:
            return
        if faults is not None and faults.fire("repl.standby.lag"):
            return  # the standbys' apply loops stall this round
        if faults is not None and len(sh.unacked) >= 2 \
                and faults.fire("repl.ship.reorder"):
            # Deliver a later shipment first: the standby's sequence check
            # rejects it without touching state, and in-order delivery
            # below proceeds as if nothing happened.
            out_of_order = list(sh.unacked.values())[1]
            self._deliver(live[0], out_of_order, corrupt=False)
        for seq in list(sh.unacked):
            shipment = sh.unacked[seq]
            if faults is not None and faults.fire("repl.ship.drop"):
                break  # lost in transit; retransmitted next pump
            corrupt = faults is not None and faults.fire("repl.ship.corrupt")
            for member in live:
                if member.failed or member.detached:
                    continue
                if member.last_admitted_seq + 1 != seq:
                    continue  # behind (resync path) or already has it
                self._deliver(member, shipment, corrupt)
            survivors = [s for s in live
                         if not s.failed and not s.detached]
            if survivors and all(s.last_admitted_seq >= seq
                                 for s in survivors):
                sh.ack(seq)

    def _deliver(self, member: StandbyVerifier, shipment,
                 corrupt: bool) -> bool:
        body = shipment.body
        if corrupt and body:
            body = bytes([body[0] ^ 0x01]) + body[1:]
        ok = member.admit(shipment.seq, shipment.prev_digest, body,
                          shipment.tag, shipment.entries)
        if not ok:
            self.rejects += 1
        return ok

    def _detach_laggards(self) -> None:
        """Bound the retransmit window: when one member pins ``unacked``
        open past the retain bound while the rest advance, detach it —
        it stops receiving deliveries and rejoins later via
        :meth:`resync_standby` (delta if the tail still covers it)."""
        sh = self.shipper
        live = self.live_standbys()
        while len(sh.unacked) > sh.retain and len(live) > 1:
            slowest = min(live,
                          key=lambda s: (s.last_admitted_seq, s.standby_id))
            slowest.detached = True
            live.remove(slowest)
            TRACER.record("resync", self.server.now, None, mode="detach",
                          standby=slowest.standby_id,
                          behind=sh.next_seq - 1 - slowest.last_admitted_seq)
            for seq in list(sh.unacked):
                if all(s.last_admitted_seq >= seq for s in live):
                    sh.ack(seq)

    def _note_lag(self) -> None:
        lag = self.shipper.backlog()
        if lag > self.lag_max:
            self.lag_max = lag
        if lag > COUNTERS.replication_lag_max:
            COUNTERS.replication_lag_max = lag
        self._adapt_retain()

    def _adapt_retain(self) -> None:
        """Size the retained tail to the group's *observed* behavior: a
        static retain either wastes memory (group never lags) or forces
        snapshot rebuilds (group lags deeper than the constant). Track
        the worst per-member shipment lag ever seen and keep the window
        that much deeper than the configured floor, plus margin, so the
        next stall of the same depth still resolves via delta resync."""
        sh = self.shipper
        live = self.live_standbys()
        if live:
            worst = max(sh.next_seq - 1 - m.last_admitted_seq for m in live)
            if worst > self._member_lag_high_water:
                self._member_lag_high_water = worst
        if self._member_lag_high_water <= 0:
            # A group that has never lagged keeps the configured window —
            # the margin buys headroom over *observed* behavior, not a
            # blanket raise of the floor.
            depth = self.config.retain_shipments
        else:
            depth = max(self.config.retain_shipments,
                        self._member_lag_high_water + RETAIN_MARGIN)
        sh.retain = depth
        if depth > COUNTERS.replication_retain_depth:
            COUNTERS.replication_retain_depth = depth

    # ------------------------------------------------------------------
    # Repair source (repro.scrub)
    # ------------------------------------------------------------------
    def repair_payload(self, key_bits: int) -> tuple[bool, bytes | None]:
        """An authentic repair candidate for one data key, or
        ``(False, None)``.

        Freshest live member's verified-committed view first (ordered by
        last marker epoch, ties to the lowest id — deterministic), then
        the shipper's retained tail, newest put first. The group is a
        candidate *source*, never a trust root: the scrubber re-vets
        whatever this returns through the primary's enclave, so a lying
        member here is detected, not believed.
        """
        live = sorted(self.live_standbys(),
                      key=lambda s: (-s.last_marker_epoch, s.standby_id))
        for member in live:
            if key_bits in member.committed_reads:
                return True, member.committed_reads[key_bits]
        for kind, item in reversed(self.shipper.entries_beyond(0)):
            if kind == "put" and item.key.bits == key_bits:
                return True, item.payload
        return False, None

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------
    def lease_ok(self) -> bool:
        """Is the primary's leadership lease valid (renewing if due)?

        With no live members the lease discipline has nothing to bind
        against — an empty group is indistinguishable from replication
        being disabled — so the primary serves unleased (the degenerate
        single-node mode; the restore/salvage rungs still protect it).

        Detached (lagging) members still vote: a lease grant attests the
        leadership *generation*, which a laggard's enclave knows just as
        well as a current one — excluding laggards would let replication
        lag bleed into an availability outage.
        """
        voters = [s for s in self.standbys if s.healthy()]
        if not voters:
            return True
        now = self.server.now
        if (self._lease_expires_at - now
                <= LEASE_DURATION_TICKS * LEASE_RENEW_MARGIN):
            self._renew_lease(voters)
        ok = now < self._lease_expires_at
        if ok:
            self._lease_alarmed = False
        elif not self._lease_alarmed:
            self._lease_alarmed = True
            self.lease_expiries += 1
            COUNTERS.lease_expiries += 1
            TRACER.record("lease", now, None, event="expired",
                          generation=self.server.generation)
        return ok

    def lease_valid(self) -> bool:
        """Passive lease check for the health surface: valid now, without
        attempting a renewal (no ecalls, no counter side effects)."""
        if not any(s.healthy() for s in self.standbys):
            return True
        return self.server.now < self._lease_expires_at

    def _renew_lease(self, live: list[StandbyVerifier]) -> None:
        """Collect lease grants from the live members; the lease extends
        only when a quorum of the *configured* group co-signs it (so a
        partitioned minority can never keep a deposed primary alive)."""
        server = self.server
        generation = server.generation
        expires_at = server.now + LEASE_DURATION_TICKS
        faults = server.faults
        grants = 0
        for member in live:
            if faults is not None and faults.fire("repl.lease.partition"):
                continue  # this grant never arrives
            try:
                tag = member.grant_lease(generation, expires_at)
                server.db._ecall("repl_verify_lease", generation,
                                 expires_at, tag)
            except IntegrityError:
                # Refused (the member saw a higher generation — we are
                # deposed) or forged in transit; either way, no grant.
                continue
            except AvailabilityError:
                continue
            grants += 1
        if grants >= self.config.quorum:
            self._lease_expires_at = expires_at
            TRACER.record("lease", server.now, None, event="renewed",
                          generation=generation, grants=grants,
                          expires_at=expires_at)

    # ------------------------------------------------------------------
    # Replica reads
    # ------------------------------------------------------------------
    def replica_read(self, key_bits: int):
        """Serve a verified-stale read from the freshest live member.

        Returns ``(payload, as_of_epoch, stale_epochs)`` when a member
        holds a verified-committed value within the staleness budget, or
        None (caller falls through to the primary). ``as_of_epoch`` is
        the primary epoch of the member's last verified marker — the
        read is literally 'the value as verified at that epoch'.
        """
        live = self.live_standbys()
        if not live:
            return None
        best = max(live,
                   key=lambda s: (s.last_marker_epoch, -s.standby_id))
        stale = max(0, self.server.db.current_epoch - best.last_marker_epoch)
        if stale > self.config.staleness_budget_epochs:
            return None
        payload = best.read_committed(key_bits)
        if payload is None:
            return None
        self.replica_reads += 1
        COUNTERS.replica_reads += 1
        if stale > COUNTERS.replica_staleness_max:
            COUNTERS.replica_staleness_max = stale
        TRACER.record("replica", self.server.now, None,
                      standby=best.standby_id,
                      as_of=best.last_marker_epoch, stale_epochs=stale)
        return (payload, best.last_marker_epoch, stale)

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def can_promote(self) -> bool:
        """Promotion needs a quorum of healthy members to vote."""
        healthy = [s for s in self.standbys if s.healthy()]
        return len(healthy) >= self.config.quorum

    def promote(self) -> int:
        """Quorum-promote the best standby to primary. Returns the number
        of tail entries the winner had to apply (the promotion cost
        driver).

        Sequence: (1) collect ``(epoch, seq)`` votes from every healthy
        member — the quorum rule guarantees the group as a whole has
        seen everything any member admitted, and the max vote picks the
        member whose verified position is furthest ahead (ties broken on
        the lowest standby id, deterministically); (2) the winner applies
        the tail it has not yet admitted — read *non-destructively* from
        the shipper, because the surviving losers still need those same
        shipments; every put still carries its client MAC and is
        re-validated by the winner's enclave; (3) close epochs up to the
        fence, collect per-client fence receipts, seal a fresh
        anti-replay floor; (4) tear down the deposed enclave — exactly
        one live verifier identity — and swap the winner in under a new
        leadership generation; (5) the losers keep tailing the same
        chain (the winner signs from where the stream stands), the lease
        is re-acquired at the new generation — which bumps every loser
        enclave's generation floor and thereby starves the deposed
        primary's renewals — and the group tops back up to size on the
        next pump, off the RTO-critical path.
        """
        server = self.server
        healthy = [s for s in self.standbys if s.healthy()]
        if len(healthy) < self.config.quorum:
            raise ProtocolError(
                f"quorum unavailable: {len(healthy)} healthy standby(s), "
                f"promotion needs {self.config.quorum}")
        server._advance(len(healthy) * VOTE_TICK_PER_STANDBY)
        winner = max(healthy,
                     key=lambda s: (s.vote(), -s.standby_id))
        TRACER.record("quorum", server.now, None,
                      votes={s.standby_id: list(s.vote()) for s in healthy},
                      winner=winner.standby_id, quorum=self.config.quorum)
        old_db = server.db
        entries = self.shipper.entries_beyond(winner.last_admitted_seq)
        winner.apply_entries(entries)
        # The host mirror of the dead primary's epoch can trail its
        # enclave by one (a kill mid-close); +2 clears it with margin.
        fence_target = max(old_db.current_epoch + 2,
                           winner.db.current_epoch + 1)
        winner.db.fence_to(fence_target)
        generation = server.generation + 1
        fences = winner.db._ecall("issue_fence", generation)
        winner.db.receipt_channel = ReceiptChannel()  # unmute
        winner.db.checkpoint()  # seal the floor at the fence
        if old_db.enclave.probe()["alive"]:
            old_db.enclave.teardown()
        items = winner.db.items_snapshot()
        server._adopt_promoted(winner.db, generation, fences, items)
        # The winner's enclave provably holds the session key (it admitted
        # shipments under it), so the new primary can sign immediately.
        self._primary_keyed = True
        self.standbys.remove(winner)
        self.failovers += 1
        COUNTERS.failovers += 1
        TRACER.record("promote", server.now, None, generation=generation,
                      drained=len(entries), fences=len(fences),
                      survivors=len(self.standbys))
        # Realign the survivors: an in-stream marker at the new primary's
        # (fenced-forward) epoch keeps their verified positions — and the
        # staleness bound — comparable with the new timeline.
        self.note_epoch(server.db.current_epoch)
        if self.config.auto_reattach \
                and len(self.standbys) < self.config.n_standbys:
            self._needs_top_up = True
            if len(self.live_standbys()) < self.config.quorum:
                # Too few live members to co-sign the new leader's lease
                # (or, for the single-standby group, to tail the stream
                # at all): healing back to a leaseable quorum is
                # RTO-critical, so this much top-up runs synchronously;
                # the rest waits for the next pump.
                self._top_up()
        self._lease_expires_at = float("-inf")
        self._lease_alarmed = False
        self.lease_ok()  # re-acquire at the new generation now: this is
        # what bumps the survivors' generation floor and deposes the old
        # primary's lease for good.
        if self.promote_hook is not None:
            self.promote_hook(items)
        return len(entries)
