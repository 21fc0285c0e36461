"""Quorum HA tests: multi-standby groups, lease-based leadership,
incremental delta resync, epoch markers, and verified-stale replica
reads.

Everything here runs on the simulated tick clock, mirroring
tests/test_replication.py's setup idiom; the chaos acceptance scenario
(correlated same-tick primary+standby double kill at N=3) runs across
three seeds with a bit-for-bit determinism check.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    LeaseExpiredError,
    ProtocolError,
    SplitBrainError,
    StaleReplayError,
)
from repro.obs import TRACER
from repro.replication import ReplicationConfig
from repro.replication.manager import LEASE_DURATION_TICKS
from tests.test_replication import envelope, repl_setup, sdk_for


# ======================================================================
# Group provisioning and quorum arithmetic
# ======================================================================
class TestGroup:
    def test_group_boots_at_configured_size(self):
        db, client, server, repl = repl_setup(
            repl_config=ReplicationConfig(n_standbys=3))
        assert len(repl.standbys) == 3
        assert repl.config.quorum == 2
        assert {s.standby_id for s in repl.standbys} == {0, 1, 2}

    def test_every_member_receives_every_put(self):
        db, client, server, repl = repl_setup(
            repl_config=ReplicationConfig(n_standbys=3))
        for k in range(6):
            server.handle(envelope(server, client, "put", k, b"fan%d" % k))
        assert repl.lag() == 0
        for member in repl.standbys:
            snapshot = dict(member.db.items_snapshot())
            for k in range(6):
                assert snapshot[k] == b"fan%d" % k

    def test_health_surface_reports_group_state(self):
        db, client, server, repl = repl_setup(
            repl_config=ReplicationConfig(n_standbys=3))
        h = server.health()["replication"]
        assert h["group_size"] == 3
        assert h["group_live"] == 3
        assert h["quorum"] == 2
        assert "lease_valid" in h


# ======================================================================
# Quorum promotion edges
# ======================================================================
class TestQuorumPromotion:
    def test_promotion_with_exact_quorum_live(self):
        """N=3 needs ⌈(3+1)/2⌉ = 2 healthy voters: with exactly two
        live members promotion must go through (the group then heals
        back to size, restoring the lease quorum)."""
        db, client, server, repl = repl_setup(
            repl_config=ReplicationConfig(n_standbys=3))
        server.handle(envelope(server, client, "put", 1, b"keep"))
        repl.standbys[2].db.enclave.teardown()  # one member down
        assert repl.can_promote()  # exactly quorum (2 of 3) left
        db.enclave.teardown()
        assert server.force_heal()
        assert server.generation == 1
        assert server.handle(
            envelope(server, client, "get", 1)).payload == b"keep"

    def test_promotion_below_quorum_is_refused(self):
        db, client, server, repl = repl_setup(
            repl_config=ReplicationConfig(n_standbys=3,
                                          auto_reattach=False))
        repl.standbys[1].db.enclave.teardown()
        repl.standbys[2].db.enclave.teardown()
        assert not repl.can_promote()  # 1 healthy < quorum 2
        with pytest.raises(ProtocolError, match="quorum"):
            repl.promote()

    def test_tied_votes_break_on_lowest_standby_id(self):
        """All members share the same verified (epoch, seq) position, so
        the vote is a pure tie: the winner must be the lowest standby id,
        deterministically."""
        db, client, server, repl = repl_setup(
            repl_config=ReplicationConfig(n_standbys=3))
        server.handle(envelope(server, client, "put", 1, b"tie"))
        server.maintain()
        votes = {s.standby_id: s.vote() for s in repl.standbys}
        assert len(set(votes.values())) == 1, "harness: votes not tied"
        repl.promote()
        quorum_events = [e for e in TRACER.last(100) if e.kind == "quorum"]
        assert quorum_events, "promotion must leave a quorum trace event"
        assert quorum_events[-1].detail["winner"] == min(votes)

    def test_losers_keep_tailing_the_same_chain(self):
        """Surviving losers stay in the group after promotion and keep
        admitting the (continuing) chain under the new primary."""
        db, client, server, repl = repl_setup(
            repl_config=ReplicationConfig(n_standbys=3))
        server.handle(envelope(server, client, "put", 1, b"before"))
        db.enclave.teardown()
        assert server.force_heal()
        survivors = [s for s in repl.standbys]
        assert len(survivors) >= 2  # losers retained (plus any top-up)
        server.handle(envelope(server, client, "put", 2, b"after"))
        assert repl.lag() == 0
        assert repl.rejects == 0
        for member in survivors:
            assert dict(member.db.items_snapshot())[2] == b"after"


# ======================================================================
# Leases
# ======================================================================
class TestLeases:
    def test_deposed_generation_cannot_renew(self):
        """Once the member enclaves pin a higher leadership generation,
        the old primary's renewals are starved and the lease gate stops
        it with a typed error — before any ecall is even attempted."""
        db, client, server, repl = repl_setup(
            repl_config=ReplicationConfig(n_standbys=3))
        # A newer leader (generation+1) acquired the lease: every member
        # enclave pinned the bumped generation floor.
        for member in repl.standbys:
            member.grant_lease(server.generation + 1, server.now + 500.0)
        server._advance(LEASE_DURATION_TICKS + 1.0)
        with pytest.raises(LeaseExpiredError):
            server.handle(envelope(server, client, "put", 1, b"too-late"))
        assert repl.lease_expiries >= 1

    def test_member_refuses_regressed_generation_grant(self):
        db, client, server, repl = repl_setup(
            repl_config=ReplicationConfig(n_standbys=2))
        member = repl.standbys[0]
        member.grant_lease(5, server.now + 100.0)
        with pytest.raises(SplitBrainError):
            member.grant_lease(4, server.now + 200.0)

    def test_honest_primary_renews_and_serves(self):
        db, client, server, repl = repl_setup(
            repl_config=ReplicationConfig(n_standbys=3))
        for i in range(4):
            server._advance(LEASE_DURATION_TICKS * 0.6)
            server.handle(envelope(server, client, "put", i, b"ok%d" % i))
        assert repl.lease_expiries == 0
        assert repl.lease_valid()


# ======================================================================
# Delta resync vs snapshot fallback
# ======================================================================
class TestResync:
    def test_lagging_member_rejoins_via_delta(self):
        db, client, server, repl = repl_setup(
            repl_config=ReplicationConfig(n_standbys=2,
                                          auto_reattach=False))
        member = repl.standbys[1]
        member.detached = True
        for k in range(4):
            server.handle(envelope(server, client, "put", k, b"gap%d" % k))
        repl.resync_standby(1)
        assert repl.delta_resyncs == 1
        assert repl.snapshot_resyncs == 0
        assert not member.detached
        assert member.last_admitted_seq == repl.shipper.next_seq - 1
        assert dict(member.db.items_snapshot())[3] == b"gap3"

    def test_gap_straddling_gced_tail_falls_back_to_snapshot(self):
        """A member whose next-needed seq fell below the shipper's
        retained floor cannot delta-resync: the rejoin must take the
        snapshot path, and the rebuilt member lands at the stream head."""
        db, client, server, repl = repl_setup(
            repl_config=ReplicationConfig(n_standbys=2, retain_shipments=2,
                                          batch_entries=1,
                                          auto_reattach=False))
        member = repl.standbys[1]
        member.detached = True
        for k in range(12):  # >> retain: the tail GCs past the member
            server.handle(envelope(server, client, "put", k, b"go%d" % k))
        assert member.last_admitted_seq + 1 < repl.shipper.floor
        repl.resync_standby(1)
        assert repl.snapshot_resyncs == 1
        assert repl.delta_resyncs == 0
        rebuilt = repl.standbys[1]
        assert rebuilt.last_admitted_seq == repl.shipper.next_seq - 1
        assert dict(rebuilt.db.items_snapshot())[11] == b"go11"


# ======================================================================
# Epoch markers and verified-stale replica reads
# ======================================================================
class TestReplicaReads:
    def test_size_triggered_marker_advances_verified_position(self):
        db, client, server, repl = repl_setup(
            repl_config=ReplicationConfig(n_standbys=1,
                                          epoch_marker_entries=4,
                                          epoch_marker_ticks=1e9))
        before = repl.standby.last_marker_epoch
        for k in range(8):
            server.handle(envelope(server, client, "put", k, b"m%d" % k))
        assert repl.epoch_markers >= 1
        assert repl.standby.last_marker_epoch > before

    def test_time_triggered_marker_advances_verified_position(self):
        db, client, server, repl = repl_setup(
            repl_config=ReplicationConfig(n_standbys=1,
                                          epoch_marker_entries=10_000,
                                          epoch_marker_ticks=32.0))
        server.handle(envelope(server, client, "put", 1, b"pending"))
        before = repl.epoch_markers
        server._advance(64.0)
        repl.pump()
        assert repl.epoch_markers > before

    def test_stale_read_served_within_budget(self):
        db, client, server, repl = repl_setup(
            repl_config=ReplicationConfig(n_standbys=2))
        sdk = sdk_for(server, client)
        sdk.put(1, b"fresh")
        server.maintain()  # marker ships: replicas verified at this epoch
        result = sdk.get_stale(1, budget_epochs=2)
        assert result.stale
        assert result.payload == b"fresh"
        assert result.stale_epochs <= 2
        assert repl.replica_reads >= 1

    def test_stale_read_over_budget_falls_through_to_primary(self):
        db, client, server, repl = repl_setup(
            repl_config=ReplicationConfig(n_standbys=2,
                                          staleness_budget_epochs=8))
        sdk = sdk_for(server, client)
        sdk.put(1, b"fresh")
        server.maintain()
        # The primary's epoch advances without shipping markers (epoch
        # closes the group never hears about), so the replicas' verified
        # position falls behind.
        for _ in range(2):
            server.db.verify()
        distance = (server.db.current_epoch
                    - max(s.last_marker_epoch for s in repl.standbys))
        assert distance >= 1, "harness: replicas did not fall behind"
        result = sdk.get_stale(1, budget_epochs=0)
        assert not result.stale  # served fresh by the primary instead
        assert result.payload == b"fresh"

    def test_group_budget_bounds_staleness(self):
        db, client, server, repl = repl_setup(
            repl_config=ReplicationConfig(n_standbys=2,
                                          staleness_budget_epochs=1))
        sdk = sdk_for(server, client)
        sdk.put(1, b"fresh")
        server.maintain()
        for _ in range(3):
            server.db.verify()  # replicas now > 1 epoch behind
        assert repl.replica_read(server.bitkey(1).bits) is None

    def test_sdk_rejects_superseded_stale_answer(self):
        """The byzantine-replica wall: a stale answer carrying one of the
        client's own settled-then-overwritten payloads under a fresh
        as-of claim must raise a typed StaleReplayError."""
        db, client, server, repl = repl_setup(
            repl_config=ReplicationConfig(n_standbys=2))
        sdk = sdk_for(server, client)
        sdk.put(1, b"old")
        server.maintain()
        sdk.put(1, b"new")
        server.maintain()
        fresh_epoch = server.db.current_epoch
        repl.replica_read = lambda key_bits: (b"old", fresh_epoch, 0)
        with pytest.raises(StaleReplayError):
            sdk.get_stale(1, budget_epochs=2)


# ======================================================================
# Chaos acceptance: correlated double kill at N=3
# ======================================================================
class TestQuorumChaos:
    def test_correlated_double_kill_converges_across_seeds(self):
        """Primary and one standby die on the same tick, twice per run;
        the group must still converge to a single leased leader with
        zero integrity escapes, across three seeds."""
        from repro.faults.chaos import run_chaos

        for seed in (7, 11, 23):
            report = run_chaos(seed=seed, ops=400, records=80,
                               topology="failover:3")
            assert report.ok, (seed, report.hard_failures)
            assert report.leader_converged
            assert report.standbys == 3
            assert report.failovers >= 1
            assert not report.unrecoverable

    def test_quorum_soak_deterministic(self):
        from repro.faults.chaos import run_chaos

        first = run_chaos(seed=11, ops=300, records=60,
                          topology="failover:3")
        second = run_chaos(seed=11, ops=300, records=60,
                           topology="failover:3")
        assert first.ok and second.ok
        assert first.digest() == second.digest()


class TestQuorumBench:
    def test_quorum_rto_and_delta_speedup(self):
        from repro.bench.failover import run_failover_bench

        result = run_failover_bench(records=300, ops=100, seed=3)
        assert result["ok"], result
        q = result["quorum"]
        assert q["multiple_of_single"] <= q["max_multiple"]
        assert q["delta_speedup"] >= q["min_delta_speedup"]
