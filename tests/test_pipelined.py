"""Pipelined group commit: streamed settlement across pumps, fence
interaction mid-flight, settlement-queue backpressure and overflow
accounting, the AIMD latency-budget controller, and the pipelined chaos
topology (the pinned synchronous digests proving those paths stayed
byte-identical live in tests/test_topology.py).
"""

from __future__ import annotations

import pytest

from repro.errors import NotLeaderError, OverloadError
from repro.instrument import COUNTERS
from repro.obs import TRACER
from repro.server import ServerRequest
from repro.server.controller import TICKS_PER_OP
from tests.test_batching import batched_setup, envelope

def pipelined_setup(specs=None, seed=3, n_records=50, standby=False,
                    **cfg_kwargs):
    cfg_kwargs.setdefault("pipeline", True)
    cfg_kwargs.setdefault("max_batch_ops", 4)
    return batched_setup(specs, seed, n_records, standby, **cfg_kwargs)


class TestStreamedSettlement:
    def test_receipts_settle_on_a_later_pump(self):
        db, client, server = pipelined_setup()
        # Even keys share shard 0 (worker % n_workers): one full batch.
        tickets = [server.submit(envelope(server, client, "put", 2 * k,
                                          b"p%d" % k))
                   for k in range(4)]
        server.pump()
        # Dispatched, not settled: the ecall ran (completions recorded)
        # but the receipts stream back on a later pump.
        assert all(not t.done for t in tickets)
        surface = server.health()["batching"]
        assert surface["pipeline"] is True
        assert surface["inflight_batches"] == 1
        assert surface["batches_pipelined"] == 1
        server.pump()  # idle pump delivers the streamed receipts
        assert all(t.done and t.error is None for t in tickets)
        for k, t in enumerate(tickets):
            assert t.result.payload == b"p%d" % k
        settles = TRACER.events(kind="settle")
        assert len(settles) == 4
        assert all(e.detail["pumps"] >= 1 for e in settles)
        db.verify()

    def test_effects_are_truth_at_dispatch(self):
        # The pipelined ecall's effects are durable state the moment it
        # returns — only the *receipt* is deferred. A read through the
        # synchronous handle() path sees the new value even while the
        # put's own ticket is still in flight.
        db, client, server = pipelined_setup()
        inflight = [server.submit(envelope(server, client, "put", 2 * k,
                                           b"w%d" % k))
                    for k in range(4)]
        server.pump()
        assert all(not t.done for t in inflight)
        out = server.handle(envelope(server, client, "get", 0))
        assert out.payload == b"w0"

    def test_handle_drains_the_pipeline(self):
        db, client, server = pipelined_setup()
        out = server.handle(envelope(server, client, "put", 3, b"one-shot"))
        assert out.payload == b"one-shot"

    def test_pipelined_answers_match_synchronous_batched(self):
        db1, client1, server1 = batched_setup(n_records=30)
        db2, client2, server2 = pipelined_setup(n_records=30,
                                                max_batch_ops=8)
        for k in range(20):
            a = server1.handle(envelope(server1, client1, "put", k,
                                        b"m%d" % k))
            b = server2.handle(envelope(server2, client2, "put", k,
                                        b"m%d" % k))
            assert (a.payload, a.degraded, a.deduped) == \
                (b.payload, b.degraded, b.deduped)
        for k in range(20):
            a = server1.handle(envelope(server1, client1, "get", k))
            b = server2.handle(envelope(server2, client2, "get", k))
            assert a.payload == b.payload == b"m%d" % k
        db1.verify()
        db2.verify()

    def test_maintain_never_straddles_inflight(self):
        db, client, server = pipelined_setup()
        tickets = [server.submit(envelope(server, client, "put", 2 * k,
                                          b"s%d" % k))
                   for k in range(4)]
        server.pump()
        assert all(not t.done for t in tickets)
        server.maintain()  # force-settles before the epoch closes
        assert all(t.done and t.error is None for t in tickets)


class TestFenceMidFlight:
    def test_streamed_receipt_for_deposed_generation_is_rejected(self):
        db, client, server = pipelined_setup(standby=True)
        tickets = [server.submit(envelope(server, client, "put", 2 * k,
                                          b"f%d" % k))
                   for k in range(4)]
        server.pump()
        assert all(not t.done for t in tickets)
        # The primary is deposed while the receipts are still streaming:
        # a promotion fences the old generation.
        repl = server.replication
        assert repl.can_promote()
        repl.promote()
        assert server.generation == 1
        server.pump()
        # An honest server refuses to vouch for receipts minted under
        # the fenced generation, even though the ops DID apply.
        for t in tickets:
            assert t.done
            assert isinstance(t.error, NotLeaderError)
            assert "deposed" in str(t.error)
        fences = [e for e in TRACER.events(kind="fence")
                  if e.detail.get("streamed")]
        assert len(fences) == 4

    def test_retry_after_fence_resolves_exactly_once(self):
        db, client, server = pipelined_setup(standby=True)
        first = envelope(server, client, "put", 2, b"exactly-once")
        ticket = server.submit(first)
        # Fill the rest of the shard batch so the flush dispatches.
        for k in range(3):
            server.submit(envelope(server, client, "put", 4 + 2 * k,
                                   b"fill%d" % k))
        server.pump()
        server.replication.promote()
        server.pump()
        assert isinstance(ticket.error, NotLeaderError)
        # The client adopts the fence and retries the same operation
        # (same nonce): the idempotency table survived the promotion, so
        # the retry answers from it instead of re-applying.
        retry = ServerRequest("put", first.op, server.now + 10_000.0,
                              worker=first.worker,
                              generation=server.generation)
        out = server.handle(retry)
        assert out.deduped
        assert out.payload == b"exactly-once"
        assert out.generation == server.generation
        readback = server.handle(envelope(server, client, "get", 2))
        assert readback.payload == b"exactly-once"
        server.db.verify()  # the adopted (promoted) database is live now


class TestSettlementBackpressure:
    def test_overflow_drops_are_counted_never_silent(self):
        db, client, server = pipelined_setup(settlement_capacity=4)
        # All eight admitted while the backlog was empty; the dispatch
        # then pushes the backlog past its bound and the oldest pending
        # receipt observations are dropped with a counter and a trace.
        tickets = [server.submit(envelope(server, client, "put", 2 * k,
                                          b"o%d" % k))
                   for k in range(8)]
        server.pump()
        assert COUNTERS.settlement_overflow == 4
        sheds = [e for e in TRACER.events(kind="shed")
                 if e.detail.get("reason") == "settlement_overflow"]
        assert len(sheds) == 4
        # The requests themselves were unaffected — only their latency
        # observations were lost.
        server.pump()
        assert all(t.done and t.error is None for t in tickets)

    def test_submit_sheds_at_the_settlement_bound(self):
        db, client, server = pipelined_setup(settlement_capacity=4)
        for k in range(8):
            server.submit(envelope(server, client, "put", 2 * k,
                                   b"b%d" % k))
        server.pump()
        with pytest.raises(OverloadError, match="settlement backlog"):
            server.submit(envelope(server, client, "put", 1, b"nope"))
        assert COUNTERS.shed >= 1
        # Closing an epoch settles the backlog and reopens admission.
        server.maintain()
        out = server.handle(envelope(server, client, "put", 1, b"yes"))
        assert out.payload == b"yes"


class TestLatencyBudgetController:
    def test_no_budget_means_no_controller(self):
        db, client, server = pipelined_setup()
        assert server.health()["controller"] is None

    def test_linger_tracks_ops_bound(self):
        db, client, server = pipelined_setup(latency_budget_p99=100.0)
        controller = server._controller
        assert controller is not None
        for shard in range(db.config.n_workers):
            assert controller.linger_limit(shard) == \
                TICKS_PER_OP * controller.batch_limit(shard)

    def test_convergence_under_step_change_in_offered_load(self):
        db, client, server = pipelined_setup(latency_budget_p99=100.0,
                                             max_batch_ops=8,
                                             queue_capacity=256)
        controller = server._controller
        start = controller.batch_limit(0)

        def drive(rounds, wave, maintain_every):
            n = 0
            for r in range(rounds):
                for _ in range(wave):
                    server.submit(envelope(server, client, "put", n % 50,
                                           b"l%d" % n))
                    n += 1
                server.pump()
                if (r + 1) % maintain_every == 0:
                    server.maintain()
            server.maintain()

        # Light offered load: epochs close quickly, the windowed p99
        # sits far under budget, and the controller grows the bounds.
        drive(rounds=10, wave=8, maintain_every=2)
        peak = controller.batch_limit(0)
        assert peak > start
        assert COUNTERS.controller_grows > 0
        assert controller.last_action == "grow"
        # Step change: heavier waves with rarer epoch closes push the
        # windowed p99 over budget and the controller backs off
        # multiplicatively.
        drive(rounds=8, wave=40, maintain_every=4)
        assert COUNTERS.controller_shrinks > 0
        assert controller.batch_limit(0) < peak
        assert controller.last_p99 is not None
        # The control surface is exported for operators.
        snap = server.health()["controller"]
        assert snap["budget_p99"] == 100.0
        assert snap["evaluations"] == controller.evaluations
        assert set(snap["batch_limits"]) == set(range(db.config.n_workers))
        events = TRACER.events(kind="controller")
        assert {e.detail["action"] for e in events} >= {"grow", "shrink"}


class TestPipelinedChaos:
    def test_pipelined_soak_is_deterministic_with_zero_escapes(self):
        from repro.faults.chaos import run_chaos
        a = run_chaos(seed=13, ops=300, records=60, topology="pipelined")
        b = run_chaos(seed=13, ops=300, records=60, topology="pipelined")
        assert a.ok  # zero tri-state violations (no escapes)
        assert a.pipelined and a.pipelined_batches > 0
        assert a.digest() == b.digest()

    def test_pipelined_failover_soak_holds_the_oracle(self):
        from repro.faults.chaos import run_chaos
        report = run_chaos(seed=7, ops=300, records=60,
                           topology="pipelined+failover")
        assert report.ok
        assert report.failovers >= 1

    def test_pipelined_mode_changes_the_digest(self):
        from repro.faults.chaos import run_chaos
        sync = run_chaos(seed=13, ops=300, records=60, topology="batched")
        piped = run_chaos(seed=13, ops=300, records=60, topology="pipelined")
        assert sync.digest() != piped.digest()


class TestPipelinedBenchShape:
    def test_tiny_pipelined_run_settles_everything(self):
        from repro.bench.batching import PIPELINED, _run_one

        sync, _ = _run_one(8, records=60, ops=120, seed=5)
        piped, server = _run_one(8, records=60, ops=120, seed=5,
                                 topology=PIPELINED)
        assert piped["mode"] == "pipelined"
        assert piped["batches_pipelined"] > 0
        assert server.health()["batching"]["inflight_batches"] == 0
        # Same work counted, overlapped wall model: pipelined modeled
        # throughput beats the synchronous row at the same batch bound.
        assert piped["throughput_mops"] > sync["throughput_mops"]

    def test_tiny_adaptive_frontier_point(self):
        from repro.bench.batching import _run_frontier_point

        static = _run_frontier_point(60, 160, 5, batch=4)
        adaptive = _run_frontier_point(60, 160, 5, budget=80.0)
        assert static["mode"] == "static"
        assert adaptive["mode"] == "adaptive"
        assert adaptive["controller"]["evaluations"] > 0
        assert static["epoch_closes"] > 0
        assert static["p99_verified_ticks"] > 0
