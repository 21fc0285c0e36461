"""Serving-layer tests: backoff, admission, deadlines, idempotent retry,
circuit breaker, watchdog, degraded mode, heal/replay, and salvage.

The server runs on a simulated tick clock, so every scenario here —
including breaker cooldowns and supervisor pacing — is deterministic.
"""

from __future__ import annotations

import pytest

from repro.backoff import BackoffPolicy
from repro.client import RetryingClient
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    DegradedModeError,
    EnclaveUnavailableError,
    IntegrityError,
    OverloadError,
    RetriesExhaustedError,
    WireDropError,
)
from repro.faults import FaultPlan, install_faults
from repro.instrument import COUNTERS
from repro.server import CircuitBreaker, FastVerServer, ServerConfig, ServerRequest
from tests.conftest import small_fastver


def server_setup(specs=None, seed=0, n_records=100, **cfg_kwargs):
    """A checkpointed FastVer fronted by a warm server (+ optional plan)."""
    db, client = small_fastver(n_records=n_records)
    db.verify()
    db.flush()
    db.checkpoint()
    warm = [(k, b"v%d" % k) for k in range(n_records)]
    server = FastVerServer(db, ServerConfig(**cfg_kwargs), warm=warm)
    if specs is not None:
        install_faults(db, FaultPlan(seed, specs))
    return db, client, server


def envelope(server, client, kind, key, payload=None, deadline=None):
    bk = server.bitkey(key)
    op = client.make_get(bk) if kind == "get" else client.make_put(bk, payload)
    if deadline is None:
        deadline = server.now + 1000.0
    return ServerRequest(kind, op, deadline)


class TestBackoffPolicy:
    def test_same_seed_same_schedule(self):
        a = list(BackoffPolicy(max_attempts=6, seed=5).delays())
        b = list(BackoffPolicy(max_attempts=6, seed=5).delays())
        assert a == b
        assert a[0] == 0.0

    def test_different_seeds_diverge(self):
        a = list(BackoffPolicy(max_attempts=6, seed=1).delays())
        b = list(BackoffPolicy(max_attempts=6, seed=2).delays())
        assert a != b

    def test_delays_respect_cap_and_budget(self):
        policy = BackoffPolicy(max_attempts=10, base_delay=1.0,
                               max_delay=5.0, seed=0)
        delays = list(policy.delays())
        assert len(delays) == 10
        assert all(0.0 <= d <= 5.0 for d in delays)

    def test_no_jitter_is_exact_exponential(self):
        policy = BackoffPolicy(max_attempts=5, base_delay=1.0,
                               max_delay=64.0, jitter="none")
        assert list(policy.delays()) == [0.0, 1.0, 2.0, 4.0, 8.0]

    def test_run_retries_then_reraises_last(self):
        calls = []

        def flaky():
            calls.append(1)
            raise ValueError(f"attempt {len(calls)}")

        policy = BackoffPolicy(max_attempts=3, seed=0)
        with pytest.raises(ValueError, match="attempt 3"):
            policy.run(flaky, retry_on=(ValueError,))
        assert len(calls) == 3

    def test_run_no_retry_short_circuits(self):
        calls = []

        def fatal():
            calls.append(1)
            raise KeyError("fatal")

        policy = BackoffPolicy(max_attempts=5, seed=0)
        with pytest.raises(KeyError):
            policy.run(fatal, retry_on=(LookupError,), no_retry=(KeyError,))
        assert len(calls) == 1

    def test_sleep_couples_to_clock(self):
        ticks = []
        policy = BackoffPolicy(max_attempts=4, jitter="none",
                               sleep_fn=ticks.append)
        for d in policy.delays():
            policy.sleep(d)
        assert ticks == [1.0, 2.0, 4.0]
        assert policy.total_delay == 7.0

    def test_configurable_ecall_budget(self):
        """Satellite: the bounded ecall retry takes its budget from the
        config's BackoffPolicy — two transient faults beat a 2-attempt
        budget but not the default 4-attempt one."""
        db, client = small_fastver(
            ecall_backoff=BackoffPolicy(max_attempts=2, base_delay=0.1))
        install_faults(db, FaultPlan(0, {"ecall.transient": [0, 1]}))
        with pytest.raises(EnclaveUnavailableError):
            db.verify()

        db2, client2 = small_fastver()  # default: 4 attempts
        install_faults(db2, FaultPlan(0, {"ecall.transient": [0, 1]}))
        db2.verify()
        assert COUNTERS.ecall_retries >= 2


class TestCircuitBreaker:
    def test_threshold_trips_and_cooldown_probes(self):
        b = CircuitBreaker(threshold=2, cooldown=10.0)
        assert b.allow(0.0)
        b.record_failure(0.0)
        assert b.state == "closed"
        b.record_failure(1.0)
        assert b.state == "open" and b.trips == 1
        assert not b.allow(5.0)          # cooling down
        assert b.allow(11.0)             # half-open probe admitted
        assert b.probes == 1
        assert not b.allow(11.5)         # only one probe in flight

    def test_probe_failure_reopens_probe_success_closes(self):
        b = CircuitBreaker(threshold=1, cooldown=5.0)
        b.record_failure(0.0)
        assert b.allow(6.0)              # probe
        b.record_failure(6.0)            # probe failed
        assert b.state == "open" and b.trips == 2
        assert b.allow(12.0)             # second probe
        b.record_success()
        assert b.state == "closed"
        assert b.allow(12.0)

    def test_denied_requests_counted(self):
        b = CircuitBreaker(threshold=1, cooldown=100.0)
        b.record_failure(0.0)
        before = COUNTERS.broken
        assert not b.allow(1.0)
        assert not b.allow(2.0)
        assert COUNTERS.broken == before + 2


class TestAdmissionAndDeadlines:
    def test_queue_bound_sheds_typed(self):
        db, client, server = server_setup(queue_capacity=2)
        server.submit(envelope(server, client, "get", 1))
        server.submit(envelope(server, client, "get", 2))
        with pytest.raises(OverloadError):
            server.submit(envelope(server, client, "get", 3))
        assert COUNTERS.shed == 1
        assert COUNTERS.admitted == 2
        assert server.pump() == 2

    def test_shed_fault_point(self):
        db, client, server = server_setup({"server.queue.shed": [0]})
        with pytest.raises(OverloadError):
            server.handle(envelope(server, client, "get", 1))
        # Not admitted, not applied; the next attempt sails through.
        result = server.handle(envelope(server, client, "get", 1))
        assert result.payload == b"v1"

    def test_expired_deadline_is_typed_and_not_applied(self):
        db, client, server = server_setup()
        request = envelope(server, client, "put", 5, b"late",
                           deadline=server.now)  # expires as the pump ticks
        with pytest.raises(DeadlineExceededError):
            server.handle(request)
        assert COUNTERS.deadline_expired == 1
        assert server.handle(envelope(server, client, "get", 5)).payload == b"v5"
        # Provably not applied: the idempotency table never saw it.
        assert server.query(client.client_id, request.nonce)[0] == "unknown"

    def test_health_and_ready_probes(self):
        db, client, server = server_setup()
        health = server.health()
        assert health["mode"] == "normal"
        assert health["enclave"]["alive"] and health["enclave"]["loaded"]
        db.enclave.teardown()
        assert not server.health()["enclave"]["alive"]


class TestIdempotentRetry:
    def test_request_wire_drop_never_admitted(self):
        db, client, server = server_setup({"server.wire.request": [0]})
        request = envelope(server, client, "put", 3, b"once")
        with pytest.raises(WireDropError):
            server.handle(request)
        assert COUNTERS.wire_drops == 1
        assert server.query(client.client_id, request.nonce)[0] == "unknown"

    def test_response_wire_drop_deduped_not_reapplied(self):
        db, client, server = server_setup({"server.wire.response": [0]})
        request = envelope(server, client, "put", 3, b"once")
        with pytest.raises(WireDropError):
            server.handle(request)  # applied; the response was lost
        status, recorded = server.query(client.client_id, request.nonce)
        assert status == "done" and recorded.payload == b"once"
        retry = server.handle(request)
        assert retry.deduped and retry.payload == b"once"
        assert server.handle(envelope(server, client, "get", 3)).payload == b"once"

    def test_sdk_retries_through_response_drop(self):
        db, client, server = server_setup({"server.wire.response": [0]})
        sdk = RetryingClient(server, client)
        result = sdk.put(3, b"exactly-once")
        assert result.payload == b"exactly-once"
        assert result.deduped  # answered from the idempotency table
        assert COUNTERS.wire_drops == 1
        assert server.handle(envelope(server, client, "get", 3)).payload \
            == b"exactly-once"

    def test_sdk_retries_through_request_drops(self):
        db, client, server = server_setup(
            {"server.wire.request": [0, 1]})  # first two sends vanish
        sdk = RetryingClient(server, client)
        result = sdk.put(3, b"third-time")
        assert result.payload == b"third-time"
        assert COUNTERS.retried >= 2
        assert COUNTERS.admitted == 1  # only the surviving send was admitted

    def test_sdk_gives_up_definitively_under_total_overload(self):
        db, client, server = server_setup({"server.queue.shed": 1.0})
        sdk = RetryingClient(server, client)
        with pytest.raises(RetriesExhaustedError):
            sdk.put(3, b"never")
        assert sdk.gave_up == 1
        install_faults(db, None)
        assert server.handle(envelope(server, client, "get", 3)).payload == b"v3"

    def test_sdk_never_retries_integrity_errors(self):
        from repro.adversary.host import tamper_value

        db, client, server = server_setup()
        sdk = RetryingClient(server, client)
        sdk.put(7, b"target")
        tamper_value(db, 7)
        with pytest.raises(IntegrityError):
            sdk.get(7)
            server.maintain()  # detection settles at epoch close
        assert COUNTERS.retried == 0


class TestBreakerInPipeline:
    def test_forced_open_serves_cached_reads_fails_writes(self):
        """Acceptance criterion: breaker forced open -> reads still served
        from the verified cache (marked degraded), writes fail fast."""
        db, client, server = server_setup({"server.breaker.trip": [0]})
        result = server.handle(envelope(server, client, "get", 4))
        assert result.degraded and result.payload == b"v4"
        assert server.breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            server.handle(envelope(server, client, "put", 4, b"x"))
        with pytest.raises(CircuitOpenError):
            # A key outside the cache cannot be served while open.
            server.handle(envelope(server, client, "get", 10_000))

    def test_cooldown_probe_closes_breaker(self):
        db, client, server = server_setup({"server.breaker.trip": [0]},
                                          breaker_cooldown=10.0)
        assert server.handle(envelope(server, client, "get", 4)).degraded
        server.advance(10.0)
        probe = server.handle(envelope(server, client, "put", 4, b"probe"))
        assert not probe.degraded
        assert server.breaker.state == "closed"
        fresh = server.handle(envelope(server, client, "get", 4))
        assert not fresh.degraded and fresh.payload == b"probe"


class TestWatchdogAndDegradedMode:
    def test_watchdog_heals_out_of_band_reboot(self):
        db, client, server = server_setup()
        server.handle(envelope(server, client, "put", 2, b"provisional"))
        db.enclave.reboot()  # out of band: no operation observed it
        result = server.handle(envelope(server, client, "get", 2))
        # Healed, and the un-checkpointed put correctly rolled back.
        assert server.supervisor.heals == 1
        assert not result.degraded
        assert result.payload == b"v2"
        assert COUNTERS.recovered == 1

    def test_degraded_writes_queue_then_replay(self):
        db, client, server = server_setup(
            {"server.supervisor.stall": [0, 1, 2, 3]})  # first session dies
        db.enclave.reboot()
        request = envelope(server, client, "put", 9, b"queued")
        with pytest.raises(DegradedModeError):
            server.handle(request)
        assert server.degraded
        assert server.query(client.client_id, request.nonce)[0] == "pending"
        # Next touch starts a new heal session; the stall budget is spent,
        # so it recovers and replays the queued write idempotently.
        result = server.handle(request)
        assert result.deduped and result.payload == b"queued"
        assert not server.degraded
        assert server.replayed_writes == 1
        assert server.handle(envelope(server, client, "get", 9)).payload == b"queued"

    def test_degraded_reads_serve_committed_tier(self):
        db, client, server = server_setup(
            {"server.supervisor.stall": [0, 1, 2, 3]})
        server.handle(envelope(server, client, "put", 6, b"provisional"))
        db.enclave.reboot()
        result = server.handle(envelope(server, client, "get", 6))
        # Still degraded (heal stalled), so the read comes from the durable
        # tier: the checkpointed v6, not the rolled-back provisional write.
        assert server.degraded
        assert result.degraded and result.payload == b"v6"
        assert COUNTERS.degraded >= 1

    def test_cancel_unqueues_a_degraded_write_for_good(self):
        db, client, server = server_setup(
            {"server.supervisor.stall": [0, 1, 2, 3]})
        db.enclave.reboot()
        request = envelope(server, client, "put", 9, b"abandoned")
        with pytest.raises(DegradedModeError):
            server.handle(request)
        assert server.cancel(client.client_id, request.nonce) is None
        # Heal succeeds on the next touch; the cancelled write must NOT
        # have been replayed.
        assert server.handle(envelope(server, client, "get", 9)).payload == b"v9"
        assert server.replayed_writes == 0

    def test_maintain_refuses_while_degraded_heals_first(self):
        db, client, server = server_setup(
            {"server.supervisor.stall": [0, 1, 2, 3, 4, 5, 6, 7]})
        db.enclave.reboot()
        with pytest.raises(DegradedModeError):
            server.handle(envelope(server, client, "get", 10_000))  # uncached
        assert server.degraded
        with pytest.raises(DegradedModeError):
            server.maintain()  # stalled heal: refuses to checkpoint
        server.maintain()  # stall budget spent: heals, then checkpoints
        assert not server.degraded


class TestDurabilityAcrossHeals:
    def test_maintain_promotes_completions_and_reads(self):
        db, client, server = server_setup()
        request = envelope(server, client, "put", 11, b"durable")
        server.handle(request)
        server.maintain()
        db.enclave.reboot()
        result = server.handle(envelope(server, client, "get", 11))
        assert server.supervisor.heals == 1
        assert result.payload == b"durable"  # checkpointed, so it survived
        # The idempotency entry was durable too: a very late retry still
        # gets the recorded answer instead of a re-execution.
        status, recorded = server.query(client.client_id, request.nonce)
        assert status == "done" and recorded.payload == b"durable"

    def test_rollback_drops_non_durable_completions(self):
        db, client, server = server_setup()
        request = envelope(server, client, "put", 11, b"provisional")
        server.handle(request)
        db.enclave.reboot()
        server.handle(envelope(server, client, "get", 1))  # triggers heal
        assert server.query(client.client_id, request.nonce)[0] == "unknown"


class TestSalvageFallback:
    def _damaged_checkpoint_server(self):
        db, client = small_fastver()
        db.verify()
        db.flush()
        install_faults(db, FaultPlan(0, {"checkpoint.blob.truncate": [0]}))
        db.checkpoint()  # the recovery point is silently damaged
        hook_calls = []

        def hook(items):
            hook_calls.append(len(items))
            return items

        server = FastVerServer(db, ServerConfig(), salvage_hook=hook,
                               warm=[(k, b"v%d" % k) for k in range(100)])
        return db, client, server, hook_calls

    def test_heal_falls_back_to_lenient_salvage(self):
        db, client, server, hook_calls = self._damaged_checkpoint_server()
        db.enclave.reboot()
        result = server.handle(envelope(server, client, "get", 12))
        assert result.payload == b"v12"
        assert server.supervisor.salvages == 1
        assert server.supervisor.heals == 1
        assert hook_calls and hook_calls[0] > 0
        assert server.db is not db  # re-provisioned over the survivors
        # Satellite regression: the post-salvage checkpoint cleared the
        # quarantine list — recovery now goes through the fresh token.
        assert server.db.store.quarantined_addresses == []
        # Full service is back: writes verify end to end.
        server.handle(envelope(server, client, "put", 12, b"post-salvage"))
        server.maintain()
        assert server.handle(
            envelope(server, client, "get", 12)).payload == b"post-salvage"
