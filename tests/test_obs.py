"""The observability layer: histograms, tracing, attribution, exposition.

Covers the pure data structures (log-bucketed histograms, the trace
ring), the cost attribution's consistency with the cost model, the
measured-run exposition pipeline behind ``python -m repro metrics``,
the tracing-overhead bound, and the acceptance lifecycle: a batched
chaos run with a primary kill yields one trace that reconstructs
admit → fence → retry → stage → flush → receipt across the failover.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.enclave.costmodel import SGX, SIMULATED
from repro.instrument import Counters
from repro.obs import TRACER, LatencyRecorder, Tracer, attribute_costs
from repro.obs.histogram import SUBBUCKETS, UNITS, LogHistogram
from repro.obs.sink import (SpoolReader, TraceSpool, event_to_line,
                            line_to_event)
from repro.obs.trace import TraceEvent
from repro.sim.costs import DEFAULT_COSTS


class TestLogHistogram:
    def test_bucket_round_trip(self):
        """Every value lands in a bucket whose upper edge is within one
        relative sub-bucket of the value (the 1/SUBBUCKETS error bound)."""
        for value in (0.0, 0.5, 1.0, 1.01, 3.0, 7.99, 8.0, 100.0,
                      1023.0, 1024.0, 123456.789):
            idx = LogHistogram._bucket_index(value)
            upper = LogHistogram._bucket_upper(idx)
            assert value < upper or value == 0.0
            if value >= 1.0:
                assert upper <= value * (1.0 + 1.0 / SUBBUCKETS) + 1e-9

    def test_percentile_error_bound(self):
        hist = LogHistogram("t")
        values = [float(v) for v in range(1, 2000, 7)]
        for v in values:
            hist.observe(v)
        values.sort()
        for p in (50.0, 95.0, 99.0):
            exact = values[max(0, math.ceil(len(values) * p / 100.0) - 1)]
            got = hist.percentile(p)
            assert got >= exact  # upper bucket edge never understates
            assert got <= exact * (1.0 + 1.0 / SUBBUCKETS) + 1e-9

    def test_percentile_clamped_to_observed_max(self):
        hist = LogHistogram("t")
        hist.observe(100.0)
        assert hist.percentile(99.9) == 100.0

    def test_empty_summary(self):
        s = LogHistogram("t").summary()
        assert s["count"] == 0
        assert s["p99"] == 0.0
        assert s["min"] == 0.0

    def test_merge_accumulates(self):
        a, b = LogHistogram("t"), LogHistogram("t")
        for v in (1.0, 5.0, 9.0):
            a.observe(v)
        for v in (2.0, 700.0):
            b.observe(v)
        a.merge(b)
        assert a.count == 5
        assert a.max_value == 700.0
        assert a.min_value == 1.0
        assert a.total == 717.0

    def test_merge_unit_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LogHistogram("a", "ticks").merge(LogHistogram("b", "modeled_ns"))

    def test_cumulative_buckets_monotone(self):
        hist = LogHistogram("t")
        for v in (1.0, 2.0, 4.0, 4.0, 900.0):
            hist.observe(v)
        series = hist.as_dict()["buckets"]
        les = [le for le, _ in series]
        cums = [c for _, c in series]
        assert les == sorted(les)
        assert cums == sorted(cums)
        assert cums[-1] == hist.count

    def test_recorder_respects_enabled(self):
        rec = LatencyRecorder()
        rec.observe("x", 3.0)
        rec.enabled = False
        rec.observe("x", 5.0)
        assert rec.get("x").count == 1


class TestWindowedViews:
    def test_take_window_is_reset_on_read(self):
        rec = LatencyRecorder()
        for v in (1.0, 2.0, 3.0):
            rec.observe("w", v)
        first = rec.take_window("w")
        assert first.count == 3
        # The window restarted; the cumulative view kept everything.
        assert rec.window("w").count == 0
        assert rec.get("w").count == 3
        rec.observe("w", 50.0)
        second = rec.take_window("w")
        assert second.count == 1
        assert second.min_value == second.max_value == 50.0
        assert rec.get("w").count == 4

    def test_window_peek_does_not_reset(self):
        rec = LatencyRecorder()
        rec.observe("w", 7.0)
        assert rec.window("w").count == 1
        assert rec.window("w").count == 1  # peeking twice is idempotent

    def test_window_quantiles_hold_the_subbucket_bound(self):
        """Interval views are full histograms, so their quantiles carry
        the same 1/SUBBUCKETS relative error bound as the cumulative
        view — undiluted by observations from earlier intervals."""
        rec = LatencyRecorder()
        # A noisy earlier interval that must not leak into the next.
        for v in range(10_000, 10_050):
            rec.observe("w", float(v))
        rec.take_window("w")
        values = sorted(float(v) for v in range(1, 500, 3))
        for v in values:
            rec.observe("w", v)
        window = rec.take_window("w")
        assert window.count == len(values)
        for p in (50.0, 95.0, 99.0):
            exact = values[max(0, math.ceil(len(values) * p / 100.0) - 1)]
            got = window.percentile(p)
            assert got >= exact
            assert got <= exact * (1.0 + 1.0 / SUBBUCKETS) + 1e-9
        # The cumulative view still spans both intervals.
        assert rec.get("w").max_value == 10_049.0

    def test_reset_clears_windows_too(self):
        rec = LatencyRecorder()
        rec.observe("w", 5.0)
        rec.reset()
        assert rec.get("w").count == 0
        assert rec.window("w").count == 0

    def test_disabled_recorder_skips_windows(self):
        rec = LatencyRecorder()
        rec.enabled = False
        rec.observe("w", 5.0)
        assert rec.window("w").count == 0


def sort_and_scan_percentile(hist: LogHistogram, p: float) -> float:
    """The reference ``percentile``: sort the bucket indexes, scan up to
    the rank. ``LogHistogram`` walks a kept order from the nearer end
    and must return this value bit for bit."""
    if hist.count == 0:
        return 0.0
    rank = max(1, math.ceil(hist.count * p / 100.0))
    cum = 0
    for idx in sorted(hist.buckets):
        cum += hist.buckets[idx]
        if cum >= rank:
            return min(hist._bucket_upper(idx), hist.max_value)
    return hist.max_value


_observed = st.one_of(
    st.floats(-10.0, 1e7, allow_nan=False),
    st.integers(0, 4096).map(float),  # bucket edges, repeated values
    st.sampled_from([0.0, 1.0, 7.999999999999999, 8.0]))
_recorder_ops = st.lists(st.one_of(
    st.tuples(st.just("observe"), _observed),
    st.tuples(st.just("take"), st.none())), max_size=200)


#: What ``test_golden_stream`` gave at commit 7cd268c, before the
#: recorder's hot path was touched.
GOLDEN_EXEMPLARS = \
    "4119702836a890ea7a17dae6b24f70dde570074592de5ef02d8df12b9fd57aec"
GOLDEN_LATENCY = \
    "fb0b9c2296fc4277689f5f75c73759054819ba03bc8cf3a9e60e2de0cc567e75"
GOLDEN_EXPORT = \
    "a3d8ca3e8c1a07de094b5f73e7de1f8d975fd8be6334759036a2819c360f1b18"


class TestRecorderOutputIsPinned:
    """What the recorder records is fixed; only its speed may change."""

    @given(_recorder_ops,
           st.lists(st.floats(0.0, 101.0, allow_nan=False), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_percentile_equals_sort_and_scan(self, ops, extra_p):
        rec = LatencyRecorder()
        merged = LogHistogram("w")  # every taken window, merged back
        for op, value in ops:
            if op == "observe":
                rec.observe("w", value, trace="t")
            else:
                merged.merge(rec.take_window("w"))
            for hist in (rec.get("w"), rec.window("w"), merged):
                assert hist._order == sorted(hist.buckets)
                for p in (0, 1, 50, 95, 99, 99.9, 100, *extra_p):
                    assert hist.percentile(p) == \
                        sort_and_scan_percentile(hist, p)
        merged.merge(rec.window("w"))
        assert merged.as_dict() == rec.get("w").as_dict()

    def test_golden_stream(self):
        """A seeded 20K-observation stream — all four names, traced and
        not, negatives to 1e7, a window taken every 2,500 — reproduces
        the exemplar choice at every checkpoint and the full export."""
        rng = random.Random(20260928)
        names = sorted(UNITS)
        rec = LatencyRecorder()
        exemplars = hashlib.sha256()
        for i in range(1, 20_001):
            name = names[rng.randrange(len(names))]
            roll = rng.random()
            if roll < 0.02:
                value = -rng.uniform(0.0, 50.0)
            elif roll < 0.10:
                value = rng.random()
            else:
                value = 10.0 ** rng.uniform(0.0, 7.0)
            if rng.random() < 0.5:
                value = float(int(value))
            trace = f"c{rng.randrange(8)}-{i}" if rng.random() < 0.7 else None
            rec.observe(name, value, trace=trace)
            if i % 2_500 == 0:
                exemplars.update(rec.exemplar_digest().encode())
                rec.take_window(names[(i // 2_500) % len(names)])
        export = {"latency": rec.as_dict(full=True),
                  "windows": rec.window_meta(),
                  "open": {n: rec.window(n).as_dict() for n in names}}

        def sha(obj) -> str:
            return hashlib.sha256(
                json.dumps(obj, sort_keys=True).encode()).hexdigest()

        assert exemplars.hexdigest() == GOLDEN_EXEMPLARS
        assert sha(export["latency"]) == GOLDEN_LATENCY
        assert sha(export) == GOLDEN_EXPORT

    def test_spool_line_is_pinned(self):
        event = TraceEvent(17, 42.5, "receipt", "c3-9", {
            "shard": 2, "ok": True, "value": None, "err": ValueError("x"),
            "nested": {"b": 1, "a": [1, 2.5]}})
        assert event_to_line(event) == (
            '{"err": "ValueError(\'x\')", "kind": "receipt", "nested": '
            '{"a": [1, 2.5], "b": 1}, "ok": true, "seq": 17, "shard": 2, '
            '"trace": "c3-9", "ts": 42.5, "value": null}')
        plain = TraceEvent(18, 43.0, "epoch", None, {
            "epoch": 4, "settled": 4000, "promoted": False})
        assert event_to_line(plain) == (
            '{"epoch": 4, "kind": "epoch", "promoted": false, "seq": 18, '
            '"settled": 4000, "trace": null, "ts": 43.0}')
        assert line_to_event(event_to_line(plain)) == plain
        assert plain != TraceEvent(18, 43.0, "epoch", None, {})


class TestTracer:
    def test_ring_bounded_and_drop_counted(self):
        tracer = Tracer(capacity=4)
        for i in range(7):
            tracer.record("admit", float(i), f"t{i}")
        assert len(tracer) == 4
        assert tracer.dropped == 3
        assert [e.trace for e in tracer.last(2)] == ["t5", "t6"]

    def test_filtering(self):
        tracer = Tracer()
        tracer.record("admit", 1.0, "a")
        tracer.record("flush", 2.0, "a", shard=0)
        tracer.record("admit", 3.0, "b")
        assert [e.kind for e in tracer.lifecycle("a")] == ["admit", "flush"]
        assert len(tracer.events(kind="admit")) == 2
        assert tracer.traces() == ["a", "b"]

    def test_find_lifecycle(self):
        tracer = Tracer()
        tracer.record("admit", 1.0, "a")
        tracer.record("admit", 1.0, "b")
        tracer.record("receipt", 2.0, "b")
        assert tracer.find_lifecycle({"admit", "receipt"}) == "b"
        assert tracer.find_lifecycle({"admit", "fence"}) is None

    def test_last_zero_is_nothing(self, tmp_path):
        """``out[-0:]`` is the whole list; the last 0 events are none —
        from the ring and from a cold spool alike."""
        tracer = Tracer()
        spool = TraceSpool(directory=str(tmp_path))
        tracer.attach_sink(spool)
        tracer.record("admit", 1.0, "a")
        spool.flush()
        for source in (tracer, SpoolReader(str(tmp_path))):
            assert len(source.last(1)) == 1
            assert source.last(0) == source.events(last=-1) == []

    def test_disabled_records_nothing(self):
        tracer = Tracer()
        tracer.enabled = False
        tracer.record("admit", 1.0, "a")
        assert len(tracer) == 0

    def test_event_export_flattens_detail(self):
        tracer = Tracer()
        tracer.record("flush", 2.5, "a", shard=3, ops=8)
        d = tracer.last(1)[0].as_dict()
        assert d["kind"] == "flush" and d["shard"] == 3 and d["ops"] == 8


class TestAttribution:
    def _bag(self):
        return Counters(
            merkle_hashes=100, merkle_hash_bytes=6400, multiset_updates=50,
            multiset_hash_bytes=2000, mac_ops=30, enclave_entries=12,
            store_reads=200, store_writes=80, cas_attempts=280,
            cas_failures=3, log_entries=90, host_merkle_hashes=10,
            host_merkle_hash_bytes=640)

    @pytest.mark.parametrize("profile", [SIMULATED, SGX])
    def test_parts_sum_to_model_total(self, profile):
        c = self._bag()
        att = attribute_costs(c, profile, modeled_db_records=1000)
        assert att.consistent
        model = DEFAULT_COSTS.total_ns(c, profile, 1000)
        assert att.total_ns == pytest.approx(model, rel=1e-9)

    def test_fractions_sum_to_one(self):
        att = attribute_costs(self._bag(), modeled_db_records=500)
        assert sum(att.fractions().values()) == pytest.approx(1.0)

    def test_flame_report_lists_every_subsystem(self):
        from repro.obs import SUBSYSTEMS
        report = attribute_costs(self._bag()).flame_report()
        for name in SUBSYSTEMS:
            assert name in report
        assert "consistent" in report

    def test_empty_bag_is_consistent(self):
        att = attribute_costs(Counters())
        assert att.total_ns == 0.0
        assert att.consistent


class TestInstrumentedRun:
    @pytest.fixture(scope="class")
    def run(self):
        from repro.obs.runner import run_instrumented
        return run_instrumented(records=120, ops=300, seed=11, batch=8,
                                maintain_every=100)

    def test_payload_checks_clean(self, run):
        from repro.obs.export import check_payload
        assert check_payload(run.payload()) == []

    def test_every_op_settles_a_verified_latency(self, run):
        payload = run.payload()
        assert payload["latency"]["verified_latency"]["count"] == 300
        assert payload["latency"]["admission_wait"]["count"] == 300

    def test_attribution_sums_to_run_total(self, run):
        att = run.payload()["attribution"]
        assert att["consistent"]
        assert att["total_ns"] == pytest.approx(att["model_total_ns"])
        assert att["parts_ns"]["crossings"] > 0

    def test_prometheus_rendering(self, run):
        from repro.obs.export import to_prometheus
        text = to_prometheus(run.payload())
        assert 'repro_counter_total{name="admitted"} 300' in text
        assert 'repro_latency_bucket{hist="verified_latency"' in text
        assert 'le="+Inf"} 300' in text
        assert 'repro_cost_ns{subsystem="crossings"}' in text
        assert 'repro_run{name="throughput_mops"}' in text


class TestTracingOverhead:
    def test_tracing_inside_documented_bound(self):
        """Modeled time derives purely from work counters and tracing
        never bumps one, so the on/off throughput delta is 0 — pinned
        here so it can't silently grow past the documented 10% bound."""
        from repro.bench.batching import TRACING_OVERHEAD_BOUND, \
            tracing_overhead
        result = tracing_overhead(records=120, ops=400, seed=5, batch=16)
        assert result["ok"]
        assert result["relative_delta"] <= TRACING_OVERHEAD_BOUND
        assert result["throughput_mops_tracing_on"] == pytest.approx(
            result["throughput_mops_tracing_off"])


class TestChaosLifecycle:
    def test_failover_run_reconstructs_full_lifecycle(self):
        """The acceptance bar: after a batched chaos run that kills the
        primary, some request's span covers the whole journey across the
        fence — admit, fence rejection, retry, staging, flush, receipt."""
        from repro.faults.chaos import run_chaos
        report = run_chaos(seed=7, ops=600, records=200,
                           topology="batched+failover")
        assert not report.hard_failures
        kinds = {"admit", "stage", "flush", "fence", "retry", "receipt"}
        trace = TRACER.find_lifecycle(kinds)
        assert trace is not None
        span = TRACER.lifecycle(trace)
        assert {e.kind for e in span} >= kinds
        ts = [e.ts for e in span]
        assert ts == sorted(ts)
        order = [e.kind for e in span]
        # The fence rejection precedes the retry, which precedes the
        # receipt — the span tells the failover story in order.
        assert order.index("fence") < order.index("retry") \
            < order.index("receipt")
