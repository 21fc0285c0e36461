"""Wall-clock cost of the observability primitives (ROADMAP item 1(d)).

``bench_crypto_rates.py`` documents the substrate under the verifier;
this documents the substrate that *watches* it. Nanoseconds per call of
``Tracer.record`` (ring only, and writing through to an in-memory
``TraceSpool``), of ``LatencyRecorder.observe`` traced and untraced on a
one-bucket window (what ``admission_wait`` looks like on the legacy
pump) and on a ~60-bucket one (``verified_latency`` on
``serve_sdk_hot_b``), of ``percentile(99)`` and of ``summary()``.

Run as ``python benchmarks/bench_obs_rates.py``: prints one JSON object.
No threshold — these are wall-clock numbers on whatever box runs them;
each figure is the fastest of ``ROUNDS`` rounds of ``CALLS`` calls.
"""

from __future__ import annotations

import json
import random
import sys
import time

from repro.obs.histogram import LatencyRecorder, LogHistogram
from repro.obs.sink import TraceSpool
from repro.obs.trace import Tracer

CALLS = 20_000
ROUNDS = 5
#: Log-uniform over 7.5 octaves = 60 buckets at 8 sub-buckets each.
WIDE_SPAN = 2.0 ** 7.5


def ns_per_call(setup, call) -> float:
    """Fastest round: ``setup()`` builds fresh state, ``call(state, i)``
    is the timed body."""
    best = float("inf")
    for _ in range(ROUNDS):
        state = setup()
        start = time.perf_counter_ns()
        for i in range(CALLS):
            call(state, i)
        best = min(best, (time.perf_counter_ns() - start) / CALLS)
    return round(best, 1)


def wide_values() -> list[float]:
    rng = random.Random(1)
    return [WIDE_SPAN ** rng.random() for _ in range(CALLS)]


def bench_record(with_spool: bool) -> float:
    def setup():
        tracer = Tracer()
        if with_spool:
            tracer.attach_sink(TraceSpool())
        return tracer

    def call(tracer, i):
        tracer.record("receipt", float(i), "c1-7", shard=3, ok=True)

    return ns_per_call(setup, call)


def bench_observe(values: list[float], traced: bool) -> float:
    trace = "c1-7" if traced else None

    def setup():
        recorder = LatencyRecorder()
        for value in values[:4_000]:  # the exemplar gate is armed
            recorder.observe("verified_latency", value)
        return recorder

    def call(recorder, i):
        recorder.observe("verified_latency", values[i], trace=trace)

    return ns_per_call(setup, call)


def wide_histogram() -> LogHistogram:
    hist = LogHistogram("verified_latency")
    for value in wide_values():
        hist.observe(value)
    return hist


def run_rates() -> dict:
    wide, flat = wide_values(), [0.0] * CALLS
    return {
        "unit": "ns_per_call",
        "calls": CALLS,
        "rounds": ROUNDS,
        "python": sys.version.split()[0],
        "wide_window_buckets": len(wide_histogram().buckets),
        "record": bench_record(with_spool=False),
        "record_spooled": bench_record(with_spool=True),
        "observe_untraced_one_bucket": bench_observe(flat, traced=False),
        "observe_traced_one_bucket": bench_observe(flat, traced=True),
        "observe_untraced_wide": bench_observe(wide, traced=False),
        "observe_traced_wide": bench_observe(wide, traced=True),
        "percentile_99_wide": ns_per_call(
            wide_histogram, lambda hist, i: hist.percentile(99.0)),
        "summary_wide": ns_per_call(
            wide_histogram, lambda hist, i: hist.summary()),
    }


if __name__ == "__main__":
    print(json.dumps(run_rates(), indent=2))
