"""repro.obs — observability for the verified serving stack.

Three instruments, all in simulated time, all on by default:

* :data:`TRACER` — a bounded ring of typed request-lifecycle events
  (``repro.obs.trace``), keyed by a trace id minted in the client SDK
  and propagated through admission, batching, the ecall gate, receipt
  settlement, replication, and failover redirects.
* :data:`LATENCIES` — named log-bucketed histograms
  (``repro.obs.histogram``): admission wait, batch residency, ecall
  service, end-to-end verified latency.
* :func:`attribute_costs` — per-subsystem cost attribution from counter
  deltas × the calibrated cost model (``repro.obs.profile``).

Two optional stages turn the instruments into a pipeline:

* :class:`TraceSpool` (``repro.obs.sink``) — a persistent, segment-
  rotated JSONL spool the tracer writes through to, so forensics cover
  the whole run instead of the ring's last 4096 events; read it cold
  with :class:`SpoolReader` (``python -m repro obs tail|replay``).
* :class:`SloEngine` (``repro.obs.slo``) — declared objectives with
  multi-window burn-rate alerts, armed per-server via
  ``ServerConfig.slo`` and surfaced in ``health()["slo"]``.

Tracing is free *in modeled time*: modeled time derives only from
``repro.instrument.COUNTERS`` and this layer never bumps a counter, so
modeled throughput is the same on or off (pinned by tests/test_obs.py
and ``tracing_overhead`` in ``BENCH_batching.json``). In wall-clock time
it is not; docs/OBSERVABILITY.md "Overhead" has the measured cost.

This package must not import server/core modules at top level (the
core imports *us*); ``repro.obs.runner`` — the measured-run driver for
``python -m repro metrics`` — is imported lazily by the CLI.
"""

from repro.obs.histogram import (LATENCIES, Exemplar, LatencyRecorder,
                                 LogHistogram)
from repro.obs.profile import SUBSYSTEMS, CostAttribution, attribute_costs
from repro.obs.sink import SpoolReader, TraceSpool, replay_fidelity
from repro.obs.slo import SloConfig, SloEngine
from repro.obs.trace import TRACER, TraceEvent, Tracer

__all__ = [
    "TRACER", "Tracer", "TraceEvent",
    "LATENCIES", "LatencyRecorder", "LogHistogram", "Exemplar",
    "TraceSpool", "SpoolReader", "replay_fidelity",
    "SloConfig", "SloEngine",
    "attribute_costs", "CostAttribution", "SUBSYSTEMS",
    "set_enabled", "reset",
]


def set_enabled(flag: bool) -> None:
    """Turn the whole observability layer on or off (default: on)."""
    TRACER.enabled = flag
    LATENCIES.enabled = flag


def reset() -> None:
    """Clear recorded events and histograms (not the enabled flags)."""
    TRACER.reset()
    LATENCIES.reset()
