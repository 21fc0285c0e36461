"""The measured run behind ``python -m repro metrics``.

Drives a seeded YCSB-A stream through the batched serving pipeline with
a periodic maintain (epoch close + checkpoint) cadence, with the whole
observability layer armed: the admission/batching/ecall histograms fill,
epoch closes settle end-to-end verified latencies, and the run's counter
totals feed both :class:`~repro.sim.metrics.RunMetrics` (throughput /
verification latency, via the op/verify phase split) and the
per-subsystem cost attribution. Deterministic for a given seed.

Imported lazily by the CLI: this module pulls in the server stack, which
``repro.obs`` itself must not (the core imports ``repro.obs``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.fastver import FastVerConfig
from repro.instrument import COUNTERS, Counters
from repro.obs import LATENCIES, TRACER, attribute_costs
from repro.obs import reset as obs_reset
from repro.obs.export import metrics_payload
from repro.obs.sink import TraceSpool
from repro.sim.metrics import MetricsBuilder, RunMetrics
from repro.topology import Topology, build
from repro.workloads.ycsb import WORKLOADS, YcsbGenerator

#: A deadline that never expires (the metrics run measures latency, it
#: does not inject faults).
_FOREVER = float(10 ** 12)


@dataclass
class InstrumentedRun:
    """Everything one measured run produced."""

    metrics: RunMetrics
    counters: Counters
    records: int
    ops: int
    seed: int
    n_workers: int
    batch: int
    maintain_every: int
    #: The run's SLO engine (the metrics run always arms one, so the
    #: export exercises every v2 schema field).
    slo: object = None

    def run_params(self) -> dict:
        return {
            "records": self.records,
            "ops": self.ops,
            "seed": self.seed,
            "n_workers": self.n_workers,
            "batch": self.batch,
            "maintain_every": self.maintain_every,
        }

    def payload(self) -> dict:
        """The canonical metrics export for this run."""
        attribution = attribute_costs(
            self.counters, modeled_db_records=self.records)
        return metrics_payload(self.counters, attribution, LATENCIES,
                               metrics=self.metrics,
                               run=self.run_params(), slo=self.slo)


def run_instrumented(records: int = 400, ops: int = 2000, seed: int = 7,
                     n_workers: int = 4, batch: int = 8,
                     maintain_every: int = 250) -> InstrumentedRun:
    """One measured run: YCSB-A through the batched pipeline, maintain
    every ``maintain_every`` ops (each maintain settles the pending
    verified latencies), counters scoped per phase into a
    :class:`MetricsBuilder`."""
    obs_reset()
    # Full pipeline armed: the metrics export should exercise the spool
    # and SLO fields of the v2 schema, not emit nulls.
    TRACER.attach_sink(TraceSpool())
    stack = build(
        Topology("batched", slo=True),
        [(k, b"seed-%d" % k) for k in range(records)],
        seed=seed, label=f"metrics-{seed}",
        fastver=FastVerConfig(key_width=32, n_workers=n_workers,
                              partition_depth=3, cache_capacity=256,
                              log_capacity=2048, batch_ops=None),
        server=dict(max_batch_ops=batch, max_batch_ticks=float(10 ** 9),
                    queue_capacity=max(64, 4 * batch),
                    default_deadline=_FOREVER))
    server = stack.server
    generator = YcsbGenerator(WORKLOADS["YCSB-A"], records,
                              distribution="zipfian", theta=0.9, seed=seed)
    builder = MetricsBuilder(n_workers, records)
    COUNTERS.reset()

    requests = [stack.sdk.envelope(kind, k, payload)
                for kind, k, payload in generator.operations(ops)]

    wave = max(1, n_workers * batch)
    phase_start = COUNTERS.snapshot()
    since_maintain = 0
    i = 0
    while i < len(requests):
        chunk = requests[i:i + wave]
        for request in chunk:
            server.submit(request)
        server.pump()
        i += len(chunk)
        since_maintain += len(chunk)
        if since_maintain >= maintain_every or i >= len(requests):
            builder.add_ops(COUNTERS.snapshot().diff(phase_start),
                            since_maintain)
            with COUNTERS.scoped() as verify_scope:
                server.maintain()
            builder.add_verification(verify_scope)
            phase_start = COUNTERS.snapshot()
            since_maintain = 0

    metrics = builder.build()
    metrics.obs = {
        "trace_events": len(TRACER),
        "trace_dropped": TRACER.dropped,
        "spool": TRACER.sink.stats() if TRACER.sink is not None else None,
        "windows": LATENCIES.window_meta(),
        "exemplars": len(LATENCIES.exemplars()),
    }
    return InstrumentedRun(
        metrics=metrics, counters=COUNTERS.snapshot(),
        records=records, ops=ops, seed=seed, n_workers=n_workers,
        batch=batch, maintain_every=maintain_every, slo=server._slo)
