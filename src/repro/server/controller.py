"""AIMD latency-budget controller for the pipelined group commit.

Static batch knobs force an offline choice on the throughput/latency
frontier: deep batches amortize enclave crossings (the paper's §7
lever) but hold staged operations longer, so the end-to-end verified
latency — op submit to epoch receipt — climbs with depth. This
controller closes the loop instead: the operator declares a p99
``verified_latency`` budget (``ServerConfig.latency_budget_p99``) and
the controller walks every shard's effective ``max_batch_ops`` /
``max_batch_ticks`` toward the deepest batch that still honors it.

The control law is classic AIMD. The sensor is the *windowed* view of
the verified-latency histogram (``LATENCIES.take_window``): each epoch
close settles a fresh interval of observations, the controller reads
that interval's p99 — undiluted by older history — and either grows
the batch bound additively (under budget: deeper batches are free
throughput) or shrinks it multiplicatively (over budget: back off fast,
latency debt compounds). The linger bound tracks the ops bound at
``TICKS_PER_OP`` ticks per op, so a half-full batch never
waits out a window the controller has already decided is too long.

Decisions are per shard (each shard owns its staging queue and its
bound can diverge after a reconfiguration), driven by the shared
sensor. Every evaluation emits a ``controller`` trace event and bumps
``controller_grows`` / ``controller_shrinks``; the current bounds are
exported by ``FastVerServer.health()["controller"]``.

The controller reads only the observability layer and touches no
database state, so it cannot perturb the modeled cost numbers — it
changes *when* flushes happen, and the counters price whatever actually
ran. It requires ``LATENCIES.enabled`` (with the layer off the windows
stay empty and the bounds simply hold).
"""

from __future__ import annotations

from repro.instrument import COUNTERS
from repro.obs import LATENCIES, TRACER

#: Floor / ceiling the controller may move a shard's batch bound to.
MIN_BATCH = 1
MAX_BATCH = 256
#: Additive increase per under-budget evaluation (ops).
GROW_STEP = 4
#: Multiplicative decrease per over-budget evaluation.
SHRINK_FACTOR = 0.5
#: Linger coupling: a shard's effective max_batch_ticks is this many
#: ticks per op of its current batch bound, so a half-full batch never
#: lingers past the window the ops bound was sized for.
TICKS_PER_OP = 4.0


class LatencyBudgetController:
    """Per-shard AIMD walk of the group-commit batch bounds against a
    p99 verified-latency budget."""

    def __init__(self, server):
        self.server = server
        self.budget = server.config.latency_budget_p99
        #: shard -> current effective max_batch_ops. Shards start at the
        #: static knob, clamped into the controller's range.
        self._limits: dict[int, int] = {}
        self.evaluations = 0
        self.last_p99: float | None = None
        self.last_action: str | None = None

    # ------------------------------------------------------------------
    def _initial(self) -> int:
        return max(MIN_BATCH,
                   min(self.server.config.max_batch_ops, MAX_BATCH))

    def batch_limit(self, shard: int) -> int:
        """The shard's current effective ``max_batch_ops``."""
        limit = self._limits.get(shard)
        return limit if limit is not None else self._initial()

    def linger_limit(self, shard: int) -> float:
        """The shard's current effective ``max_batch_ticks``: the time a
        full batch takes to fill at the load the ops bound was sized
        for, so lingering never outlasts the budgeted window."""
        return TICKS_PER_OP * self.batch_limit(shard)

    # ------------------------------------------------------------------
    def observe_epoch(self) -> None:
        """One control step, run after each epoch settlement (the moment
        the verified-latency window gains its interval of observations).
        Consumes the window; an empty interval holds the bounds."""
        window = LATENCIES.take_window("verified_latency")
        if not window.count:
            return
        self.evaluations += 1
        p99 = window.percentile(99.0)
        self.last_p99 = p99
        breach = p99 > self.budget
        # SLO advisory: a firing verified-latency burn alert means the
        # *trend* is eating the error budget even if this one interval's
        # p99 squeaked under — treat it as a breach and back off.
        slo = getattr(self.server, "_slo", None)
        if not breach and slo is not None \
                and "verified_latency_p99" in slo.firing():
            breach = True
        self.last_action = "shrink" if breach else "grow"
        moved = 0
        for shard in range(self.server.db.config.n_workers):
            current = self.batch_limit(shard)
            if breach:
                new = max(MIN_BATCH, int(current * SHRINK_FACTOR))
            else:
                new = min(MAX_BATCH, current + GROW_STEP)
            if new != current:
                moved += 1
                if breach:
                    COUNTERS.controller_shrinks += 1
                else:
                    COUNTERS.controller_grows += 1
            self._limits[shard] = new
        TRACER.record("controller", self.server.now, None,
                      action=self.last_action, p99=round(p99, 3),
                      budget=self.budget, window=window.count,
                      batch=self.batch_limit(0),
                      ticks=round(self.linger_limit(0), 3), moved=moved)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Gauge surface for ``health()`` and the metrics exposition."""
        limits = {shard: self.batch_limit(shard)
                  for shard in range(self.server.db.config.n_workers)}
        return {
            "budget_p99": self.budget,
            "last_p99": self.last_p99,
            "last_action": self.last_action,
            "evaluations": self.evaluations,
            "batch_limits": limits,
            "linger_limits": {s: TICKS_PER_OP * b
                              for s, b in limits.items()},
        }
