"""SLO burn-rate engine over the windowed latency histograms.

An SLO here is a declared objective with an error budget; the engine
evaluates each objective once per epoch (the pipeline calls
:meth:`SloEngine.observe_epoch` from ``maintain()``) and converts the
interval's badness into a **burn rate**: 1.0 means the run is consuming
its error budget exactly as fast as the objective allows, 10.0 means
ten times too fast. Burn rates feed two sliding windows — a **fast**
window (default 5 epochs) that catches sharp regressions within one
controller reaction time, and a **slow** window (default 50 epochs)
that catches sustained low-grade burn the fast window averages away.
An objective *fires* when a window's mean burn crosses its threshold:

==================== ================================================
objective            burn definition (per epoch)
==================== ================================================
verified_latency_p99 fraction of the interval's verified-latency
                     observations over ``verified_p99_budget``,
                     divided by the 1% the p99 objective allows
shed_rate            sheds / submissions this epoch, divided by
                     ``shed_rate_budget``
settlement_overflow  settlement-window overflow stalls this epoch,
                     divided by ``OVERFLOW_BUDGET``
scrub_quarantine     0 while the quarantine is empty; 2.0 while it is
                     growing or holding (not converging), 0.5 while it
                     is draining
==================== ================================================

Alert state transitions (``ok -> fast_burn | slow_burn -> ok``) emit a
``slo`` trace event, land in ``health()["slo"]``, and surface through
the advisory hook: the latency-budget controller treats a firing
``verified_latency_p99`` as a breach (biasing its AIMD shrink path) and
the supervisor runs a proactive repair pump when ``scrub_quarantine``
fires. The engine itself never bumps ``repro.instrument.COUNTERS`` —
the zero-modeled-cost invariant of the obs layer — the *server* wiring
counts evaluations and alerts on its side.

Everything is deterministic: burn is computed from histograms and
counter deltas, never wall-clock, so for a seeded chaos run the alert
sequence is bit-for-bit reproducible and folds into the run digest.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.obs.histogram import LATENCIES
from repro.obs.trace import TRACER

#: Alert states (in escalation order).
OK = "ok"
FAST_BURN = "fast_burn"
SLOW_BURN = "slow_burn"

#: Tolerable settlement-window overflow stalls per epoch.
OVERFLOW_BUDGET = 1.0
#: Mean burn over the fast window that fires ``fast_burn``.
FAST_BURN_THRESHOLD = 2.0
#: Mean burn over the slow window that fires ``slow_burn``.
SLOW_BURN_THRESHOLD = 1.0


@dataclass(frozen=True)
class SloConfig:
    """Declared objectives and burn-rate windows.

    The defaults suit the metrics/bench scenarios; chaos arms a tighter
    ``verified_p99_budget`` so a seeded stress run demonstrably fires
    (see ``repro.faults.chaos``)."""

    #: p99 verified-latency objective, in ticks: at most 1% of verified
    #: ops per window may settle later than this.
    verified_p99_budget: float = 200.0
    #: Tolerable fraction of submissions shed at admission.
    shed_rate_budget: float = 0.05
    #: Fast window: epochs of burn averaged for the page-someone alert.
    fast_window: int = 5
    #: Slow window: epochs averaged for the sustained-burn alert.
    slow_window: int = 50

    def as_dict(self) -> dict:
        return {
            "verified_p99_budget": self.verified_p99_budget,
            "shed_rate_budget": self.shed_rate_budget,
            "overflow_budget": OVERFLOW_BUDGET,
            "fast_window": self.fast_window,
            "slow_window": self.slow_window,
            "fast_burn_threshold": FAST_BURN_THRESHOLD,
            "slow_burn_threshold": SLOW_BURN_THRESHOLD,
        }


class _Objective:
    """One objective's burn history and alert state machine."""

    def __init__(self, name: str, cfg: SloConfig):
        self.name = name
        self.cfg = cfg
        self.burns: deque[float] = deque(maxlen=cfg.slow_window)
        self.state = OK
        self.transitions = 0

    def _mean(self, n: int) -> float:
        if not self.burns:
            return 0.0
        tail = list(self.burns)[-n:]
        return sum(tail) / len(tail)

    @property
    def fast_burn(self) -> float:
        return self._mean(self.cfg.fast_window)

    @property
    def slow_burn(self) -> float:
        return self._mean(self.cfg.slow_window)

    def push(self, burn: float, ts: float) -> bool:
        """Record one epoch's burn; returns True when the alert state
        changed (each transition emits a ``slo`` trace event)."""
        self.burns.append(burn)
        if self.fast_burn >= FAST_BURN_THRESHOLD:
            state = FAST_BURN
        elif (len(self.burns) >= self.cfg.fast_window
                and self.slow_burn >= SLOW_BURN_THRESHOLD):
            state = SLOW_BURN
        else:
            state = OK
        if state == self.state:
            return False
        self.state = state
        self.transitions += 1
        TRACER.record("slo", ts, objective=self.name, state=state,
                      fast_burn=round(self.fast_burn, 3),
                      slow_burn=round(self.slow_burn, 3))
        return state != OK

    def snapshot(self) -> dict:
        return {"state": self.state,
                "fast_burn": round(self.fast_burn, 3),
                "slow_burn": round(self.slow_burn, 3),
                "epochs": len(self.burns),
                "transitions": self.transitions}


class SloEngine:
    """Evaluates the declared objectives once per epoch close.

    Owned by a ``VerifiedServer`` when ``ServerConfig.slo`` is set; the
    pipeline calls :meth:`observe_epoch` from ``maintain()`` *before*
    the latency-budget controller runs, so the controller can consume
    the advisory in the same epoch. The engine peeks at the
    verified-latency window (never takes it — the controller owns the
    reset-on-read) and diffs ``repro.instrument.COUNTERS`` snapshots for
    the rate objectives."""

    OBJECTIVES = ("verified_latency_p99", "shed_rate",
                  "settlement_overflow", "scrub_quarantine")

    def __init__(self, cfg: SloConfig):
        self.cfg = cfg
        self.epochs = 0
        self.alerts = 0
        self._objectives = {name: _Objective(name, cfg)
                            for name in self.OBJECTIVES}
        self._prev_submitted = 0
        self._prev_shed = 0
        self._prev_overflow = 0
        self._prev_quarantine = 0

    # ------------------------------------------------------------------
    def _latency_burn(self) -> float:
        """Fraction of the current window's verified-latency
        observations over budget, normalized by the 1% a p99 objective
        tolerates."""
        window = LATENCIES.window("verified_latency")
        if window.count == 0:
            return 0.0
        over = 0
        for idx, n in window.buckets.items():
            # A bucket is fully over budget when even its lower edge is;
            # the bucket holding the budget itself counts as within (the
            # same <=1/SUBBUCKETS tolerance every quantile here has).
            if idx > 0 and window._bucket_upper(idx - 1) \
                    >= self.cfg.verified_p99_budget:
                over += n
        return (over / window.count) / 0.01

    def observe_epoch(self, server) -> int:
        """Evaluate every objective for the epoch that just closed.
        Returns the number of objectives that *newly started firing*
        this epoch (the pipeline bumps ``COUNTERS.slo_alerts`` by it;
        the engine itself counts nothing into the cost model)."""
        from repro.instrument import COUNTERS

        ts = server.now
        self.epochs += 1
        fired = 0

        if self._objectives["verified_latency_p99"].push(
                self._latency_burn(), ts):
            fired += 1

        submitted = COUNTERS.admitted + COUNTERS.shed
        shed_delta = COUNTERS.shed - self._prev_shed
        submitted_delta = submitted - self._prev_submitted
        self._prev_shed, self._prev_submitted = COUNTERS.shed, submitted
        shed_burn = 0.0
        if submitted_delta > 0:
            shed_burn = (shed_delta / submitted_delta) \
                / self.cfg.shed_rate_budget
        if self._objectives["shed_rate"].push(shed_burn, ts):
            fired += 1

        overflow_delta = COUNTERS.settlement_overflow - self._prev_overflow
        self._prev_overflow = COUNTERS.settlement_overflow
        if self._objectives["settlement_overflow"].push(
                overflow_delta / OVERFLOW_BUDGET, ts):
            fired += 1

        quarantine = len(getattr(server.db.store,
                                 "quarantined_addresses", ()))
        if quarantine == 0:
            q_burn = 0.0
        elif quarantine >= self._prev_quarantine:
            q_burn = 2.0  # growing or stuck: not converging
        else:
            q_burn = 0.5  # draining: converging, keep watching
        self._prev_quarantine = quarantine
        if self._objectives["scrub_quarantine"].push(q_burn, ts):
            fired += 1

        self.alerts += fired
        return fired

    # ------------------------------------------------------------------
    def firing(self) -> set[str]:
        """Names of objectives currently in a non-ok state — the
        advisory surface the controller and supervisor consult."""
        return {name for name, obj in self._objectives.items()
                if obj.state != OK}

    def snapshot(self) -> dict:
        """Full export for metrics payloads and ``slo-report``."""
        return {
            "config": self.cfg.as_dict(),
            "epochs": self.epochs,
            "alerts": self.alerts,
            "firing": sorted(self.firing()),
            "objectives": {name: obj.snapshot()
                           for name, obj in self._objectives.items()},
        }
