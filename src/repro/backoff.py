"""Jittered exponential backoff, shared by every retry loop in the repo.

One policy class serves three callers with very different stakes:

* :meth:`FastVer._ecall` — absorbing transient enclave call-gate failures
  (the gate failed *before* dispatch, so a retry is always safe);
* the serving layer's supervisor — pacing recovery attempts so a wedged
  verifier is not hammered;
* the client SDK (:mod:`repro.client`) — retrying transient
  :class:`~repro.errors.AvailabilityError`\\ s against the server.

The policy follows the standard "exponential backoff with full jitter"
construction (delay drawn uniformly from ``[0, min(cap, base * mult^n)]``)
because full jitter de-synchronizes retry storms from many clients — the
property the ROADMAP's millions-of-users target actually needs.

Everything is deterministic: the jitter RNG is seeded per policy instance,
and "sleeping" is a pluggable callback (the default merely accumulates the
total simulated delay, so tests and chaos runs never touch the wall
clock). The same seed therefore produces the same delay schedule,
bit-for-bit — which keeps chaos soaks replayable even when they retry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

#: Growth factor of the raw (pre-jitter) delay between attempts.
MULTIPLIER = 2.0


@dataclass
class BackoffPolicy:
    """A bounded, seeded, full-jitter exponential backoff schedule.

    ``max_attempts`` is the *total* attempt budget (first try included).
    Delays are in abstract time units ("ticks" in the serving layer's
    simulated clock); the first attempt always has delay 0.
    """

    max_attempts: int = 4
    base_delay: float = 1.0
    max_delay: float = 64.0
    #: "full" draws uniform(0, d); "none" uses the raw exponential delay
    #: (useful when a test needs exact delay values).
    jitter: str = "full"
    seed: int = 0
    #: Called with each non-zero delay; replace to couple the backoff to a
    #: simulated clock. The default just accumulates ``total_delay``.
    sleep_fn: Callable[[float], None] | None = None
    #: Simulated time spent sleeping across this policy's lifetime.
    total_delay: float = field(default=0.0, init=False, repr=False)
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays cannot be negative")
        if self.jitter not in ("full", "none"):
            raise ValueError(f"unknown jitter mode {self.jitter!r}")
        self._rng = random.Random(f"backoff:{self.seed}")

    # ------------------------------------------------------------------
    def delays(self) -> Iterator[float]:
        """Yield one delay per attempt: 0 first, then jittered exponentials."""
        for attempt in range(self.max_attempts):
            if attempt == 0:
                yield 0.0
                continue
            raw = min(self.max_delay,
                      self.base_delay * MULTIPLIER ** (attempt - 1))
            yield self._rng.uniform(0.0, raw) if self.jitter == "full" else raw

    def sleep(self, delay: float) -> None:
        """Spend ``delay`` time units (simulated unless ``sleep_fn`` says
        otherwise)."""
        if delay <= 0:
            return
        self.total_delay += delay
        if self.sleep_fn is not None:
            self.sleep_fn(delay)

    def run(self, fn: Callable[[], object], *,
            retry_on: tuple[type[BaseException], ...],
            no_retry: tuple[type[BaseException], ...] = (),
            on_retry: Callable[[BaseException], None] | None = None):
        """Call ``fn`` under the policy: retry on ``retry_on`` exceptions,
        re-raising immediately for ``no_retry`` subtypes (checked first)
        and re-raising the last error once the budget is spent."""
        last: BaseException | None = None
        for delay in self.delays():
            self.sleep(delay)
            try:
                return fn()
            except no_retry:
                raise
            except retry_on as exc:
                last = exc
                if on_retry is not None:
                    on_retry(exc)
        assert last is not None
        raise last
