"""Log-bucketed latency histograms (HDR-style) in simulated time.

The serving stack's latency story (P3: how stale may a provisional
result be before its epoch receipt lands) is a *distribution*, not an
average — the ROADMAP's traffic target makes p99/p99.9 the numbers that
matter. :class:`LogHistogram` records values into logarithmic buckets:
bucket boundaries are ``2^e * (1 + s/SUBBUCKETS)``, i.e. every power of
two is split into ``SUBBUCKETS`` linear sub-buckets, bounding the
relative quantile error at ``1/SUBBUCKETS`` while keeping the bucket
map tiny and mergeable. Values are whatever simulated unit the caller
declares (server ticks for queueing latencies, modeled nanoseconds for
ecall service time); the unit travels with the histogram so exports
stay honest.

:class:`LatencyRecorder` is the named bag of histograms the stack
records into (see ``docs/OBSERVABILITY.md`` for the schema); the
process-global :data:`LATENCIES` instance is what the pipeline,
supervisor, and cost-model gate use, and what ``python -m repro
metrics`` exports.
"""

from __future__ import annotations

import hashlib
import math
from bisect import insort
from collections import deque
from dataclasses import dataclass, field

#: Linear sub-buckets per power of two: relative quantile error <= 1/8.
SUBBUCKETS = 8

#: The percentiles every summary exports.
PERCENTILES = (50.0, 95.0, 99.0, 99.9)

#: Exemplar gate: observations beyond this quantile of the *current
#: window* keep their trace id (the span is then reconstructable from
#: the ring or the spool), so outlier latencies are always explainable.
EXEMPLAR_QUANTILE = 99.0

#: Deterministic baseline: every Nth traced observation keeps an
#: exemplar regardless of value, so healthy latencies stay explainable
#: too (and reruns of the same seed keep identical exemplar sets).
EXEMPLAR_EVERY = 64

#: Observations a window must hold before the quantile gate arms (an
#: empty window would call everything an outlier).
EXEMPLAR_MIN_WINDOW = 32

#: Bounded storage: most recent outlier / baseline exemplars retained
#: per histogram. Exemplars carry a trace id, not the span itself, so
#: this bounds memory without bounding explainability.
EXEMPLAR_OUTLIERS = 32
EXEMPLAR_BASELINE = 8


@dataclass(frozen=True)
class Exemplar:
    """One retained observation: the trace id that explains a latency.

    ``at`` is the observation's 1-based index in its histogram's
    stream — deterministic for a given seed, which is what lets
    exemplar sets fold into chaos digests."""

    name: str
    trace: str
    value: float
    at: int
    kind: str  # "outlier" | "baseline"

    def as_dict(self) -> dict:
        return {"name": self.name, "trace": self.trace,
                "value": round(self.value, 3), "at": self.at,
                "kind": self.kind}


@dataclass
class LogHistogram:
    """A mergeable log-bucketed histogram over non-negative values."""

    name: str
    unit: str = "ticks"
    count: int = 0
    total: float = 0.0
    min_value: float = math.inf
    max_value: float = 0.0
    #: bucket index -> count (sparse; see :func:`_bucket_index`).
    buckets: dict[int, int] = field(default_factory=dict)
    #: The keys of ``buckets`` in ascending order, kept as buckets come
    #: into use so that no read has to sort.
    _order: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._order = sorted(self.buckets)

    # ------------------------------------------------------------------
    @staticmethod
    def _bucket_index(value: float) -> int:
        """Bucket 0 holds [0, 1); bucket 1 + e*SUBBUCKETS + s holds
        ``[2^e * (1 + s/S), 2^e * (1 + (s+1)/S))``."""
        if value < 1.0:
            return 0
        e = int(math.floor(math.log2(value)))
        base = 2.0 ** e
        s = int((value / base - 1.0) * SUBBUCKETS)
        if s >= SUBBUCKETS:  # float edge: value == 2^(e+1) - epsilon
            s = SUBBUCKETS - 1
        return 1 + e * SUBBUCKETS + s

    @staticmethod
    def _bucket_upper(index: int) -> float:
        """Exclusive upper edge of a bucket (the ``le`` of exports)."""
        if index == 0:
            return 1.0
        e, s = divmod(index - 1, SUBBUCKETS)
        return 2.0 ** e * (1.0 + (s + 1) / SUBBUCKETS)

    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        if value < 0:
            value = 0.0
        self._add(value, self._bucket_index(value))

    def _add(self, value: float, idx: int) -> None:
        """Record a non-negative ``value`` whose bucket is ``idx``."""
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        buckets = self.buckets
        if idx in buckets:
            buckets[idx] += 1
        else:
            buckets[idx] = 1
            insort(self._order, idx)

    def merge(self, other: "LogHistogram") -> None:
        """Accumulate another histogram (same unit) into this one."""
        if other.unit != self.unit:
            raise ValueError(
                f"cannot merge {other.unit!r} into {self.unit!r}")
        self.count += other.count
        self.total += other.total
        self.min_value = min(self.min_value, other.min_value)
        self.max_value = max(self.max_value, other.max_value)
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        self._order = sorted(self.buckets)

    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` (0..100): the upper edge of the
        bucket holding that rank, clamped to the exact observed max.
        That bucket is the first, in index order, whose cumulative count
        reaches ``rank`` — or, walking down from the top, the first to
        reach ``count - rank + 1``; the walk takes the nearer end."""
        count = self.count
        if count == 0:
            return 0.0
        rank = max(1, math.ceil(count * p / 100.0))
        if rank * 2 <= count:
            order, need = self._order, rank
        else:
            order, need = reversed(self._order), count - rank + 1
        for idx in order:
            need -= self.buckets[idx]
            if need <= 0:
                return min(self._bucket_upper(idx), self.max_value)
        return self.max_value

    def summary(self) -> dict:
        """The compact export every consumer embeds (bench JSON, CLI)."""
        out = {
            "unit": self.unit,
            "count": self.count,
            "sum": round(self.total, 3),
            "min": round(self.min_value, 3) if self.count else 0.0,
            "max": round(self.max_value, 3),
            "mean": round(self.mean, 3),
        }
        for p in PERCENTILES:
            out[f"p{str(p).rstrip('0').rstrip('.')}"] = \
                round(self.percentile(p), 3)
        return out

    def as_dict(self) -> dict:
        """Full export: summary plus the cumulative bucket list
        (``[le, cumulative_count]``, Prometheus histogram semantics)."""
        out = self.summary()
        cum = 0
        series = []
        for idx in self._order:
            cum += self.buckets[idx]
            series.append([round(self._bucket_upper(idx), 4), cum])
        out["buckets"] = series
        return out


#: Histogram name -> unit, for everything the stack records. A name not
#: listed here records in "ticks" (the server's simulated clock).
UNITS = {
    "admission_wait": "ticks",       # submit -> start of execution
    "batch_residency": "ticks",      # staged in a shard batch -> flush
    "ecall_service": "modeled_ns",   # modeled verifier time per crossing
    "verified_latency": "ticks",     # op submit -> epoch receipt settled
}


def _fresh(name: str) -> LogHistogram:
    return LogHistogram(name, UNITS.get(name, "ticks"))


class _Series:
    """Everything :class:`LatencyRecorder` keeps for one name. ``hist``
    (the cumulative histogram: having one is what lists a name in
    exports) exists once the name is observed or asked for with ``get``,
    ``window`` once it is observed, peeked or taken."""

    __slots__ = ("hist", "window", "resets", "at", "outliers", "baseline")

    def __init__(self):
        self.hist: LogHistogram | None = None
        self.window: LogHistogram | None = None
        self.resets = 0  # times the window has been reset-on-read
        self.at = 0      # observations so far (an exemplar's ``at``)
        self.outliers: deque[Exemplar] = deque(maxlen=EXEMPLAR_OUTLIERS)
        self.baseline: deque[Exemplar] = deque(maxlen=EXEMPLAR_BASELINE)


class LatencyRecorder:
    """The named bag of histograms the serving stack records into.

    Every observation lands in two places: the **cumulative** histogram
    (the run-lifetime distribution every export reads) and a parallel
    **window** histogram that accumulates only since it was last taken.
    :meth:`take_window` is reset-on-read: it returns the interval view
    and starts a fresh one — the sensor the latency-budget controller
    polls, so a breach in the last interval is not diluted by an hour of
    healthy history. Windows carry full histograms (not snapshot
    deltas), so interval min/max and quantiles are exact to the same
    ``1/SUBBUCKETS`` bound as the cumulative view.

    Traced observations additionally feed **exemplar sampling**: the
    trace id of any observation beyond :data:`EXEMPLAR_QUANTILE` of the
    current window is retained (plus a deterministic 1-in-
    :data:`EXEMPLAR_EVERY` baseline), so a p99 outlier in an export is
    always one ``repro obs replay --trace`` away from its full span."""

    def __init__(self):
        self.enabled = True
        self._series: dict[str, _Series] = {}

    def _of(self, name: str) -> _Series:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = _Series()
        return series

    def observe(self, name: str, value: float,
                trace: str | None = None) -> None:
        """Record ``value``; when ``trace`` is given, the observation is
        exemplar-eligible: it is retained (trace id + value + stream
        index) if it lands beyond :data:`EXEMPLAR_QUANTILE` of the
        current window, or as the deterministic 1-in-
        :data:`EXEMPLAR_EVERY` baseline. The gate threshold is computed
        *before* the value enters the window, so a new worst-case can
        exceed it (a window's percentile clamps to its own max)."""
        if not self.enabled:
            return
        series = self._series.get(name) or self._of(name)
        hist = series.hist or self.get(name)
        window = series.window or self.window(name)
        at = series.at = series.at + 1
        if trace is not None:
            # No percentile is below the minimum: most of a flat window's
            # observations are settled without the walk.
            if (window.count >= EXEMPLAR_MIN_WINDOW
                    and value > window.min_value
                    and value > window.percentile(EXEMPLAR_QUANTILE)):
                series.outliers.append(
                    Exemplar(name, trace, value, at, "outlier"))
            elif at % EXEMPLAR_EVERY == 0:
                series.baseline.append(
                    Exemplar(name, trace, value, at, "baseline"))
        if value < 0:
            value = 0.0
        idx = hist._bucket_index(value)
        hist._add(value, idx)
        window._add(value, idx)

    def get(self, name: str) -> LogHistogram:
        """The named histogram (an empty one if nothing recorded yet)."""
        series = self._of(name)
        if series.hist is None:
            series.hist = _fresh(name)
        return series.hist

    def window(self, name: str) -> LogHistogram:
        """Peek at the named interval histogram (observations since the
        last :meth:`take_window`) without resetting it."""
        series = self._of(name)
        if series.window is None:
            series.window = _fresh(name)
        return series.window

    def take_window(self, name: str) -> LogHistogram:
        """Reset-on-read: return the named interval histogram and start
        a fresh window. The cumulative histogram is untouched."""
        taken = self.window(name)
        series = self._series[name]
        series.window = _fresh(name)
        series.resets += 1
        return taken

    def window_meta(self) -> dict:
        """Per-histogram window metadata for ``health()``/exports:
        observations in the current (un-taken) window and how many times
        the window has been reset-on-read."""
        return {name: {"window_count": series.window.count,
                       "resets": series.resets}
                for name, series in sorted(self._series.items())
                if series.window is not None}

    # ------------------------------------------------------------------
    def exemplars(self, name: str | None = None) -> list[Exemplar]:
        """Retained exemplars (outliers then baseline, each oldest
        first), optionally for one histogram."""
        series = self._series
        names = [name] if name is not None else sorted(series)
        return [ex for n in names if n in series
                for ex in (*series[n].outliers, *series[n].baseline)]

    def exemplar_digest(self) -> str:
        """Order-stable sha256 over the retained exemplar set. Exemplar
        selection is a pure function of the observation stream, so for a
        seeded run this digest is bit-for-bit reproducible — chaos folds
        it into the run digest when obs mode is armed."""
        h = hashlib.sha256()
        for ex in self.exemplars():
            h.update(f"{ex.name}|{ex.kind}|{ex.trace}|{ex.at}|"
                     f"{ex.value:.6f}\n".encode())
        return h.hexdigest()

    def names(self) -> list[str]:
        return sorted(name for name, series in self._series.items()
                      if series.hist is not None)

    def reset(self) -> None:
        self._series.clear()

    def as_dict(self, full: bool = False) -> dict:
        return {name: (self._series[name].hist.as_dict() if full
                       else self._series[name].hist.summary())
                for name in self.names()}


#: Process-global recorder (mirrors ``repro.instrument.COUNTERS``).
LATENCIES = LatencyRecorder()
