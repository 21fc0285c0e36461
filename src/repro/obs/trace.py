"""Span-based request tracing in simulated time.

Every request carries a trace id — minted by the client SDK
(``c{client_id}-{seq}``) or, for requests submitted straight to the
server, derived from the idempotency key (``c{client_id}.n{nonce}``;
see ``ServerRequest.auto_trace``). Components along the path record
typed lifecycle events against that id into a bounded ring buffer:
the *span* of a request is simply its event sequence ordered by
``(ts, seq)``, which is enough to reconstruct admit → stage → flush →
fence → retry → receipt across a failover.

Event kinds (the full schema lives in ``docs/OBSERVABILITY.md``):

========== ==========================================================
kind        recorded when
========== ==========================================================
admit       request accepted into the admission queue
shed        rejected at admission (queue full / watchdog shed)
drop        wire fault ate the request or response
dedup       answered from the idempotency table
deadline    deadline expired before completion
degraded    served by degraded mode (cached read / queued write)
stage       staged into a shard's open group-commit batch
flush       the request's shard batch flushed to the verifier
ecall       an enclave crossing settled (batch apply / epoch close)
receipt     per-op result recorded (provisional completion)
settle      pipelined receipt streamed back; the ticket resolved on a
            later pump than the one that dispatched its batch (detail:
            shard, pumps in flight)
epoch       epoch receipt settled; pending verified ops became durable
controller  latency-budget controller evaluated a verified-latency
            window (detail: action=grow|shrink, window p99, budget,
            new batch/linger bounds)
fence       request rejected with ``NotLeaderError`` (stale generation)
redirect    client adopted a fence receipt and re-stamped generation
retry       client (or chaos burst loop) re-submitted after a failure
error       typed failure resolved a ticket (detail carries the type)
ship        replication shipment packaged for the standby
promote     standby promoted; generation bumped
quorum      promotion vote collected (detail: votes, winner, quorum)
lease       leadership lease renewed / expired / gated a request
resync      group member rejoined (detail: mode=delta|snapshot) or was
            detached as a laggard (mode=detach)
replica     verified-stale read served by a standby (detail: as_of
            epoch and staleness distance)
heal        supervisor recovery session concluded (detail: rung)
scrub       scrub pump concluded (detail: pages checked, mismatches,
            cursor) or a retained checkpoint blob was caught rotted
repair      one quarantined page's repair attempt concluded (detail:
            address, key, source, outcome=repaired|failed|forged)
attack      red-team campaign injected (detail: attack, topology, seed)
detect      red-team verdict: which detector fired, detected flag, and
            detection latency in ticks (escapes carry detected=False)
slo         SLO engine alert transition (detail: objective, state=
            ok|fast_burn|slow_burn, fast/slow burn rates; see
            ``repro.obs.slo``)
========== ==========================================================

The ring is bounded (default 4096 events) so tracing can stay on for
arbitrarily long soaks; ``dropped`` counts evictions. All timestamps
are the server's simulated clock.

A persistent sink (``repro.obs.sink.TraceSpool``) can be attached with
:meth:`Tracer.attach_sink`; every recorded event is then written
through to it, turning the bounded ring into a cache over the spool's
retention window.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from typing import NamedTuple


class TraceEvent(NamedTuple):
    """One typed lifecycle event. ``trace`` is None for run-scoped
    events (epoch closes, shipments, heals) that belong to no single
    request."""

    seq: int
    ts: float
    kind: str
    trace: str | None
    detail: dict

    def as_dict(self) -> dict:
        return {"seq": self.seq, "ts": self.ts, "kind": self.kind,
                "trace": self.trace, **self.detail}


class SpanQueries:
    """The query surface shared by every event source: the ring, a live
    spool, a cold spool reader. Concrete classes provide
    :meth:`_all_events` (oldest first)."""

    def _all_events(self) -> Iterable[TraceEvent]:  # pragma: no cover
        raise NotImplementedError

    def events(self, trace: str | None = None, kind: str | None = None,
               last: int | None = None) -> list[TraceEvent]:
        """Events the source holds, oldest first, optionally filtered by
        trace id and/or kind, optionally only the last N (applied after
        filtering; none for N <= 0)."""
        out = [e for e in self._all_events()
               if (trace is None or e.trace == trace)
               and (kind is None or e.kind == kind)]
        if last is not None:
            out = out[-last:] if last > 0 else []
        return out

    def last(self, n: int) -> list[TraceEvent]:
        return self.events(last=n)

    def lifecycle(self, trace: str) -> list[TraceEvent]:
        """The span of one request: its events in recorded order."""
        return self.events(trace=trace)

    def traces(self) -> list[str]:
        """Distinct trace ids the source holds, in first-seen order."""
        seen: dict[str, None] = {}
        for e in self._all_events():
            if e.trace is not None and e.trace not in seen:
                seen[e.trace] = None
        return list(seen)

    def find_lifecycle(self, kinds: set[str]) -> str | None:
        """First trace id whose events cover every kind in ``kinds`` —
        how the chaos acceptance check locates a request that survived
        a fence redirect end to end."""
        by_trace: dict[str, set[str]] = {}
        for e in self._all_events():
            if e.trace is None:
                continue
            got = by_trace.setdefault(e.trace, set())
            got.add(e.kind)
            if kinds <= got:
                return e.trace
        return None


class Tracer(SpanQueries):
    """Bounded ring buffer of :class:`TraceEvent`."""

    DEFAULT_CAPACITY = 4096

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self.enabled = True
        self.dropped = 0
        self._seq = 0
        self._ring: deque[TraceEvent] = deque(maxlen=capacity)
        #: Write-through sink (a ``repro.obs.sink.TraceSpool`` or
        #: anything with ``append(event)``); None keeps ring-only mode.
        self._sink = None

    # ------------------------------------------------------------------
    @property
    def sink(self):
        """The attached persistent sink (None when ring-only)."""
        return self._sink

    def attach_sink(self, sink) -> None:
        """Attach a persistent spool; every subsequent event is written
        through to it (the ring becomes a bounded cache over it)."""
        self._sink = sink

    # ------------------------------------------------------------------
    def record(self, kind: str, ts: float, trace: str | None = None,
               **detail) -> None:
        if not self.enabled:
            return
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._seq += 1
        event = TraceEvent(self._seq, ts, kind, trace, detail)
        self._ring.append(event)
        if self._sink is not None:
            self._sink.append(event)

    def _all_events(self) -> Iterable[TraceEvent]:
        return self._ring

    def reset(self) -> None:
        """Clear the ring (and detach any sink: a reset starts a new
        run, and the run owns its spool's lifecycle)."""
        self._ring.clear()
        self._seq = 0
        self.dropped = 0
        self._sink = None

    def __len__(self) -> int:
        return len(self._ring)


#: Process-global tracer (mirrors ``repro.instrument.COUNTERS``).
TRACER = Tracer()
