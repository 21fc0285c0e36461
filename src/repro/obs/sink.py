"""Persistent trace spool: append-only, segment-rotated JSONL sink.

The trace ring (``repro.obs.trace.Tracer``) is a bounded cache — great
for live queries, useless for forensics on a long soak, where the 4096
most recent events have long since scrolled past the interesting ones.
The spool fixes that: every event the tracer records is also appended
here (the ring becomes a write-through cache), events accumulate into
fixed-size **segments**, full segments rotate out, and retention —
bounded by segment count and optionally by simulated-time age — decides
how far back the spool reaches. With a ``directory`` configured, each
closed segment is flushed to ``segment-NNNNNN.jsonl`` (one JSON object
per line, the flat ``TraceEvent.as_dict()`` shape), so the spool
survives the process and ``python -m repro obs tail|replay`` can query
it cold via :class:`SpoolReader`.

The replay contract: a reader over the spool reconstructs the same
``find_lifecycle`` spans as the in-memory ring — byte-identical when
the ring has not evicted, a superset (the ring's span is a suffix of
the spool's) once it has. ``tests/test_obs_pipeline.py`` pins both.

Retention and compaction run in *simulated* time (event timestamps),
never wall-clock — the spool is part of the deterministic run, and its
contents for a given seed are bit-for-bit reproducible.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.obs.trace import SpanQueries, TraceEvent

#: Keys of the flattened event export that are *not* detail fields.
_CORE_KEYS = ("seq", "ts", "kind", "trace")


def event_to_line(event: TraceEvent) -> str:
    """One spool line: the flat ``as_dict()`` shape, stably serialized."""
    return json.dumps(event.as_dict(), sort_keys=True, default=repr)


def line_to_event(line: str) -> TraceEvent:
    """Inverse of :func:`event_to_line` (detail keys never collide with
    the core keys; the event schema guarantees it)."""
    raw = json.loads(line)
    detail = {k: v for k, v in raw.items() if k not in _CORE_KEYS}
    return TraceEvent(raw["seq"], raw["ts"], raw["kind"], raw["trace"],
                      detail)


@dataclass
class SpoolSegment:
    """One rotation unit: a contiguous run of events."""

    index: int
    events: list[TraceEvent] = field(default_factory=list)
    first_ts: float = 0.0
    last_ts: float = 0.0
    path: str | None = None

    def append(self, event: TraceEvent) -> None:
        if not self.events:
            self.first_ts = event.ts
        self.last_ts = max(self.last_ts, event.ts)
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)


class TraceSpool(SpanQueries):
    """The write side: an append-only sink the tracer writes through.

    ``segment_events`` sets the rotation size; ``max_segments`` bounds
    how many closed segments retention keeps (oldest compacted first);
    ``retention_ticks``, when set, additionally compacts any segment
    whose newest event is older than the current simulated time by more
    than that many ticks. ``directory`` (optional) persists each closed
    segment as JSONL and deletes compacted ones; :meth:`flush` writes
    the open segment too, so a finished run's spool is complete on disk.
    """

    DEFAULT_SEGMENT_EVENTS = 1024
    DEFAULT_MAX_SEGMENTS = 64

    def __init__(self, directory: str | None = None,
                 segment_events: int = DEFAULT_SEGMENT_EVENTS,
                 max_segments: int = DEFAULT_MAX_SEGMENTS,
                 retention_ticks: float | None = None):
        if segment_events < 1:
            raise ValueError("segment_events must be >= 1")
        if max_segments < 1:
            raise ValueError("max_segments must be >= 1")
        self.directory = directory
        self.segment_events = segment_events
        self.max_segments = max_segments
        self.retention_ticks = retention_ticks
        self.appended = 0
        self.dropped_events = 0
        self.dropped_segments = 0
        self._next_index = 0
        self._closed: list[SpoolSegment] = []
        self._active = SpoolSegment(self._claim_index())
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            # The spool owns its directory's segment files: a fresh spool
            # over a reused directory must not leave stale segments from
            # an earlier run behind a shorter one.
            for name in os.listdir(directory):
                if name.startswith("segment-") and name.endswith(".jsonl"):
                    os.unlink(os.path.join(directory, name))

    # ------------------------------------------------------------------
    def _claim_index(self) -> int:
        index = self._next_index
        self._next_index += 1
        return index

    def _segment_path(self, segment: SpoolSegment) -> str:
        assert self.directory is not None
        return os.path.join(self.directory,
                            f"segment-{segment.index:06d}.jsonl")

    def _write_segment(self, segment: SpoolSegment) -> None:
        if self.directory is None:
            return
        path = self._segment_path(segment)
        with open(path, "w") as fh:
            for event in segment.events:
                fh.write(event_to_line(event) + "\n")
        segment.path = path

    def _rotate(self) -> None:
        self._write_segment(self._active)
        self._closed.append(self._active)
        self._active = SpoolSegment(self._claim_index())

    def _compact(self, now_ts: float) -> None:
        while len(self._closed) > self.max_segments or (
                self.retention_ticks is not None and self._closed
                and now_ts - self._closed[0].last_ts > self.retention_ticks):
            stale = self._closed.pop(0)
            self.dropped_segments += 1
            self.dropped_events += len(stale)
            if stale.path is not None and os.path.exists(stale.path):
                os.unlink(stale.path)

    # ------------------------------------------------------------------
    def append(self, event: TraceEvent) -> None:
        """Write-through from the tracer: called once per recorded event."""
        self._active.append(event)
        self.appended += 1
        if len(self._active) >= self.segment_events:
            self._rotate()
            self._compact(event.ts)

    def flush(self) -> None:
        """Persist the open (partial) segment too. Idempotent; call at
        the end of a run so the on-disk spool matches the in-memory one."""
        if self.directory is not None and len(self._active):
            self._write_segment(self._active)

    # ------------------------------------------------------------------
    def _all_events(self) -> list[TraceEvent]:
        out: list[TraceEvent] = []
        for segment in self._closed:
            out.extend(segment.events)
        out.extend(self._active.events)
        return out

    def segments(self) -> list[SpoolSegment]:
        return [*self._closed, self._active]

    def __len__(self) -> int:
        return sum(len(s) for s in self._closed) + len(self._active)

    def stats(self) -> dict:
        """Gauge surface for ``health()`` and the metrics exposition."""
        return {
            "directory": self.directory,
            "segment_events": self.segment_events,
            "max_segments": self.max_segments,
            "retention_ticks": self.retention_ticks,
            "appended": self.appended,
            "retained": len(self),
            "segments": len(self._closed) + 1,
            "dropped_events": self.dropped_events,
            "dropped_segments": self.dropped_segments,
        }


class SpoolReader(SpanQueries):
    """The read side: replay a persisted spool directory cold.

    Reads every ``segment-*.jsonl`` in index order and reconstructs
    :class:`TraceEvent` objects; the span queries (``events``,
    ``lifecycle``, ``find_lifecycle``) then behave exactly like the
    in-memory ring's — that equivalence is the replay contract.
    """

    def __init__(self, directory: str):
        if not os.path.isdir(directory):
            raise FileNotFoundError(f"no spool directory at {directory}")
        self.directory = directory
        self._events: list[TraceEvent] = []
        for name in sorted(os.listdir(directory)):
            if not (name.startswith("segment-") and name.endswith(".jsonl")):
                continue
            with open(os.path.join(directory, name)) as fh:
                for line in fh:
                    line = line.strip()
                    if line:
                        self._events.append(line_to_event(line))

    def _all_events(self) -> list[TraceEvent]:
        return self._events

    def __len__(self) -> int:
        return len(self._events)


def _spans_by_trace(events) -> dict[str, list[str]]:
    by_trace: dict[str, list[str]] = {}
    for e in events:
        if e.trace is not None:
            by_trace.setdefault(e.trace, []).append(event_to_line(e))
    return by_trace


def replay_fidelity(ring, source) -> bool:
    """The replay contract, checked: for every trace id the in-memory
    ring still holds, the ring's span must be a *suffix* of the spool's
    span (byte-identical on the serialized lines) — identical outright
    when the ring has never evicted. ``source`` is any
    :class:`SpanQueries` (a live spool or a cold reader)."""
    ring_spans = _spans_by_trace(ring.events())
    spool_spans = _spans_by_trace(source.events())
    for trace, ring_lines in ring_spans.items():
        spool_lines = spool_spans.get(trace, [])
        if ring.dropped == 0:
            if ring_lines != spool_lines:
                return False
        elif spool_lines[-len(ring_lines):] != ring_lines:
            return False
    return True
