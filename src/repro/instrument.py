"""Global instrumentation counters.

The reproduction's performance story rests on *counting real work*: the
actual verifier/store/crypto code paths bump these counters as they execute,
and :mod:`repro.sim.costs` converts counts into simulated time using rates
calibrated to the paper (§8.5). Keeping the counters in one flat object makes
the accounting auditable — every figure's numbers trace back to counts you
can print.

Usage::

    from repro.instrument import COUNTERS
    with COUNTERS.scoped() as snap:
        ... run workload ...
    print(snap.merkle_hashes, snap.multiset_updates)

The default instance is process-global (the library is single-process; the
paper's multi-threading is reproduced by the simulated executor, which gives
each logical worker its own ``Counters``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, fields


def gauge_max(group: str | None = None) -> int:
    """Declare a gauge-style counter that merges as a running *maximum*
    (a peak observed by any worker is the peak of the merged bag) rather
    than a sum. The merge rule lives in the field's metadata so every
    consumer — ``add``, ``diff``, ``RunMetrics`` assembly — derives it
    from one place and a new gauge can't silently sum."""
    meta = {"merge": "max"}
    if group:
        meta["group"] = group
    return field(default=0, metadata=meta)


def grouped(group: str) -> int:
    """Declare an ordinary summing counter tagged with an export group
    (see :meth:`Counters.group_dict`)."""
    return field(default=0, metadata={"group": group})


@dataclass
class Counters:
    """Flat bag of monotonically increasing work counters."""

    # Crypto work
    merkle_hashes: int = 0          # collision-resistant hash invocations
    merkle_hash_bytes: int = 0      # bytes fed to the Merkle hash
    multiset_updates: int = 0       # multiset-hash element insertions
    multiset_hash_bytes: int = 0    # bytes fed to the multiset PRF
    mac_ops: int = 0                # MAC sign/verify operations

    # Enclave interaction
    enclave_entries: int = 0        # call-gate crossings into the enclave
    log_entries: int = 0            # records serialized to a verification log
    ecall_retries: int = 0          # call-gate crossings retried after EAGAIN

    # Host store work
    store_reads: int = 0            # record lookups in the host store
    store_writes: int = 0           # record installs/updates in the host store
    cas_attempts: int = 0           # optimistic value+aux update attempts
    cas_failures: int = 0           # attempts that lost a race and retried

    # Verifier work
    cache_hits: int = 0             # operation found its record verifier-cached
    cache_misses: int = 0           # record had to be added to a verifier cache
    merkle_adds: int = 0            # cache adds checked via the Merkle parent
    merkle_evicts: int = 0          # evicts that wrote a hash into the parent
    deferred_adds: int = 0          # cache adds checked via read-set bookkeeping
    deferred_evicts: int = 0        # evicts recorded in the write-set
    scan_records: int = 0           # records migrated by verification scans
    epoch_verifications: int = 0    # completed epoch verifications

    # Host-side bookkeeping crypto (untrusted mirror of verifier hashing;
    # runs outside the enclave and in parallel with it)
    host_merkle_hashes: int = 0
    host_merkle_hash_bytes: int = 0

    # Workload
    ops: int = 0                    # client-level key-value operations

    # Serving layer (repro.server / repro.client), one counter per
    # pipeline stage so a dashboard can read the request lifecycle off
    # this bag directly.
    admitted: int = 0               # requests accepted into the pipeline
    shed: int = 0                   # requests rejected at admission (overload)
    deadline_expired: int = 0       # requests that timed out before execution
    retried: int = 0                # client-SDK retry attempts
    broken: int = 0                 # requests rejected by an open breaker
    degraded: int = 0               # ops served/queued in degraded mode
    recovered: int = 0              # successful supervisor recoveries
    wire_drops: int = 0             # request/response messages lost in transit

    # Replication / failover (repro.replication, server supervisor)
    failovers: int = grouped("replication")        # standby promotions completed
    shipped_batches: int = grouped("replication")  # log shipments packaged
    # Peak unshipped+unacked backlog (entries) — a gauge, merged as max.
    replication_lag_max: int = gauge_max("replication")
    recovery_ticks: int = grouped("replication")   # ticks spent in heal sessions
    # Quorum HA (replication group, leases, delta resync, read replicas)
    delta_resyncs: int = grouped("replication")    # standbys rejoined via tail redelivery
    snapshot_resyncs: int = grouped("replication")  # standbys rebuilt from a snapshot
    lease_expiries: int = grouped("replication")   # lease lapses observed at admission
    epoch_markers: int = grouped("replication")    # size/time-triggered epoch closes
    replica_reads: int = grouped("replication")    # verified-stale reads served by replicas
    # Worst staleness (in epoch closes) a served replica read carried.
    replica_staleness_max: int = gauge_max("replication")
    # Deepest retained-tail window the adaptive shipper grew to (entries).
    replication_retain_depth: int = gauge_max("replication")

    # Background scrub & verified repair (repro.scrub)
    scrubbed_pages: int = grouped("scrub")       # device pages re-verified
    scrub_mismatches: int = grouped("scrub")     # pages caught corrupt, quarantined
    scrub_repairs: int = grouped("scrub")        # pages repaired and re-vetted
    repair_failures: int = grouped("scrub")      # repair attempts that died (retried)
    repair_forgeries: int = grouped("scrub")     # forged repair candidates rejected
    scrub_checkpoint_refreshes: int = grouped("scrub")  # rotted retained blobs caught
    repair_ticks: int = grouped("scrub")         # simulated ticks spent in repair
    # Peak quarantine depth observed (pages) — a gauge, merged as max.
    quarantined_pages: int = gauge_max("scrub")

    # Group-commit batching (server/pipeline.py + core/fastver.py)
    batches: int = 0                # apply_batch group commits flushed
    batch_ops_total: int = 0        # client ops carried by those batches
    crossings_saved: int = 0        # ecalls avoided vs. one-crossing-per-op

    # Pipelined settlement & latency-budget controller (server/pipeline.py,
    # server/controller.py)
    settlement_overflow: int = 0    # oldest pending receipt observations dropped
    controller_grows: int = grouped("controller")    # AIMD additive increases
    controller_shrinks: int = grouped("controller")  # AIMD multiplicative decreases
    # Deepest the pipelined receipt stream ever got (in-flight batches).
    inflight_batches_max: int = gauge_max("controller")

    # SLO burn-rate engine (repro.obs.slo, armed via ServerConfig.slo).
    # Bumped by the *server* wiring, never by the obs layer itself, and
    # unpriced by the cost model (observability stays modeled-time free).
    slo_evaluations: int = grouped("slo")    # per-epoch engine evaluations
    slo_alerts: int = grouped("slo")         # objectives that started firing
    slo_proactive_repairs: int = grouped("slo")  # repair pumps run on alert

    @property
    def batch_fill_avg(self) -> float:
        """Mean ops per group-commit batch (derived, so per-worker merges
        and diffs stay exact — an average cannot be summed)."""
        if not self.batches:
            return 0.0
        return self.batch_ops_total / self.batches

    def reset(self) -> None:
        """Zero every counter in place."""
        for f in fields(self):
            setattr(self, f.name, 0)

    def snapshot(self) -> "Counters":
        """An independent copy of the current values."""
        return Counters(**{f.name: getattr(self, f.name) for f in fields(self)})

    def diff(self, baseline: "Counters") -> "Counters":
        """Per-field difference ``self - baseline`` (for scoped measurement).

        Gauge fields (``merge: max``) do not subtract — a peak minus a
        baseline peak is meaningless (and can go negative). The diff
        carries the observed value when the gauge moved during the scope
        and 0 when it did not, mirroring the ``add()`` max-merge rule so
        ``scoped()`` round-trips gauges exactly."""
        out = {}
        for f in fields(self):
            mine, base = getattr(self, f.name), getattr(baseline, f.name)
            if f.name in self._MAX_MERGE:
                out[f.name] = mine if mine != base else 0
            else:
                out[f.name] = mine - base
        return Counters(**out)

    def add(self, other: "Counters") -> None:
        """Accumulate another counter bag into this one (per-worker merge)."""
        for f in fields(self):
            if f.name in self._MAX_MERGE:
                setattr(self, f.name,
                        max(getattr(self, f.name), getattr(other, f.name)))
            else:
                setattr(self, f.name,
                        getattr(self, f.name) + getattr(other, f.name))

    def group_dict(self, group: str) -> dict[str, int]:
        """The fields tagged with an export ``group``, as a dict — the
        single source for grouped exports like ``RunMetrics.replication``."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.metadata.get("group") == group}

    @contextmanager
    def scoped(self):
        """Yield a ``Counters`` that, after the block, holds the block's work."""
        before = self.snapshot()
        delta = Counters()
        try:
            yield delta
        finally:
            current = self.snapshot().diff(before)
            delta.add(current)

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __str__(self) -> str:
        nonzero = {k: v for k, v in self.as_dict().items() if v}
        return f"Counters({nonzero})"


#: Fields that merge as a running maximum, not a sum — derived from the
#: field metadata (:func:`gauge_max`), never hand-maintained.
Counters._MAX_MERGE = frozenset(
    f.name for f in fields(Counters) if f.metadata.get("merge") == "max")


#: Process-global default counter bag.
COUNTERS = Counters()
