"""Builds one workload's system and drives it, timing every call from
outside and checking every answer against a shadow-dict oracle.

Only names exported by ``repro``, ``repro.server`` and ``repro.workloads``
are used, so refactors below the public surface cannot break the
end-to-end path. This is the one module on that path that imports
``repro``: ``setup_s`` is timed around importing it and building a
:class:`System`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import resource
import time
from array import array
from bisect import bisect_left, insort

from repro import (FastVer, FastVerConfig, FastVerServer, RetryingClient,
                   ServerConfig, new_client)
from repro.instrument import COUNTERS
from repro.server import ServerRequest
from repro.workloads import WORKLOADS as YCSB
from repro.workloads import WorkloadSpec, YcsbGenerator

from bench_native.stats import (median, percentile, quiet_half,
                                quiet_median)
from bench_native.workloads import (CACHE_CAPACITY, DURABILITY_KEYS,
                                    KEY_WIDTH, N_WORKERS, PARTITION_DEPTH,
                                    RSS_AT_SHARE, SEGMENTS, WAVE, Workload)

#: A deadline no run reaches (simulated ticks).
NO_DEADLINE = 1e12
#: Pumps without progress before a wave's open tickets count as failed.
MAX_IDLE_PUMPS = 64

#: Epochs (or probe slices) with fewer samples of a call kind than this
#: pool them: the p90 of a slice's 20 scans is its third largest, and
#: the median of five of those spread wider than the p90 of all 100.
POOL_BELOW = 100

#: checkpoint -> recover is repeated at least this often and until it
#: has taken this long (small stores recover in 0.1 s; one sample of
#: that is mostly noise), but no more than the cap.
MIN_RECOVERIES = 3
MAX_RECOVERIES = 12
RECOVERIES_FILL_S = 2.0

_now = time.perf_counter_ns


def counters_snapshot() -> dict[str, int]:
    """The one adapter through which the benchmark reads the program's
    work counters: roadmap item 4 (instance-owned instrumentation) changes
    where they live, and then only this function."""
    return COUNTERS.as_dict()


class Budget:
    """How much a run measures: a time box (the benchmark contract's
    ``--seconds``) or a fixed entry count (identical work on every
    commit; what the suite, the smoke test and the determinism pin use).
    """

    def __init__(self, seconds: float | None = None,
                 entries: int | None = None):
        if (seconds is None) == (entries is None):
            raise ValueError("give exactly one of seconds and entries")
        self.seconds = seconds
        self.entries = entries

    def segment_done(self, segment: int, measured_s: float,
                     entries_done: int) -> bool:
        share = (segment + 1) / SEGMENTS
        if self.seconds is not None:
            return measured_s >= share * self.seconds
        return entries_done >= share * self.entries

    def epoch_entries(self, segment: int, entries_done: int,
                      full: int) -> int:
        """Entries of the next epoch: a whole one under a time box; under
        a count, no more than the segment still has to do."""
        if self.seconds is not None:
            return full
        target = math.ceil((segment + 1) / SEGMENTS * self.entries)
        return min(full, target - entries_done)


class Epoch:
    """What one epoch (entries, then a close) yielded. Compact arrays, so
    ``peak_rss_mb`` reflects the store and not the harness."""

    def __init__(self):
        self.latency_ns = {kind: array("q") for kind in ("get", "put", "scan")}
        self.settle_ns = array("q")
        self.close_ns = 0
        self.wall_ns = 0
        self.key_ops = 0

    def rate(self) -> float:
        return self.key_ops / self.wall_ns


class System:
    """One workload's store, client, server and SDK endpoint (where the
    workload uses them), plus the oracle's shadow of the data."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.stream = YcsbGenerator(YCSB[workload.mix], workload.records,
                                    distribution=workload.distribution,
                                    theta=0.9, seed=seed)
        items = self.stream.initial_items()
        self.db = FastVer(
            FastVerConfig(key_width=KEY_WIDTH, n_workers=N_WORKERS,
                          partition_depth=PARTITION_DEPTH,
                          cache_capacity=CACHE_CAPACITY,
                          log_capacity=workload.log_capacity,
                          cache_hot_records=workload.cache_hot_records),
            items=items)
        self.client = new_client(1)
        self.db.register_client(self.client)
        self.shadow: dict[int, bytes] = dict(items)
        self.keys: list[int] = sorted(self.shadow)
        self.server = None
        if workload.entry == "sdk":
            self.server = FastVerServer(
                self.db, ServerConfig(default_deadline=NO_DEADLINE))
        elif workload.entry == "pipelined":
            self.server = FastVerServer(self.db, ServerConfig(
                group_commit=True, pipeline=True, max_batch_ops=64,
                max_batch_ticks=1e9, queue_capacity=WAVE,
                default_deadline=NO_DEADLINE))
        self.sdk = (RetryingClient(self.server, self.client)
                    if workload.entry == "sdk" else None)
        self.close()    # first verify() (+ checkpoint behind a server)

    def close(self) -> int:
        """One epoch close; returns the epoch it must have settled."""
        if self.server is None:
            self.db.flush()
            report = self.db.verify()
            self.db.flush()
            return report.epoch
        before = self.client.settled_epoch
        self.server.maintain()
        return before + 1

    def expected_scan(self, start: int, count: int) -> list[tuple[int, bytes]]:
        lo = bisect_left(self.keys, start)
        shadow = self.shadow
        return [(k, shadow[k]) for k in self.keys[lo:lo + count]]

    def wrote(self, key: int, payload: bytes) -> None:
        if key not in self.shadow:
            insort(self.keys, key)
        self.shadow[key] = payload


class Run:
    """One measured run of one workload."""

    def __init__(self, system: System, seed: int):
        self.system = system
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None
        self.issued = 0                   # round-robins direct workers
        self.outcomes = hashlib.sha256()  # op-outcome sequence digest
        self.deferred_at_close: list[int] = []
        db, client = system.db, system.client
        # Side probes always go to the store directly: the server has no
        # scan, and the probed kinds are the ones the entry point lacks.
        self.direct_get = lambda key, worker: db.get(client, key, worker)
        self.direct_put = lambda key, payload, worker: db.put(
            client, key, payload, worker)
        self.scan = lambda key, count, worker: db.scan(
            client, key, count, worker)
        self.get, self.put = self.direct_get, self.direct_put
        if system.sdk is not None:
            sdk = system.sdk
            self.get = lambda key, worker: sdk.get(key)
            self.put = lambda key, payload, worker: sdk.put(key, payload)

    # ------------------------------------------------------------------
    def fail(self, why: str, count: int = 1) -> None:
        self.failed += count
        if self.first_failure is None:
            self.first_failure = why

    def _calls(self, entries, epoch: Epoch, get, put) -> tuple[array, int]:
        """Closed loop, one client: each call is issued when the previous
        one returns, timed on its own, and checked against the shadow.
        Returns the calls' return times and the key-ops done."""
        system, scan = self.system, self.scan
        shadow = system.shadow
        lat_get = epoch.latency_ns["get"]
        lat_put = epoch.latency_ns["put"]
        lat_scan = epoch.latency_ns["scan"]
        returned = array("q")
        outcomes = []
        key_ops = 0
        i = self.issued
        for kind, key, arg in entries:
            worker = i % N_WORKERS
            i += 1
            try:
                if kind == "get":
                    t0 = _now()
                    result = get(key, worker)
                    t1 = _now()
                    lat_get.append(t1 - t0)
                    outcome = result.payload
                    ok = outcome == shadow.get(key)
                    key_ops += 1
                elif kind == "scan":
                    t0 = _now()
                    outcome = scan(key, arg, worker)
                    t1 = _now()
                    lat_scan.append(t1 - t0)
                    ok = outcome == system.expected_scan(key, arg)
                    key_ops += len(outcome)
                else:   # put, or YCSB-E's insert of a fresh key
                    t0 = _now()
                    put(key, arg, worker)
                    t1 = _now()
                    lat_put.append(t1 - t0)
                    system.wrote(key, arg)
                    outcome, ok = None, True
                    key_ops += 1
            except Exception as exc:    # a failed op is counted, not fatal
                self.fail(f"{kind}({key}) raised {type(exc).__name__}: {exc}")
                outcomes.append(type(exc).__name__)
                continue
            returned.append(t1)
            outcomes.append(outcome)
            if not ok:
                self.fail(f"{kind}({key}) returned a value the oracle rejects")
        self.attempted += i - self.issued
        self.issued = i
        self.outcomes.update(repr(outcomes).encode())
        return returned, key_ops

    def _waves(self, entries, epoch: Epoch) -> tuple[array, int]:
        """Closed loop with a window of WAVE outstanding requests: submit
        the wave, pump until every ticket is done. A request's latency
        runs from its own submit() call to the return of the pump after
        which its ticket is done."""
        system = self.system
        server, client, shadow = system.server, system.client, system.shadow
        latency = epoch.latency_ns
        returned = array("q")
        outcomes = []
        key_ops = 0
        for at in range(0, len(entries), WAVE):
            submitted = []
            for kind, key, arg in entries[at:at + WAVE]:
                self.attempted += 1
                t0 = _now()
                try:
                    bk = server.bitkey(key)
                    op = (client.make_get(bk) if kind == "get"
                          else client.make_put(bk, arg))
                    ticket = server.submit(ServerRequest(
                        kind, op, NO_DEADLINE, worker=bk.bits))
                except Exception as exc:    # shed or refused at admission
                    self.fail(f"submit {kind}({key}) raised "
                              f"{type(exc).__name__}: {exc}")
                    continue
                submitted.append((t0, kind, key, arg, ticket))
            waiting = submitted
            idle = 0
            while waiting and idle < MAX_IDLE_PUMPS:
                server.pump()
                t1 = _now()
                still = []
                for item in waiting:
                    if item[4].done:
                        latency[item[1]].append(t1 - item[0])
                        returned.append(t1)
                    else:
                        still.append(item)
                idle = idle + 1 if len(still) == len(waiting) else 0
                waiting = still
            # The oracle reads the tickets in submit order.
            for _t0, kind, key, arg, ticket in submitted:
                if not ticket.done or ticket.error is not None:
                    self.fail(f"ticket {kind}({key}) "
                              f"{ticket.error or 'never completed'}")
                    outcomes.append("failed")
                    continue
                key_ops += 1
                if kind == "get":
                    outcomes.append(ticket.result.payload)
                    if ticket.result.payload != shadow.get(key):
                        self.fail(f"ticket get({key}) returned a value "
                                  f"the oracle rejects")
                else:
                    outcomes.append(None)
                    system.wrote(key, arg)
        self.outcomes.update(repr(outcomes).encode())
        return returned, key_ops

    def _epoch(self, entries, probe: bool = False) -> Epoch:
        """Entries, then one epoch close. A side probe's entries go
        straight to the store."""
        system = self.system
        epoch = Epoch()
        t_start = _now()
        if probe:
            returned, key_ops = self._calls(
                entries, epoch, self.direct_get, self.direct_put)
        elif system.workload.entry == "pipelined":
            returned, key_ops = self._waves(entries, epoch)
        else:
            returned, key_ops = self._calls(entries, epoch, self.get, self.put)
        if not probe:
            self.deferred_at_close.append(system.db.deferred_population())
        t_close = _now()
        try:
            settled = system.close()
        except Exception as exc:
            self.fail(f"epoch close raised {type(exc).__name__}: {exc}",
                      len(returned))
            settled = None
        t_end = _now()
        if settled is not None and system.client.settled_epoch != settled:
            self.fail(f"epoch {settled} closed but the client settled "
                      f"{system.client.settled_epoch}", len(returned))
        epoch.wall_ns = t_end - t_start
        epoch.key_ops = key_ops
        epoch.close_ns = t_end - t_close
        epoch.settle_ns.extend(t_end - t for t in returned)
        return epoch

    # ------------------------------------------------------------------
    def measure(self, budget: Budget, probe_scale: float = 1.0) -> dict:
        """The timed region: whole epochs until the budget is spent; after
        each SEGMENTS-th of it, a side-probe slice of ``probe_scale``
        times its full size (0: none — the ledger arms compare like with
        like). Only the epochs count toward the budget, the throughput
        wall and the work counters' per-op figures."""
        workload = self.system.workload
        stream = self.system.stream
        probe_spec = (WorkloadSpec("probe-scan", 0.0, 0.0, scan_fraction=1.0)
                      if workload.probe == "scan" else YCSB["YCSB-A"])
        # Uniform keys whatever the workload's own skew: which ranges a
        # zipfian stream leaves cold differs from seed to seed, and a
        # probe that favours the hot ones inherits that as spread.
        probe_stream = YcsbGenerator(probe_spec, workload.records,
                                     distribution="uniform",
                                     seed=self.seed + 1)
        probe_entries = round(probe_scale * workload.probe_calls)
        rss_at = RSS_AT_SHARE * workload.entries
        rss_kb = None
        epochs: list[Epoch] = []
        probes: list[Epoch] = []
        entries_done = 0
        measured_ns = 0
        gc.collect()
        counters_before = counters_snapshot()
        for segment in range(SEGMENTS):
            while True:
                entries = list(stream.operations(budget.epoch_entries(
                    segment, entries_done, workload.epoch_entries)))
                epochs.append(self._epoch(entries))
                entries_done += len(entries)
                measured_ns += epochs[-1].wall_ns
                if rss_kb is None and entries_done >= rss_at:
                    rss_kb = resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss
                if budget.segment_done(segment, measured_ns / 1e9,
                                       entries_done):
                    break
            if probe_entries:
                probes.append(self._epoch(
                    list(probe_stream.operations(probe_entries)), probe=True))
        counters_after = counters_snapshot()
        if rss_kb is None:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "epochs": epochs,
            "probes": probes,
            "entries": entries_done,
            "key_ops": sum(e.key_ops for e in epochs),
            "wall_s": measured_ns / 1e9,
            "closes": len(epochs),
            "peak_rss_mb": rss_kb / 1024.0,
            "counters": {name: counters_after[name] - counters_before[name]
                         for name in counters_after},
        }

    def durability(self, once: bool) -> dict:
        """checkpoint() -> recover(), then every acknowledged write among
        DURABILITY_KEYS seeded keys must read back. Repeated unless
        ``once`` (enough for the oracle and the ledger's checkpoint cost)
        to give a ``recover_s`` worth reporting: the quiet median."""
        system = self.system
        db = system.db
        checkpoint_s, recover_s = [], []
        try:
            while not recover_s or not once and (
                    len(recover_s) < MIN_RECOVERIES
                    or len(recover_s) < MAX_RECOVERIES
                    and sum(checkpoint_s) + sum(recover_s)
                    < RECOVERIES_FILL_S):
                t0 = time.perf_counter()
                checkpoint = db.checkpoint()
                t1 = time.perf_counter()
                db.recover(checkpoint)
                t2 = time.perf_counter()
                checkpoint_s.append(t1 - t0)
                recover_s.append(t2 - t1)
        except Exception as exc:
            self.attempted += DURABILITY_KEYS
            self.fail(f"checkpoint/recover raised {type(exc).__name__}: "
                      f"{exc}", DURABILITY_KEYS)
            return {}
        rng = random.Random(self.seed ^ 0xD0AB1E)
        keys = rng.sample(system.keys, min(DURABILITY_KEYS, len(system.keys)))
        self.attempted += len(keys)
        for key in keys:
            try:
                payload = self.direct_get(key, 0).payload
            except Exception as exc:
                self.fail(f"get({key}) after recover raised "
                          f"{type(exc).__name__}: {exc}")
                continue
            if payload != system.shadow[key]:
                self.fail(f"acknowledged write to {key} lost across "
                          f"checkpoint -> recover")
        return {"recover_s": quiet_median(recover_s),
                "checkpoint_ms": quiet_median(checkpoint_s) * 1e3}

    def digest(self) -> str:
        """SHA-256 over the op-outcome sequence and the work counters:
        the "work counters byte-identical" pin of roadmap item 2."""
        final = self.outcomes.copy()
        final.update(json.dumps(counters_snapshot(), sort_keys=True).encode())
        return final.hexdigest()


def end_to_end(measured: dict) -> tuple[dict[str, float], dict[str, int]]:
    """The run's figures, over the quiet half of its epochs — the half
    with the highest throughput — and the quiet half of its side-probe
    slices. The box's noise is one-sided bursts of about a second; the
    quiet half is what the program does between them, and its figures
    spread half as wide from run to run as those over every epoch.

    Each figure is taken per quiet epoch (or slice) and the run reports
    the median across them, so the bursts that do get into the quiet half
    of a bad stretch spoil some epochs' figures, not the run's: a p99
    over the pooled samples is theirs as soon as they are 2% of the pool.
    (Pooling is still the lesser evil where an epoch has under POOL_BELOW
    samples of a kind.) A figure with no samples is left out, never zero. Also returns how many
    samples per epoch, and how many epochs, each figure rests on."""
    quiet = quiet_half(measured["epochs"], Epoch.rate)
    probes = quiet_half(measured["probes"], Epoch.rate)

    def sample_sets(kind: str) -> list:
        """The kind's samples, a set per epoch or a set per probe slice:
        whichever the workload gives more of (YCSB-E's one insert an
        epoch is no p99; its 400 probe puts a slice are). Sets too small
        for a percentile of their own are pooled into one."""
        sets = max(([unit.latency_ns[kind] for unit in units
                     if unit.latency_ns[kind]] for units in (quiet, probes)),
                   key=lambda sets: sum(map(len, sets)))
        if sets and median(map(len, sets)) < POOL_BELOW:
            return [[ns for samples in sets for ns in samples]]
        return sets

    per_kind = {kind: sample_sets(kind) for kind in ("get", "put", "scan")}
    settle = [e.settle_ns for e in quiet if e.settle_ns]
    metrics = {
        "throughput_ops_s": median([e.rate() * 1e9 for e in quiet]),
        "epoch_close_p50_ms": median([e.close_ns for e in quiet]) / 1e6,
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    for name, p, sets, per in (
            ("get_p50_us", 50, per_kind["get"], 1e3),
            ("get_p99_us", 99, per_kind["get"], 1e3),
            ("put_p50_us", 50, per_kind["put"], 1e3),
            ("put_p99_us", 99, per_kind["put"], 1e3),
            ("scan_p50_ms", 50, per_kind["scan"], 1e6),
            ("scan_p90_ms", 90, per_kind["scan"], 1e6),
            ("settle_p99_ms", 99, settle, 1e6)):
        if sets:
            metrics[name] = median([percentile(s, p) for s in sets]) / per
    samples = {f"{kind}_per_epoch": round(median(map(len, sets)))
               for kind, sets in per_kind.items() if sets}
    samples["epochs"] = len(quiet)
    return metrics, samples
