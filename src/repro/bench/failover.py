"""Recovery-time-objective benchmark: warm failover vs cold restore.

Builds two identical servers over the same seeded workload, fails the
primary enclave in each, and measures the simulated ticks each recovery
path charges:

* **restore** — no standby attached: the supervisor's checkpoint-restore
  rung pays a fixed base plus a per-record scan cost over the whole
  store;
* **failover** — warm standby attached: promotion pays a fixed base plus
  a per-entry cost over only the *drained tail* (acknowledged writes not
  yet shipped), which is bounded by the shipping cadence rather than the
  database size.

The acceptance bar (ISSUE 3 / ROADMAP) is failover RTO < 10% of the
cold-restore RTO; the ratio is recorded in ``BENCH_failover.json``.

The quorum-HA rows (ISSUE 7) extend the comparison:

* **quorum failover** — the same kill against an N=3 group: promotion
  now pays vote collection across the quorum plus the winner's tail
  drain; the bar is ≤ 2× the single-standby failover RTO (the price of
  split-brain safety stays in the same league);
* **delta vs snapshot resync** — rejoin one detached member of the
  group twice, once via the retained-tail delta path (cost scales with
  the gap) and once via the full snapshot rebuild (cost scales with the
  record count); the bar is delta ≥ 5× faster at a ≤ 1-epoch lag.
"""

from __future__ import annotations

from repro.backoff import BackoffPolicy
from repro.core.fastver import FastVerConfig
from repro.errors import AvailabilityError
from repro.obs import LATENCIES
from repro.obs import reset as obs_reset
from repro.server.pipeline import FastVerServer
from repro.topology import Stack, Topology, build
from repro.workloads.ycsb import WORKLOADS, YcsbGenerator

TARGET_RATIO = 0.10
#: Quorum (N=3) failover may cost at most this multiple of the
#: single-standby failover RTO.
QUORUM_RTO_MULTIPLE = 2.0
#: Delta resync must beat the snapshot rebuild by at least this factor
#: at a ≤ 1-epoch lag.
DELTA_SPEEDUP_FLOOR = 5.0


def served_history(topology: Topology, records: int, ops: int, seed: int,
                   label: str) -> tuple[Stack, float]:
    """A served stack with ``records`` loaded and ``ops`` SDK operations
    worth of YCSB-A history, checkpointed every 100 (shared with the
    repair bench). Returns the stack and the simulated ticks the op phase
    took."""
    stack = build(
        topology, [(k, b"seed-%d" % k) for k in range(records)],
        seed=seed, label=f"{label}-{seed}",
        fastver=FastVerConfig(key_width=32, n_workers=2, partition_depth=4,
                              cache_capacity=256),
        backoff=BackoffPolicy(max_attempts=3, base_delay=2.0, max_delay=8.0,
                              seed=seed))
    generator = YcsbGenerator(WORKLOADS["YCSB-A"], records,
                              distribution="zipfian", theta=0.9, seed=seed)
    op_t0 = stack.now
    for i, (_kind, k, payload) in enumerate(generator.operations(ops)):
        stack.op(k, payload)  # the A mix: a get carries no payload
        if (i + 1) % 100 == 0:
            stack.close_epoch()
    return stack, stack.now - op_t0


def _measure_rto(server: FastVerServer, destroy: bool) -> float:
    """Fail the primary enclave and heal; the supervisor records what the
    successful heal session cost in simulated ticks.

    ``destroy=False`` reboots the enclave (volatile state lost; the
    checkpoint-restore rung applies). ``destroy=True`` tears it down
    outright — restore-in-place is impossible, the strongest case for
    failover."""
    if destroy:
        server.db.enclave.teardown()
    else:
        server.db.enclave.reboot()
    try:
        server.force_heal()
    except AvailabilityError:
        pass  # a failed session still leaves the server degraded
    if server.degraded:
        raise RuntimeError("bench server failed to heal after the fault")
    return server.supervisor.last_recovery_ticks


def _measure_resync(server, sdk, lag_writes: int = 24) -> tuple[float, float]:
    """Rejoin one group member via both resync paths; return the ticks
    each charged: ``(delta_ticks, snapshot_ticks)``.

    The member is detached (taken out of rotation, enclave intact) while
    ``lag_writes`` acknowledged writes accumulate — well under one
    epoch-marker interval, the ≤ 1-epoch-lag case the criterion names —
    then delta-resynced from the retained tail. For the snapshot row the
    same member's enclave is rebooted (volatile channel state gone), so
    the rejoin has no choice but the full rebuild over every record."""
    mgr = server.replication
    auto = mgr.config.auto_reattach
    mgr.config.auto_reattach = False  # keep pump() from healing it early
    try:
        idx = len(mgr.standbys) - 1
        mgr.standbys[idx].detached = True
        for i in range(lag_writes):
            sdk.put(i % 50, b"resync-%d" % i)
        mgr.pump()  # ship the lag to the live members
        before = server.now
        mgr.resync_standby(idx)
        delta_ticks = server.now - before
        assert mgr.delta_resyncs >= 1, "delta path did not run"

        member = mgr.standbys[idx]
        member.detached = True
        member.db.enclave.reboot()  # channel state lost: snapshot path
        member.failed = True  # what the next admit would conclude
        before = server.now
        mgr.resync_standby(idx)
        snapshot_ticks = server.now - before
        assert mgr.snapshot_resyncs >= 1, "snapshot path did not run"
    finally:
        mgr.config.auto_reattach = auto
    return delta_ticks, snapshot_ticks


def run_failover_bench(records: int = 1200, ops: int = 400,
                       seed: int = 7) -> dict:
    """Measure both recovery paths plus the quorum-HA rows; return the
    JSON-ready comparison."""
    def history(topology: str) -> Stack:
        return served_history(Topology.parse(topology), records, ops, seed,
                              "bench-failover")[0]

    obs_reset()
    restore_rto = _measure_rto(history("server").server, destroy=False)
    restore_latency = {name: LATENCIES.get(name).summary()
                       for name in LATENCIES.names()
                       if LATENCIES.get(name).count}

    obs_reset()
    warm = history("failover").server
    failover_rto = _measure_rto(warm, destroy=True)
    assert warm.generation == 1, "warm path did not fail over"
    failover_latency = {name: LATENCIES.get(name).summary()
                        for name in LATENCIES.names()
                        if LATENCIES.get(name).count}

    # Quorum group (N=3): same kill, promotion now collects a quorum of
    # votes; then rejoin a member via both resync paths on the promoted
    # leader.
    obs_reset()
    quorum = history("failover:3")
    quorum_rto = _measure_rto(quorum.server, destroy=True)
    assert quorum.server.generation == 1, "quorum path did not fail over"
    delta_ticks, snapshot_ticks = _measure_resync(quorum.server, quorum.sdk)
    quorum_latency = {name: LATENCIES.get(name).summary()
                      for name in LATENCIES.names()
                      if LATENCIES.get(name).count}

    ratio = failover_rto / restore_rto if restore_rto else float("inf")
    quorum_multiple = (quorum_rto / failover_rto if failover_rto
                       else float("inf"))
    delta_speedup = (snapshot_ticks / delta_ticks if delta_ticks
                     else float("inf"))
    return {
        "records": records,
        "ops": ops,
        "seed": seed,
        "restore_rto_ticks": restore_rto,
        "failover_rto_ticks": failover_rto,
        "ratio": round(ratio, 6),
        "target_ratio": TARGET_RATIO,
        "quorum": {
            "n_standbys": 3,
            "rto_ticks": quorum_rto,
            "multiple_of_single": round(quorum_multiple, 6),
            "max_multiple": QUORUM_RTO_MULTIPLE,
            "delta_resync_ticks": round(delta_ticks, 6),
            "snapshot_resync_ticks": round(snapshot_ticks, 6),
            "delta_speedup": round(delta_speedup, 6),
            "min_delta_speedup": DELTA_SPEEDUP_FLOOR,
        },
        # Latency histogram summaries from each run's op phase (the warm
        # run's verified_latency includes ops settled across a failover).
        "latency": {"restore_run": restore_latency,
                    "failover_run": failover_latency,
                    "quorum_run": quorum_latency},
        "ok": (ratio < TARGET_RATIO
               and quorum_multiple <= QUORUM_RTO_MULTIPLE
               and delta_speedup >= DELTA_SPEEDUP_FLOOR),
    }
