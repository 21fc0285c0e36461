"""Mean-time-to-repair benchmark: record-level repair vs whole-store heals.

The self-healing claim (ISSUE 8 / ROADMAP) is quantitative: when latent
rot corrupts *one* page, repairing that page from the quorum group must
be drastically cheaper than the whole-store rungs the heal ladder would
otherwise fall through to. Three costs are measured on identically
seeded servers, in simulated ticks:

* **repair** — one device page rots; the scrubber quarantines it and
  patches it back from the standby's committed state, paying a fixed
  base plus a per-page cost — independent of database size;
* **salvage** — the lenient log-scan rebuild (no usable checkpoint):
  fixed base plus a per-record cost over the whole store;
* **restore** — the checkpoint-restore rung: fixed base plus a
  per-record scan cost over the whole store.

The acceptance bars: single-page repair MTTR ≤ 10% of salvage and
≤ 2% of cold restore. A fourth measurement drives the same op phase
with the background scrubber on and off; the steady-state throughput
tax must stay ≤ 10%. Results land in ``BENCH_repair.json``.
"""

from __future__ import annotations

from repro.bench.failover import served_history
from repro.errors import AvailabilityError
from repro.obs import reset as obs_reset
from repro.server.pipeline import FastVerServer
from repro.topology import Topology

#: Single-page repair may cost at most this fraction of a lenient salvage.
MTTR_VS_SALVAGE_MAX = 0.10
#: ... and at most this fraction of a cold checkpoint restore.
MTTR_VS_RESTORE_MAX = 0.02
#: Steady-state throughput tax of scrub-on vs scrub-off.
OVERHEAD_MAX = 0.10


def _rot_one_page(server: FastVerServer) -> tuple[int, object]:
    """Persistently flip one byte of a merkle-at-rest device page, exactly
    like ``device.read.bitrot`` does, and return ``(address, key)``.

    The victim is chosen the way latent rot finds its victims: a data
    record that is neither verifier-cached nor deferred (so the at-rest
    bytes are load-bearing) and whose current version already lives on
    the device."""
    db = server.db
    store = db.store
    device = store.log.device
    for key, address in sorted(store.index.items(),
                               key=lambda kv: kv[1]):
        if key.length != db.config.key_width:
            continue
        if db.tier_of(key) != "merkle":
            continue
        if store.log.in_memory(address) or address not in device:
            continue
        blob = device._pages[address]
        pos = len(blob) - 1 - (address % max(1, len(blob) // 3))
        device._pages[address] = (blob[:pos] + bytes([blob[pos] ^ 0x20])
                                  + blob[pos + 1:])
        return address, key
    raise RuntimeError("bench store has no merkle-at-rest page to rot")


def _measure_repair(server: FastVerServer) -> tuple[float, dict]:
    """Rot one page, let the scrubber find and repair it; return the
    ticks from quarantine to verified patch plus the ledger tail."""
    scrub = server.scrubber()
    address, key = _rot_one_page(server)
    # Drive budgeted slices until the walk reaches the rotted page (the
    # detection cost is the scrub cadence, not part of MTTR: rot sat
    # latent either way). Quarantine marks the clock start.
    for _ in range(10000):
        scrub.pump()
        if address in server.db.store.quarantined_addresses:
            break
    else:
        raise RuntimeError(f"scrubber never quarantined rotted page "
                           f"{address}")
    before = server.now
    repaired = scrub.repair_pending()
    mttr = server.now - before
    if not repaired or server.db.store.quarantined_addresses:
        raise RuntimeError("single-page repair did not converge")
    action = scrub.ledger.actions[-1]
    return mttr, {"address": address, "key_length": key.length,
                  "source": action.source, "tier": action.reason,
                  "outcome": action.outcome}


def _measure_restore(server: FastVerServer) -> float:
    """Reboot the enclave and heal through the checkpoint-restore rung."""
    server.db.enclave.reboot()
    try:
        server.force_heal()
    except AvailabilityError:
        pass
    if server.degraded:
        raise RuntimeError("bench server failed to heal after the reboot")
    return server.supervisor.last_recovery_ticks


def _measure_salvage(server: FastVerServer) -> float:
    """Void the checkpoint so the restore rung fails, forcing the heal
    ladder down to the lenient log-scan salvage."""
    server.db.last_checkpoint = None
    server.db.enclave.reboot()
    try:
        server.force_heal()
    except AvailabilityError:
        pass
    if server.degraded:
        raise RuntimeError("bench server failed to salvage")
    if server.supervisor.salvages < 1:
        raise RuntimeError("heal ladder never reached the salvage rung")
    return server.supervisor.last_recovery_ticks


def run_repair_bench(records: int = 1200, ops: int = 400,
                     seed: int = 7) -> dict:
    """Measure repair vs salvage vs restore plus the scrub tax; return
    the JSON-ready comparison."""
    def history(topology: str):
        obs_reset()
        stack, op_ticks = served_history(Topology.parse(topology), records,
                                         ops, seed, "bench-repair")
        return stack.server, op_ticks

    # Repair measurement runs against a quorum member: the authentic
    # bytes come back from the standby's committed state.
    repair_mttr, repair_detail = _measure_repair(history("failover+scrub")[0])
    restore_rto = _measure_restore(history("server")[0])
    salvage_rto = _measure_salvage(history("server")[0])
    # Steady-state tax: the same op phase, scrub on vs off, no rot.
    _, on_ticks = history("server+scrub")
    _, off_ticks = history("server")
    overhead = ((on_ticks - off_ticks) / off_ticks if off_ticks
                else float("inf"))

    vs_salvage = (repair_mttr / salvage_rto if salvage_rto
                  else float("inf"))
    vs_restore = (repair_mttr / restore_rto if restore_rto
                  else float("inf"))
    return {
        "records": records,
        "ops": ops,
        "seed": seed,
        "repair_mttr_ticks": round(repair_mttr, 6),
        "repair_detail": repair_detail,
        "salvage_rto_ticks": round(salvage_rto, 6),
        "restore_rto_ticks": round(restore_rto, 6),
        "mttr_vs_salvage": round(vs_salvage, 6),
        "max_mttr_vs_salvage": MTTR_VS_SALVAGE_MAX,
        "mttr_vs_restore": round(vs_restore, 6),
        "max_mttr_vs_restore": MTTR_VS_RESTORE_MAX,
        "scrub_on_op_ticks": round(on_ticks, 6),
        "scrub_off_op_ticks": round(off_ticks, 6),
        "scrub_overhead": round(overhead, 6),
        "max_scrub_overhead": OVERHEAD_MAX,
        "ok": (vs_salvage <= MTTR_VS_SALVAGE_MAX
               and vs_restore <= MTTR_VS_RESTORE_MAX
               and overhead <= OVERHEAD_MAX),
    }
