"""Shared benchmark harness: scaling, store factories, table printing.

Every figure-reproduction bench builds on this module so that all systems
run under identical measurement. The paper's experiments use database
sizes up to 128M records and 4 billion operations; by default we divide
sizes by ``REPRO_SCALE`` (default 800) and cap op counts, while the cost
model is always told the *paper-scale* record count so memory-hierarchy
effects match the figure being reproduced. Set ``FULL_SCALE=1`` to run
paper-scale sizes (hours of wall time).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro import FastVer, FastVerConfig, new_client
from repro.baselines import CachedMerkleStore, DeferredStore, plain_merkle_store
from repro.enclave.costmodel import SIMULATED, EnclaveCostProfile
from repro.instrument import COUNTERS
from repro.sim.executor import RunResult, SimulatedExecutor
from repro.workloads.ycsb import WorkloadSpec, YcsbGenerator


def scale_factor() -> int:
    """Divisor applied to paper DB sizes (1 when FULL_SCALE=1)."""
    if os.environ.get("FULL_SCALE") == "1":
        return 1
    return int(os.environ.get("REPRO_SCALE", "800"))


def scaled(paper_records: int, minimum: int = 1000) -> int:
    """Down-scale a paper database size."""
    return max(minimum, paper_records // scale_factor())


def op_count(scaled_records: int, multiplier: float = 2.0,
             cap: int = 60_000) -> int:
    """A sensible op count for a scaled run: enough to touch the working
    set a few times without blowing the wall-clock budget."""
    if os.environ.get("FULL_SCALE") == "1":
        cap = 1 << 62
    return min(cap, max(2_000, int(scaled_records * multiplier)))


@dataclass
class BenchRow:
    """One printed row of a figure's table."""

    label: str
    throughput_mops: float
    latency_s: float
    extra: dict

    def format(self) -> str:
        extras = "  ".join(f"{k}={v}" for k, v in self.extra.items())
        return (f"{self.label:<34} {self.throughput_mops:>10.3f} Mops/s  "
                f"latency {self.latency_s:>8.4f} s  {extras}")


def print_table(title: str, rows: list[BenchRow]) -> None:
    bar = "=" * 96
    print(f"\n{bar}\n{title}   [scale 1/{scale_factor()}]\n{bar}")
    for row in rows:
        print(row.format())
    print(bar)


# ---------------------------------------------------------------------------
# Standard run recipes
# ---------------------------------------------------------------------------
def make_fastver(records: int, n_workers: int = 4, partition_depth: int = 4,
                 cache_capacity: int = 512, key_width: int = 64,
                 batch_ops: int | None = None,
                 profile: EnclaveCostProfile = SIMULATED) -> tuple[FastVer, object]:
    """A loaded FastVer instance plus a registered client."""
    items = [(k, k.to_bytes(8, "big")) for k in range(records)]
    db = FastVer(
        FastVerConfig(key_width=key_width, n_workers=n_workers,
                      cache_capacity=cache_capacity,
                      partition_depth=partition_depth, batch_ops=batch_ops,
                      enclave_profile=profile),
        items=items,
    )
    client = new_client(1)
    db.register_client(client)
    return db, client


def sweep_fastver(spec: WorkloadSpec, scaled_records: int, paper_records: int,
                  n_workers: int, batch_sizes: list[int],
                  partition_depth: int = 5, distribution: str = "zipfian",
                  theta: float = 0.9, profile: EnclaveCostProfile = SIMULATED,
                  seed: int = 0) -> list[tuple[int, RunResult]]:
    """Load FastVer once, then measure one epoch per batch size.

    Each sweep point runs exactly ``batch`` operations followed by one
    verification, which yields one (throughput, latency) point of the
    Fig 8–12 frontier. Points share the loaded instance; each starts just
    after a verification, so they are comparable steady-state epochs.
    """
    from repro.sim.executor import SimulatedExecutor

    COUNTERS.reset()
    db, client = make_fastver(scaled_records, n_workers=n_workers,
                              partition_depth=partition_depth,
                              profile=profile)
    generator = YcsbGenerator(spec, scaled_records, distribution=distribution,
                              theta=theta, seed=seed)
    executor = SimulatedExecutor(db, client, n_workers, paper_records,
                                 profile=profile)
    out: list[tuple[int, RunResult]] = []
    for batch in batch_sizes:
        result = executor.run(generator, batch, verify_every=batch)
        out.append((batch, result))
    return out


def run_faster_baseline(spec: WorkloadSpec, scaled_records: int,
                        paper_records: int, n_workers: int,
                        distribution: str = "zipfian", theta: float = 0.9,
                        ops: int | None = None, seed: int = 0) -> RunResult:
    """Unmodified FASTER (no verification at all): the §8.3 baseline.

    Ops run straight against the store substrate; the cost model prices
    only store touches and CAS work, with no enclave in the picture.
    """
    from repro.core.keys import BitKey
    from repro.core.records import DataValue
    from repro.enclave.costmodel import NONE
    from repro.sim.metrics import MetricsBuilder
    from repro.store.faster import FasterKV
    from repro.workloads.ycsb import OP_GET, OP_PUT, OP_INSERT

    COUNTERS.reset()
    width = 64
    store = FasterKV(ordered_width=width)
    for k in range(scaled_records):
        store.upsert(BitKey.data_key(k, width), DataValue(k.to_bytes(8, "big")))
    generator = YcsbGenerator(spec, scaled_records, distribution=distribution,
                              theta=theta, seed=seed)
    count = ops if ops is not None else op_count(scaled_records)
    builder = MetricsBuilder(n_workers, paper_records, profile=NONE)
    before = COUNTERS.snapshot()
    executed = 0
    for kind, key, arg in generator.operations(count):
        bk = BitKey.data_key(key % (1 << 63), width)
        if kind == OP_GET:
            store.read(bk)
        elif kind in (OP_PUT, OP_INSERT):
            pair = store.read(bk)
            if pair is None or not store.try_cas(bk, pair[0], pair[1],
                                                 DataValue(arg), pair[1]):
                store.upsert(bk, DataValue(arg))
        else:
            for k2, _, _ in store.scan_from(bk, arg):
                executed += 1
        executed += 1
    builder.add_ops(COUNTERS.snapshot().diff(before), executed)
    return RunResult(builder.build(), 0)


def run_baseline(kind: str, spec: WorkloadSpec, scaled_records: int,
                 paper_records: int, n_workers: int = 1,
                 distribution: str = "zipfian", theta: float = 0.9,
                 ops: int | None = None, verify_every: int | None = None,
                 key_width: int = 64, seed: int = 0,
                 final_verify: bool = True,
                 profile: EnclaveCostProfile = SIMULATED) -> RunResult:
    """Run one of the §8.5 baselines under the same measurement."""
    COUNTERS.reset()
    items = [(k, k.to_bytes(8, "big")) for k in range(scaled_records)]
    if kind == "M":
        db = plain_merkle_store(items, key_width=key_width, enclave_profile=profile)
    elif kind == "M1K":
        db = CachedMerkleStore(items, key_width=key_width, cache_capacity=1024,
                               enclave_profile=profile)
    elif kind == "M32K":
        db = CachedMerkleStore(items, key_width=key_width, cache_capacity=32768,
                               enclave_profile=profile)
    elif kind == "MV":
        db = CachedMerkleStore(items, key_width=key_width, cache_capacity=32768,
                               eager_propagation=True, enclave_profile=profile)
    elif kind == "DV":
        db = DeferredStore(items, key_width=key_width, n_workers=n_workers,
                           enclave_profile=profile)
    else:
        raise ValueError(f"unknown baseline {kind!r}")
    client = new_client(1)
    db.register_client(client)
    generator = YcsbGenerator(spec, scaled_records, distribution=distribution,
                              theta=theta, seed=seed)
    executor = SimulatedExecutor(db, client, n_workers, paper_records,
                                 profile=profile)
    count = ops if ops is not None else op_count(scaled_records)
    return executor.run(generator, count, verify_every=verify_every,
                        final_verify=final_verify)
