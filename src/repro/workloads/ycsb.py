"""YCSB workload generation (Cooper et al., SoCC 2010), as used in §8.

The paper benchmarks with 8-byte keys and 8-byte values over databases of
N records (key domain 0..N-1), padding keys to 32 bytes — our ``FastVer``
does the same padding via its configurable key width.

Workload mixes reproduced:

* **YCSB-A** — update-heavy: 50% gets / 50% puts
* **YCSB-B** — read-heavy: 95% gets / 5% puts
* **YCSB-C** — read-only
* **YCSB-E** — scan-heavy: 95% scans (length ~100) / 5% inserts

Operations are generated as plain tuples so the same stream can drive
FastVer, the baselines, and the raw FASTER store identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.workloads.distributions import KeyDistribution, make_distribution

#: Operation kinds in a generated stream.
OP_GET = "get"
OP_PUT = "put"
OP_SCAN = "scan"
OP_INSERT = "insert"


@dataclass(frozen=True)
class WorkloadSpec:
    """Mix definition for one YCSB workload."""

    name: str
    get_fraction: float
    put_fraction: float
    scan_fraction: float = 0.0
    insert_fraction: float = 0.0
    scan_length: int = 100

    def __post_init__(self):
        total = (self.get_fraction + self.put_fraction
                 + self.scan_fraction + self.insert_fraction)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"fractions of {self.name} sum to {total}, not 1")


YCSB_A = WorkloadSpec("YCSB-A", get_fraction=0.5, put_fraction=0.5)
YCSB_B = WorkloadSpec("YCSB-B", get_fraction=0.95, put_fraction=0.05)
YCSB_C = WorkloadSpec("YCSB-C", get_fraction=1.0, put_fraction=0.0)
YCSB_E = WorkloadSpec("YCSB-E", get_fraction=0.0, put_fraction=0.0,
                      scan_fraction=0.95, insert_fraction=0.05)

WORKLOADS = {w.name: w for w in (YCSB_A, YCSB_B, YCSB_C, YCSB_E)}

#: One generated operation: (kind, key, payload-or-scanlength).
Operation = tuple[str, int, object]


class YcsbGenerator:
    """Generates an operation stream for one workload over N records.

    ``value_size`` controls put payload sizes (paper: 8 bytes). Inserts
    (YCSB-E) draw fresh keys just past the loaded range, as YCSB does.
    """

    def __init__(self, spec: WorkloadSpec, n_records: int,
                 distribution: str = "zipfian", theta: float = 0.9,
                 value_size: int = 8, seed: int = 0):
        self.spec = spec
        self.n_records = n_records
        self.value_size = value_size
        self._keys: KeyDistribution = make_distribution(
            distribution, n_records, theta=theta, seed=seed)
        self._rng = random.Random(seed ^ 0x5EED)
        self._next_insert = n_records
        self._counter = 0

    def initial_items(self) -> list[tuple[int, bytes]]:
        """The pre-loaded database: keys 0..N-1 with fixed-size values."""
        return [(k, self._value(k)) for k in range(self.n_records)]

    def _value(self, salt: int) -> bytes:
        self._counter += 1
        raw = (salt * 1_000_003 + self._counter).to_bytes(16, "big")
        return raw[-self.value_size:]

    def operations(self, count: int) -> Iterator[Operation]:
        """Yield ``count`` operations according to the mix."""
        spec = self.spec
        for _ in range(count):
            r = self._rng.random()
            if r < spec.get_fraction:
                yield (OP_GET, self._keys.sample(), None)
            elif r < spec.get_fraction + spec.put_fraction:
                key = self._keys.sample()
                yield (OP_PUT, key, self._value(key))
            elif r < (spec.get_fraction + spec.put_fraction
                      + spec.scan_fraction):
                yield (OP_SCAN, self._keys.sample(), spec.scan_length)
            else:
                key = self._next_insert
                self._next_insert += 1
                yield (OP_INSERT, key, self._value(key))


def run_workload(db, client, generator: YcsbGenerator, count: int,
                 n_workers: int = 1) -> int:
    """Drive a FastVer-like store with a generated stream; returns the
    number of key-level operations executed. Ops round-robin workers, as
    the paper's identical worker loops do."""
    executed = 0
    for i, (kind, key, arg) in enumerate(generator.operations(count)):
        worker = i % n_workers
        if kind == OP_GET:
            db.get(client, key, worker=worker)
            executed += 1
        elif kind in (OP_PUT, OP_INSERT):
            db.put(client, key, arg, worker=worker)
            executed += 1
        else:  # scan
            executed += len(db.scan(client, key, arg, worker=worker))
    return executed
