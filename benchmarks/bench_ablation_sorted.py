"""A2 — Ablation (§6.3): sorted vs unsorted Merkle update application.

At each verification FastVer applies the epoch's touched records back to
Merkle protection. Sorting the keys first "manufactures" locality of
reference: consecutive keys share ancestor records, so each Merkle node
is cached once and hashed once per batch. We count verifier hashes per
migrated record with sorting on vs off — and, host side, store reads per
migrated record: the re-application is one run of chain-ins, so sorted
keys also share the tree walk (`merkle.sparse.lookup` resumes where the
previous key left it) while unsorted ones mostly restart it.
"""

from __future__ import annotations

import random

from repro import FastVer, FastVerConfig, new_client
from repro.bench.harness import BenchRow
from repro.instrument import COUNTERS

RECORDS = 20_000
TOUCH = 3_000


def per_migration(sorted_updates: bool) -> tuple[float, float]:
    """(verifier hashes, host store reads) per record migrated at close."""
    COUNTERS.reset()
    db = FastVer(
        FastVerConfig(key_width=64, n_workers=2, partition_depth=4,
                      cache_capacity=256,
                      sorted_merkle_updates=sorted_updates),
        items=[(k, b"v") for k in range(RECORDS)],
    )
    client = new_client(1)
    db.register_client(client)
    rng = random.Random(7)
    touched = rng.sample(range(RECORDS), TOUCH)
    for i, k in enumerate(touched):
        db.put(client, k, b"u", worker=i % 2)
    db.flush()
    hashes, reads = COUNTERS.merkle_hashes, COUNTERS.store_reads
    report = db.verify()
    db.flush()
    migrated = max(1, report.migrated_data)
    return ((COUNTERS.merkle_hashes - hashes) / migrated,
            (COUNTERS.store_reads - reads) / migrated)


def run_ablation():
    unsorted, unsorted_reads = per_migration(False)
    sorted_, sorted_reads = per_migration(True)
    return [
        BenchRow("sorted application (§6.3)", 0.0, 0.0,
                 {"verifier_hashes/record": f"{sorted_:.2f}",
                  "host_store_reads/record": f"{sorted_reads:.1f}"}),
        BenchRow("unsorted application", 0.0, 0.0,
                 {"verifier_hashes/record": f"{unsorted:.2f}",
                  "host_store_reads/record": f"{unsorted_reads:.1f}"}),
    ], sorted_, unsorted, sorted_reads, unsorted_reads


def test_ablation_sorted_updates(benchmark, show):
    rows, sorted_, unsorted, sorted_reads, unsorted_reads = \
        benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    show("A2: sorted vs unsorted Merkle re-application at verification",
         rows)
    # Sorting must cut hash work substantially (paper: an order of
    # magnitude difference between sorted and random application).
    assert sorted_ < 0.7 * unsorted
    # The host shares the walk the same way: fewer store reads when sorted.
    assert sorted_reads < unsorted_reads
