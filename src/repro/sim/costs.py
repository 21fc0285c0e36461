"""The calibrated cost model: work counters → simulated time.

The reproduction's performance methodology (see DESIGN.md): the *real*
verification algorithms run on down-scaled workloads and count every unit
of work — hashes (with byte volumes), multiset updates, MACs, enclave
crossings, store touches, CAS attempts, log entries. This module converts
those counts into nanoseconds using rates calibrated against the paper's
own measurements:

* Blake3 Merkle hashing at ~400 MB/s and AES-CMAC multiset hashing at
  ~3.2 GB/s (§8.5's profiled rates) — the 8x asymmetry that makes deferred
  verification an order of magnitude cheaper per operation;
* plain Merkle at ~100K ops/s single-threaded, DV at ~10M ops/s (Fig 14b);
* memory access costs that depend on whether the *modelled* database fits
  in L3 (Fig 14c's 16K-records vs 64M-records gap);
* ~75% scaling efficiency per doubling of workers (Fig 14c), applied as a
  sub-linear parallel speedup exponent.

Only these unit costs are modelled; everything about *how many* of each
unit a scheme performs comes from executing the actual implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.enclave.costmodel import EnclaveCostProfile
from repro.instrument import Counters


@dataclass(frozen=True)
class CostModel:
    """Unit costs in nanoseconds (and per-byte rates)."""

    # Crypto (verifier side). 400 MB/s => 2.5 ns/B; 3.2 GB/s => 0.3125 ns/B.
    merkle_hash_fixed_ns: float = 120.0
    merkle_hash_per_byte_ns: float = 2.5
    multiset_fixed_ns: float = 15.0
    multiset_per_byte_ns: float = 0.3125
    mac_ns: float = 30.0

    # Host-side bookkeeping.
    log_entry_ns: float = 15.0
    cas_ns: float = 18.0
    cas_retry_penalty_ns: float = 60.0
    # Host mirror hash updates are charged at zero by default: in the real
    # system the host reads the freshly computed hash out of the verifier's
    # log response instead of recomputing it (same OS thread, §7); our
    # driver recomputes only because its log responses are consumed lazily.
    # The counters still record the events for diagnostics.
    # The mirror's eviction *policy* (repro.core.hostmirror: LRU ticks,
    # the victim heap) has no term here at all — the paper keeps it off
    # the critical path, so the model prices it at zero. Its real cost is
    # measured, not modeled: bench_native's core.hostmirror.* ledger rows
    # and model_gap.host_mirror (EXPERIMENTS.md, "native hot-path pass").
    host_hash_fixed_ns: float = 0.0
    host_hash_per_byte_ns: float = 0.0

    # Memory hierarchy: store touches on an L3-resident vs DRAM-resident
    # database (Fig 14c). The crossover is the modelled record count that
    # stops fitting in a ~40 MB L3.
    mem_access_l3_ns: float = 22.0
    mem_access_dram_ns: float = 75.0
    l3_capacity_records: int = 1 << 20

    # Parallel scaling: throughput grows ~1.75x per worker doubling
    # (Fig 14c) => speedup(n) = n ** log2(1.75).
    scaling_exponent: float = math.log2(1.75)

    # ------------------------------------------------------------------
    def mem_access_ns(self, modeled_db_records: int) -> float:
        """Per-touch store cost given the *modelled* database size."""
        if modeled_db_records <= self.l3_capacity_records:
            return self.mem_access_l3_ns
        return self.mem_access_dram_ns

    def verifier_ns(self, c: Counters, profile: EnclaveCostProfile) -> float:
        """Time spent inside the enclave (verifier compute + crossings)."""
        compute = (
            c.merkle_hashes * self.merkle_hash_fixed_ns
            + c.merkle_hash_bytes * self.merkle_hash_per_byte_ns
            + c.multiset_updates * self.multiset_fixed_ns
            + c.multiset_hash_bytes * self.multiset_per_byte_ns
            + c.mac_ops * self.mac_ns
        )
        return (compute * profile.compute_multiplier
                + c.enclave_entries * profile.crossing_ns)

    def host_ns(self, c: Counters, modeled_db_records: int) -> float:
        """Time spent on the untrusted side."""
        mem = self.mem_access_ns(modeled_db_records)
        return (
            (c.store_reads + c.store_writes) * mem
            + c.cas_attempts * self.cas_ns
            + c.cas_failures * self.cas_retry_penalty_ns
            + c.log_entries * self.log_entry_ns
            + c.host_merkle_hashes * self.host_hash_fixed_ns
            + c.host_merkle_hash_bytes * self.host_hash_per_byte_ns
        )

    def total_ns(self, c: Counters, profile: EnclaveCostProfile,
                 modeled_db_records: int) -> float:
        return self.verifier_ns(c, profile) + self.host_ns(c, modeled_db_records)

    def amortized_crossing_ns(self, ops: int, enclave_entries: int,
                              profile: EnclaveCostProfile) -> float:
        """Per-operation crossing overhead after batching: the group-commit
        lever (§7) moves this from one full ``crossing_ns`` per op toward
        ``crossing_ns / batch_fill`` as batches widen."""
        if ops <= 0:
            return 0.0
        return enclave_entries * profile.crossing_ns / ops

    def parallel_ns(self, serial_ns: float, n_workers: int) -> float:
        """Wall time for work that parallelizes across n workers with the
        paper's observed (imperfect) scaling."""
        if n_workers <= 1:
            return serial_ns
        return serial_ns / (n_workers ** self.scaling_exponent)

    def pipelined_total_ns(self, c: Counters, profile: EnclaveCostProfile,
                           modeled_db_records: int, n_shards: int,
                           overlap: float = 0.9) -> float:
        """Wall time for the *pipelined* group commit.

        The synchronous pump serializes verifier and host work:
        ``total_ns = verifier_ns + host_ns``. Pipelined settlement breaks
        that in two ways. First, per-shard flushes are *independent*
        ecalls — each carries only its shard's entries and the verifier
        threads share no state across shards — so the enclave side runs
        shard-parallel at the paper's observed scaling (Fig 14c's ~1.75x
        per doubling, the same exponent :meth:`parallel_ns` applies).
        Second, because the pump no longer blocks on receipts, the host's
        staging/bookkeeping for pump N+1 proceeds while the verifier
        digests pump N's batches: the two sides overlap, and wall time
        approaches ``max(verifier, host)`` instead of their sum.

        ``overlap`` (default 0.9) is the fraction of the shorter side
        actually hidden behind the longer one — the residue models the
        dispatch/settle bubbles at pipeline fill and drain, which the
        benchmarks observe as the first dispatch pump and final drain
        pumps doing unoverlapped work.
        """
        v = self.parallel_ns(self.verifier_ns(c, profile),
                             max(1, n_shards))
        h = self.host_ns(c, modeled_db_records)
        return max(v, h) + (1.0 - overlap) * min(v, h)

    def verifier_fraction(self, c: Counters, profile: EnclaveCostProfile,
                          modeled_db_records: int) -> float:
        """Fraction of total time inside the verifier (Fig 14b's 2nd axis)."""
        v = self.verifier_ns(c, profile)
        t = v + self.host_ns(c, modeled_db_records)
        return v / t if t > 0 else 0.0


#: The default calibrated model.
DEFAULT_COSTS = CostModel()
