"""The five workloads and the names of everything the benchmark reports.

Pure data: nothing here imports ``repro`` (see the package docstring).
``BENCHMARK.json`` repeats the workload and metric names and carries the
regression bounds; ``selftest.py`` fails when the two drift apart.

Load shape, the same for every workload: one process, one thread, no
sockets. Closed loop with one client — the next call is issued when the
previous one returns — except ``serve_pipelined_a``, a closed loop with
a window of 256 outstanding requests (one wave = 4 shards x batch 64:
submit the wave, ``pump()`` until every ticket is done). The in-process
server has no arrival process, so the figure is work per second at a
stated size, not a rate under a latency limit.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Fixed everywhere (the paper's 32-byte keys, 4 worker/verifier pairs).
KEY_WIDTH = 32
N_WORKERS = 4
PARTITION_DEPTH = 4
CACHE_CAPACITY = 512

#: A run's budget is cut into this many segments of whole epochs; a
#: side-probe slice follows each. Ten short slices rather than five long
#: ones: the box's slow bursts last about a second, and the quiet half
#: of ten slices is clean far more often than three of five.
SEGMENTS = 10

#: ``serve_pipelined_a`` submits this many requests before it pumps.
WAVE = 256

#: Keys re-read after checkpoint -> recover (the durability probe).
DURABILITY_KEYS = 500


@dataclass(frozen=True)
class Workload:
    name: str
    #: "direct" (FastVer), "sdk" (RetryingClient -> legacy synchronous
    #: pump) or "pipelined" (group-commit pipelined server, waves).
    entry: str
    records: int
    mix: str                 # key of repro.workloads.WORKLOADS
    distribution: str
    #: Stream entries between epoch closes.
    epoch_entries: int
    #: Stream entries per run when the count, not the time, is fixed:
    #: 4-6 s of timed region at the commit that added this, and a whole
    #: number of epochs in each of the run's segments.
    entries: int
    #: The call kinds the mix lacks get their latency figures from a side
    #: probe instead: a slice of ``probe_calls`` scans ("scan") or YCSB-A
    #: gets+puts ("point") run after each segment, outside the throughput
    #: wall, straight against the store in the state the workload leaves
    #: it. Sized to 0.1-0.4 s a slice.
    probe: str
    probe_calls: int
    cache_hot_records: bool = False
    log_capacity: int = 256


WORKLOADS = {w.name: w for w in (
    # DB (20,000 records) >> 4x512 verifier-cache entries: nearly every
    # op walks a Merkle chain into the cache and evicts. Merkle tier,
    # eviction, records, keys, hashing. Reads and writes side by side.
    Workload("cold_uniform_a", "direct", 20_000, "YCSB-A", "uniform",
             epoch_entries=500, entries=5_000, probe="scan", probe_calls=20),
    # 1,000 records: the whole tree fits the caches, repeat touches stay
    # in the deferred tier. Multiset, MAC, log, gate, store CAS. The
    # bypass workload for any eviction/Merkle optimisation. A log buffer
    # of 128 entries, not the default 256, so that 2% of the ops drain a
    # log: at 256 it is 1.1%, and p99 sits on the cliff between a 60 us
    # op and a 1.2 ms drain.
    Workload("warm_zipf_b", "direct", 1_000, "YCSB-B", "zipfian",
             epoch_entries=4_000, entries=120_000, probe="scan",
             probe_calls=100, log_capacity=128),
    # Ordered range walks with shared chains plus inserts that split the
    # tree: the same store/merkle/core layers used differently.
    Workload("scan_e", "direct", 20_000, "YCSB-E", "zipfian",
             epoch_entries=20, entries=200, probe="point",
             probe_calls=800),
    # Hot tier through the SDK and the legacy synchronous pump: verifier
    # work is a MAC + nonce, so server/obs/client carry the op.
    Workload("serve_sdk_hot_b", "sdk", 1_000, "YCSB-B", "zipfian",
             epoch_entries=4_000, entries=120_000, probe="scan",
             probe_calls=100, cache_hot_records=True),
    # The production shape: staging, apply_batch, streamed settlement,
    # checkpoint inside maintain(), over a cold core.
    Workload("serve_pipelined_a", "pipelined", 20_000, "YCSB-A", "zipfian",
             epoch_entries=2 * WAVE, entries=20 * WAVE, probe="scan",
             probe_calls=20, log_capacity=2048),
)}


#: name -> unit of every end-to-end metric a ``--trace 0`` run reports.
END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "get_p50_us": "us",
    "get_p99_us": "us",
    "put_p50_us": "us",
    "put_p99_us": "us",
    "scan_p50_ms": "ms",
    "scan_p90_ms": "ms",
    "epoch_close_p50_ms": "ms",
    "settle_p99_ms": "ms",
    "recover_s": "s",
    "peak_rss_mb": "MB",
}

#: ``peak_rss_mb`` is read at the first epoch boundary at or after this
#: share of ``Workload.entries`` — the end of the first segment of a
#: fixed-count run, and well inside the first segment of a time-boxed
#: one — so it is the memory of set-up plus the same work on every
#: commit: a faster commit does more ops in the time box and holds more
#: receipts for it, and a side-probe slice allocates as it goes.
RSS_AT_SHARE = 0.1
