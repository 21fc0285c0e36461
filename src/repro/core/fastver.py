"""FastVer: the verified key-value store (the paper's headline system).

:class:`FastVer` is the *host-side* orchestrator of Figure 1. It wires
together the FASTER-style store, the enclave-resident verifier group, the
per-worker verification logs, and the host mirrors, and implements the
hybrid protocol of §6–§7:

* **Warm path** (record in deferred state): speculative 128-bit CAS on the
  store's (value, aux) pair using the mirrored verifier clock, then an
  asynchronous add/validate/evict triple in the worker's log (§5.3, §7).
  O(1) work, no Merkle hashing, fully parallel across workers.
* **Cold path** (record Merkle-protected): descend the sparse tree, pull
  the record's ancestor chain into the routing verifier's cache (stopping
  at the partition anchor, §6.2), validate, then evict the record to
  deferred — it is warm from now until the next verification (§6.3).
* **Partitioning**: Merkle records at the configured depth ``d`` are kept
  permanently in deferred state. They "unshackle" their subtrees from the
  root so Merkle work parallelizes across verifier threads (§6.2), at the
  price of ``~2^d`` extra records to migrate per verification.
* **verify()** (epoch close): sort the keys touched this epoch and apply
  them back to Merkle protection in sorted order — manufacturing locality
  so each Merkle ancestor is hashed once per batch, not once per update
  (§6.3) — then migrate the anchors and check the aggregated read/write
  set hashes (§5.3). Client-visible results are provisional until the
  epoch receipt lands (§5.1).

Everything in this class is untrusted: bugs here can cause spurious
integrity alarms or lost availability but can never make the verifier
accept a wrong result (the adversary tests drive that point home).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.backoff import BackoffPolicy
from repro.core.hostmirror import (
    VIA_DEFERRED,
    VIA_MERKLE,
    VIA_PINNED,
    VerifierMirror,
    host_value_hash,
)
from repro.core.keys import KEY_BITS, BitKey
from repro.core.log import VerificationLog
from repro.core.multiverifier import VerifierGroup
from repro.core.protocol import Client, EpochReceipt, OpReceipt, ReceiptChannel
from repro.core.records import Aux, DataValue, MerkleValue, Pointer, Protection, Value
from repro.crypto.hashing import hash_key_to_data_key_bytes
from repro.crypto.mac import MacKey
from repro.crypto.prf import Prf
from repro.enclave.costmodel import SIMULATED, EnclaveCostProfile
from repro.enclave.enclave import SimulatedEnclave
from repro.errors import (
    AvailabilityError,
    BatchAbortedError,
    EnclaveDeadError,
    EnclaveRebootError,
    EnclaveUnavailableError,
    IntegrityError,
    ProtocolError,
    RecoveryError,
    RepairFailedError,
    RepairForgeryError,
    StoreError,
    TransientIOError,
)
from repro.instrument import COUNTERS
from repro.merkle.sparse import ABSENT_NULL, FOUND, lookup
from repro.obs import LATENCIES, TRACER
from repro.sim.costs import DEFAULT_COSTS
from repro.store.faster import FasterKV


@dataclass
class FastVerConfig:
    """Tuning knobs of the hybrid scheme (§8's experimental parameters)."""

    #: Data-key width in bits. The paper uses 256 (SHA-256 of client keys);
    #: benchmarks default to 64 for speed — semantics are identical.
    key_width: int = 64
    #: Number of worker threads == verifier threads (§5.3 pairs them 1:1).
    n_workers: int = 1
    #: Verifier cache entries per thread (the paper's default is 512).
    cache_capacity: int = 512
    #: Merkle partition depth d (§6.2/§8.1): records at this depth stay in
    #: deferred state. ``None`` disables partitioning (single chain from
    #: the root — the configuration §6.2 argues does not parallelize).
    partition_depth: int | None = None
    #: Verification-log buffer entries per worker (enclave amortization, §7).
    log_capacity: int = 256
    #: Operations between automatic epoch verifications (§8.1's batching
    #: parameter). ``None`` = only verify() on demand.
    batch_ops: int | None = None
    #: Multiset-hash combiner ("add" is multiset-secure; "xor" for ablation).
    combiner: str = "add"
    #: Apply Merkle re-protection in sorted key order (§6.3). Disabling it
    #: (ablation A2) applies updates in arbitrary order, destroying the
    #: manufactured locality of reference.
    sorted_merkle_updates: bool = True
    #: Keep data records resident in the verifier cache after an access
    #: (§6.1's top tier: "caching is ideal for hot records"). Repeat hits
    #: then cost no hashing and no multiset work at all; the LRU returns
    #: cooling records to deferred protection. Off by default to match
    #: §7's per-operation add/validate/evict worker loop.
    cache_hot_records: bool = False
    #: Enclave cost profile (simulated / sgx / none) for the cost model.
    enclave_profile: EnclaveCostProfile = SIMULATED
    #: Host store in-memory budget (records) before hybrid-log spill.
    memory_budget_records: int = 1 << 30
    #: Retry budget + pacing for transient enclave call-gate failures.
    #: ``None`` selects the default policy (4 attempts, jittered
    #: exponential backoff); the serving layer shares the same class.
    ecall_backoff: BackoffPolicy | None = None

    def validate(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.key_width < 4 or self.key_width > KEY_BITS:
            raise ValueError(f"key_width must be 4..{KEY_BITS}")
        if self.cache_capacity < self.key_width + 8:
            raise ValueError(
                "cache_capacity must exceed key_width + 8 so a full "
                "root-to-leaf chain plus working records fit"
            )
        if self.partition_depth is not None and not (
                1 <= self.partition_depth < self.key_width):
            raise ValueError(
                "partition_depth must be in [1, key_width): the root is "
                "pinned and data keys must lie below the boundary"
            )
        if self.batch_ops is not None and self.batch_ops < 1:
            raise ValueError("batch_ops must be >= 1")


@dataclass
class OpResult:
    """What a client-level operation returns to the caller."""

    payload: bytes | None
    nonce: int
    worker: int


@dataclass
class BatchOpOutcome(OpResult):
    """Per-operation outcome of a group-commit batch (:meth:`FastVer.apply_batch`).

    Exactly one of ``payload``/``error`` is meaningful: a poisoned
    operation fails alone with its typed error while the rest of its batch
    commits (partial-batch isolation), so the serving layer can resolve
    each ticket independently."""

    error: Exception | None = None


@dataclass
class FastVerCheckpoint:
    """A durable checkpoint: CPR store token + sealed verifier blob (§7).

    The blob lives on untrusted storage — replaying an older one trips the
    enclave's sealed anti-rollback slot. ``anchors`` is host metadata
    (untrusted routing hints; lying in it breaks availability, never
    integrity)."""

    version: int
    store_token: object
    verifier_blob: bytes
    anchors: dict


@dataclass
class VerifyReport:
    """Summary of one epoch verification."""

    epoch: int
    migrated_data: int
    migrated_anchors: int
    receipts: dict[int, EpochReceipt] = field(repr=False, default_factory=dict)


#: The counters ``CostModel.verifier_ns`` prices (an ecall's service time
#: is that formula over their deltas across the crossing).
_VERIFIER_COST_INPUTS = ("merkle_hashes", "merkle_hash_bytes",
                         "multiset_updates", "multiset_hash_bytes",
                         "mac_ops", "enclave_entries")


def data_items(store, width: int) -> list[tuple[int, bytes]]:
    """The data records of ``store`` as sorted ``(key bits, payload)``
    pairs: full-width keys only (Merkle plumbing and anchors are rebuilt
    by a fresh load), tombstones dropped."""
    items: list[tuple[int, bytes]] = []
    for key, value, _aux in store.items():
        if key.length != width:
            continue
        payload = getattr(value, "payload", None)
        if payload is None:
            continue
        items.append((key.bits, payload))
    items.sort()
    return items


class FastVer:
    """The verified key-value store."""

    def __init__(self, config: FastVerConfig | None = None,
                 items: list[tuple[int, bytes]] | None = None):
        self.config = config or FastVerConfig()
        self.config.validate()
        cfg = self.config
        self._ecall_backoff = cfg.ecall_backoff or self._default_ecall_backoff()
        # Enclave identity keys: in real TEEs these derive from the CPU +
        # enclave measurement, so a rebooted enclave recovers the same
        # keys. The host process holds the objects but never uses them
        # outside the enclave factory (the adversary harness respects
        # this, per the threat model).
        identity_prf = Prf.generate()
        identity_seal = MacKey.generate("seal")
        self.enclave = SimulatedEnclave(
            lambda sealed: VerifierGroup(
                sealed, n_threads=cfg.n_workers,
                cache_capacity=cfg.cache_capacity, combiner=cfg.combiner,
                prf=identity_prf, sealing_key=identity_seal,
            ),
            profile=cfg.enclave_profile,
        )
        self.store = FasterKV(ordered_width=cfg.key_width,
                              memory_budget_records=cfg.memory_budget_records)
        self.clients: dict[int, Client] = {}
        self.current_epoch = 0
        #: anchor key -> preferred verifier (partition ownership, §6.2).
        self.anchors: dict[BitKey, int] = {}
        #: The run of chain-ins in progress: None outside one, () before its
        #: first key, then the previous key's (lookup result, chain start,
        #: LRU tick). Valid while no pointer moves: never beyond one call.
        self._run: tuple | None = None
        self._reset_host_state()
        #: The serving layer backrefs itself here (see :meth:`_sim_now`).
        self._server = None
        #: Optional FaultPlan (see repro.faults.install_faults).
        self.faults = None
        #: The untrusted host→client receipt transport (drop/dup/reorder).
        self.receipt_channel = ReceiptChannel()
        #: Most recent successful checkpoint (the default recovery point).
        self.last_checkpoint: FastVerCheckpoint | None = None
        self._ckpt_version = 0
        self._load(items or [])

    def _reset_host_state(self) -> None:
        """Fresh volatile host bookkeeping — logs, mirrors and the tier
        indices — as construction and recovery both start from."""
        cfg = self.config
        self.logs = [VerificationLog(self.enclave, i, cfg.log_capacity)
                     for i in range(cfg.n_workers)]
        self.mirrors = [VerifierMirror(i, cfg.cache_capacity)
                        for i in range(cfg.n_workers)]
        self.ops_since_close = 0
        #: key -> (timestamp, epoch) for every record in DEFERRED state.
        self.deferred_index: dict[BitKey, tuple[int, int]] = {}
        #: key -> verifier id for records currently in a verifier cache.
        self.cached_where: dict[BitKey, int] = {}
        #: per-worker queue of predicted (ts, epoch) evict results, checked
        #: against the verifier's actual returns at drain time.
        self._expected_evicts: list[deque] = [deque() for _ in range(cfg.n_workers)]

    #: Bounded retry budget for transient enclave call-gate failures
    #: (the default when the config supplies no policy of its own).
    MAX_ECALL_ATTEMPTS = 4

    def _default_ecall_backoff(self) -> BackoffPolicy:
        return BackoffPolicy(max_attempts=self.MAX_ECALL_ATTEMPTS,
                             base_delay=0.5, max_delay=8.0, seed=0)

    def _count_ecall_retry(self, _exc: Exception) -> None:
        COUNTERS.ecall_retries += 1

    def _sim_now(self) -> float:
        """The serving layer's simulated clock when one is attached (the
        server backrefs itself as ``_server``); 0.0 for bare instances —
        trace timestamps then just order by sequence number."""
        return self._server.now if self._server is not None else 0.0

    def _ecall(self, method: str, *args):
        """Cross into the enclave, absorbing transient call-gate failures
        with jittered exponential backoff under a configurable budget (a
        failed gate never dispatched, so a retry is safe). Reboots are
        never retried here — volatile verifier state is gone and only
        :meth:`recover` can bring it back.

        The gate is also where ecall *service time* is measured: the
        modeled verifier nanoseconds this crossing cost, which is the cost
        model's own ``verifier_ns`` over the crypto-counter deltas the
        crossing produced."""
        measure = LATENCIES.enabled
        if measure:
            before = [getattr(COUNTERS, name) for name in _VERIFIER_COST_INPUTS]
        result = self._ecall_backoff.run(
            lambda: self.enclave.ecall(method, *args),
            retry_on=(EnclaveUnavailableError,),
            no_retry=(EnclaveRebootError, EnclaveDeadError),
            on_retry=self._count_ecall_retry,
        )
        if measure:
            delta = SimpleNamespace(**{
                name: getattr(COUNTERS, name) - was
                for name, was in zip(_VERIFIER_COST_INPUTS, before)})
            LATENCIES.observe("ecall_service", DEFAULT_COSTS.verifier_ns(
                delta, self.config.enclave_profile))
        return result

    # ==================================================================
    # Setup
    # ==================================================================
    def register_client(self, client: Client) -> None:
        """Authorize a client: its MAC key is installed in the enclave."""
        self._ecall("register_client", client.client_id,
                    client.key.key_bytes())
        self.clients[client.client_id] = client

    def data_key(self, key: int | bytes) -> BitKey:
        """Map a client key to a data-width BitKey.

        Integers are the benchmark convention (0..N-1, zero-padded to the
        key width, as §8 does with 8-byte YCSB keys). Arbitrary byte keys
        are hashed with SHA-256 first (§2.1) and truncated to the width.
        """
        if isinstance(key, bytes):
            digest = hash_key_to_data_key_bytes(key)
            value = int.from_bytes(digest, "big") >> (256 - self.config.key_width)
            return BitKey.data_key(value, self.config.key_width)
        return BitKey.data_key(key, self.config.key_width)

    def _load(self, items: list[tuple[int, bytes]]) -> None:
        width = self.config.key_width
        if items:
            pairs = [(BitKey.data_key(k, width), payload) for k, payload in items]
            root_value, records = self._ecall("bulk_load", pairs)
            for key, value in records:
                self.store.upsert(key, value, Aux.merkle().pack())
        else:
            root_value = self._ecall("start_empty")
        self._enter_cache(0, BitKey.root(), root_value, VIA_PINNED, None,
                          stamp=False)
        if self.config.partition_depth is not None:
            self._setup_partitions()

    def _discover_anchors(self) -> list[BitKey]:
        """Find the ~2^d partition frontier for the current tree shape:
        repeatedly expand the shallowest Merkle node until the frontier
        holds 2^d subtree roots (or the tree runs out of branch nodes).
        This realizes the paper's "merkle records at depth d are kept in
        deferred state" for real Patricia shapes, where long shared
        prefixes compress away the upper levels."""
        import heapq

        target = 1 << self.config.partition_depth
        # The root is expanded first: it is the shallowest node, never a
        # partition (target >= 2), and the frontier starts at its children.
        heap: list[tuple[int, int, BitKey]] = [(0, 0, BitKey.root())]
        leaves: list[BitKey] = []
        while heap and len(heap) + len(leaves) < target:
            _, _, node = heapq.heappop(heap)
            value = self.host_value(node)
            if not isinstance(value, MerkleValue):
                leaves.append(node)
                continue
            for side in (0, 1):
                ptr = value.pointer(side)
                if ptr is not None:
                    heapq.heappush(heap, (ptr.key.length, ptr.key.bits, ptr.key))
        return sorted(leaves + [key for _, _, key in heap])

    def flush_caches(self) -> None:
        """Evict every non-pinned record from every verifier cache.

        Maintenance operation (used before partition rebalancing): records
        return to their natural protection (anchors to deferred, merkle
        chain records to merkle). Evicts leaf-first so every Merkle evict
        still finds its parent cached.
        """
        for vid, mirror in enumerate(self.mirrors):
            while victims := [e for e in mirror.entries.values()
                              if e.evictable]:
                for victim in victims:
                    self._evict(vid, victim)
        self._drain_all()

    def rebalance_partitions(self) -> tuple[int, int]:
        """Recompute the partition frontier for the current tree (§6.2).

        As inserts grow the tree, the load-time frontier drifts: subtrees
        grow unevenly and fresh branch points appear above old anchors.
        Call right after :meth:`verify` (when only anchors remain
        deferred). Demoted anchors return to Merkle protection; promoted
        ones move to deferred. Returns ``(demoted, promoted)``.
        """
        if self.config.partition_depth is None:
            return (0, 0)
        if any(k for k in self.deferred_index if k not in self.anchors):
            raise ProtocolError(
                "rebalance requires a quiescent store: call verify() first")
        self.flush_caches()
        new_frontier = set(self._discover_anchors())
        demoted = sorted(self.anchors.keys() - new_frontier)
        promoted = sorted(new_frontier - self.anchors.keys())
        for key in demoted:
            # No longer an anchor, so its chain runs from the pinned root
            # (thread 0) and it goes back under its Merkle parent.
            del self.anchors[key]
            self._reapply_to_merkle(key, "anchor {key!r} fell out of the tree")
        # Demotion chains leave frozen-zone records cached in mirror 0,
        # possibly including keys about to be promoted; start promotions
        # from empty caches so every chain builds cleanly.
        self.flush_caches()
        for i, key in enumerate(promoted):
            record = self.store.read_record(key)
            if record is None:
                raise ProtocolError(f"new anchor {key!r} is not in the store")
            if Aux.unpack(record.aux).state is not Protection.DEFERRED:
                vid = self._admit_from_merkle(
                    key, "new anchor {key!r} is not in the tree")
                self._evict_to_deferred(vid, key)
            # else already deferred (e.g., a cooled hot record): it is in
            # the right protection tier — registering it as an anchor is
            # purely a host-side routing change. Pulling it through the
            # Merkle path instead would orphan its write entry.
            self.anchors[key] = i % self.config.n_workers
        self._drain_all()
        return (len(demoted), len(promoted))

    def _setup_partitions(self) -> None:
        """Move every partition anchor into deferred state (§6.2).

        ``partition_depth = d`` asks for ~2^d partitions, cut along the
        frontier :meth:`_discover_anchors` finds. Each anchor gets a
        round-robin owner; the transition runs through thread 0 (the only
        cache that can chain from the pinned root).
        """
        anchors = self._discover_anchors()
        for i, anchor in enumerate(anchors):
            self.anchors[anchor] = i % self.config.n_workers
        for anchor in anchors:
            vid = self._admit_from_merkle(
                anchor, "anchor {key!r} vanished during setup")
            self._evict_to_deferred(vid, anchor)
        self._drain_all()

    # ==================================================================
    # The tier map: where the host believes each record sits
    # ==================================================================
    def tier_of(self, key: BitKey) -> str | None:
        """The tier guarding ``key`` — ``"cached"``, ``"deferred"`` or
        ``"merkle"`` — or None for a key the store does not hold. Answered
        from the host's own indices, never from the record's aux word:
        repair and scrub ask precisely because the stored copy (aux word
        included) may have rotted. Reads no record, so it costs no store
        access and trips no device fault."""
        if key in self.cached_where:
            return "cached"
        if key in self.deferred_index:
            return "deferred"
        return "merkle" if key in self.store.index else None

    def host_value(self, key: BitKey, fetched: dict | None = None) -> Value | None:
        """The host's best view of a record: shadow if cached, else store
        (whose record itself is then kept in ``fetched``, when given)."""
        vid = self.cached_where.get(key)
        if vid is not None:
            return self.mirrors[vid].entries[key].value
        record = self.store.read_record(key)
        if fetched is not None:
            fetched[key] = record
        return record.value if record is not None else None

    @staticmethod
    def pointer_at(parent_value: Value | None, parent: BitKey,
                   child: BitKey) -> Pointer | None:
        """``parent``'s pointer at ``child``; None when the parent is not
        a Merkle node or that side of it points elsewhere. Callers compare
        the pointer's hash themselves — what a mismatch means differs."""
        if not isinstance(parent_value, MerkleValue):
            return None
        ptr = parent_value.pointer(child.direction_from(parent))
        return ptr if ptr is not None and ptr.key == child else None

    def _route(self, path: list[BitKey], begin: int = 0) -> tuple[int, int]:
        """(verifier id, index of first node to cache) for a lookup path.

        The chain starts at the highest partition anchor on the path (its
        owner's verifier) or at the pinned root (thread 0) when the path
        never crosses the partition boundary. ``begin`` skips the leading
        nodes a run already knows to hold no anchor.
        """
        for i in range(begin, len(path)):
            if path[i] in self.anchors:
                return self.anchors[path[i]], i
        return 0, 0

    # ==================================================================
    # Tier transitions: each move between cached / deferred / Merkle is
    # written once here, and only these touch the tier map
    # ==================================================================
    def _enter_cache(self, vid: int, key: BitKey, value: Value, via: str,
                     parent: BitKey | None, stamp: bool = True) -> None:
        """Host side of an admission: shadow the record in mirror ``vid``,
        note where it lives and (``stamp``) say so in its aux word — not
        for the pinned root, nor a record that leaves again at once."""
        entry = self.mirrors[vid].add(key, value, via, parent)
        self.cached_where[key] = vid
        if stamp:
            self.store.upsert(key, value, Aux.cached(vid, entry.slot).pack())

    def _make_room(self, vid: int, need: int, locked: set[BitKey]) -> None:
        mirror = self.mirrors[vid]
        while mirror.free < need:
            self._evict(vid, mirror.victims(locked, 1)[0])

    def _evict(self, vid: int, entry) -> None:
        """Return a cached record to the tier it came from. Anchors must
        stay in deferred state (the partitioning of §6.2 depends on it);
        everything else merkle-added goes back to merkle."""
        if entry.via == VIA_MERKLE and entry.key not in self.anchors:
            self._evict_to_merkle(vid, entry.key)
        else:
            self._evict_to_deferred(vid, entry.key)

    def _chain_in(self, key: BitKey, missing: str | None = None, result=None
                  ) -> tuple[int, BitKey, set[BitKey]]:
        """What every Merkle-tier move starts with: look ``key`` up (it
        must be FOUND, else ProtocolError worded by ``missing`` — unless
        the caller brings its own lookup ``result``), route to the verifier
        owning its partition and pull the ancestor chain into that cache,
        each node via the mode its aux dictates. Returns ``(verifier,
        terminal, locked)``; no eviction may touch ``locked`` (chain + key)
        until the move completes. In a run the walk resumes where the
        previous key's left the tree, and the chain starts below the nodes
        that key chained into the same cache."""
        run, fetched = self._run, {}
        if result is None:
            result = lookup(lambda node: self.host_value(node, fetched), key,
                            run[0] if run else None)
            if result.kind != FOUND:
                raise ProtocolError(missing.format(key=key))
        path, kept = result.path, result.kept
        # The kept prefix holds no anchor above the previous chain's start.
        vid, start = self._route(path, min(kept, run[1] or kept) if run else 0)
        locked = {key, *path}
        mirror = self.mirrors[vid]
        # path[start:kept] was chained into this cache for the previous key.
        # If only that key's own admission has ticked the LRU since and the
        # deepest shared node is still resident (so, parent before child, is
        # all of it), touching it again could only reorder those nodes
        # against their own descendants, never candidates while they are.
        resident = run and run[1] == start < kept and \
            mirror._tick == run[2] + 1 and path[kept - 1] in mirror
        for i in range(kept if resident else start, len(path)):
            node = path[i]
            if node in mirror:
                mirror.touch(node)
                continue
            record = self._record_of(node, fetched.get(node))
            if record is None:
                raise StoreError(f"chain node {node!r} missing from store")
            aux = Aux.unpack(record.aux)
            if aux.state is Protection.DEFERRED:
                self._admit_from_deferred(vid, node, record.value)
            elif aux.state is Protection.MERKLE:
                self._admit_merkle_child(vid, node, path[i - 1], locked,
                                         record.value)
            else:
                raise ProtocolError(
                    f"chain node {node!r} marked cached but absent from "
                    f"shadow {vid} (cross-cache conflict)")
        if run is not None:
            self._run = (result, start, mirror._tick)
        return vid, result.terminal, locked

    def _record_of(self, key: BitKey, seen):
        """The store record of a locked, uncached ``key`` in mid-move.
        ``seen``, the copy an earlier step read, is still the latest (the
        evictions since wrote only their victim's record and its parent's
        *cached* entry) and is handed on while the whole log is in memory;
        once pages live on the device every read goes back to the store,
        device accesses being what fault plans count (`HybridLog.get`)."""
        if seen is None or self.store.log.head_address:
            return self.store.read_record(key)
        return seen

    def _admit_from_deferred(self, vid: int, key: BitKey, value: Value) -> None:
        """Deferred → cached: pull the record into verifier ``vid``'s
        cache against its ``(ts, epoch)`` write-set entry."""
        ts, epoch = self.deferred_index[key]
        self._make_room(vid, 1, {key})
        self.logs[vid].append("add_deferred", key, value, ts, epoch)
        self.mirrors[vid].observe_add(ts)
        self._enter_cache(vid, key, value, VIA_DEFERRED, None)
        del self.deferred_index[key]
        COUNTERS.cache_misses += 1

    def _admit_merkle_child(self, vid: int, key: BitKey, parent: BitKey,
                            locked: set[BitKey], value: Value) -> None:
        """Merkle → cached, one link: the parent is already in the cache
        and the verifier checks ``H(value)`` against its pointer (both are
        in ``locked``, the chain-in's one set)."""
        self._make_room(vid, 1, locked)
        self.logs[vid].append("add_merkle", key, value, parent)
        # `_enter_cache`, inline: this runs once per admitted chain node.
        entry = self.mirrors[vid].add(key, value, VIA_MERKLE, parent)
        self.cached_where[key] = vid
        self.store.upsert(key, value, Aux.cached(vid, entry.slot).pack())
        COUNTERS.cache_misses += 1

    def _admit_from_merkle(self, key: BitKey, missing: str, record=None) -> int:
        """Merkle → cached through the record's whole chain; returns the
        verifier now holding it. ``missing`` words the error for a key the
        tree no longer reaches; ``record`` is the key's store record when
        the caller has just read it (no chain-in writes an uncached key)."""
        vid, terminal, locked = self._chain_in(key, missing)
        self._admit_merkle_child(vid, key, terminal, locked,
                                 self._record_of(key, record).value)
        return vid

    def _reapply_to_merkle(self, key: BitKey, missing: str) -> None:
        """Deferred → Merkle (§6.3): chain in, add the record against its
        write-set entry *as a child of its tree parent*, and evict it at
        once so the parent's hash absorbs the current value (cached only
        between two log entries, so its aux word never says so)."""
        ts, epoch = self.deferred_index[key]
        vid, terminal, locked = self._chain_in(key, missing)
        value = self.store.read_record(key).value
        self._make_room(vid, 1, locked)
        self.logs[vid].append("add_deferred", key, value, ts, epoch)
        self.mirrors[vid].observe_add(ts)
        self._enter_cache(vid, key, value, VIA_MERKLE, terminal, stamp=False)
        del self.deferred_index[key]
        self._evict_to_merkle(vid, key)

    def _evict_to_deferred(self, vid: int, key: BitKey) -> None:
        """Cached → deferred, under the ``(ts, epoch)`` the host predicts."""
        mirror = self.mirrors[vid]
        entry = mirror.remove(key)
        ts = mirror.predict_evict()
        epoch = self.current_epoch
        self.logs[vid].append("evict_deferred", key)
        self._expected_evicts[vid].append((ts, epoch))
        del self.cached_where[key]
        self.deferred_index[key] = (ts, epoch)
        self.store.upsert(key, entry.value, Aux.deferred(ts, epoch).pack())

    def _evict_to_merkle(self, vid: int, key: BitKey) -> None:
        """Cached → Merkle (parent cached)."""
        mirror = self.mirrors[vid]
        entry = mirror.entries[key]
        parent_key = entry.parent_key
        if parent_key is None:
            raise ProtocolError(f"{key!r} has no mirrored parent; cannot "
                                f"evict to merkle")
        mirror.remove(key)
        self.logs[vid].append("evict_merkle", key, parent_key)
        del self.cached_where[key]
        self.store.upsert(key, entry.value, Aux.merkle().pack())
        # Mirror the verifier's lazy parent update (§4.3.1) — `pointer_at`
        # inline, because this runs once per evicted chain node.
        parent = mirror.entries[parent_key]
        side = key.direction_from(parent_key)
        ptr = parent.value.pointer(side)
        if ptr is None or ptr.key != key:
            raise ProtocolError(f"shadow parent {parent_key!r} does not "
                                f"point at {key!r}")
        new_hash = host_value_hash(entry.value)
        parent.value = parent.value.with_pointer(side, ptr.with_hash(new_hash))

    # ==================================================================
    # Receipt plumbing
    # ==================================================================
    def _drain_all(self) -> None:
        """Flush all logs, deliver receipts to clients, audit predictions."""
        for vid, log in enumerate(self.logs):
            expected = self._expected_evicts[vid]
            for result in log.drain():
                if isinstance(result, OpReceipt):
                    # Untrusted transport; the client's accept() checks.
                    client = self.clients.get(result.client_id)
                    if client is not None:
                        self.receipt_channel.deliver(result, client)
                elif isinstance(result, tuple) and len(result) == 2:
                    if not expected:
                        raise ProtocolError(
                            f"verifier {vid} returned an unpredicted evict"
                        )
                    predicted = expected.popleft()
                    if predicted != result:
                        raise ProtocolError(
                            f"clock mirror drift on verifier {vid}: "
                            f"predicted {predicted}, verifier says {result}"
                        )
        # A "reordered" receipt is merely withheld; acceptance is
        # order-insensitive, so delivering stragglers last is the whole
        # attack, and it lands harmlessly here.
        self.receipt_channel.flush_held()

    # ==================================================================
    # Public API
    # ==================================================================
    def get(self, client: Client, key: int | bytes, worker: int = 0) -> OpResult:
        """Validated read. Returns the payload (None if absent/deleted)."""
        bk = self.data_key(key)
        nonce = client.next_nonce()
        payload = self._data_op(worker, client, bk, "get", nonce=nonce)
        self._after_op()
        return OpResult(payload, nonce, worker)

    def put(self, client: Client, key: int | bytes, payload: bytes | None,
            worker: int = 0) -> OpResult:
        """Authorized write (``payload=None`` deletes). Returns the nonce."""
        bk = self.data_key(key)
        request = client.make_put(bk, payload)
        self._data_op(worker, client, bk, "put", nonce=request.nonce,
                      payload=payload, tag=request.tag)
        self._after_op()
        return OpResult(payload, request.nonce, worker)

    def apply_get(self, client: Client, request, worker: int = 0) -> OpResult:
        """Execute a pre-made :class:`~repro.core.protocol.GetRequest`.

        The serving layer builds requests client-side (nonce drawn at
        request-construction time) so a retry can be deduplicated by nonce
        instead of re-drawing; this entry point applies such a request.
        """
        payload = self._data_op(worker, client, request.key, "get",
                                nonce=request.nonce)
        self._after_op()
        return OpResult(payload, request.nonce, worker)

    def apply_put(self, client: Client, request, worker: int = 0) -> OpResult:
        """Execute a pre-made :class:`~repro.core.protocol.PutRequest`
        (client-authorized nonce + MAC travel with the request)."""
        self._data_op(worker, client, request.key, "put",
                      nonce=request.nonce, payload=request.payload,
                      tag=request.tag)
        self._after_op()
        return OpResult(request.payload, request.nonce, worker)

    # ==================================================================
    # Group-commit batching (the serving loop's crossing amortizer)
    # ==================================================================
    def apply_batch(self, ops: list[tuple]) -> list[BatchOpOutcome]:
        """Execute many pre-made requests under ONE enclave crossing.

        ``ops`` is a list of ``(client, request, kind, worker)`` tuples
        (``client`` may be None for an unregistered sender — that op fails
        alone). Host-side staging runs the normal per-op engine, which
        buffers verifier entries instead of crossing; then a single
        multi-shard ``apply_batch`` ecall settles everything and receipts
        drain with zero further crossings.

        Failure semantics (see PROTOCOL.md "Batched execution & group
        commit"):

        * a client-attributable rejection (bad MAC, replayed nonce) on an
          op that only *updated* existing state is **isolated**: its
          validate entry is dropped, the host store is compensated back to
          the pre-op value (keeping the already-applied add/evict pair
          balanced in the set hashes), and only that op's outcome carries
          the error — the rest of the batch re-flushes and commits;
        * a rejection on an op that changed tree *structure* (insert
          extend/split), or that collides on a key with a later op in the
          same batch, voids the batch with :class:`BatchAbortedError` (an
          availability error: the server degrades, heals, and clients
          resolve through the idempotency table);
        * an enclave reboot or gate exhaustion reinstates every
          undispatched entry and propagates, exactly like a log flush.

        The epoch close driven by ``config.batch_ops`` lands on the batch
        boundary — never between two ops of one batch.
        """
        if not ops:
            return []
        # Entries buffered by non-batched entry points flush under their
        # own crossing first, so entry->op ownership starts from empty
        # buffers.
        for log in self.logs:
            if log.pending:
                log.flush()
        width = self.config.key_width
        results: list[BatchOpOutcome] = []
        owners_by_vid: dict[int, list] = {vid: [] for vid in range(len(self.logs))}
        #: Per-op compensation record: (mode, key, pre-op value) where mode
        #: is "skip" (never staged), "none" (absence proof only), "value"
        #: (store value restore), "cached" (mirror + store restore), or
        #: "insert" (not compensatable -> batch abort).
        comp: list[tuple] = []
        staged = 0
        for i, (client, request, kind, worker) in enumerate(ops):
            if client is None:
                results.append(BatchOpOutcome(
                    None, request.nonce, worker, ProtocolError(
                        f"request from unregistered client "
                        f"{request.client_id}")))
                comp.append(("skip", None, None))
                continue
            if kind not in ("get", "put"):
                results.append(BatchOpOutcome(
                    None, request.nonce, worker,
                    ProtocolError(f"unknown request kind {kind!r}")))
                comp.append(("skip", None, None))
                continue
            key = request.key
            pre = self.store.read_record(key)
            pre_value = pre.value if pre is not None else None
            try:
                if kind == "get":
                    payload = self._data_op(worker, client, key, "get",
                                            nonce=request.nonce)
                else:
                    payload = self._data_op(worker, client, key, "put",
                                            nonce=request.nonce,
                                            payload=request.payload,
                                            tag=request.tag)
            except AvailabilityError:
                raise  # gate down mid-staging: the whole batch resolves
                       # through recovery, like any availability failure
            except Exception as exc:
                # Host-side rejection. If it staged nothing it fails
                # alone; a half-staged op cannot be unstitched, so it
                # voids the batch (recovery discards the buffers).
                before = sum(len(o) for o in owners_by_vid.values())
                self._sync_owners(owners_by_vid, i)
                if sum(len(o) for o in owners_by_vid.values()) != before:
                    raise
                results.append(BatchOpOutcome(None, request.nonce, worker, exc))
                comp.append(("skip", None, None))
                continue
            if pre is None:
                mode = "none" if self.store.read_record(key) is None \
                    else "insert"
            elif key in self.cached_where and key.length == width:
                mode = "cached"
            else:
                mode = "value"
            comp.append((mode, key, pre_value))
            results.append(BatchOpOutcome(payload, request.nonce, worker))
            staged += 1
            COUNTERS.ops += 1
            self.ops_since_close += 1
            self._sync_owners(owners_by_vid, i)
        if self.faults is not None:
            eligible = [i for i, c in enumerate(comp)
                        if c[0] == "value" and ops[i][2] == "put"
                        and results[i].error is None]
            if eligible and self.faults.fire("batch.partial"):
                self._poison_staged_put(owners_by_vid, eligible[-1])
        ecalls = self._group_flush(ops, owners_by_vid, comp, results)
        COUNTERS.batches += 1
        COUNTERS.batch_ops_total += staged
        COUNTERS.crossings_saved += max(0, staged - ecalls)
        self._drain_all()
        if (self.config.batch_ops is not None
                and self.ops_since_close >= self.config.batch_ops):
            self.verify()  # epoch closes on the batch boundary (§8.1)
        return results

    def _sync_owners(self, owners_by_vid: dict[int, list], op_index: int) -> None:
        """Attribute newly-buffered log entries to ``op_index``.

        A capacity auto-flush inside staging dispatches the buffer's
        *front*; dropping the same prefix from the owner list keeps the
        remaining suffix aligned."""
        for vid, log in enumerate(self.logs):
            owners = owners_by_vid[vid]
            cur = log.pending
            if cur < len(owners):
                del owners[:len(owners) - cur]
            while len(owners) < cur:
                owners.append(op_index)

    def _poison_staged_put(self, owners_by_vid: dict[int, list],
                           target: int) -> bool:
        """`batch.partial` fault body: corrupt the client MAC of one
        staged update-class put so the enclave genuinely rejects exactly
        that entry and the isolation path runs end to end."""
        for vid, log in enumerate(self.logs):
            owners = owners_by_vid[vid]
            for pos, owner in enumerate(owners):
                if owner != target:
                    continue
                method, args = log._buffer[pos]
                if method != "validate_put_update":
                    continue
                client_id, key, payload, nonce, tag = args
                bad = bytes([tag[0] ^ 0x01]) + tag[1:]
                log._buffer[pos] = (method,
                                    (client_id, key, payload, nonce, bad))
                return True
        return False

    @staticmethod
    def _key_conflict(comp: list[tuple], op_idx: int) -> bool:
        """A later op in the batch staged entries embedding this key's
        post-op value; dropping the failed validate would falsify them."""
        key = comp[op_idx][1]
        for j in range(op_idx + 1, len(comp)):
            if comp[j][0] != "skip" and comp[j][1] == key:
                return True
        return False

    def _compensate(self, record: tuple) -> None:
        """Undo the host-visible effect of a poisoned (rejected) op: the
        verifier evicted the *old* value, so the host store (and mirror,
        for a retained record) must say the old value too — that keeps the
        already-applied add/evict pair balanced in the set hashes."""
        mode, key, old_value = record
        if mode == "none":
            return
        if mode == "cached":
            vid = self.cached_where.get(key)
            if vid is not None and key in self.mirrors[vid].entries:
                self.mirrors[vid].entries[key].value = old_value
        current = self.store.read_record(key)
        if current is not None and old_value is not None:
            self.store.upsert(key, old_value, current.aux)

    def _group_flush(self, ops: list[tuple], owners_by_vid: dict[int, list],
                     comp: list[tuple],
                     results: list[BatchOpOutcome]) -> int:
        """Settle every buffered shard in one ``apply_batch`` crossing
        (re-crossing only to finish a partially-failed batch). Returns the
        number of crossings spent."""
        pending: list[list] = []
        for vid, log in enumerate(self.logs):
            if log.pending:
                entries = log.take_pending()
                owners = owners_by_vid.get(vid) or []
                if len(owners) != len(entries):
                    owners = [None] * len(entries)
                pending.append([vid, entries, owners])
                log.flushes += 1
        ecalls = 0
        guard = len(ops) + 2
        while pending:
            guard -= 1
            shards = [(vid, entries) for vid, entries, _ in pending]
            ecalls += 1
            TRACER.record("ecall", self._sim_now(), None,
                          method="apply_batch", shards=len(shards),
                          entries=sum(len(e) for _, e in shards))
            try:
                shard_results, failure = self._ecall("apply_batch", shards)
            except Exception:
                # Reboot, gate exhaustion, or a structural integrity
                # alarm: reinstate everything undispatched (losing buffered
                # entries would silently unbalance the set hashes) and let
                # the typed error drive recovery.
                for vid, entries, _ in pending:
                    self.logs[vid].reinstate(entries)
                raise
            # Shards before the failure point completed; the failing shard
            # executed a prefix. Absorb exactly what ran.
            for (vid, entries, _), res in zip(pending, shard_results):
                self.logs[vid].absorb(res)
            if failure is None:
                return ecalls
            si, ei, exc = failure
            vid, entries, owners = pending[si]
            op_idx = owners[ei]
            tail_entries = entries[ei + 1:]
            tail_owners = owners[ei + 1:]
            rest = pending[si + 1:]
            mode = comp[op_idx][0] if op_idx is not None else None
            isolatable = (
                op_idx is not None and guard > 0
                and entries[ei][0].startswith("validate_")
                and mode in ("none", "value", "cached")
                and results[op_idx].error is None
                and not self._key_conflict(comp, op_idx)
            )
            if not isolatable:
                self.logs[vid].reinstate(tail_entries)
                for v2, e2, _ in rest:
                    self.logs[v2].reinstate(e2)
                raise BatchAbortedError(
                    f"group-commit batch voided: failing entry "
                    f"{entries[ei][0]!r} cannot be isolated "
                    f"({type(exc).__name__}: {exc})") from exc
            # Drop the poisoned validate, compensate the host, fail the op
            # alone, and re-flush the undispatched remainder. Validations
            # never advance the verifier clock, so every later evict
            # prediction still holds.
            self._compensate(comp[op_idx])
            results[op_idx] = BatchOpOutcome(
                None, results[op_idx].nonce, results[op_idx].worker, exc)
            pending = ([[vid, tail_entries, tail_owners]]
                       if tail_entries else []) + rest
        return ecalls

    def scan(self, client: Client, start_key: int | bytes, count: int,
             worker: int = 0) -> list[tuple[int, bytes]]:
        """Ordered scan: per-key validated reads over the key directory
        (§8.1: scans are not atomic; per-key rate is what is measured)."""
        start = self.data_key(start_key)
        out: list[tuple[int, bytes]] = []
        self._run = ()      # ascending keys: one run (a close inside ends it)
        try:
            for bk in self.store.directory.range_from(start, count):
                nonce = client.next_nonce()
                payload = self._data_op(worker, client, bk, "get", nonce=nonce)
                self._after_op()
                if payload is not None:
                    out.append((bk.bits, payload))
        finally:
            self._run = None
        return out

    def flush(self) -> None:
        """Flush all verification logs and deliver pending receipts."""
        self._drain_all()

    def verify(self) -> VerifyReport:
        """Close the current epoch: sorted Merkle re-application, anchor
        migration, aggregated set-hash check, epoch receipts (§6.3, §5.3)."""
        self._drain_all()
        closing = self._ecall("start_epoch_close")
        if closing != self.current_epoch:
            raise ProtocolError("epoch mirror drift")
        self.current_epoch += 1
        width = self.config.key_width

        # 1. Sorted Merkle updates (§6.3): every deferred *data* record that
        # is not itself a partition anchor returns to Merkle protection.
        data_keys = [k for k in self.deferred_index
                     if k.length == width and k not in self.anchors]
        if self.config.sorted_merkle_updates:
            data_keys.sort()
        self._run = ()      # one run: sorted, consecutive keys share chains
        try:
            for key in data_keys:
                self._reapply_to_merkle(
                    key, "deferred record {key!r} fell out of the tree")
        finally:
            self._run = None

        # 2. Anchor migration: deferred anchors tagged <= closing move to
        # the new epoch (cache-resident anchors are ignored, §5.2).
        migrated_anchors = 0
        for anchor in sorted(self.anchors):
            if anchor in self.cached_where:
                continue
            ts, epoch = self.deferred_index[anchor]
            if epoch > closing:
                continue
            vid = self.anchors[anchor]
            record = self.store.read_record(anchor)
            self._admit_from_deferred(vid, anchor, record.value)
            self._evict_to_deferred(vid, anchor)
            migrated_anchors += 1

        self._drain_all()
        receipts = self._ecall("finish_epoch_close", closing)
        TRACER.record("ecall", self._sim_now(), None,
                      method="epoch_close", epoch=closing,
                      receipts=len(receipts))
        for client_id, receipt in receipts.items():
            client = self.clients.get(client_id)
            if client is not None:
                self.receipt_channel.deliver(receipt, client)
        self.receipt_channel.flush_held()
        self.ops_since_close = 0
        return VerifyReport(closing, len(data_keys), migrated_anchors, receipts)

    # ==================================================================
    # The operation engine
    # ==================================================================
    def _after_op(self) -> None:
        COUNTERS.ops += 1
        self.ops_since_close += 1
        if (self.config.batch_ops is not None
                and self.ops_since_close >= self.config.batch_ops):
            self.verify()

    def _data_op(self, worker: int, client: Client, key: BitKey, kind: str,
                 nonce: int, payload: bytes | None = None,
                 tag: bytes | None = None) -> bytes | None:
        """One validated get/put on a data key; returns the result payload."""
        for _attempt in range(64):
            vid_cached = self.cached_where.get(key)
            if vid_cached is not None:
                if self.config.cache_hot_records and key.length == \
                        self.config.key_width:
                    # §6.1 top tier: the record is verifier-resident —
                    # validate directly, no hashing, no set updates.
                    return self._cached_op(vid_cached, client, key, kind,
                                           nonce, payload, tag)
                # Otherwise (e.g., a singleton-anchor data key caught
                # mid-migration): evict to deferred and retry warm.
                self._evict_to_deferred(vid_cached, key)
                continue
            record = self.store.read_record(key)
            if record is None:
                return self._absent_op(worker, client, key, kind, nonce,
                                       payload, tag)
            aux = Aux.unpack(record.aux)
            if aux.state is Protection.DEFERRED:
                done = self._warm_op(worker, client, key, record, aux, kind,
                                     nonce, payload, tag)
                if done is not None:
                    return done[0]
                continue  # CAS lost; retry
            if aux.state is Protection.MERKLE:
                return self._cold_op(worker, client, key, record, kind,
                                     nonce, payload, tag)
            raise ProtocolError(f"aux says CACHED but host lost track of {key!r}")
        raise ProtocolError(f"operation on {key!r} starved after 64 CAS retries")

    def _cached_op(self, vid: int, client: Client, key: BitKey, kind: str,
                   nonce: int, payload: bytes | None,
                   tag: bytes | None) -> bytes | None:
        """Cache-hit path: the record is inside verifier ``vid``'s cache.

        Zero hash computations, zero multiset updates, zero store CAS —
        exactly the §6.1 claim for the hierarchy's top tier. Only the
        validation (MAC + nonce) crosses the log.
        """
        entry = self.mirrors[vid].touch(key)
        COUNTERS.cache_hits += 1
        self._validate(self.logs[vid], client, key, kind, nonce, payload, tag)
        if kind == "get":
            return entry.value.payload
        entry.value = DataValue(payload)
        return payload

    def _validate(self, log: VerificationLog, client: Client, key: BitKey,
                  kind: str, nonce: int, payload: bytes | None,
                  tag: bytes | None) -> None:
        """Append the validate entry for a get or an update of a record
        that is in the verifier's cache at that point of the log."""
        if kind == "get":
            log.append("validate_get", client.client_id, key, nonce)
        else:
            log.append("validate_put_update", client.client_id, key, payload,
                       nonce, tag)

    def _warm_op(self, worker: int, client: Client, key: BitKey, record,
                 aux: Aux, kind: str, nonce: int, payload: bytes | None,
                 tag: bytes | None):
        """Deferred-state fast path (§7 worker inner loop)."""
        mirror = self.mirrors[worker]
        # Reserve a slot for the transient add/validate/evict triple first:
        # any victim evictions must precede this op in both the log and the
        # clock-prediction stream. The freelist round-trips across the
        # triple, so slot mirroring stays aligned.
        self._make_room(worker, 1, {key})
        old_value = record.value
        new_value = old_value if kind == "get" else DataValue(payload)
        result = old_value.payload if kind == "get" else payload
        log = self.logs[worker]
        if self.config.cache_hot_records:
            # Admit and *retain*: the record climbs to the hierarchy's top
            # tier; no evict, no write-set entry, no CAS race window (the
            # admission itself moves the record out of deferred state).
            mirror.observe_add(aux.timestamp)
            log.append("add_deferred", key, old_value, aux.timestamp,
                       aux.epoch)
            self._validate(log, client, key, kind, nonce, payload, tag)
            self._enter_cache(worker, key, new_value, VIA_DEFERRED, None)
            self.deferred_index.pop(key, None)
            return (result,)
        ts_pred = max(mirror.clock, aux.timestamp) + 1
        new_aux = Aux.deferred(ts_pred, self.current_epoch)
        if not self.store.try_cas(key, old_value, record.aux,
                                  new_value, new_aux.pack()):
            return None  # lost the race (§5.3 Example 5.2): caller retries
        mirror.observe_add(aux.timestamp)
        confirmed = mirror.predict_evict()
        if confirmed != ts_pred:
            raise ProtocolError("clock mirror drift in warm path")
        log.append("add_deferred", key, old_value, aux.timestamp, aux.epoch)
        self._validate(log, client, key, kind, nonce, payload, tag)
        log.append("evict_deferred", key)
        self._expected_evicts[worker].append((ts_pred, self.current_epoch))
        self.deferred_index[key] = (ts_pred, self.current_epoch)
        COUNTERS.cache_hits += 1  # no Merkle work: the deferred fast path
        return (result,)

    def _cold_op(self, worker: int, client: Client, key: BitKey, record,
                 kind: str, nonce: int, payload: bytes | None,
                 tag: bytes | None) -> bytes | None:
        """Merkle-state slow path: chain in, validate, evict to deferred."""
        vid = self._admit_from_merkle(
            key, "aux says MERKLE but {key!r} not in tree", record)
        entry = self.mirrors[vid].entries[key]
        self._validate(self.logs[vid], client, key, kind, nonce, payload, tag)
        if kind == "get":
            out = entry.value.payload
        else:
            entry.value = DataValue(payload)
            out = payload
        if self.config.cache_hot_records:
            return out  # retain: first touch already promotes to cached
        self._evict_to_deferred(vid, key)
        return out

    def _absent_op(self, worker: int, client: Client, key: BitKey, kind: str,
                   nonce: int, payload: bytes | None,
                   tag: bytes | None) -> bytes | None:
        """The key is not in the tree: prove absence, or insert (§4.2)."""
        result = lookup(self.host_value, key)
        if result.kind == FOUND:
            raise ProtocolError(f"store lost record {key!r} that the tree has")
        vid, terminal, locked = self._chain_in(key, result=result)
        log = self.logs[vid]
        if kind == "get" or payload is None:
            # A read — or the delete of an absent key: prove absence
            # instead of inserting.
            log.append("validate_get_absent", client.client_id, key,
                       terminal, nonce)
            return None
        # Insert. ``child`` is what the terminal points at afterwards: the
        # new leaf itself where that side was empty (ABSENT_NULL), else a
        # new internal node at lca(key, bypass) holding the leaf and the
        # terminal's old pointer.
        split = result.kind != ABSENT_NULL
        self._make_room(vid, 2 if split else 1, locked)
        log.append("validate_put_split" if split else "validate_put_extend",
                   client.client_id, key, payload, nonce, tag, terminal)
        mirror = self.mirrors[vid]
        leaf_value = DataValue(payload)
        term_entry = mirror.entries[terminal]
        side = key.direction_from(terminal)
        child, child_value = key, leaf_value
        if split:
            bypass = result.bypass
            child = key.lca(bypass)
            child_value = MerkleValue().with_pointer(
                bypass.direction_from(child), term_entry.value.pointer(side))
            child_value = child_value.with_pointer(
                key.direction_from(child),
                Pointer(key, host_value_hash(leaf_value)))
            self._enter_cache(vid, child, child_value, VIA_MERKLE, terminal)
        self._enter_cache(vid, key, leaf_value, VIA_MERKLE,
                          child if split else terminal)
        # Mirror the verifier's pointer write at the terminal.
        term_entry.value = term_entry.value.with_pointer(
            side, Pointer(child, host_value_hash(child_value)))
        if split:
            mirror.reparent(bypass, child)
        self._evict_to_deferred(vid, key)
        return payload

    # ==================================================================
    # Durability (§7): epoch-synchronized checkpoint and recovery
    # ==================================================================
    def checkpoint(self) -> "FastVerCheckpoint":
        """Take a durable checkpoint: CPR-flush the store, seal the
        verifier state. Call at a quiescent point (ideally right after
        ``verify()``, aligning with the paper's epoch-synchronized CPR)."""
        self._drain_all()
        if any(self._expected_evicts):
            raise ProtocolError("checkpoint with unconfirmed predictions")
        self._ckpt_version += 1
        from repro.store.checkpoint import take_checkpoint
        token = take_checkpoint(self.store, self._ckpt_version,
                                faults=self.faults)
        blob = self._ecall("checkpoint_state")
        ckpt = FastVerCheckpoint(
            version=self._ckpt_version,
            store_token=token,
            verifier_blob=blob,
            anchors=dict(self.anchors),
        )
        self.last_checkpoint = ckpt
        return ckpt

    def recover(self, checkpoint: "FastVerCheckpoint") -> None:
        """Rebuild all volatile state after a crash/reboot from a
        checkpoint. The enclave detects rollback (an old checkpoint) via
        its sealed slot; the untrusted side is rebuilt from the store's
        aux words and the verifier's (non-confidential) cache dump.

        Safe to call after *any* availability error, including a surprise
        enclave reboot mid-epoch: the sealed slot survives reboots, so
        restoring the latest verifier blob passes the rollback check and
        the interrupted epoch's unsettled operations are simply re-run.
        Transient failures during recovery itself (the gate or the device
        flaking *again*) restart the whole sequence a bounded number of
        times — each attempt begins with a fresh enclave reboot, so
        partial attempts cannot leave mixed state behind.
        """
        last_exc: Exception | None = None
        for _attempt in range(self._ecall_backoff.max_attempts):
            try:
                self._recover_once(checkpoint)
                self.last_checkpoint = checkpoint
                return
            except EnclaveDeadError as exc:
                # Torn down, not rebooted: this instance can never come
                # back, so restore-in-place is hopeless. Typed as a
                # RecoveryError so the supervisor falls through to the
                # next rung (salvage re-provisions a fresh enclave).
                raise RecoveryError(
                    "enclave instance is destroyed; restore-in-place is "
                    "impossible") from exc
            except (EnclaveUnavailableError, TransientIOError) as exc:
                last_exc = exc
                COUNTERS.ecall_retries += 1
        raise last_exc

    def _recover_once(self, checkpoint: "FastVerCheckpoint") -> None:
        from repro.store.checkpoint import recover as store_recover, rot_blob_at_rest
        # The retained token sat on untrusted storage since it was taken;
        # consulting it is when rot-at-rest becomes observable.
        rot_blob_at_rest(checkpoint.store_token, self.faults)
        # Rebuild the untrusted store first: if the device cannot serve
        # this token (RecoveryError), fail before touching enclave state.
        pages, auxes = [], []  # what that scan saw: this call's, no longer
        store = store_recover(checkpoint.store_token, self.store.log.device,
                              pages, auxes)
        self.enclave.reboot()
        # Register clients before restoring state so the restored nonce
        # high-water marks land on registered entries (anti-replay burn).
        for client in self.clients.values():
            self.enclave.ecall("register_client", client.client_id,
                               client.key.key_bytes())
        self.enclave.ecall("restore_state", checkpoint.verifier_blob)
        self.store = store
        self.receipt_channel.reset()
        self.current_epoch = self.enclave.ecall("current_epoch")
        self.anchors = dict(checkpoint.anchors)
        deferred: dict[BitKey, tuple[int, int]] = {}
        try:
            for key, aux_word in store.aux_words(pages, auxes):
                state = aux_word >> 62  # Aux.pack's Protection bits
                if state == 1:  # Protection.DEFERRED, tested without the enum
                    aux = Aux.unpack(aux_word)
                    deferred[key] = (aux.timestamp, aux.epoch)
                elif state == 3:
                    raise RecoveryError(f"store scan during recovery hit a corrupt "
                                        f"aux word 0x{aux_word:016x} at {key!r}")
        except IntegrityError as exc:
            # Rot can strike a page *between* the store rebuild's validation
            # scan and this one — the device fires per read. During recovery
            # an unreadable page means this token cannot restore service, so
            # it is typed exactly like the store-side scan types it: a
            # RecoveryError that sends the heal ladder on to salvage.
            raise RecoveryError(
                f"store scan during recovery hit a corrupt page: "
                f"{exc}") from exc
        self._reset_host_state()
        self.deferred_index = deferred
        # Rebuild mirrors from the enclave's cache dumps; entries re-add in
        # the same order the verifier re-added them at restore, so slot
        # numbering realigns automatically.
        clocks = self.enclave.ecall("clocks")
        for vid, mirror in enumerate(self.mirrors):
            mirror.clock = clocks[vid]
            for key, value in self.enclave.ecall("dump_cache", vid):
                self._enter_cache(
                    vid, key, value,
                    VIA_PINNED if key.is_root else VIA_DEFERRED, None,
                    stamp=False)
        # Recompute merkle parent links for cached merkle records so LRU
        # evictions pick the right mode again.
        width = self.config.key_width
        for vid, mirror in enumerate(self.mirrors):
            for key, entry in mirror.entries.items():
                if key.is_root or key in self.anchors:
                    continue
                if not isinstance(entry.value, MerkleValue) and \
                        key.length != width:
                    continue
                parent = self._find_cached_parent(mirror, key)
                if parent is not None:
                    mirror.adopt_merkle_parent(key, parent)

    @staticmethod
    def _find_cached_parent(mirror: VerifierMirror, key: BitKey) -> BitKey | None:
        """The cached ancestor whose pointer targets ``key``, if any.

        The tree parent is unique and a proper prefix of ``key``, so probing
        the prefixes costs at most ``key.length`` dict hits per entry.
        """
        entries = mirror.entries
        for length in range(key.length - 1, -1, -1):
            candidate = key.prefix(length)
            entry = entries.get(candidate)
            if entry is not None and FastVer.pointer_at(
                    entry.value, candidate, key) is not None:
                return candidate
        return None

    # ==================================================================
    # Verified record-level repair (repro.scrub)
    # ==================================================================
    def repair_record(self, key: BitKey, candidate: Value,
                      host_prevet: bool = True) -> str:
        """Patch one corrupted store record with ``candidate`` and re-vet
        it against the verifier's authenticated state. Returns the tier
        the repair resolved in (``"cached"``/``"deferred"``/``"merkle"``).

        The candidate is an *untrusted courier's* copy — a standby's
        committed view, the retained shipped tail, the server's durable
        read cache — so nothing about its provenance is trusted:

        * a **cached** record needs no candidate at all: the enclave's own
          cache holds the value (the host mirror shadows it), and the
          store copy is superseded by re-upserting the mirrored value;
        * a **deferred** record takes the candidate with its existing
          ``(ts, epoch)`` aux word; individual deferred values are
          unverifiable by design, so the vetting completes in aggregate at
          the next epoch close — a forged candidate lands as
          ``SetHashMismatchError`` there, exactly like any other deferred
          tampering;
        * a **merkle** record is re-vetted *immediately*: the candidate is
          installed and then pulled through the normal cold path (chain
          cache → ``add_merkle`` → evict), so the enclave checks
          ``H(candidate)`` against the parent hash it authenticated down
          from the pinned root. A forged candidate raises
          :class:`RepairForgeryError` from exactly the check that would
          have caught the host serving the forgery directly.

        ``host_prevet`` runs the same hash checks host-side *first*, so an
        honest repair against a still-dirty ancestor chain fails with a
        retryable :class:`RepairFailedError` *before* any enclave state is
        touched (an enclave-side rejection mid-chain would poison the
        session and force a whole-store restore). A byzantine host can
        skip its own pre-vet — the enclave gate behind it is the one that
        is load-bearing, which is what the red-team campaign drives.
        """
        tier = self.tier_of(key)
        if tier == "cached":
            vid = self.cached_where[key]
            entry = self.mirrors[vid].entries[key]
            self.store.upsert(key, entry.value,
                              Aux.cached(vid, entry.slot).pack())
            return tier
        if candidate is None:
            raise RepairFailedError(
                f"no repair candidate for {tier} record {key!r}")
        if tier == "deferred":
            ts, epoch = self.deferred_index[key]
            self.store.upsert(key, candidate, Aux.deferred(ts, epoch).pack())
            return tier
        # The merkle re-vet enters the enclave, and the flush it triggers
        # would carry whatever earlier operations are still buffered.
        # Drain that backlog first so the repair session starts clean: an
        # alarm raised here belongs to the *backlog* (a genuine detection,
        # possibly leaving a half-executed batch behind it), not to the
        # repair candidate, and the only sound continuation is recovery —
        # so it propagates as the IntegrityError it is.
        self._drain_all()
        # Merkle tier. Install the candidate first: the current version
        # may not even decode, and every later step reads through the
        # store. A candidate that then fails vetting stays installed but
        # *detected* — the page remains quarantined and any client access
        # trips the same add_merkle alarm, so nothing settles on it.
        self.store.upsert(key, candidate, Aux.merkle().pack())
        result = lookup(self.host_value, key)
        if result.kind != FOUND:
            raise RepairFailedError(
                f"record {key!r} fell out of the host tree; record-level "
                f"repair cannot re-insert it")
        if host_prevet:
            self._prevet_repair(result, key, candidate)
        # No IntegrityError wrapping around the chain caching: the host
        # pre-vet above already turned honest dirty-ancestor cases into a
        # retryable RepairFailedError *before* any enclave state was
        # touched. If the enclave still alarms on the chain, host and
        # verifier genuinely disagree — the session is poisoned mid-batch
        # and retrying in place would drift the clock mirror, so the
        # alarm propagates and the caller's heal path resynchronizes.
        vid, terminal, locked = self._chain_in(key, result=result)
        self._drain_all()
        try:
            self._admit_merkle_child(vid, key, terminal, locked,
                                     self.store.read_record(key).value)
            self._evict_to_deferred(vid, key)
            self._drain_all()
        except IntegrityError as exc:
            raise RepairForgeryError(
                f"repair candidate for {key!r} failed the enclave's "
                f"re-vetting against the authenticated parent hash "
                f"({type(exc).__name__}: {exc})") from exc
        return "merkle"

    def _prevet_repair(self, result, key: BitKey, candidate: Value) -> None:
        """Host-side twin of the enclave checks a merkle repair will hit:
        walk the chain the cold path will cache and hash-match each
        evicted merkle node against its parent's pointer, then the
        candidate against the terminal. Anchors and deferred/cached nodes
        are skipped — they are added without a hash check (their parents'
        pointer hashes are legitimately stale), mirroring ``_chain_in``.
        """
        path = result.path
        _, start = self._route(path)
        for parent, node in zip(path[start:], path[start + 1:]):
            if self.tier_of(node) != "merkle":
                continue
            ptr = self.pointer_at(self.host_value(parent), parent, node)
            if ptr is None:
                raise RepairFailedError(
                    f"chain node {parent!r} no longer points at "
                    f"{node!r}; an ancestor is corrupt")
            if host_value_hash(self.host_value(node)) != ptr.hash:
                raise RepairFailedError(
                    f"ancestor {node!r} of {key!r} is itself corrupt; "
                    f"repair it before this record")
        ptr = self.pointer_at(self.host_value(result.terminal),
                              result.terminal, key)
        if ptr is None:
            raise RepairFailedError(
                f"terminal {result.terminal!r} no longer points at {key!r}")
        if host_value_hash(candidate) != ptr.hash:
            raise RepairForgeryError(
                f"repair candidate for {key!r} does not hash-match the "
                f"authenticated parent pointer; refusing to install a "
                f"fork as a repair")

    # ==================================================================
    # Replication support (repro.replication)
    # ==================================================================
    def items_snapshot(self) -> list[tuple[int, bytes]]:
        """The live data records as ``(key bits, payload)`` pairs, sorted.

        Used to bootstrap a warm standby (and by the chaos oracle at
        promotion). Only meaningful at a drained point — call
        :meth:`flush` (or take it right after :meth:`verify`/
        :meth:`checkpoint`) so no update is still buffered in a log.
        Deleted records (tombstones) are omitted; Merkle plumbing and
        anchors are excluded — a fresh load rebuilds them.
        """
        return data_items(self.store, self.config.key_width)

    def fence_to(self, target: int) -> int:
        """Close epochs until ``current_epoch >= target`` (promotion fence).

        Each close runs the full verification scan — migration plus the
        aggregated set-hash check — so reaching the fence *verifies* the
        replicated state rather than merely renumbering it. After this,
        every receipt this verifier signs names an epoch ``>= target``,
        and clients holding a fence receipt for ``target`` reject
        anything below it (the deposed primary's entire signable range).
        Returns the number of epochs closed.
        """
        closes = 0
        while self.current_epoch < target:
            self.verify()
            closes += 1
        return closes

    # ==================================================================
    # Introspection
    # ==================================================================
    def deferred_population(self) -> int:
        """Records currently protected by deferred verification — the
        quantity verification latency is linear in (§5.4)."""
        return len(self.deferred_index)
