"""Merkle-only verified stores: the M / M1K / M32K / MV baselines (§8.5).

These drive the *record-encoded sparse Merkle tree* with verifier caching
(§4.3) but **without** any deferred verification — every operation's
integrity comes from an unbroken hash chain to the pinned root, so results
are final immediately (no provisional receipts, performance goal P3), but
every cold access pays a logarithmic chain of hash checks (P2 missed) and
every chain shares the upper tree levels (P4 missed).

Variants, matching Fig 14b:

* ``cache_capacity`` small (just the working chain) → plain **M**;
* 1K / 32K entries → **M1K** / **M32K** (LRU retains hot merkle records,
  lazy hash updates per §4.3.1);
* ``eager_propagation=True`` → **MV**: every put pushes hash updates along
  the whole cached path to the root, modelling VeritasDB's caching [29].

Records live in a plain dict "array", as §8.5 prescribes ("by storing the
records in an array, not FASTER, we remove any effect of FASTER code").
"""

from __future__ import annotations

from repro.core.hostmirror import (
    VIA_MERKLE,
    VIA_PINNED,
    VerifierMirror,
    host_value_hash,
)
from repro.core.keys import BitKey
from repro.core.log import VerificationLog
from repro.core.multiverifier import VerifierGroup
from repro.core.protocol import Client, OpReceipt
from repro.core.records import DataValue, MerkleValue, Value
from repro.enclave.costmodel import SIMULATED, EnclaveCostProfile
from repro.enclave.enclave import SimulatedEnclave
from repro.errors import ProtocolError
from repro.instrument import COUNTERS
from repro.merkle.sparse import FOUND, lookup


class CachedMerkleStore:
    """A verified KV store protected purely by the cached sparse Merkle tree."""

    def __init__(self, items: list[tuple[int, bytes]], key_width: int = 64,
                 cache_capacity: int = 1024, retain_cache: bool = True,
                 eager_propagation: bool = False, log_capacity: int = 64,
                 enclave_profile: EnclaveCostProfile = SIMULATED):
        if cache_capacity < key_width + 8:
            raise ValueError("cache too small for a root-to-leaf chain")
        self.key_width = key_width
        self.retain_cache = retain_cache
        self.eager_propagation = eager_propagation
        self.enclave = SimulatedEnclave(
            lambda sealed: VerifierGroup(sealed, n_threads=1,
                                         cache_capacity=cache_capacity),
            profile=enclave_profile,
        )
        self.log = VerificationLog(self.enclave, 0, log_capacity)
        self.mirror = VerifierMirror(0, cache_capacity)
        self.records: dict[BitKey, Value] = {}   # the untrusted "array"
        self.clients: dict[int, Client] = {}
        pairs = [(BitKey.data_key(k, key_width), p) for k, p in items]
        root_value, records = self.enclave.ecall("bulk_load", pairs)
        for key, value in records:
            self.records[key] = value
        root = BitKey.root()
        self.mirror.add(root, root_value, VIA_PINNED, None)

    # ------------------------------------------------------------------
    def register_client(self, client: Client) -> None:
        self.enclave.ecall("register_client", client.client_id,
                           client.key.key_bytes())
        self.clients[client.client_id] = client

    def data_key(self, key: int) -> BitKey:
        return BitKey.data_key(key, self.key_width)

    def _host_value(self, key: BitKey) -> Value | None:
        entry = self.mirror.entries.get(key)
        if entry is not None:
            return entry.value
        COUNTERS.store_reads += 1
        return self.records.get(key)

    # ------------------------------------------------------------------
    # Cache plumbing (merkle-only: everything chains from the root)
    # ------------------------------------------------------------------
    def _make_room(self, need: int, locked: set[BitKey]) -> None:
        while self.mirror.free < need:
            victim = self.mirror.victims(locked, 1)[0]
            self._evict(victim.key)

    def _evict(self, key: BitKey) -> None:
        entry = self.mirror.entries[key]
        parent_key = entry.parent_key
        self.mirror.remove(key)
        self.log.append("evict_merkle", key, parent_key)
        COUNTERS.store_writes += 1
        self.records[key] = entry.value
        parent = self.mirror.entries[parent_key]
        side = key.direction_from(parent_key)
        ptr = parent.value.pointer(side)
        parent.value = parent.value.with_pointer(
            side, ptr.with_hash(host_value_hash(entry.value)))

    def _cache_chain(self, path: list[BitKey], locked: set[BitKey]) -> None:
        for i, node in enumerate(path):
            if node in self.mirror:
                self.mirror.touch(node)
                continue
            value = self.records[node]
            self._make_room(1, locked)
            self.log.append("add_merkle", node, value, path[i - 1])
            self.mirror.add(node, value, VIA_MERKLE, path[i - 1])
            COUNTERS.cache_misses += 1

    def _teardown(self, path: list[BitKey], leaf: BitKey | None) -> None:
        """Plain-M mode: evict the whole working chain after each op."""
        if leaf is not None and leaf in self.mirror:
            self._evict(leaf)
        for node in reversed(path):
            if node.is_root:
                continue
            entry = self.mirror.entries.get(node)
            if entry is not None and entry.evictable:
                self._evict(node)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def get(self, client: Client, key: int, worker: int = 0) -> bytes | None:
        bk = self.data_key(key)
        nonce = client.next_nonce()
        result = lookup(self._host_value, bk)
        locked = set(result.path) | {bk}
        self._cache_chain(result.path, locked)
        if result.kind == FOUND:
            if bk not in self.mirror:
                value = self.records[bk]
                self._make_room(1, locked)
                self.log.append("add_merkle", bk, value, result.terminal)
                self.mirror.add(bk, value, VIA_MERKLE, result.terminal)
            else:
                self.mirror.touch(bk)
            self.log.append("validate_get", client.client_id, bk, nonce)
            payload = self.mirror.entries[bk].value.payload
        else:
            self.log.append("validate_get_absent", client.client_id, bk,
                            result.terminal, nonce)
            payload = None
        if not self.retain_cache:
            self._teardown(result.path, bk if result.kind == FOUND else None)
        self._finish_op()
        return payload

    def put(self, client: Client, key: int, payload: bytes,
            worker: int = 0) -> None:
        bk = self.data_key(key)
        request = client.make_put(bk, payload)
        result = lookup(self._host_value, bk)
        if result.kind != FOUND:
            raise ProtocolError(
                "merkle-only baseline supports updates of loaded keys only"
            )
        locked = set(result.path) | {bk}
        self._cache_chain(result.path, locked)
        if bk not in self.mirror:
            value = self.records[bk]
            self._make_room(1, locked)
            self.log.append("add_merkle", bk, value, result.terminal)
            self.mirror.add(bk, value, VIA_MERKLE, result.terminal)
        self.log.append("validate_put_update", client.client_id, bk, payload,
                        request.nonce, request.tag)
        self.mirror.entries[bk].value = DataValue(payload)
        if self.eager_propagation:
            # MV: refresh every hash from the leaf to the root, per put.
            chain = [bk] + list(reversed(result.path))
            for child, parent in zip(chain, chain[1:]):
                self.log.append("refresh_hash", child, parent)
                p_entry = self.mirror.entries[parent]
                side = child.direction_from(parent)
                ptr = p_entry.value.pointer(side)
                p_entry.value = p_entry.value.with_pointer(
                    side, ptr.with_hash(
                        host_value_hash(self.mirror.entries[child].value)))
        if not self.retain_cache:
            self._teardown(result.path, bk)
        self._finish_op()

    def _finish_op(self) -> None:
        COUNTERS.ops += 1

    def flush(self) -> None:
        """Flush the verification log, delivering receipts to clients."""
        for result in self.log.drain():
            if isinstance(result, OpReceipt):
                client = self.clients.get(result.client_id)
                if client is not None:
                    client.accept(result)


def plain_merkle_store(items, key_width: int = 64, **kwargs) -> CachedMerkleStore:
    """The "M" variant: no retained cache; every op pays the full chain."""
    return CachedMerkleStore(items, key_width=key_width,
                             cache_capacity=key_width + 8,
                             retain_cache=False, **kwargs)
