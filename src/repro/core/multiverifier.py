"""The verifier group: everything that runs inside the enclave.

This is the trusted program of Figure 1. It owns:

* ``n`` minimally-interacting :class:`~repro.core.verifier.VerifierThread`
  instances (§5.3) — each with its own clock, cache, and read/write set
  hashes; they interact *only* at epoch close, when their 16-byte set
  hashes are aggregated;
* the shared :class:`~repro.core.epochs.EpochController`;
* the client table (authorized MAC keys + replay nonces, §2.1);
* receipt issuance (provisional op receipts + epoch batch receipts);
* verifier-state checkpointing sealed against rollback (§2.2, §7).

The ecall surface deliberately does **not** expose raw record updates or
inserts: logical data changes only happen through ``validate_put*``
entries carrying a client MAC, which is what makes the host unable to
modify data unilaterally.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.core.epochs import EpochController
from repro.core.keys import BitKey
from repro.core.protocol import (
    GET,
    GET_ABSENT,
    LEASE,
    PUT,
    SHIP,
    ClientTable,
    EpochReceipt,
    FenceReceipt,
    OpReceipt,
    _payload_bytes,
)
from repro.core.records import DataValue, MerkleValue, Value, decode_value, encode_value
from repro.core.verifier import VerifierThread
from repro.crypto.hashing import decode_fields, encode_fields
from repro.crypto.mac import MacKey
from repro.crypto.multiset import aggregate
from repro.crypto.prf import Prf
from repro.enclave.sealed import SealedSlot, seal_hash
from repro.errors import (
    EnclaveRebootError,
    EnclaveUnavailableError,
    EpochError,
    ProtocolError,
    ReplayError,
    SetHashMismatchError,
    SignatureError,
    SplitBrainError,
    StructuralError,
)
from repro.instrument import COUNTERS
from repro.merkle.sparse import build_tree

#: Thread methods a host may invoke directly (integrity-neutral plumbing).
_RAW_METHODS = frozenset(
    {"add_merkle", "evict_merkle", "add_deferred", "evict_deferred",
     "refresh_hash"}
)


class VerifierGroup:
    """The enclave-resident verifier (trusted computing base)."""

    def __init__(self, sealed: SealedSlot, n_threads: int = 1,
                 cache_capacity: int = 512, combiner: str = "add",
                 prf: Prf | None = None, sealing_key: MacKey | None = None):
        if n_threads < 1:
            raise ValueError("need at least one verifier thread")
        self.sealed = sealed
        self.prf = prf if prf is not None else Prf.generate()
        self.sealing_key = sealing_key if sealing_key is not None else MacKey.generate("seal")
        self.epochs = EpochController()
        self.clients = ClientTable()
        self.threads = [
            VerifierThread(i, self.prf, self.epochs,
                           cache_capacity=cache_capacity, combiner=combiner)
            for i in range(n_threads)
        ]
        self._combiner = combiner
        self._loaded = False
        #: Per-client epoch-receipt issue counter (chain position). Part of
        #: trusted state: it is what lets clients dedup a replayed receipt,
        #: so it is checkpointed and restored alongside the nonce table.
        self._epoch_chains: dict[int, int] = {}
        # Replication channel state (see repl_set_key). One key serves both
        # roles: a primary signs shipments, a standby admits them.
        self._repl_key: MacKey | None = None
        self._repl_next_seq = 0
        self._repl_chain = b"\x00" * 32
        self._repl_generation = 0

    def _require_loaded(self, what: str) -> None:
        """Refuse trusted work on a freshly-(re)booted verifier.

        After a surprise reboot the factory rebuilds this object with empty
        volatile state; silently serving from it would let unverified
        operations through. Until ``restore_state``/``bulk_load``/
        ``start_empty`` runs, every integrity-bearing entry point fails
        with a typed availability error so the host knows to recover.
        """
        if not self._loaded:
            raise EnclaveUnavailableError(
                f"verifier holds no restored state (post-reboot?); "
                f"cannot {what} until restore_state or a load runs")

    # ------------------------------------------------------------------
    # Setup ecalls
    # ------------------------------------------------------------------
    def register_client(self, client_id: int, key_bytes: bytes) -> None:
        self.clients.register(client_id, MacKey(key_bytes, name=f"client-{client_id}"))

    def bulk_load(self, items: list[tuple[BitKey, bytes]]) -> tuple[MerkleValue, list[tuple[BitKey, Value]]]:
        """Trusted initial load: build the sparse Merkle tree inside the
        enclave, pin the root in thread 0, and hand every other record back
        to the host for storage.

        The load is client-initiated (the data owner ships its dataset
        through the enclave once); afterwards all mutation goes through
        authorized puts. Returns the (non-confidential) root value — the
        host mirrors it — plus all records to store.
        """
        if self._loaded:
            raise ProtocolError("database already loaded")
        data = sorted(((k, DataValue(p)) for k, p in items),
                      key=lambda item: item[0].bits)
        merkle_records, root_value = build_tree(data)
        self.threads[0].pin_root(root_value)
        self._loaded = True
        out: list[tuple[BitKey, Value]] = [(k, v) for k, v in merkle_records.items()]
        out.extend(data)
        return root_value, out

    def start_empty(self) -> MerkleValue:
        """Initialize an empty database (root with two null pointers)."""
        if self._loaded:
            raise ProtocolError("database already loaded")
        root_value = MerkleValue(None, None)
        self.threads[0].pin_root(root_value)
        self._loaded = True
        return root_value

    # ------------------------------------------------------------------
    # The batched command stream (one ecall per log-buffer flush, §7)
    # ------------------------------------------------------------------
    def _dispatch_entry(self, thread: VerifierThread, method: str, args: tuple) -> Any:
        """Execute one buffered verifier call against ``thread``."""
        if method in _RAW_METHODS:
            return getattr(thread, method)(*args)
        if method == "validate_get":
            return self._validate_get(thread, *args)
        if method == "validate_get_absent":
            return self._validate_get_absent(thread, *args)
        if method == "validate_put_update":
            return self._validate_put(thread, "update", *args)
        if method == "validate_put_extend":
            return self._validate_put(thread, "extend", *args)
        if method == "validate_put_split":
            return self._validate_put(thread, "split", *args)
        raise ProtocolError(f"unknown verifier entry {method!r}")

    def process_batch(self, verifier_id: int, entries: list[tuple[str, tuple]]) -> list[Any]:
        """Execute a worker's buffered verifier calls in order."""
        self._require_loaded("process a batch")
        if not 0 <= verifier_id < len(self.threads):
            raise ProtocolError(f"no verifier thread {verifier_id}")
        thread = self.threads[verifier_id]
        return [self._dispatch_entry(thread, method, args)
                for method, args in entries]

    def apply_batch(self, shards: list[tuple[int, list[tuple[str, tuple]]]]):
        """Group commit: execute several shards' command streams in ONE
        crossing (the serving loop's batch amortization lever).

        Returns ``(shard_results, failure)``. ``shard_results`` holds one
        result list per shard, in order, covering every entry that
        executed. ``failure`` is ``None`` on full success; otherwise it is
        ``(shard_index, entry_index, exc)`` naming the first entry whose
        *client-attributable* validation failed (bad MAC or replayed
        nonce) — execution stops there, entries after it never ran, and
        the host decides whether the poisoned operation can fail alone.
        Every other exception (structural integrity alarms, epoch errors)
        raises out of the ecall exactly as it would from
        :meth:`process_batch` — a batch never downgrades an alarm.
        """
        self._require_loaded("apply a batch")
        out: list[list[Any]] = []
        for si, (verifier_id, entries) in enumerate(shards):
            if not 0 <= verifier_id < len(self.threads):
                raise ProtocolError(f"no verifier thread {verifier_id}")
            thread = self.threads[verifier_id]
            shard_out: list[Any] = []
            out.append(shard_out)
            for ei, (method, args) in enumerate(entries):
                try:
                    shard_out.append(self._dispatch_entry(thread, method, args))
                except (SignatureError, ReplayError) as exc:
                    return out, (si, ei, exc)
        return out, None

    # -- validations -----------------------------------------------------
    def _receipt(self, client_id: int, kind: bytes, key: BitKey,
                 payload: bytes | None, nonce: int) -> OpReceipt:
        epoch = self.epochs.current
        receipt = OpReceipt(client_id, kind, key, payload, nonce, epoch, b"")
        receipt.tag = self.clients.key_for(client_id).sign(*receipt.mac_fields())
        return receipt

    def _validate_get(self, thread: VerifierThread, client_id: int,
                      key: BitKey, nonce: int) -> OpReceipt:
        self.clients.check_nonce(client_id, nonce)
        value = thread.read(key)
        if not isinstance(value, DataValue):
            raise StructuralError(f"get validated against non-data record {key!r}")
        return self._receipt(client_id, GET, key, value.payload, nonce)

    def _validate_get_absent(self, thread: VerifierThread, client_id: int,
                             key: BitKey, ancestor: BitKey, nonce: int) -> OpReceipt:
        self.clients.check_nonce(client_id, nonce)
        thread.check_absent(key, ancestor)
        return self._receipt(client_id, GET_ABSENT, key, None, nonce)

    def _validate_put(self, thread: VerifierThread, mode: str, client_id: int,
                      key: BitKey, payload: bytes | None, nonce: int, tag: bytes,
                      parent_key: BitKey | None = None) -> OpReceipt:
        # Client authorization first: the host cannot manufacture puts.
        client_key = self.clients.key_for(client_id)
        try:
            client_key.verify(tag, PUT, key.to_bytes(), _payload_bytes(payload),
                              nonce.to_bytes(8, "big"))
        except SignatureError:
            raise SignatureError(
                f"put on {key!r} lacks a valid client-{client_id} signature"
            ) from None
        self.clients.check_nonce(client_id, nonce)
        value = DataValue(payload)
        if mode == "update":
            thread.update(key, value)
        elif mode == "extend":
            thread.insert_extend(key, value, parent_key)
        elif mode == "split":
            thread.insert_split(key, value, parent_key)
        else:  # pragma: no cover - internal dispatch only
            raise ProtocolError(f"unknown put mode {mode!r}")
        return self._receipt(client_id, PUT, key, payload, nonce)

    # ------------------------------------------------------------------
    # Epoch close (§5.3 aggregation + §5.1 batch validation)
    # ------------------------------------------------------------------
    def start_epoch_close(self) -> int:
        """Open the next epoch; returns the epoch now being closed.

        After this, every evict stamps the new epoch, so migrating the old
        epoch's records moves them forward.
        """
        self._require_loaded("close an epoch")
        closing = self.epochs.current
        self.epochs.advance()
        return closing

    def finish_epoch_close(self, epoch: int) -> dict[int, EpochReceipt]:
        """Aggregate per-thread set hashes and settle the epoch.

        Raises :class:`SetHashMismatchError` if the aggregated read and
        write hashes differ — the deferred-verification tamper alarm.
        Returns one epoch receipt per registered client.
        """
        self._require_loaded("settle an epoch")
        if epoch >= self.epochs.current:
            raise EpochError(f"epoch {epoch} is still open; advance first")
        reads: list[int] = []
        writes: list[int] = []
        for thread in self.threads:
            r, w = thread.take_epoch_hashes(epoch)
            reads.append(r)
            writes.append(w)
        COUNTERS.epoch_verifications += 1
        if aggregate(reads, self._combiner) != aggregate(writes, self._combiner):
            raise SetHashMismatchError(
                f"epoch {epoch}: aggregated read-set and write-set hashes "
                f"differ — tampering with a deferred record detected"
            )
        self.epochs.mark_verified(epoch)
        receipts: dict[int, EpochReceipt] = {}
        for client_id in self.clients.nonces():
            chain = self._epoch_chains.get(client_id, 0) + 1
            self._epoch_chains[client_id] = chain
            receipt = EpochReceipt(epoch, b"", chain)
            receipt.tag = self.clients.key_for(client_id).sign(*receipt.mac_fields())
            receipts[client_id] = receipt
        return receipts

    # ------------------------------------------------------------------
    # Replication channel (authenticated log shipping, PROTOCOL.md
    # "Replication & failover"). The host carries shipments; these ecalls
    # are what keep it a *delay-only* adversary: every batch is MAC'd
    # under a shared session key, sequence-numbered, and hash-chained, so
    # forging, reordering, truncating, or splicing the stream is detected
    # by the standby before anything is applied.
    # ------------------------------------------------------------------
    def repl_set_key(self, key_bytes: bytes, next_seq: int = 0,
                     chain: bytes | None = None) -> None:
        """Install the replication session key (models the key agreed
        during mutual attestation of primary and standby) and position the
        stream. Called on both peers at pairing time; a standby joining an
        already-flowing stream (delta-resync group membership) is handed
        the agreed ``(next_seq, chain)`` position instead of the fresh
        origin — part of the attested pairing handshake, so the host
        cannot unilaterally rewind a replica's channel."""
        self._repl_key = MacKey(key_bytes, name="repl-channel")
        self._repl_next_seq = next_seq
        self._repl_chain = b"\x00" * 32 if chain is None else chain

    def _require_repl_key(self) -> MacKey:
        if self._repl_key is None:
            if not self._loaded:
                # A rebooted enclave lost the volatile channel session
                # along with the rest of its verifier state. That is an
                # availability condition — the heal ladder restores the
                # sealed state and the manager re-anchors the session —
                # not an API misuse by the caller, and it must not type
                # as one: the serving loop absorbs AvailabilityError and
                # heals, while a ProtocolError would escape untyped.
                raise EnclaveRebootError(
                    "replication channel session lost with the enclave's "
                    "volatile state; recover before shipping")
            raise ProtocolError("no replication channel key installed")
        return self._repl_key

    def repl_sign(self, seq: int, prev_digest: bytes,
                  body_digest: bytes) -> bytes:
        """Primary role: authenticate one shipment of log entries."""
        key = self._require_repl_key()
        return key.sign(SHIP, seq.to_bytes(8, "big"), prev_digest, body_digest)

    def repl_admit(self, seq: int, prev_digest: bytes,
                   body_digest: bytes, tag: bytes) -> None:
        """Standby role: admit one shipment, or raise an IntegrityError.

        Checks, in order: the MAC (host forged or corrupted the batch),
        the sequence number (reorder/replay), and the hash chain
        (truncation or splice of the stream). State advances only when
        all three hold, so a rejected shipment can simply be
        retransmitted — rejection never desynchronizes the channel.
        """
        key = self._require_repl_key()
        key.verify(tag, SHIP, seq.to_bytes(8, "big"), prev_digest, body_digest)
        if seq != self._repl_next_seq:
            raise ReplayError(
                f"shipment seq {seq} out of order "
                f"(expected {self._repl_next_seq})")
        if prev_digest != self._repl_chain:
            raise ReplayError(
                f"shipment {seq} breaks the hash chain "
                f"(truncated or spliced stream)")
        self._repl_next_seq += 1
        self._repl_chain = body_digest

    # -- leadership leases (quorum HA; PROTOCOL.md "Replication group
    # & leases"). Grants are MAC'd under the replication session key by
    # the *standby* enclave and verified by the *primary* enclave, so the
    # host can neither mint a grant for a deposed primary nor doctor one
    # in transit. Generation monotonicity lives in the standby enclave:
    # once it has granted (or observed) generation g, it refuses every
    # grant request for a lower generation — the deposed primary's
    # renewals die here, and its lease expiry stops it serving.
    def repl_grant_lease(self, generation: int, expires_at: float) -> bytes:
        """Standby role: grant (sign) one leadership lease."""
        key = self._require_repl_key()
        if generation < self._repl_generation:
            raise SplitBrainError(
                f"lease grant refused: generation {generation} is below "
                f"the highest observed {self._repl_generation} — a deposed "
                f"primary is asking to keep serving")
        self._repl_generation = generation
        return key.sign(LEASE, generation.to_bytes(8, "big"),
                        struct.pack(">d", expires_at))

    def repl_verify_lease(self, generation: int, expires_at: float,
                          tag: bytes) -> None:
        """Primary role: verify one standby's lease grant, or raise a
        SignatureError (a host-forged grant never extends the lease)."""
        key = self._require_repl_key()
        key.verify(tag, LEASE, generation.to_bytes(8, "big"),
                   struct.pack(">d", expires_at))

    def issue_fence(self, generation: int) -> dict[int, FenceReceipt]:
        """Promotion handoff: sign one fence receipt per registered client.

        The fence epoch is this (promoted) verifier's current epoch; the
        supervisor has already closed epochs past everything the deposed
        primary could have named, so a client that adopts the fence
        rejects every receipt a stale or split-brain primary can still
        sign. Signed under each client's own key — the same key op
        receipts use — so the untrusted host cannot fabricate a fence.
        """
        self._require_loaded("issue a fence")
        fence_epoch = self.epochs.current
        receipts: dict[int, FenceReceipt] = {}
        for client_id in self.clients.nonces():
            receipt = FenceReceipt(client_id, generation, fence_epoch, b"")
            receipt.tag = self.clients.key_for(client_id).sign(
                *receipt.mac_fields())
            receipts[client_id] = receipt
        return receipts

    # -- host-visible (non-confidential) status ---------------------------
    def current_epoch(self) -> int:
        return self.epochs.current

    def clocks(self) -> list[int]:
        """Per-thread clocks — protected state, but not confidential (§5.3):
        the host mirrors them anyway, and needs them after recovery."""
        return [t.clock for t in self.threads]

    def dump_cache(self, verifier_id: int) -> list[tuple[BitKey, Value]]:
        """Cache contents of one thread (host rebuilds its mirror after
        recovery; again protected-but-not-confidential)."""
        if not 0 <= verifier_id < len(self.threads):
            raise ProtocolError(f"no verifier thread {verifier_id}")
        return self.threads[verifier_id].cache.items()

    # ------------------------------------------------------------------
    # Verifier-state checkpoint / restore (§7 durability, §2.2 rollback)
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> bytes:
        """Serialize all trusted state, MAC it, and advance the sealed slot.

        The blob lives on untrusted storage; the sealed (version, hash)
        pair is what makes replaying an *older* blob detectable.
        """
        self._require_loaded("checkpoint verifier state")
        parts: list[bytes] = [
            self.epochs.current.to_bytes(8, "big"),
            self.epochs.verified.to_bytes(8, "big", signed=True),
            self._encode_nonces(),
        ]
        for thread in self.threads:
            parts.append(self._encode_thread(thread))
        body = encode_fields(*parts)
        tag = self.sealing_key.sign(body)
        blob = encode_fields(body, tag)
        self.sealed.advance(seal_hash(blob))
        return blob

    def restore_state(self, blob: bytes) -> None:
        """Rebuild trusted state from a checkpoint blob (post-reboot).

        Checks the MAC (forgery) and the sealed slot (rollback) before
        touching any state.
        """
        outer = decode_fields(blob)
        if len(outer) != 2:
            raise ProtocolError("malformed verifier checkpoint")
        body, tag = outer
        self.sealing_key.verify(tag, body)
        self.sealed.check_latest(seal_hash(blob))
        parts = decode_fields(body)
        expected = 3 + len(self.threads)
        if len(parts) != expected:
            raise ProtocolError("verifier checkpoint has wrong thread count")
        self.epochs.current = int.from_bytes(parts[0], "big")
        self.epochs.verified = int.from_bytes(parts[1], "big", signed=True)
        self._decode_nonces(parts[2])
        for thread, chunk in zip(self.threads, parts[3:]):
            self._decode_thread(thread, chunk)
        self._loaded = True

    def _encode_nonces(self) -> bytes:
        fields: list[bytes] = []
        for client_id, nonce in sorted(self.clients.nonces().items()):
            chain = self._epoch_chains.get(client_id, 0)
            fields.append(client_id.to_bytes(8, "big")
                          + nonce.to_bytes(8, "big")
                          + chain.to_bytes(8, "big"))
        return encode_fields(*fields)

    def _decode_nonces(self, blob: bytes) -> None:
        nonces: dict[int, int] = {}
        self._epoch_chains.clear()
        for field in decode_fields(blob):
            client_id = int.from_bytes(field[:8], "big")
            nonces[client_id] = int.from_bytes(field[8:16], "big")
            if len(field) >= 24:
                self._epoch_chains[client_id] = int.from_bytes(
                    field[16:24], "big")
        self.clients.restore_nonces(nonces)

    def _encode_thread(self, thread: VerifierThread) -> bytes:
        fields: list[bytes] = [thread.clock.to_bytes(8, "big")]
        epoch_parts: list[bytes] = []
        for epoch in sorted(thread.open_epochs()):
            rs = thread._read_sets.get(epoch)
            ws = thread._write_sets.get(epoch)
            epoch_parts.append(
                epoch.to_bytes(8, "big")
                + (rs.value if rs else 0).to_bytes(16, "big")
                + (ws.value if ws else 0).to_bytes(16, "big")
            )
        fields.append(encode_fields(*epoch_parts))
        cache_parts: list[bytes] = []
        for key, value in thread.cache.items():
            cache_parts.append(encode_fields(key.to_bytes(), encode_value(value)))
        fields.append(encode_fields(*cache_parts))
        return encode_fields(*fields)

    def _decode_thread(self, thread: VerifierThread, blob: bytes) -> None:
        clock_b, epochs_b, cache_b = decode_fields(blob)
        thread.clock = int.from_bytes(clock_b, "big")
        thread._read_sets.clear()
        thread._write_sets.clear()
        for part in decode_fields(epochs_b):
            epoch = int.from_bytes(part[:8], "big")
            rs_val = int.from_bytes(part[8:24], "big")
            ws_val = int.from_bytes(part[24:40], "big")
            if rs_val:
                thread._set_hash(thread._read_sets, epoch).value = rs_val
            if ws_val:
                thread._set_hash(thread._write_sets, epoch).value = ws_val
        for part in decode_fields(cache_b):
            key_b, value_b = decode_fields(part)
            key = BitKey.from_encoded(key_b)
            value = decode_value(value_b)
            if key.is_root:
                thread.pin_root(value)
            else:
                thread.cache.add(key, value)

    # ------------------------------------------------------------------
    # Enclave memory accounting
    # ------------------------------------------------------------------
    def trusted_memory_bytes(self) -> int:
        return sum(t.trusted_memory_bytes() for t in self.threads) + 4096
