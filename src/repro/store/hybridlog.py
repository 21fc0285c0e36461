"""FASTER's hybrid-log record allocator, in Python.

The hybrid log is one logical address space split into three regions:

* **mutable tail** (``addr >= read_only_address``): records are updated in
  place;
* **read-only** (``head_address <= addr < read_only_address``): records are
  immutable in memory — updates copy to the tail (read-copy-update);
* **stable** (``addr < head_address``): records have been flushed to disk
  and reading them performs (simulated) I/O.

Addresses are allocated monotonically; each record carries the address of
the *previous* version of the same key, forming the per-key chain FASTER's
hash index points into. FastVer stores its 64-bit aux word inline in the
record (§7), so a value+aux update is one record touch.

The "disk" is a :class:`LogDevice` holding serialized records; a real file
can back it, but the default is an in-memory device so tests are hermetic.
"""

from __future__ import annotations

from struct import unpack_from

from repro.core.keys import BitKey
from repro.core.records import Value, decode_value, encode_value
from repro.errors import (
    AvailabilityError,
    CorruptPageError,
    StoreError,
    TornWriteError,
    TransientIOError,
)
from repro.instrument import COUNTERS

#: Address value meaning "no previous version".
NULL_ADDRESS = -1

#: Decoded stable pages a log caches. 256 hit like 4,096 (a cold op re-reads
#: its chain at once); keeping more alive only costs (EXPERIMENTS N3).
PAGE_CACHE_SLOTS = 256


class LogRecord:
    """One record version in the log."""

    __slots__ = ("key", "value", "aux", "prev_address", "tombstone")

    def __init__(self, key: BitKey, value: Value, aux: int,
                 prev_address: int = NULL_ADDRESS, tombstone: bool = False):
        self.key = key
        self.value = value
        self.aux = aux
        self.prev_address = prev_address
        self.tombstone = tombstone

    def serialize(self) -> bytes:
        """Explicit binary encoding used when the record moves to disk."""
        key_enc = self.key.to_bytes()
        val_enc = encode_value(self.value)
        flags = 1 if self.tombstone else 0
        return b"".join(
            (
                flags.to_bytes(1, "big"),
                self.aux.to_bytes(8, "big"),
                self.prev_address.to_bytes(8, "big", signed=True),
                len(key_enc).to_bytes(4, "big"),
                key_enc,
                len(val_enc).to_bytes(4, "big"),
                val_enc,
            )
        )

    @classmethod
    def deserialize(cls, blob: bytes, encodings: dict[bytes, BitKey] | None = None
                    ) -> "LogRecord":
        """Decode a page. A key (the record's or a Merkle pointer's) whose
        encoding is in ``encodings`` is the key found there, not a new one."""
        if len(blob) < 21:
            raise StoreError("truncated log record")
        flags, aux, prev, klen = unpack_from(">BQqI", blob)  # serialize's header
        off = 21 + klen
        key = encodings and encodings.get(blob[21:off])
        key = key or BitKey.from_encoded(blob[21:off])
        vlen = int.from_bytes(blob[off:off + 4], "big")
        value = decode_value(blob[off + 4:off + 4 + vlen], encodings)
        return cls(key, value, aux, prev, tombstone=bool(flags & 1))


class LogDevice:
    """The stable-storage backing of the log (a page of bytes per address).

    When a :class:`~repro.faults.FaultPlan` is attached via :attr:`faults`,
    writes can tear (persist only a prefix — the power-loss analogue) and
    reads can fail transiently. Torn writes are *silent* here, exactly as
    on real hardware; it is the flush paths' read-back verification that
    turns them into typed :class:`~repro.errors.TornWriteError`.
    """

    def __init__(self):
        self._pages: dict[int, bytes] = {}
        self.writes = 0
        self.reads = 0
        self.faults = None

    def write(self, address: int, blob: bytes) -> None:
        self.writes += 1
        if self.faults is not None and self.faults.fire("device.write.torn"):
            blob = blob[:len(blob) // 2]
        self._pages[address] = blob

    def read(self, address: int) -> bytes:
        self.reads += 1
        if self.faults is not None and self.faults.fire("device.read.transient"):
            raise TransientIOError(
                f"transient read failure at address {address}")
        if self.faults is not None and address in self._pages \
                and self.faults.fire("device.read.bitrot"):
            # Latent sector corruption: the flip is *persisted* — the page
            # itself rots, so every later read (including recovery scans)
            # sees the same wrong bytes. Silent by design: turning rot into
            # a typed error is the scrubber's and the verifier's job, never
            # the device's. The flipped offset lands in the tail of the
            # page (the value encoding) so the record usually still
            # decodes — the dangerous kind of rot.
            blob = self._pages[address]
            if blob:
                pos = len(blob) - 1 - (address % max(1, len(blob) // 3))
                self._pages[address] = (blob[:pos]
                                        + bytes([blob[pos] ^ 0x20])
                                        + blob[pos + 1:])
        try:
            return self._pages[address]
        except KeyError:
            raise StoreError(f"address {address} not on device") from None

    def read_with_retry(self, address: int, attempts: int = 3) -> bytes:
        """Read a page, absorbing transient failures with bounded retries."""
        for attempt in range(attempts):
            try:
                return self.read(address)
            except TransientIOError:
                if attempt == attempts - 1:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def __contains__(self, address: int) -> bool:
        return address in self._pages

    def __len__(self) -> int:
        return len(self._pages)


class HybridLog:
    """The three-region allocator."""

    def __init__(self, mutable_fraction: float = 0.9,
                 memory_budget_records: int = 1 << 30,
                 device: LogDevice | None = None):
        if not 0.0 < mutable_fraction <= 1.0:
            raise ValueError("mutable_fraction must be in (0, 1]")
        self._records: dict[int, LogRecord] = {}
        self._next_address = 0
        self.head_address = 0          # below: on device only
        self.read_only_address = 0     # below: immutable in memory
        self.mutable_fraction = mutable_fraction
        self.memory_budget_records = memory_budget_records
        self.device = device if device is not None else LogDevice()
        # Direct-mapped, (page, key, value, aux, prev_address, tombstone):
        # untrusted host state holding only what the device returned.
        self._decoded: list[tuple] = [(None,)] * PAGE_CACHE_SLOTS
        self.page_decodes = 0
        self.page_hits = 0

    # ------------------------------------------------------------------
    # Allocation and access
    # ------------------------------------------------------------------
    @property
    def tail_address(self) -> int:
        return self._next_address

    def append(self, record: LogRecord) -> int:
        """Allocate the record at the tail; returns its address."""
        address = self._next_address
        self._next_address += 1
        self._records[address] = record
        COUNTERS.store_writes += 1
        if len(self._records) > self.memory_budget_records:
            self._shift_addresses()
        return address

    def get(self, address: int) -> LogRecord:
        """Fetch the record at an address, reading from disk if evicted.

        A stable read goes to the device first, so faults, rot and rewrites
        act as if nothing were cached: the cached decode serves only the
        very bytes object it was made from (``is``, not ``==``; every write,
        rot or tamper installs a new one), as a record of the caller's own.
        """
        COUNTERS.store_reads += 1
        record = self._records.get(address)
        if record is not None:
            return record
        if address < 0 or address >= self._next_address:
            raise StoreError(f"address {address} was never allocated")
        blob = self.device.read_with_retry(address)
        slot = address % PAGE_CACHE_SLOTS
        cached = self._decoded[slot]
        if cached[0] is blob:
            self.page_hits += 1
            return LogRecord(*cached[1:])
        record = self.decode(address, blob)
        self._decoded[slot] = (blob, record.key, record.value, record.aux,
                               record.prev_address, record.tombstone)
        return record

    def fetch(self, address: int) -> bytes:
        """The read half of a stable :meth:`get`, for a scan that decodes only
        what it must (and skips the page cache, which it could only thrash)."""
        COUNTERS.store_reads += 1
        if address < 0 or address >= self._next_address:
            raise StoreError(f"address {address} was never allocated")
        return self.device.read_with_retry(address)

    def decode(self, address: int, blob: bytes,
               encodings: dict[bytes, BitKey] | None = None) -> LogRecord:
        """The decode half: ``blob`` as the record at ``address``."""
        self.page_decodes += 1
        try:
            return LogRecord.deserialize(blob, encodings)
        except (StoreError, ValueError) as exc:
            # Structural rot, typed as a detection (rot and tampering are
            # indistinguishable on untrusted storage), never a parse error.
            raise CorruptPageError(
                f"page at address {address} failed structural decode: "
                f"{exc}") from exc

    def is_mutable(self, address: int) -> bool:
        return address >= self.read_only_address

    def in_memory(self, address: int) -> bool:
        return address >= self.head_address

    def update_in_place(self, address: int, value: Value, aux: int) -> None:
        """Mutate a record in the mutable region (FASTER's hot path)."""
        if not self.is_mutable(address):
            raise StoreError(f"address {address} is not in the mutable region")
        record = self._records[address]
        record.value = value
        record.aux = aux
        COUNTERS.store_writes += 1

    # ------------------------------------------------------------------
    # Region management
    # ------------------------------------------------------------------
    def _shift_addresses(self) -> None:
        """Advance head/read-only offsets to respect the memory budget."""
        in_memory = self._next_address - self.head_address
        excess = in_memory - self.memory_budget_records
        if excess > 0:
            self.flush_until(self.head_address + excess)
        mutable_target = int(self.memory_budget_records * self.mutable_fraction)
        new_ro = max(self.read_only_address, self._next_address - mutable_target)
        self.read_only_address = min(new_ro, self._next_address)

    def _write_page(self, address: int, blob: bytes, attempts: int = 3) -> None:
        """Write one page and verify it by read-back (the fsync+checksum
        discipline). A torn write is retried in place; if it stays torn the
        page is left as-is on the device and :class:`TornWriteError`
        surfaces — a typed availability failure, never silent corruption.
        """
        for _ in range(attempts):
            self.device.write(address, blob)
            try:
                if self.device.read(address) == blob:
                    return
            except TransientIOError:
                continue  # could not confirm; rewrite and re-verify
        raise TornWriteError(
            f"page {address} failed read-back verification after "
            f"{attempts} attempts")

    def flush_until(self, new_head: int) -> int:
        """Write all records below ``new_head`` to the device and drop them.

        Returns the number of records flushed. Used by the memory budget
        and by CPR checkpoints. Crash-consistent: pages are written in
        address order with read-back verification, and on a partial-flush
        or torn-write failure the flushed *prefix* is committed (head
        advances to it) before the typed availability error propagates —
        un-flushed records stay in memory, so nothing is lost and a retry
        resumes where the failure hit.
        """
        new_head = min(new_head, self._next_address)
        flushed = 0
        faults = self.device.faults
        address = self.head_address
        try:
            for address in range(self.head_address, new_head):
                record = self._records.get(address)
                if record is None:
                    continue
                if faults is not None and faults.fire("device.flush.partial"):
                    raise TransientIOError(
                        f"flush aborted before address {address} "
                        f"(simulated partial flush)")
                self._write_page(address, record.serialize())
                del self._records[address]
                flushed += 1
        except AvailabilityError:
            self._mark_flushed(address)
            raise
        self._mark_flushed(new_head)
        return flushed

    def _mark_flushed(self, new_head: int) -> None:
        """Commit the verified flushed prefix: head may only advance."""
        self.head_address = max(self.head_address, new_head)
        self.read_only_address = max(self.read_only_address, self.head_address)
