"""The primary-side log shipper: authenticated, resumable batches.

The shipper tails the primary's operation stream — one entry per applied
put plus one marker per closed epoch — and packages it into
:class:`Shipment` batches. Each shipment is:

* **sequence-numbered** — a standby admits shipment *n* only after
  *n-1*, so the host cannot reorder or replay batches;
* **hash-chained** — each shipment names the digest of its predecessor's
  body, so the host cannot truncate or splice the stream;
* **MAC'd in-enclave** — the tag over ``(seq, prev_digest, body_digest)``
  is computed by the primary's enclave under the replication session key
  (``repl_sign``), so the host cannot forge batches at all.

There is ONE chain for the whole replication group: every standby admits
the same shipments under the same session key, which is what makes
quorum votes comparable and lets a promotion loser keep tailing the new
primary without a chain restart (``repl_sign`` signs positions, it does
not consume them, so the winner continues the stream where the deposed
primary left off).

Shipments stay in ``unacked`` until every live standby admits them, then
move to ``history`` — a bounded retained tail that backs *incremental
delta resync*: a rejoining or lagging standby replays only
``pending_for(its next seq)`` instead of taking a fresh snapshot, unless
its position fell below ``floor`` (the tail was garbage-collected).
``drain_entries`` still hands the entire unshipped tail to the
supervisor at promotion — the piece that guarantees no acknowledged
write is lost in a failover.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.core.protocol import PutRequest, _payload_bytes
from repro.crypto.hashing import encode_fields
from repro.instrument import COUNTERS

#: A log entry is ("put", PutRequest) or ("epoch", closed_epoch_number).
Entry = tuple


def _encode_entry(entry: Entry) -> bytes:
    kind, payload = entry
    if kind == "put":
        req: PutRequest = payload
        return encode_fields(
            b"put",
            req.client_id.to_bytes(8, "big"),
            req.key.to_bytes(),
            _payload_bytes(req.payload),
            req.nonce.to_bytes(8, "big"),
            req.tag,
        )
    if kind == "epoch":
        return encode_fields(b"epoch", int(payload).to_bytes(8, "big"))
    raise ValueError(f"unknown log entry kind {kind!r}")


def encode_body(entries: list[Entry]) -> bytes:
    """Canonical wire encoding of a shipment body."""
    return encode_fields(*[_encode_entry(e) for e in entries])


def body_digest(body: bytes) -> bytes:
    return hashlib.sha256(body).digest()


@dataclass
class Shipment:
    """One authenticated batch of log entries in flight to the standbys."""

    seq: int
    entries: list[Entry]
    body: bytes          # canonical encoding (the copy faults corrupt is
                         # the *transit* copy; this one backs retransmits)
    prev_digest: bytes   # hash-chain link to the previous shipment
    tag: bytes           # enclave MAC over (seq, prev_digest, digest(body))

    @property
    def digest(self) -> bytes:
        return body_digest(self.body)


class LogShipper:
    """Packages the primary's op tail into authenticated shipments.

    ``sign_fn(seq, prev_digest, digest) -> tag`` crosses into the primary
    enclave (``repl_sign``); it may raise an AvailabilityError when the
    primary is down — the caller just retries on the next pump, and at
    promotion the unsigned tail is drained instead of shipped.

    ``retain`` bounds the fully-admitted ``history`` kept for delta
    resync; once a shipment ages past it, a standby that far behind must
    take the snapshot path.
    """

    def __init__(self, sign_fn: Callable[[int, bytes, bytes], bytes],
                 retain: int = 64):
        self._sign = sign_fn
        self.retain = retain
        #: Entries not yet packaged into a shipment.
        self.outbox: list[Entry] = []
        #: seq -> shipment packaged but not yet admitted by every live
        #: standby (the group's retransmit window).
        self.unacked: "OrderedDict[int, Shipment]" = OrderedDict()
        #: seq -> shipment admitted by all live standbys, retained (up to
        #: ``retain``) so a lagging/rejoining standby can delta-resync.
        self.history: "OrderedDict[int, Shipment]" = OrderedDict()
        self.next_seq = 0
        self._chain = b"\x00" * 32
        #: An epoch marker is waiting in the outbox (ship promptly so the
        #: standbys can close the epoch and advance their staleness view).
        self.epoch_pending = False
        #: A group-commit batch boundary closed over outbox entries: ship
        #: them as one shipment next pump, so the replication stream
        #: coalesces along the same boundaries the clients observed.
        self.boundary_pending = False

    # ------------------------------------------------------------------
    @property
    def chain(self) -> bytes:
        """The digest the next shipment will chain from."""
        return self._chain

    @property
    def floor(self) -> int:
        """Lowest seq still replayable from retained state. A standby
        whose next needed seq is below this cannot delta-resync."""
        if self.history:
            return next(iter(self.history))
        if self.unacked:
            return next(iter(self.unacked))
        return self.next_seq

    # ------------------------------------------------------------------
    def note_put(self, request: PutRequest) -> None:
        self.outbox.append(("put", request))

    def note_epoch(self, epoch: int) -> None:
        self.outbox.append(("epoch", epoch))
        self.epoch_pending = True

    def note_boundary(self) -> None:
        """The serving loop settled a group-commit batch; everything it
        produced is in the outbox and should travel together."""
        if self.outbox:
            self.boundary_pending = True

    def backlog(self) -> int:
        """Entries acknowledged to clients but not yet admitted by every
        live standby — the observable replication lag."""
        return len(self.outbox) + sum(
            len(s.entries) for s in self.unacked.values())

    # ------------------------------------------------------------------
    def make_shipment(self) -> Shipment:
        """Package the whole outbox into one signed shipment.

        The enclave signature may fail with an AvailabilityError; the
        outbox is only consumed after signing succeeds, so a failed
        attempt changes nothing.
        """
        entries = list(self.outbox)
        body = encode_body(entries)
        digest = body_digest(body)
        tag = self._sign(self.next_seq, self._chain, digest)
        shipment = Shipment(self.next_seq, entries, body, self._chain, tag)
        self.unacked[shipment.seq] = shipment
        self.outbox.clear()
        self.epoch_pending = False
        self.boundary_pending = False
        self._chain = digest
        self.next_seq += 1
        COUNTERS.shipped_batches += 1
        return shipment

    def ack(self, seq: int) -> None:
        """Every live standby admitted (and applied) shipment ``seq``:
        retire it from the retransmit window into the retained history,
        garbage-collecting the oldest history past the retain bound."""
        shipment = self.unacked.pop(seq, None)
        if shipment is not None:
            self.history[seq] = shipment
            while len(self.history) > self.retain:
                self.history.popitem(last=False)

    def pending_for(self, next_needed: int) -> list[Shipment]:
        """Every retained shipment at or beyond ``next_needed``, oldest
        first — the delta-resync stream for a standby at that position.

        Only valid when ``next_needed >= floor``; the caller checks the
        floor first and falls back to a snapshot rebuild when the tail
        has been garbage-collected out from under the standby.
        """
        out = [s for s in self.history.values() if s.seq >= next_needed]
        out.extend(s for s in self.unacked.values() if s.seq >= next_needed)
        return out

    def entries_beyond(self, last_admitted: int) -> list[Entry]:
        """Every entry past a standby's last admitted seq, oldest first,
        WITHOUT consuming shipper state. The promotion winner applies
        these; the surviving losers keep tailing the retained stream
        under the new primary, so nothing may be destroyed here."""
        entries: list[Entry] = []
        for shipment in self.history.values():
            if shipment.seq > last_admitted:
                entries.extend(shipment.entries)
        for shipment in self.unacked.values():
            if shipment.seq > last_admitted:
                entries.extend(shipment.entries)
        entries.extend(self.outbox)
        return entries

    def drain_entries(self) -> list[Entry]:
        """Hand over every entry not yet admitted by the group, oldest
        first, clearing the in-flight state. Used when the whole group is
        being torn down/rebuilt: these entries were acknowledged to
        clients, so a successor must apply them before it can serve."""
        entries: list[Entry] = []
        for shipment in self.unacked.values():
            entries.extend(shipment.entries)
        entries.extend(self.outbox)
        self.unacked.clear()
        self.outbox.clear()
        self.epoch_pending = False
        self.boundary_pending = False
        return entries
