"""Exception hierarchy for the FastVer reproduction.

Every failure the verifier can signal derives from :class:`IntegrityError`,
so callers that only care about "did someone tamper with my data" can catch
one type. Operational errors (bad arguments, capacity, protocol misuse by an
honest caller) derive from :class:`ReproError` but not ``IntegrityError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class IntegrityError(ReproError):
    """The verifier detected evidence of tampering or byzantine host behavior.

    Raising this is the *success* mode of the integrity machinery: a malicious
    host tried something and got caught. It is never raised during honest
    execution (tests assert this).
    """


class HashMismatchError(IntegrityError):
    """A record's value hash did not match the hash stored at its parent."""


class ParentNotInCacheError(IntegrityError):
    """A Merkle add/evict named a parent record that is not verifier-cached.

    An honest host always caches the parent first, so hitting this means the
    host either skipped the protocol step or lied about the tree structure.
    """


class StructuralError(IntegrityError):
    """The host presented an inconsistent view of the sparse Merkle tree.

    Examples: a claimed parent that is not an ancestor of the key, a pointer
    that does not point at the key being added, or an LCA that does not cover
    both keys during an insert split.
    """


class EpochError(IntegrityError):
    """An epoch rule was violated (e.g., a record skipped epoch migration)."""


class SetHashMismatchError(IntegrityError):
    """The aggregated read-set and write-set hashes differ at epoch close.

    This is the deferred-verification catch-all: *any* value/timestamp
    tampering of a deferred record that escaped per-operation checks lands
    here at the next verification scan.
    """


class ReplayError(IntegrityError):
    """A client nonce was replayed or went backwards."""


class SignatureError(IntegrityError):
    """A message authentication code failed to verify."""


class RollbackError(IntegrityError):
    """Verifier state on restore is older than the sealed anti-rollback state."""


class SplitBrainError(IntegrityError):
    """A receipt or leadership generation regressed: evidence that two
    verifiers are (or were) serving concurrently. Raised client-side when a
    server vouches for a generation lower than one the client has already
    adopted — the signature of a deposed primary still answering."""


class StaleReplayError(IntegrityError):
    """A verified-stale replica read contradicts trusted client state: the
    server vouched for an as-of epoch that provably covers a write this
    client settled (it holds the verifier-signed op receipt), yet served a
    superseded value back. That is a replay dressed up as staleness —
    honest replica lag can never travel behind the vouched as-of point."""


class ReceiptBindingError(IntegrityError):
    """A deduplicated server result contradicts the verifier receipt the
    client already holds for the same nonce. The idempotency table is host
    state; mutating a recorded answer after the fact is caught by re-checking
    it against the enclave-signed op receipt."""


class CacheStateError(IntegrityError):
    """The host referenced a cache slot inconsistently (wrong key / free slot)."""


class CorruptPageError(IntegrityError):
    """A persisted page failed *structural* decoding on read: the stored
    bytes no longer parse back into a log record at all. Untrusted
    storage makes rot and tampering indistinguishable by construction,
    so this surfaces as the detection it is — the serving layer heals
    and the scrubber quarantines the page for record-level repair."""


class RepairForgeryError(IntegrityError):
    """A scrub-repair candidate failed the enclave's re-vetting: the payload
    the host offered as the "authentic" copy of a corrupted record does not
    hash-match the Merkle state the verifier still holds for that key. The
    repair path never trusts its source — a standby, the shipped tail, and
    the host's own caches are all untrusted couriers — so a host that feeds
    the repairer a forged page is caught by exactly the ``add_merkle`` check
    that would have caught it serving the forgery directly."""


class ProtocolError(ReproError):
    """An honest-caller misuse of the verifier API (not an integrity failure)."""


class AvailabilityError(ReproError):
    """A benign (non-byzantine) failure: the operation did not complete and
    no result was produced, but recovery can restore service.

    This is the third leg of the tri-state invariant (see
    ``docs/PROTOCOL.md``): an operation either succeeds with a verifiable
    receipt, raises :class:`IntegrityError` because the host actually lied,
    or raises an ``AvailabilityError`` — "crashed mid-write" is typed
    differently from "tampered" by construction. After catching one, the
    caller must run recovery (``FastVer.recover``) before issuing further
    operations; the interrupted operation's state is indeterminate until
    then, though never silently wrong.
    """


class TransientIOError(AvailabilityError):
    """An untrusted I/O operation failed transiently; a retry may succeed."""


class TornWriteError(AvailabilityError):
    """A device write persisted only partially (power-loss analogue) and
    bounded read-back retries could not repair it."""


class EnclaveUnavailableError(AvailabilityError):
    """The enclave call gate failed transiently, or the enclave holds no
    restored state; the call did not execute and no trusted state changed."""


class EnclaveRebootError(EnclaveUnavailableError):
    """The enclave rebooted, losing volatile verifier state. Not retryable:
    the host must restore the sealed checkpoint (``FastVer.recover``) before
    any further enclave interaction."""


class OverloadError(AvailabilityError):
    """The serving layer shed the request: its admission queue (or the
    degraded-mode write queue) is full. The request was **not** applied;
    retrying after backoff is always safe."""


class DeadlineExceededError(AvailabilityError):
    """The request's deadline passed before it reached execution. The
    request was **not** applied (deadlines are only checked ahead of the
    store/verifier call, never between apply and respond — a result that
    exists is always returned)."""


class WireDropError(AvailabilityError):
    """The untrusted client<->server wire lost a message. If the *request*
    was lost nothing happened; if the *response* was lost the operation may
    have been applied — the SDK resolves the ambiguity through the
    server's nonce-keyed idempotency table, never by blind re-execution."""


class CircuitOpenError(AvailabilityError):
    """The circuit breaker around the enclave call gate is open: the
    request was rejected without touching the verifier. Reads may still be
    served from the degraded cache; writes fail fast until a half-open
    probe closes the breaker."""


class DegradedModeError(AvailabilityError):
    """The server is in degraded mode (verifier recovery in flight). A
    write raising this has been *queued* for replay after recovery — keep
    polling the idempotency table rather than re-issuing it. A read raising
    this missed the degraded cache and produced nothing."""


class BatchAbortedError(AvailabilityError):
    """A group-commit batch could not be isolated around a failing entry
    (the poisoned operation had already mutated host tree structure, e.g.
    an insert path) and the whole batch was voided. No operation in the
    batch was acknowledged; the server enters recovery and clients resolve
    through the idempotency table, exactly as for any availability error."""


class RetriesExhaustedError(AvailabilityError):
    """The client SDK spent its whole retry budget and confirmed, via the
    server's idempotency table, that the operation was never applied."""


class NotLeaderError(AvailabilityError):
    """The request carried a fenced leadership generation: a standby was
    promoted since the client last refreshed its view. Nothing was applied.
    The client should fetch ``leader_info`` (picking up the fence receipt),
    adopt the new generation, and resolve the in-flight op through the
    idempotency table before re-issuing."""


class LeaseExpiredError(AvailabilityError):
    """The primary's leadership lease expired and a quorum of standbys
    would not renew it. Nothing was applied — the whole point of the lease
    is that a deposed (or partitioned) primary stops burning host and
    enclave work *before* its first rejected ecall, rather than after.
    Clients back off and retry; an honest primary renews on its next pump,
    a deposed one never will (its replication group adopted a higher
    generation and refuses grants for the old one)."""


class RepairFailedError(AvailabilityError):
    """A scrub-repair attempt died before the candidate page was re-vetted
    and patched (no authentic source reachable, or the repair write itself
    failed — the ``scrub.repair.fail`` fault point). The page stays
    quarantined; the scrubber retries on a later pump and the supervisor's
    heal ladder falls through to the whole-store rungs."""


class UnrecoverableError(AvailabilityError):
    """The supervisor's whole recovery ladder — failover, checkpoint
    restore, lenient salvage — failed. Retrying cannot help; the message
    carries the fault seed and injection-trace digest so the failure can
    be replayed for manual intervention."""


class CapacityError(ReproError):
    """A fixed-size resource (verifier cache, enclave memory) is exhausted."""


class EnclaveError(ReproError):
    """Errors in the simulated enclave runtime (bad call gate usage, etc.)."""


class EnclaveDeadError(EnclaveUnavailableError, EnclaveError):
    """The enclave instance was destroyed (torn down or fenced) and can
    never serve again; only failover to a standby or a re-provision helps.
    Typed as both an availability failure (the supervisor routes it into
    the recovery ladder) and an enclave runtime error (call-gate misuse
    against a dead instance)."""


class StoreError(ReproError):
    """Errors inside the FASTER-style host store substrate."""


class CheckpointError(StoreError):
    """A checkpoint could not be taken or restored."""


class RecoveryError(StoreError):
    """Recovery from a checkpoint + log failed."""
