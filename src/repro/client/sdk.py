"""The retrying client SDK: at-most-once semantics over a lossy server.

A :class:`RetryingClient` wraps one :class:`~repro.core.protocol.Client`
talking to one :class:`~repro.server.FastVerServer` and absorbs every
*transient* :class:`~repro.errors.AvailabilityError` — shed admissions,
dropped wire messages, open breakers, in-flight recoveries — behind
jittered exponential backoff (the same
:class:`~repro.backoff.BackoffPolicy` the verifier's own ecall gate uses).

The hard problem a naive retry loop gets wrong twice over:

* **Blind re-execution double-applies.** A put whose *response* was lost
  on the wire WAS applied; applying it again is a lost-update bug waiting
  to happen (and re-submitting the same client nonce would trip the
  verifier's anti-replay window — a spurious integrity alarm). Every
  request therefore carries the nonce the client drew at construction
  time, and the server's idempotency table answers retries of an
  already-applied operation from the recorded result.
* **Giving up must be definitive.** When the budget runs out, the SDK
  issues a ``cancel``: the server either returns the recorded result (the
  op happened after all — report success) or removes it from the
  degraded-mode write queue (the op can now never happen — report
  failure). Either way the caller learns a truth, not a maybe.

So the retry protocol per failed attempt is: **query** the server for the
nonce's fate; ``done`` → return the recorded result; ``pending`` (queued
behind a recovery) → keep polling the *same* request; ``unknown`` → the
op was provably never applied, so re-issue under a *fresh* envelope
(fresh nonce, fresh deadline). Integrity errors are never retried — they
are the verifier speaking, and no amount of retrying un-tampers a store.

Failover adds one more case: a :class:`~repro.errors.NotLeaderError`
means a standby was promoted mid-conversation. The SDK fetches the new
leadership generation plus this client's *fence receipt* (verified under
the client's own MAC key — the host cannot forge it), after which every
receipt from the deposed verifier's fenced epochs is refused, and the
in-flight operation is resolved through the same idempotency query: done
→ it crossed the handoff, return it; unknown → reissue fresh. Exactly
once either way.
"""

from __future__ import annotations

from repro.backoff import BackoffPolicy
from repro.core.protocol import Client
from repro.errors import (
    AvailabilityError,
    IntegrityError,
    NotLeaderError,
    ReceiptBindingError,
    RetriesExhaustedError,
    SplitBrainError,
    StaleReplayError,
    UnrecoverableError,
)
from repro.instrument import COUNTERS
from repro.obs import TRACER
from repro.server.pipeline import FastVerServer, ServerRequest, ServerResult


class RetryingClient:
    """One client endpoint with transparent retry + idempotent dedup."""

    def __init__(self, server: FastVerServer, client: Client,
                 policy: BackoffPolicy | None = None):
        self.server = server
        self.client = client
        self.policy = policy or BackoffPolicy(
            max_attempts=5, base_delay=2.0, max_delay=16.0,
            seed=client.client_id)
        if self.policy.sleep_fn is None:
            # Couple retry pacing to the server's simulated clock so
            # backoff actually lets breaker cooldowns and recoveries pass.
            self.policy.sleep_fn = server._advance
        #: Operations abandoned after a definitive cancel.
        self.gave_up = 0
        #: Leadership generation this endpoint believes in; refreshed by
        #: following a NotLeaderError redirect after a failover.
        self.generation = server.generation
        #: Redirects followed (failovers observed by this endpoint).
        self.redirects = 0
        #: Trace ids minted by this endpoint (one per logical operation;
        #: retries and fresh envelopes keep the same id, so the whole
        #: retry saga is one span in the ring).
        self._trace_seq = 0
        #: key bits -> recent (nonce, payload) puts this endpoint made,
        #: oldest first. The trusted half of stale-read vetting: a
        #: replica claiming an as-of epoch that covers one of our own
        #: settled writes must not serve a value we provably superseded.
        self._writes: dict[int, list[tuple[int, bytes | None]]] = {}
    #: Per-key history bound for :attr:`_writes` (vetting only needs the
    #: recent tail; unbounded growth would leak in long soaks).
    WRITE_HISTORY = 8

    # ------------------------------------------------------------------
    def get(self, key: int | bytes) -> ServerResult:
        return self._run("get", key, None)

    def get_stale(self, key: int | bytes,
                  budget_epochs: int = 1) -> ServerResult:
        """A verified-stale read: opt in to service by a tailing standby
        at most ``budget_epochs`` behind the primary. The result comes
        back with ``stale=True`` and the epoch it was verified at
        (``as_of_epoch``) when a replica served it — an explicit, typed
        degraded-read contract, not a silent downgrade — and falls
        through to an ordinary primary read otherwise. Every stale
        result is vetted against this endpoint's trusted state (epoch
        receipts and its own settled writes) before being returned."""
        return self._run("get", key, None, max_stale_epochs=budget_epochs)

    def put(self, key: int | bytes, payload: bytes | None) -> ServerResult:
        result = self._run("put", key, payload)
        history = self._writes.setdefault(self.server.bitkey(key).bits, [])
        history.append((result.nonce, payload))
        del history[:-self.WRITE_HISTORY]
        return result

    # ------------------------------------------------------------------
    def envelope(self, kind: str, key: int | bytes,
                 payload: bytes | None = None,
                 trace: str | None = None,
                 max_stale_epochs: int | None = None,
                 generation: int | None = None) -> ServerRequest:
        """Sign one operation and wrap it for the wire: a fresh nonce,
        the server's default deadline from now, the key's shard, and this
        endpoint's leadership generation (or ``generation``, for drivers
        that submit tickets themselves and track the leader on their
        own)."""
        bk = self.server.bitkey(key)
        if kind == "get":
            op = self.client.make_get(bk)
        else:
            op = self.client.make_put(bk, payload)
        deadline = self.server.now + self.server.config.default_deadline
        return ServerRequest(
            kind, op, deadline, worker=bk.bits,
            generation=self.generation if generation is None else generation,
            trace=trace, max_stale_epochs=max_stale_epochs)

    def _follow_redirect(self, request: ServerRequest) -> None:
        """Adopt the new leadership generation and its fence receipt: the
        client verifies the fence under its own MAC key, after which it
        refuses every receipt the deposed verifier could have signed.

        Generations only move forward. A server redirecting us to a
        *lower* generation than one we already adopted is not a failover —
        it is a deposed primary still answering (split-brain), and
        following it would walk this endpoint back behind the fence."""
        generation, fence = self.server.leader_info(self.client.client_id)
        if generation < self.generation:
            TRACER.record("detect", self.server.now, request.trace,
                          detector="sdk_generation",
                          offered=generation, held=self.generation)
            raise SplitBrainError(
                f"redirect offers leadership generation {generation} but "
                f"this endpoint already adopted {self.generation}: a "
                f"deposed primary is still serving")
        if fence is not None:
            self.client.accept_fence(fence)
        self.generation = generation
        request.generation = generation
        self.redirects += 1

    def _vet(self, result: ServerResult, trace: str,
             expected_nonce: int | None = None) -> ServerResult:
        """Cross-check a server reply against trusted client state before
        handing it to the caller — the client-side half of the detection
        surface (host-owned tables are not evidence; receipts are).

        * The echoed nonce must be the one this request carried. Under
          pipelined settlement receipts stream back across pumps, so a
          byzantine host gets a new degree of freedom — pairing this
          request with some *other* in-flight ticket's settled result —
          and the nonce echo is what pins the pairing.
        * The vouched generation must never regress below the one this
          endpoint adopted via a verified fence receipt.
        * A deduplicated reply (served from the host-owned idempotency
          table) must agree with the verifier-signed op receipt the client
          holds for that nonce, if it holds one — a mismatch means the
          recorded answer was rewritten after the fact.
        """
        if expected_nonce is not None and result.nonce != expected_nonce:
            TRACER.record("detect", self.server.now, trace,
                          detector="sdk_receipt_binding",
                          nonce=result.nonce, expected=expected_nonce)
            raise ReceiptBindingError(
                f"reply echoes nonce {result.nonce} but this request "
                f"carried {expected_nonce}: the host mis-paired a "
                f"streamed settlement with the wrong in-flight request")
        if result.generation < self.generation:
            TRACER.record("detect", self.server.now, trace,
                          detector="sdk_generation",
                          offered=result.generation, held=self.generation)
            raise SplitBrainError(
                f"result vouches for leadership generation "
                f"{result.generation} below the adopted "
                f"{self.generation}: a deposed primary is still serving")
        if result.deduped and not result.degraded:
            receipt = self.client.receipt_for(result.nonce)
            if receipt is not None and receipt.payload != result.payload:
                TRACER.record("detect", self.server.now, trace,
                              detector="sdk_receipt_binding",
                              nonce=result.nonce)
                raise ReceiptBindingError(
                    f"deduplicated answer for nonce {result.nonce} "
                    f"contradicts the verifier receipt the client holds: "
                    f"the idempotency table was rewritten")
        return result

    def _vet_stale(self, result: ServerResult, key_bits: int,
                   trace: str) -> None:
        """Cross-check a verified-stale replica result against trusted
        client state. Two lies are catchable without any extra receipt:

        * **Freshness-floor lie.** The server vouches that the primary
          stands at ``as_of_epoch + stale_epochs``. This client holds a
          verifier-signed epoch receipt at ``settled_epoch``; the primary
          can never be behind that, so a vouched position below it is a
          replay dressed up as staleness.
        * **Read-your-settled-writes lie.** Among this endpoint's own
          puts to the key that are settled (epoch receipt in hand) AND
          covered by the vouched as-of epoch, the latest one is the value
          any honest view at that epoch must show. Serving one of the
          *superseded* own values instead is provably a rollback — honest
          replica lag can hide a newer write, never resurrect an older
          one from behind the vouched verification point.
        """
        settled = self.client.settled_epoch
        if result.as_of_epoch + result.stale_epochs < settled:
            TRACER.record("detect", self.server.now, trace,
                          detector="sdk_stale_replay",
                          as_of=result.as_of_epoch,
                          claimed_stale=result.stale_epochs,
                          settled=settled)
            raise StaleReplayError(
                f"stale read vouches for primary epoch "
                f"{result.as_of_epoch + result.stale_epochs} but this "
                f"client already settled epoch {settled}: the staleness "
                f"claim is a lie")
        covered = [payload for nonce, payload
                   in self._writes.get(key_bits, [])
                   if self.client.settled(nonce)
                   and (receipt := self.client.receipt_for(nonce))
                   is not None and receipt.epoch <= result.as_of_epoch]
        if covered and result.payload != covered[-1] \
                and result.payload in covered[:-1]:
            TRACER.record("detect", self.server.now, trace,
                          detector="sdk_stale_replay",
                          as_of=result.as_of_epoch)
            raise StaleReplayError(
                f"stale read served a value this client provably "
                f"superseded before the vouched as-of epoch "
                f"{result.as_of_epoch}: a replay dressed up as replica "
                f"lag")

    def _run(self, kind: str, key: int | bytes,
             payload: bytes | None,
             max_stale_epochs: int | None = None) -> ServerResult:
        self._trace_seq += 1
        trace = f"c{self.client.client_id}-{self._trace_seq}"
        request = self.envelope(kind, key, payload, trace,
                                max_stale_epochs)
        last: Exception | None = None
        for attempt, delay in enumerate(self.policy.delays()):
            self.policy.sleep(delay)
            if attempt:
                COUNTERS.retried += 1
                TRACER.record("retry", self.server.now, trace,
                              attempt=attempt,
                              after=type(last).__name__ if last else None)
            try:
                result = self._vet(self.server.handle(request), trace,
                                   expected_nonce=request.nonce)
                if result.stale:
                    self._vet_stale(result, request.op.key.bits, trace)
                return result
            except IntegrityError:
                raise
            except UnrecoverableError:
                raise  # the ladder is out of rungs; retrying cannot help
            except NotLeaderError as exc:
                # A failover happened under us. Adopt the fence, then let
                # the idempotency query below resolve whether this very
                # operation made it across the handoff — the ambiguous
                # straddling-put case resolves exactly-once here.
                last = exc
                self._follow_redirect(request)
                TRACER.record("redirect", self.server.now, trace,
                              generation=self.generation)
                status, result = self.server.query(request.client_id,
                                                   request.nonce)
                if status == "done":
                    # It crossed the failover; don't fork.
                    return self._vet(result, trace,
                                     expected_nonce=request.nonce)
                if status == "pending":
                    continue
                request = self.envelope(kind, key, payload, trace,
                                        max_stale_epochs)
                continue
            except AvailabilityError as exc:
                last = exc
                status, result = self.server.query(request.client_id,
                                                   request.nonce)
                if status == "done":
                    # Applied; the response was what we lost.
                    return self._vet(result, trace,
                                     expected_nonce=request.nonce)
                if status == "pending":
                    continue  # queued behind a recovery: poll, don't fork
                # "unknown": provably never applied — a fresh envelope
                # (fresh nonce, fresh deadline) is safe and necessary.
                request = self.envelope(kind, key, payload, trace,
                                        max_stale_epochs)
        resolved = self.server.cancel(request.client_id, request.nonce)
        if resolved is not None:
            return self._vet(resolved, trace,
                             expected_nonce=request.nonce)
        self.gave_up += 1
        raise RetriesExhaustedError(
            f"{kind} abandoned after {self.policy.max_attempts} attempts "
            f"(last: {type(last).__name__}: {last}); the cancel confirmed "
            f"it was never applied") from last
