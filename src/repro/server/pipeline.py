"""The deadline-aware request pipeline in front of :class:`FastVer`.

This is the front end the paper's deployment model assumes (§2, Figure 1:
an untrusted host mediating between many clients and a small trusted
verifier) and the ROADMAP's traffic target requires: a request passes
through **admission** (bounded queue; overload is shed with a typed
error, never silently dropped), a **deadline** check against the server's
simulated clock, an **idempotency table** keyed by the client's own
nonces (so a retried operation is answered from the recorded result
instead of being re-applied or fed to the verifier's anti-replay window
twice), a **circuit breaker** around the enclave call gate, and finally
execution against the database. Failures flip the server into **degraded
mode**: reads are served from the cache of checkpoint-durable verified
values, writes are queued for idempotent replay, and the supervisor heals
the verifier in the background of subsequent requests.

Everything here is untrusted availability machinery. It cannot weaken
integrity: results still carry verifier receipts, degraded reads are
explicitly marked as such, and a lying pipeline is caught by exactly the
checks that catch a lying host.

Time is simulated: ``server.now`` advances per processed request and per
backoff sleep, which keeps chaos soaks deterministic while still giving
deadlines, breaker cooldowns, and retry pacing real meaning.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, replace

from repro.backoff import BackoffPolicy
from repro.core.fastver import FastVer
from repro.core.protocol import GetRequest, PutRequest
from repro.errors import (
    AvailabilityError,
    CircuitOpenError,
    DeadlineExceededError,
    DegradedModeError,
    IntegrityError,
    LeaseExpiredError,
    NotLeaderError,
    OverloadError,
    ProtocolError,
    WireDropError,
)
from repro.instrument import COUNTERS
from repro.obs import LATENCIES, TRACER
from repro.obs.slo import SloConfig, SloEngine
from repro.server.breaker import CircuitBreaker
from repro.server.supervisor import Supervisor
from repro.store.recovery import salvage

#: Simulated service time charged per processed request (ticks).
TIME_PER_REQUEST = 1.0
#: Pumps :meth:`FastVerServer.drain` spends waiting on streamed receipts.
DRAIN_PUMPS = 64
#: Consecutive verifier failures before the breaker opens.
BREAKER_THRESHOLD = 3
#: Degraded-mode write queue bound (beyond it, writes are shed).
DEGRADED_WRITE_CAPACITY = 256
#: LRU capacity of the verified-read cache serving degraded reads.
READ_CACHE_CAPACITY = 65536
#: Idempotency-table capacity (completed request results).
COMPLETED_CAPACITY = 8192


@dataclass
class ServerConfig:
    """Serving-layer tuning knobs (all times in simulated ticks)."""

    #: Admission queue bound; submissions beyond it are shed.
    queue_capacity: int = 64
    #: Deadline granted to a request that does not bring its own.
    default_deadline: float = 200.0
    #: Ticks an open breaker waits before admitting a half-open probe.
    breaker_cooldown: float = 30.0
    # --- group-commit batching (opt-in; see docs/PROTOCOL.md) ---------
    #: Stage queued operations into per-verifier-shard batches and settle
    #: each batch in a single multi-shard ecall (receipt-synchronous group
    #: commit). Off by default: the legacy pump is byte-identical.
    group_commit: bool = False
    #: Flush a shard's batch once it holds this many operations.
    max_batch_ops: int = 8
    #: Flush a shard's batch once its oldest op has lingered this long.
    max_batch_ticks: float = 8.0
    # --- pipelined settlement (opt-in; requires group_commit) ---------
    #: Dispatch each shard flush as a pipelined ecall whose receipts
    #: stream back on subsequent pumps instead of settling inside the
    #: pump that flushed it — admission overlaps verification. Off by
    #: default: the receipt-synchronous pump is byte-identical.
    pipeline: bool = False
    #: Explicit bound on completions awaiting an epoch receipt. At the
    #: bound, new submissions are shed with OverloadError (typed
    #: backpressure); completions already in flight that push past it
    #: drop the *oldest* pending latency observation, counted by
    #: ``COUNTERS.settlement_overflow`` and traced — never silently.
    settlement_capacity: int = 1 << 16
    # --- latency-budget batch controller (opt-in; needs group_commit) -
    #: p99 verified-latency budget in ticks. When set, an AIMD
    #: controller adapts each shard's effective max_batch_ops /
    #: max_batch_ticks to chase this budget: grow while under, halve on
    #: breach. None keeps the static knobs above.
    latency_budget_p99: float | None = None
    # --- background scrub & verified repair (repro.scrub) -------------
    #: Run the background scrubber one budgeted slice per pump. Off by
    #: default: with it off the pipeline is byte-identical to before.
    scrub_enabled: bool = False
    #: Device pages re-verified per scrub slice (the starvation bound:
    #: admission always outpaces the scrub walk). 3 pages at the default
    #: per-page cost keeps the steady-state tax under the 10% bar that
    #: BENCH_repair.json enforces; raise it to tighten rot-detection
    #: latency at the price of throughput.
    scrub_budget_pages: int = 3
    # --- SLO burn-rate engine (opt-in; see repro.obs.slo) -------------
    #: Declared service objectives. When set, an :class:`SloEngine`
    #: evaluates burn rates each epoch close (inside ``maintain()``),
    #: surfaces alerts via ``health()["slo"]`` and ``slo`` trace events,
    #: and advises the latency-budget controller (alert firing biases
    #: the AIMD shrink path) and the supervisor (quarantine alerts run a
    #: proactive repair pump). None keeps the server byte-identical to
    #: before — no evaluations, no counters, no trace events.
    slo: "SloConfig | None" = None


@dataclass
class ServerRequest:
    """The wire envelope: one client operation plus serving metadata."""

    kind: str                        # "get" | "put"
    op: GetRequest | PutRequest
    deadline: float
    worker: int = 0
    #: Leadership generation the client believes it is talking to; a
    #: mismatch after a failover earns a typed redirect (NotLeaderError)
    #: instead of silent service from a possibly-stale view.
    generation: int = 0
    #: Trace id for span events (repro.obs). Minted by the client SDK;
    #: requests submitted without one get :attr:`auto_trace` — derived
    #: from the idempotency key, so a retry of the same operation joins
    #: the same span.
    trace: str | None = None
    #: Simulated time this request was first admitted (stamped by the
    #: server; the anchor of the end-to-end verified-latency histogram).
    submitted_at: float | None = None
    #: Opt-in replica read: a get carrying a budget here may be served
    #: by a tailing standby as a *verified-stale* result, at most this
    #: many epochs behind the primary. None (the default) always routes
    #: to the primary.
    max_stale_epochs: int | None = None

    @property
    def client_id(self) -> int:
        return self.op.client_id

    @property
    def nonce(self) -> int:
        return self.op.nonce

    @property
    def dedup_key(self) -> tuple[int, int]:
        return (self.op.client_id, self.op.nonce)

    @property
    def auto_trace(self) -> str:
        """Fallback trace id: stable across retries of this operation."""
        return f"c{self.op.client_id}.n{self.op.nonce}"


@dataclass
class ServerResult:
    """What the server sends back over the wire."""

    payload: bytes | None
    nonce: int
    #: Served from the degraded cache: verified and checkpoint-durable,
    #: but possibly stale (see docs/PROTOCOL.md for the exact guarantee).
    degraded: bool = False
    #: Answered from the idempotency table (an earlier attempt applied).
    deduped: bool = False
    #: Leadership generation the answering server vouches for. Dedup and
    #: query replies are re-stamped with the *current* generation (an
    #: honest post-failover server vouches for its recorded results — they
    #: are durable across promotion by construction), so a regression here
    #: is always split-brain evidence, never a stale-but-honest record.
    generation: int = 0
    #: Served by a tailing standby as a verified-stale read: the value is
    #: covered by a completed set-hash verification at ``as_of_epoch``
    #: (primary epoch numbering) but may miss newer writes. Only returned
    #: for requests that opted in via ``max_stale_epochs``.
    stale: bool = False
    #: Primary epoch the serving standby last verified a marker for.
    as_of_epoch: int = 0
    #: How many epochs behind the primary that verification point was.
    stale_epochs: int = 0


@dataclass
class Ticket:
    """A submitted request's slot in the admission queue."""

    request: ServerRequest
    result: ServerResult | None = None
    error: Exception | None = None
    done: bool = False
    #: Simulated time this ticket entered a shard's open batch (group
    #: commit only; feeds the batch-residency histogram).
    staged_at: float | None = None


@dataclass
class _Completion:
    """Idempotency-table entry: the recorded outcome of an applied op."""

    result: ServerResult
    #: Covered by a checkpoint: survives recovery rollback.
    durable: bool = False


@dataclass
class _InFlightBatch:
    """A dispatched group commit whose receipts are still streaming back
    (``config.pipeline`` only). The ecall already ran — completions are
    recorded, state is applied — but the tickets resolve on a later
    pump, when the receipt stream delivers them. ``generation`` pins the
    leadership view at dispatch: settling under a newer generation
    rejects every ticket with ``NotLeaderError`` instead of vouching for
    receipts a deposed leader minted."""

    shard: int
    #: (ticket, result-or-None, per-op error-or-None), in batch order.
    entries: list[tuple[Ticket, ServerResult | None, Exception | None]]
    generation: int
    dispatched_at: float
    dispatched_pump: int


class FastVerServer:
    """The resilient serving layer around one :class:`FastVer`.

    ``salvage_hook``, when provided, is called with the list of
    ``(key_bits, payload)`` records a lenient log-scan salvage recovered,
    and returns the (possibly filtered) list to rebuild from — the chaos
    harness uses it to validate survivors against its oracle.
    """

    def __init__(self, db: FastVer, config: ServerConfig | None = None,
                 salvage_hook=None,
                 warm: list[tuple[int | bytes, bytes]] | None = None):
        self.db = db
        db._server = self
        self.config = config or ServerConfig()
        cfg = self.config
        self.now = 0.0
        self.faults = db.faults
        self.salvage_hook = salvage_hook
        self.breaker = CircuitBreaker(BREAKER_THRESHOLD, cfg.breaker_cooldown)
        # Pacing/budget of one supervisor heal session.
        heal = BackoffPolicy(
            max_attempts=4, base_delay=2.0, max_delay=30.0, seed=1)
        heal.sleep_fn = self._advance
        self.supervisor = Supervisor(self, heal)
        self.queue: deque[Ticket] = deque()
        #: Degraded-mode write backlog, FIFO, deduplicated by nonce.
        self.degraded_writes: "OrderedDict[tuple[int, int], ServerRequest]" \
            = OrderedDict()
        #: Idempotency table: (client_id, nonce) -> recorded outcome.
        self.completed: "OrderedDict[tuple[int, int], _Completion]" \
            = OrderedDict()
        #: Verified values as of the last checkpoint (degraded-read tier).
        self.committed_reads: OrderedDict = OrderedDict()
        #: Verified values observed since the last checkpoint.
        self.provisional_reads: dict = {}
        self.degraded_since: float | None = None
        self.degraded_reason: str | None = None
        self.replayed_writes = 0
        #: Leadership generation; bumped by each failover promotion.
        self.generation = 0
        #: client_id -> FenceReceipt from the most recent promotion.
        self._fences: dict = {}
        #: Warm-standby replication, attached via :meth:`attach_standby`.
        self.replication = None
        #: Background scrubber (built lazily; rebound when the database
        #: or the replication group changes under it).
        self._scrubber = None
        #: An operation tripped the verifier's alarm since the last
        #: successful heal. Gates the supervisor's repair rung: surgical
        #: repair is for *latent* rot found quietly by the scrubber, not
        #: for a store the verifier has already condemned mid-flight.
        self._integrity_dirty = False
        #: Keys whose touches raised the alarm — after a restore, these
        #: are re-checked and surgically repaired so a rotted device page
        #: cannot drive a restore → touch → alarm → restore loop.
        self._suspect_keys: set = set()
        #: Group-commit staging: shard id -> open batch of tickets.
        self._shard_batches: dict[int, list[Ticket]] = {}
        #: shard id -> simulated time its open batch admitted its first op.
        self._shard_opened: dict[int, float] = {}
        #: (client_id, nonce) -> shard currently staging that operation.
        self._staged_keys: dict[tuple[int, int], int] = {}
        self.batches_flushed = 0
        self.batch_ops_flushed = 0
        #: Pipelined dispatches whose receipts have not streamed back yet
        #: (config.pipeline only); settled by later pumps FIFO.
        self._inflight: deque = deque()
        #: Monotone pump counter: an in-flight batch settles once the
        #: pump counter has moved past the pump that dispatched it.
        self._pump_seq = 0
        self.batches_pipelined = 0
        #: (trace, submitted_at) of completions whose epoch receipt is
        #: still pending — drained into the verified-latency histogram by
        #: the next successful epoch close. Explicitly bounded by
        #: config.settlement_capacity: submissions are shed at the bound
        #: and any overflow past it (work already admitted) drops the
        #: oldest observation with a counter bump and a trace event.
        self._awaiting_epoch: deque = deque()
        #: AIMD latency-budget controller (None unless configured).
        self._controller = None
        if cfg.latency_budget_p99 is not None and cfg.group_commit:
            from repro.server.controller import LatencyBudgetController
            self._controller = LatencyBudgetController(self)
        #: SLO burn-rate engine (None unless objectives are declared).
        self._slo = SloEngine(cfg.slo) if cfg.slo is not None else None
        #: bitkey() memo. The derivation is pure in the configured key
        #: width, so entries stay valid across recovery and salvage.
        self._bitkey_cache: OrderedDict = OrderedDict()
        self.bitkey_hits = 0
        self.bitkey_misses = 0
        for key, payload in (warm or []):
            self.committed_reads[db.data_key(key)] = payload
        self._trim_read_cache()

    # ==================================================================
    # Clock
    # ==================================================================
    def _advance(self, ticks: float) -> None:
        self.now += ticks

    def advance(self, ticks: float) -> None:
        """Let simulated time pass (tests drive deadlines through this)."""
        if ticks < 0:
            raise ValueError("time does not run backwards")
        self._advance(ticks)

    # ==================================================================
    # Wire API
    # ==================================================================
    #: bitkey() memo bound (entries are tiny; the bound only guards
    #: against pathological key churn).
    BITKEY_CACHE_CAPACITY = 65536

    def bitkey(self, key: int | bytes):
        """Map a client key to the data-width BitKey requests are signed
        over (stable across recovery and salvage — it only depends on the
        configured key width). Memoized: SDK clients derive the same key's
        BitKey once per operation, and at batched throughputs the hash
        derivation shows up ahead of the enclave in the host profile."""
        hit = self._bitkey_cache.get(key)
        if hit is not None:
            self._bitkey_cache.move_to_end(key)
            self.bitkey_hits += 1
            return hit
        self.bitkey_misses += 1
        derived = self.db.data_key(key)
        self._bitkey_cache[key] = derived
        if len(self._bitkey_cache) > self.BITKEY_CACHE_CAPACITY:
            self._bitkey_cache.popitem(last=False)
        return derived

    def submit(self, request: ServerRequest) -> Ticket:
        """Admission control: accept the request into the bounded queue or
        shed it with a typed error. Consults the wire fault point first —
        a dropped request was never admitted anywhere."""
        if request.trace is None:
            request.trace = request.auto_trace
        if self.faults is not None and \
                self.faults.fire("server.wire.request"):
            COUNTERS.wire_drops += 1
            TRACER.record("drop", self.now, request.trace, wire="request")
            raise WireDropError("request lost on the client->server wire")
        if len(self.queue) >= self.config.queue_capacity:
            COUNTERS.shed += 1
            TRACER.record("shed", self.now, request.trace,
                          reason="queue_full")
            raise OverloadError(
                f"admission queue full ({self.config.queue_capacity})")
        if len(self._awaiting_epoch) >= self.config.settlement_capacity:
            # Typed backpressure: the settlement queue is a real resource;
            # admitting more work at the bound would silently discard the
            # oldest pending receipt observation instead.
            COUNTERS.shed += 1
            TRACER.record("shed", self.now, request.trace,
                          reason="settlement_backlog")
            raise OverloadError(
                f"settlement backlog at capacity "
                f"({self.config.settlement_capacity} completions awaiting "
                f"an epoch receipt); close an epoch (maintain) before "
                f"submitting more")
        if self.faults is not None and \
                self.faults.fire("server.queue.shed"):
            COUNTERS.shed += 1
            TRACER.record("shed", self.now, request.trace, reason="fault")
            raise OverloadError("admission control shed the request")
        COUNTERS.admitted += 1
        request.submitted_at = self.now
        TRACER.record("admit", self.now, request.trace, op=request.kind,
                      worker=request.worker, generation=request.generation)
        ticket = Ticket(request)
        self.queue.append(ticket)
        return ticket

    def pump(self, max_requests: int | None = None) -> int:
        """Process queued requests FIFO; returns how many were processed.

        One loop takes tickets off the queue; the serving mode decides
        what happens to each. Per-op (the default): it executes on its
        own. ``config.group_commit``: it is staged into its verifier
        shard's open batch (:meth:`_stage`) and each batch settles in one
        multi-shard ecall; every open batch flushes and settles before
        pump returns — group commit batches crossings, never
        acknowledgements. ``config.pipeline`` on top of that: the pump
        first settles receipts streamed back from batches dispatched on
        earlier pumps, and open batches may stay staged across pumps
        while new work keeps arriving, so deep batches fill while
        admission continues; an idle pump (nothing admitted, queue
        empty) dispatches whatever is staged rather than stall."""
        batched = self.config.group_commit
        pipelined = batched and self.config.pipeline
        if pipelined:
            self._pump_seq += 1
            self._settle_inflight()
        processed = 0
        while self.queue and (max_requests is None
                              or processed < max_requests):
            ticket = self.queue.popleft()
            self._advance(TIME_PER_REQUEST)
            request = ticket.request
            if request.submitted_at is not None:
                LATENCIES.observe("admission_wait",
                                  self.now - request.submitted_at,
                                  trace=request.trace)
            if batched:
                self._stage(ticket)
            else:
                try:
                    self._execute(ticket)
                except Exception as exc:
                    self._fail(ticket, exc)
            processed += 1
        if pipelined:
            self._flush_due()
            if processed == 0 and not self.queue:
                # Idle pump: no new arrivals can deepen the open batches
                # this pump, so dispatch them instead of stalling the
                # receipt stream.
                self._flush_open_batches()
        elif batched:
            self._flush_open_batches()
        self._scrub_pump()
        if self.replication is not None:
            self.replication.pump()
        return processed

    def drain(self, tickets) -> bool:
        """Pump until every ticket is done — under ``config.pipeline``
        receipts stream back on later pumps — or :data:`DRAIN_PUMPS`
        pumps have passed; returns whether they all settled."""
        for _ in range(DRAIN_PUMPS):
            if all(t.done for t in tickets):
                return True
            self.pump()
        return all(t.done for t in tickets)

    def handle(self, request: ServerRequest) -> ServerResult:
        """Synchronous convenience: submit, drain the queue, and return
        this request's outcome (raising its typed error, if any)."""
        ticket = self.submit(request)
        self.pump()
        if not ticket.done and not self.drain((ticket,)):
            raise RuntimeError(
                "pipelined ticket failed to settle: a dispatched "
                "batch never streamed its receipt back")
        if ticket.error is not None:
            raise ticket.error
        assert ticket.result is not None
        return ticket.result

    def query(self, client_id: int, nonce: int):
        """Idempotency lookup for a retrying client: ``("done", result)``
        if the operation was applied, ``("pending", None)`` if it sits in
        the degraded-mode write queue, else ``("unknown", None)`` —
        meaning it was never applied and a fresh-nonce reissue is safe."""
        hit = self.completed.get((client_id, nonce))
        if hit is not None:
            return ("done", replace(hit.result, deduped=True,
                                    generation=self.generation))
        if (client_id, nonce) in self.degraded_writes:
            return ("pending", None)
        return ("unknown", None)

    def cancel(self, client_id: int, nonce: int) -> ServerResult | None:
        """Definitive resolution for a client giving up: returns the
        recorded result if the operation was applied, otherwise removes it
        from the degraded write queue and returns None — after which the
        operation can never be applied."""
        hit = self.completed.get((client_id, nonce))
        if hit is not None:
            return replace(hit.result, deduped=True,
                           generation=self.generation)
        self.degraded_writes.pop((client_id, nonce), None)
        return None

    # ==================================================================
    # Execution
    # ==================================================================
    @property
    def degraded(self) -> bool:
        return self.degraded_since is not None

    @property
    def recoveries(self) -> int:
        return self.supervisor.heals

    def _admission(self, request: ServerRequest) -> ServerResult | None:
        """Everything that happens to a request *before* it reaches the
        database, in the exact order the legacy path runs it: watchdog,
        deadline, background heal, idempotency lookup, generation fence,
        degraded-mode service, and the circuit breaker. Returns a result
        for requests answered here (dedup hits, degraded/cached reads),
        raises their typed errors, and returns None for requests cleared
        to execute. Shared verbatim by the per-op and batched pumps."""
        self.supervisor.check_watchdog()
        if self.now > request.deadline:
            COUNTERS.deadline_expired += 1
            TRACER.record("deadline", self.now, request.trace,
                          deadline=request.deadline)
            raise DeadlineExceededError(
                f"deadline {request.deadline:.0f} passed at "
                f"{self.now:.0f} before execution; the operation was "
                f"not applied")
        if self.degraded and self.breaker.allow(self.now):
            if not self.supervisor.try_heal():
                self.breaker.record_failure(self.now)
        # Dedup AFTER any heal: healing rolls non-durable completions
        # back, so a hit here is either checkpoint-durable or was applied
        # by this very recovery's replay — never a rolled-back ghost.
        hit = self.completed.get(request.dedup_key)
        if hit is not None:
            TRACER.record("dedup", self.now, request.trace)
            return replace(hit.result, deduped=True,
                           generation=self.generation)
        # Generation fence: after the dedup lookup (a stale client whose
        # op DID land still gets its recorded answer), before any fresh
        # work is accepted from a client that hasn't adopted the fence.
        if request.generation != self.generation:
            TRACER.record("fence", self.now, request.trace,
                          stale=request.generation,
                          current=self.generation)
            raise NotLeaderError(
                f"request names leadership generation "
                f"{request.generation}, current is {self.generation}; "
                f"fetch leader_info, adopt the fence receipt, and resolve "
                f"in-flight operations through the idempotency table")
        # Lease gate: BEFORE degraded serving, so a deposed (or
        # partitioned) primary whose quorum abandoned it cannot keep
        # answering even from its degraded cache — it stops on its first
        # request after expiry, ahead of any rejected ecall. An honest
        # primary renews inside lease_ok() long before the margin.
        if self.replication is not None and not self.replication.lease_ok():
            TRACER.record("lease", self.now, request.trace, event="gate",
                          generation=self.generation)
            raise LeaseExpiredError(
                "leadership lease expired and the standby quorum would "
                "not renew it; back off and retry — an honest primary "
                "recovers on its next pump, a deposed one never will")
        if self.degraded:
            return self._degraded_op(request)
        if self.faults is not None and \
                self.faults.fire("server.breaker.trip"):
            self.breaker.force_open(self.now)
        if not self.breaker.allow(self.now):
            if request.kind == "get":
                return self._cached_read(
                    request, CircuitOpenError(
                        "breaker open and key not in the verified-read "
                        "cache"))
            raise CircuitOpenError(
                "circuit breaker open: writes fail fast until a probe "
                "closes it")
        return None

    def _try_replica(self, request: ServerRequest) -> ServerResult | None:
        """Route an opted-in get to the replication group's freshest
        tailing standby. Returns None — falling through to the primary —
        when the request did not opt in, no live replica is within both
        the group's and the request's staleness budget, or the replica
        holds no verified-committed value for the key. No completion is
        recorded: a replica read mints no receipt (the client's SDK vets
        it against receipts it already holds instead)."""
        if (self.replication is None or request.kind != "get"
                or request.max_stale_epochs is None):
            return None
        hit = self.replication.replica_read(request.op.key.bits)
        if hit is None:
            return None
        payload, as_of_epoch, stale_epochs = hit
        if stale_epochs > request.max_stale_epochs:
            return None
        return ServerResult(payload, request.nonce, stale=True,
                            as_of_epoch=as_of_epoch,
                            stale_epochs=stale_epochs,
                            generation=self.generation)

    def _execute(self, ticket: Ticket) -> None:
        """The per-op path: resolve ``ticket`` or raise its typed error
        (which the pump records through :meth:`_fail`)."""
        request = ticket.request
        early = self._admission(request)
        if early is None:
            early = self._try_replica(request)
        if early is not None:
            ticket.result = early
            ticket.done = True
            return
        try:
            result = self._apply(request)
        except IntegrityError:
            # The verifier working, not the verifier failing — but note
            # the key: if a restore follows, the suspect drain re-checks
            # it so a rotted page cannot re-trip the alarm forever.
            self._integrity_dirty = True
            key = getattr(request.op, "key", None)
            if key is not None:
                self._suspect_keys.add(key)
            raise
        except AvailabilityError as exc:
            self.breaker.record_failure(self.now)
            self._enter_degraded(f"{type(exc).__name__}: {exc}")
            raise
        self.breaker.record_success()
        self._record_completion(request, result)
        self._deliver(ticket, result)

    def _fail(self, ticket: Ticket, exc: Exception) -> None:
        """Resolve ``ticket`` with a typed error, traced on its span."""
        ticket.error = exc
        TRACER.record("error", self.now, ticket.request.trace,
                      type=type(exc).__name__)
        ticket.done = True

    def _deliver(self, ticket: Ticket, result: ServerResult) -> None:
        """Put a recorded result on the response wire and resolve its
        ticket; the ``server.wire.response`` fault loses it in transit."""
        if self.faults is not None and \
                self.faults.fire("server.wire.response"):
            COUNTERS.wire_drops += 1
            lost = WireDropError(
                "response lost on the server->client wire (the operation "
                "WAS applied; the idempotency table remembers it)")
            if not self.config.group_commit:
                # The per-op pump's span has always carried a lost
                # response as the op's typed error; group commit names
                # the wire instead. Spools are pinned byte-for-byte.
                self._fail(ticket, lost)
                return
            TRACER.record("drop", self.now, ticket.request.trace,
                          wire="response")
            ticket.error = lost
        else:
            ticket.result = result
        ticket.done = True

    def _apply(self, request: ServerRequest) -> ServerResult:
        client = self.db.clients.get(request.client_id)
        if client is None:
            raise ProtocolError(
                f"request from unregistered client {request.client_id}")
        worker = request.worker % self.db.config.n_workers
        if request.kind == "get":
            op = self.db.apply_get(client, request.op, worker)
        elif request.kind == "put":
            op = self.db.apply_put(client, request.op, worker)
        else:
            raise ProtocolError(f"unknown request kind {request.kind!r}")
        return ServerResult(op.payload, op.nonce,
                            generation=self.generation)

    def _record_completion(self, request: ServerRequest,
                           result: ServerResult) -> None:
        self.provisional_reads[request.op.key] = result.payload
        self.completed[request.dedup_key] = _Completion(result)
        TRACER.record("receipt", self.now, request.trace,
                      op=request.kind)
        if request.submitted_at is not None:
            self._awaiting_epoch.append((request.trace,
                                         request.submitted_at))
            while len(self._awaiting_epoch) > \
                    self.config.settlement_capacity:
                # Work admitted before the backlog filled can still push
                # past the bound; the drop is counted and traced, never
                # silent (the request itself is unaffected — only its
                # pending latency observation is lost).
                dropped, _ = self._awaiting_epoch.popleft()
                COUNTERS.settlement_overflow += 1
                TRACER.record("shed", self.now, dropped,
                              reason="settlement_overflow")
        if self.replication is not None and request.kind == "put":
            # Ship the signed request itself: the standby's enclave
            # re-validates the client MAC, so the channel never has to be
            # trusted with the op's authenticity.
            self.replication.note_put(request.op)
        while len(self.completed) > COMPLETED_CAPACITY:
            self.completed.popitem(last=False)

    # ------------------------------------------------------------------
    # Group-commit batching (opt-in via config.group_commit)
    # ------------------------------------------------------------------
    def _stage(self, ticket: Ticket) -> None:
        """Admit one ticket into its shard's open batch (or resolve it
        early: typed admission error, dedup hit, degraded/replica read).

        Flush policy: a shard flushes when it reaches ``max_batch_ops``,
        when its oldest staged op has lingered ``max_batch_ticks``, when a
        staged op's deadline is about to expire, or when a retry of an
        already-staged (client, nonce) arrives (so the retry is answered
        from the idempotency table instead of being staged twice)."""
        request = ticket.request
        try:
            early = self._admission(request)
        except Exception as exc:
            self._fail(ticket, exc)
            return
        if early is None:
            early = self._try_replica(request)
        if early is not None:
            ticket.result = early
            ticket.done = True
            return
        dedup_key = request.dedup_key
        staged_at = self._staged_keys.get(dedup_key)
        if staged_at is not None:
            # Dedup-aware flush: commit the staged twin first, then
            # answer this retry from the table it just landed in.
            self._flush_shard(staged_at)
            hit = self.completed.get(dedup_key)
            if hit is not None:
                ticket.result = replace(hit.result, deduped=True,
                                        generation=self.generation)
                ticket.done = True
                return
            # The twin failed; this attempt proceeds on its own.
        shard = request.worker % self.db.config.n_workers
        batch = self._shard_batches.setdefault(shard, [])
        if not batch:
            self._shard_opened[shard] = self.now
        ticket.staged_at = self.now
        TRACER.record("stage", self.now, request.trace,
                      shard=shard, depth=len(batch) + 1)
        batch.append(ticket)
        self._staged_keys[dedup_key] = shard
        if len(batch) >= self._batch_limit(shard):
            self._flush_shard(shard)
        else:
            self._flush_due()

    def _batch_limit(self, shard: int) -> int:
        """Effective max_batch_ops for a shard: the controller's adapted
        bound when one is running, else the static knob."""
        if self._controller is not None:
            return self._controller.batch_limit(shard)
        return self.config.max_batch_ops

    def _linger_limit(self, shard: int) -> float:
        """Effective max_batch_ticks for a shard (see _batch_limit)."""
        if self._controller is not None:
            return self._controller.linger_limit(shard)
        return self.config.max_batch_ticks

    def _flush_due(self) -> None:
        """Flush shards whose linger window closed or whose oldest staged
        deadline would not survive another service tick."""
        horizon = self.now + TIME_PER_REQUEST
        for shard in list(self._shard_batches):
            batch = self._shard_batches.get(shard)
            if not batch:
                continue
            age = self.now - self._shard_opened.get(shard, self.now)
            if age >= self._linger_limit(shard) or \
                    any(t.request.deadline <= horizon for t in batch):
                self._flush_shard(shard)

    def _flush_open_batches(self) -> None:
        for shard in list(self._shard_batches):
            self._flush_shard(shard)

    def _flush_shard(self, shard: int) -> None:
        """Settle one shard's open batch through ``FastVer.apply_batch``
        and resolve its tickets, mirroring the legacy path's post-apply
        stages (breaker accounting, degraded-mode entry, completion
        recording, response-wire fault) per operation."""
        batch = self._shard_batches.pop(shard, None)
        self._shard_opened.pop(shard, None)
        if not batch:
            return
        ops = []
        live: list[Ticket] = []
        for ticket in batch:
            self._staged_keys.pop(ticket.request.dedup_key, None)
            request = ticket.request
            if self.now > request.deadline:
                # It lingered past its deadline waiting for batch-mates.
                COUNTERS.deadline_expired += 1
                TRACER.record("deadline", self.now, request.trace,
                              deadline=request.deadline, staged=True)
                ticket.error = DeadlineExceededError(
                    f"deadline {request.deadline:.0f} passed at "
                    f"{self.now:.0f} while staged for group commit; the "
                    f"operation was not applied")
                ticket.done = True
                continue
            client = self.db.clients.get(request.client_id)
            worker = request.worker % self.db.config.n_workers
            ops.append((client, request.op, request.kind, worker))
            live.append(ticket)
        if not ops:
            return
        self.batches_flushed += 1
        self.batch_ops_flushed += len(ops)
        for ticket in live:
            # Per-op flush events (same shard/ops detail on each) so one
            # request's span carries its whole batched lifecycle.
            TRACER.record("flush", self.now, ticket.request.trace,
                          shard=shard, ops=len(ops))
            if ticket.staged_at is not None:
                LATENCIES.observe("batch_residency",
                                  self.now - ticket.staged_at,
                                  trace=ticket.request.trace)
        try:
            outcomes = self.db.apply_batch(ops)
        except IntegrityError as exc:
            # The verifier working, not the verifier failing — but with a
            # group commit the alarm voids every op in flight.
            self._integrity_dirty = True
            for ticket in live:
                key = getattr(ticket.request.op, "key", None)
                if key is not None:
                    self._suspect_keys.add(key)
                self._fail(ticket, exc)
            return
        except AvailabilityError as exc:
            self.breaker.record_failure(self.now)
            self._enter_degraded(f"{type(exc).__name__}: {exc}")
            for ticket in live:
                self._fail(ticket, exc)
            return
        # The ecall ran and its effects are the truth now — completions
        # recorded, provisional state applied. Receipt-synchronous group
        # commit settles each entry at once; under config.pipeline the
        # tickets resolve when the receipt stream delivers them on a
        # later pump (_settle_inflight), and the response-wire fault
        # point moves with the response: it fires at settle.
        streamed = self.config.pipeline
        entries: list = []
        for ticket, outcome in zip(live, outcomes):
            result = None
            if outcome.error is None:
                result = ServerResult(outcome.payload, outcome.nonce,
                                      generation=self.generation)
                self.breaker.record_success()
                self._record_completion(ticket.request, result)
            if streamed:
                entries.append((ticket, result, outcome.error))
            elif result is None:
                self._fail(ticket, outcome.error)
            else:
                self._deliver(ticket, result)
        if streamed:
            self._inflight.append(_InFlightBatch(
                shard, entries, self.generation, self.now,
                self._pump_seq))
            self.batches_pipelined += 1
            COUNTERS.inflight_batches_max = max(
                COUNTERS.inflight_batches_max, len(self._inflight))
        if self.replication is not None:
            # Shipping coalesces along batch boundaries: everything this
            # group commit produced travels in one shipment.
            self.replication.note_boundary()

    def _settle_inflight(self, force: bool = False) -> None:
        """Resolve dispatched batches whose receipts streamed back:
        everything dispatched on an earlier pump — or everything still in
        flight, when ``force`` (maintain() and the final drain must not
        leave receipts hanging)."""
        while self._inflight and (
                force or self._inflight[0].dispatched_pump
                < self._pump_seq):
            record = self._inflight.popleft()
            deposed = record.generation != self.generation
            for ticket, result, error in record.entries:
                request = ticket.request
                if deposed:
                    # The receipt was minted by a leadership generation
                    # that has since been fenced off; an honest server
                    # refuses to vouch for it. The operation itself DID
                    # apply and survived promotion (completions are
                    # durable across _adopt_promoted), so the client
                    # resolves through the idempotency table after
                    # adopting the fence.
                    TRACER.record("fence", self.now, request.trace,
                                  stale=record.generation,
                                  current=self.generation, streamed=True)
                    ticket.error = NotLeaderError(
                        f"streamed receipt was dispatched under deposed "
                        f"generation {record.generation}, current is "
                        f"{self.generation}; fetch leader_info, adopt "
                        f"the fence receipt, and resolve through the "
                        f"idempotency table")
                    ticket.done = True
                    continue
                if error is not None:
                    self._fail(ticket, error)
                    continue
                TRACER.record("settle", self.now, request.trace,
                              shard=record.shard,
                              pumps=self._pump_seq - record.dispatched_pump)
                self._deliver(ticket, result)

    # ------------------------------------------------------------------
    # Degraded mode
    # ------------------------------------------------------------------
    def _cached_read(self, request: ServerRequest,
                     miss: Exception) -> ServerResult:
        key = request.op.key
        if key in self.committed_reads:
            self.committed_reads.move_to_end(key)
            COUNTERS.degraded += 1
            TRACER.record("degraded", self.now, request.trace,
                          served="cached_read")
            return ServerResult(self.committed_reads[key], request.nonce,
                                degraded=True,
                                generation=self.generation)
        raise miss

    def _degraded_op(self, request: ServerRequest) -> ServerResult:
        if request.kind == "get":
            return self._cached_read(
                request, DegradedModeError(
                    "recovery in flight and key not in the verified-read "
                    "cache"))
        if request.dedup_key not in self.degraded_writes:
            if len(self.degraded_writes) >= DEGRADED_WRITE_CAPACITY:
                COUNTERS.shed += 1
                raise OverloadError("degraded-mode write queue full")
            self.degraded_writes[request.dedup_key] = request
            COUNTERS.degraded += 1
            TRACER.record("degraded", self.now, request.trace,
                          served="queued_write")
        raise DegradedModeError(
            "recovery in flight; write queued for idempotent replay — "
            "poll the idempotency table rather than reissuing")

    def _enter_degraded(self, reason: str) -> None:
        if self.degraded_since is None:
            self.degraded_since = self.now
            self.degraded_reason = reason

    def _exit_degraded(self) -> None:
        self.degraded_since = None
        self.degraded_reason = None
        self.breaker.record_success()

    def _rollback_provisional(self) -> None:
        """Checkpoint recovery rolled the database back; roll the serving
        layer's un-checkpointed bookkeeping back with it."""
        self.provisional_reads.clear()
        self.completed = OrderedDict(
            (k, v) for k, v in self.completed.items() if v.durable)
        # Rolled-back completions will never earn this epoch's receipt;
        # their pending latency observations roll back with them.
        self._awaiting_epoch.clear()

    def _replay_degraded_writes(self) -> bool:
        """Re-apply the degraded-mode write backlog FIFO. The original
        requests travel with their original nonces and MACs, so replay is
        idempotent end to end. Returns False (leaving the failed write at
        the queue head) if the database fails again mid-replay."""
        while self.degraded_writes:
            key, request = next(iter(self.degraded_writes.items()))
            try:
                result = self._apply(request)
            except AvailabilityError:
                return False
            self._record_completion(request, result)
            self.degraded_writes.pop(key, None)
            self.replayed_writes += 1
        return True

    # ------------------------------------------------------------------
    # Salvage (the recovery ladder's last rung)
    # ------------------------------------------------------------------
    def _salvage(self) -> None:
        """The checkpoint is unusable: salvage the log, re-provision a fresh
        database over the survivors, re-register the same clients (their
        keys and nonce counters carry over), and rebase every serving-layer
        cache on the salvaged state."""
        old_db = self.db
        log = old_db.store.log
        items = salvage(log.device, log.tail_address, old_db.config.key_width)
        if self.salvage_hook is not None:
            items = self.salvage_hook(items)
        new_db = FastVer(old_db.config, items=items)
        for client in old_db.clients.values():
            new_db.register_client(client)
        new_db.verify()
        new_db.checkpoint()
        old_db._server = None
        new_db._server = self
        self.db = new_db
        from repro.faults.plan import install_faults
        install_faults(new_db, self.faults)
        # The salvaged snapshot is the durable truth now.
        self.provisional_reads.clear()
        self.completed.clear()
        self._awaiting_epoch.clear()
        self.committed_reads = OrderedDict(
            (new_db.data_key(k), payload) for k, payload in items)
        self._trim_read_cache()

    def _trim_read_cache(self) -> None:
        while len(self.committed_reads) > READ_CACHE_CAPACITY:
            self.committed_reads.popitem(last=False)

    # ------------------------------------------------------------------
    # Background scrub & verified repair (repro.scrub)
    # ------------------------------------------------------------------
    def scrubber(self):
        """The server's scrubber, rebound whenever salvage or promotion
        swapped the database (or replication was attached) under it. The
        ledger and cumulative stats carry across rebinds — the audit
        trail outlives any one store instance."""
        if not self.config.scrub_enabled:
            return None
        current = self._scrubber
        if current is None or current.db is not self.db \
                or current.repl is not self.replication:
            from repro.scrub import Scrubber
            self._scrubber = Scrubber(
                self.db, budget_pages=self.config.scrub_budget_pages,
                repl=self.replication, server=self,
                now_fn=lambda: self.now, advance_fn=self._advance,
            ).inherit(current)
        return self._scrubber

    def _scrub_pump(self) -> None:
        """One budgeted scrub slice per pump, skipped while degraded (the
        supervisor owns the store then) or mid-alarm. A repair forgery —
        an external candidate the enclave rejected — has no client to
        surface to, so it degrades the server and lets the heal ladder
        replace the store from an authentic recovery point."""
        scrub = self.scrubber()
        if scrub is None or self.degraded or self._integrity_dirty:
            return
        try:
            scrub.pump()
        except IntegrityError as exc:
            self._integrity_dirty = True
            self.breaker.record_failure(self.now)
            self._enter_degraded(
                f"repair forgery detected: {type(exc).__name__}: {exc}")
        except AvailabilityError as exc:
            # A fault fired mid-repair: the enclave session may have run
            # ahead of the host's clock mirror, so the slice cannot simply
            # be retried — treat it like any other failed session and let
            # the heal ladder resynchronize host and enclave state.
            self.breaker.record_failure(self.now)
            self._enter_degraded(
                f"scrub interrupted mid-repair: {type(exc).__name__}: {exc}")

    def _drain_suspects(self) -> bool:
        """Post-restore rot triage: a restore rolls the *state* back, but
        the device pages it reads are the same ones that just tripped the
        alarm — if the cause was latent rot (not a live host attack), the
        next touch re-trips it and the ladder loops. Re-check every key
        whose touch raised the alarm, quarantine the ones whose pages
        really are dirty, and repair them surgically. Returns True when
        no suspect remains quarantined."""
        scrub = self.scrubber()
        suspects = list(self._suspect_keys)
        self._suspect_keys.clear()
        return scrub is None or not suspects or scrub.triage(suspects)

    # ------------------------------------------------------------------
    # Replication and failover
    # ------------------------------------------------------------------
    def attach_standby(self, config=None, promote_hook=None):
        """Provision a warm standby fed by authenticated log shipping;
        the supervisor's recovery ladder gains a failover rung."""
        from repro.replication.manager import ReplicationManager
        self.replication = ReplicationManager(self, config=config,
                                              promote_hook=promote_hook)
        return self.replication

    def leader_info(self, client_id: int):
        """Redirect target for a fenced client: the current generation
        plus this client's fence receipt from the latest promotion (None
        when no failover has happened yet)."""
        return (self.generation, self._fences.get(client_id))

    def _adopt_promoted(self, db: FastVer, generation: int, fences: dict,
                        items: list[tuple[int, bytes]]) -> None:
        """Swap the promoted standby in as this server's database.

        Called by :meth:`ReplicationManager.promote` after the fence is
        closed and the deposed enclave is down. Every recorded completion
        becomes durable — the standby holds every shipped *and* drained
        operation, so nothing in the idempotency table can roll back.
        """
        old_db = self.db
        old_db._server = None
        db._server = self
        self.db = db
        self.generation = generation
        self._fences = dict(fences)
        # Clients registered after the standby was bootstrapped may never
        # have shipped a put; carry them over so queued degraded writes
        # and fresh requests still resolve.
        for client in old_db.clients.values():
            if client.client_id not in db.clients:
                db.register_client(client)
        from repro.faults.plan import install_faults
        install_faults(db, self.faults)
        self.provisional_reads.clear()
        self.committed_reads = OrderedDict(
            (db.data_key(k), payload) for k, payload in items)
        self._trim_read_cache()
        for entry in self.completed.values():
            entry.durable = True
        # Promotion closed the fenced epochs on the standby: every
        # completion the new primary carries is epoch-verified now.
        self._settle_verified(promoted=True)
        self.supervisor.note_reboots()

    # ==================================================================
    # Maintenance and health
    # ==================================================================
    def maintain(self):
        """Epoch close + durable checkpoint through the pipeline's
        protections; promotes provisional serving-layer state to durable.
        Refuses (typed) while degraded — checkpointing a half-recovered
        store would launder provisional state into the recovery point."""
        if self._shard_batches:
            # A checkpoint must not straddle an open group commit: settle
            # staged work first so the maintain marker lands on a batch
            # boundary.
            self._flush_open_batches()
        if self._inflight:
            # Nor may it straddle receipts still streaming back: deliver
            # every in-flight dispatch before the epoch closes.
            self._settle_inflight(force=True)
        if self.degraded:
            if not self.supervisor.try_heal():
                raise DegradedModeError(
                    "cannot checkpoint while recovery is in flight")
        try:
            report = self.db.verify()
            checkpoint = self.db.checkpoint()
        except IntegrityError:
            raise
        except AvailabilityError as exc:
            self.breaker.record_failure(self.now)
            self._enter_degraded(f"{type(exc).__name__}: {exc}")
            raise
        if self.replication is not None:
            # The epoch close is on the log too: the standby closes its
            # own epoch and advances its sealed floor in step.
            self.replication.note_epoch(report.epoch)
        self._settle_verified(epoch=report.epoch)
        if self._slo is not None:
            # SLO evaluation peeks the verified-latency window (the
            # controller below still owns its reset-on-read) and runs
            # before the controller so a fresh alert biases this very
            # epoch's AIMD decision. The engine itself never counts —
            # the wiring does, and the counters are unpriced.
            fired = self._slo.observe_epoch(self)
            COUNTERS.slo_evaluations += 1
            COUNTERS.slo_alerts += fired
            if "scrub_quarantine" in self._slo.firing():
                if self.supervisor.proactive_repair():
                    COUNTERS.slo_proactive_repairs += 1
        if self._controller is not None:
            # The epoch close just fed the verified-latency window; let
            # the controller walk the batch bounds against its budget.
            self._controller.observe_epoch()
        elif self._slo is not None:
            # No controller to reset-on-read the window: take it here so
            # each SLO evaluation still sees one epoch's interval, not an
            # ever-growing cumulative tail.
            LATENCIES.take_window("verified_latency")
        for entry in self.completed.values():
            entry.durable = True
        self.committed_reads.update(self.provisional_reads)
        self.provisional_reads.clear()
        self._trim_read_cache()
        if self.replication is not None:
            self.replication.pump()
        return checkpoint

    def _settle_verified(self, epoch: int | None = None,
                         promoted: bool = False) -> None:
        """An epoch receipt landed (epoch close, or a promotion that
        fenced the epochs): every pending completion's end-to-end
        verified latency — op submit to receipt — is now known."""
        settled = len(self._awaiting_epoch)
        now, observe = self.now, LATENCIES.observe
        for trace, submitted_at in self._awaiting_epoch:
            observe("verified_latency", now - submitted_at, trace)
        self._awaiting_epoch.clear()
        TRACER.record("epoch", self.now, None, epoch=epoch,
                      settled=settled, promoted=promoted)

    def force_heal(self) -> bool:
        """Operator-initiated recovery (used after tamper cleanup): enter
        degraded mode and run one heal session immediately."""
        self._enter_degraded("operator-forced recovery")
        return self.supervisor.try_heal()

    def health(self) -> dict:
        """Liveness surface: always answers, even degraded."""
        return {
            "now": self.now,
            "mode": "degraded" if self.degraded else "normal",
            "degraded_reason": self.degraded_reason,
            "queue_depth": len(self.queue),
            "degraded_writes": len(self.degraded_writes),
            "breaker": self.breaker.snapshot(),
            "enclave": self.db.enclave.probe(),
            "recoveries": self.supervisor.heals,
            "salvages": self.supervisor.salvages,
            "replayed_writes": self.replayed_writes,
            "generation": self.generation,
            "failovers": self.supervisor.failovers,
            "batching": {
                "group_commit": self.config.group_commit,
                "open_shards": len(self._shard_batches),
                "staged_ops": sum(len(b)
                                  for b in self._shard_batches.values()),
                "batches_flushed": self.batches_flushed,
                "batch_ops_flushed": self.batch_ops_flushed,
                "bitkey_cache": {"hits": self.bitkey_hits,
                                 "misses": self.bitkey_misses},
                "pipeline": self.config.pipeline,
                "inflight_batches": len(self._inflight),
                "inflight_ops": sum(len(r.entries)
                                    for r in self._inflight),
                "batches_pipelined": self.batches_pipelined,
                "settlement_backlog": len(self._awaiting_epoch),
                "settlement_capacity": self.config.settlement_capacity,
            },
            "controller": None if self._controller is None
            else self._controller.snapshot(),
            "slo": None if self._slo is None else self._slo.snapshot(),
            "obs": {
                "trace_events": len(TRACER),
                "trace_dropped": TRACER.dropped,
                "trace_capacity": TRACER.capacity,
                "spool": None if TRACER.sink is None
                else TRACER.sink.stats(),
                "windows": LATENCIES.window_meta(),
            },
            "scrub": None if self._scrubber is None else {
                "pages_checked": self._scrubber.pages_checked,
                "mismatches": self._scrubber.mismatches_found,
                "repairs": self._scrubber.repairs_done,
                "full_passes": self._scrubber.full_passes,
                "quarantined": len(self.db.store.quarantined_addresses),
                "checkpoint_stale": self._scrubber.checkpoint_stale,
            },
            "replication": None if self.replication is None else {
                "standby_healthy": self.replication.can_promote(),
                "lag": self.replication.lag(),
                "shipped_batches": self.replication.shipped_batches,
                "rejects": self.replication.rejects,
                "group_size": len(self.replication.standbys),
                "group_live": len(self.replication.live_standbys()),
                "quorum": self.replication.config.quorum,
                "lease_valid": self.replication.lease_valid(),
            },
        }
