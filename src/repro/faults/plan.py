"""The fault-point registry and the seeded, reproducible fault plan.

A :class:`FaultPlan` is consulted at every *fault point* — a named
injection site compiled into the untrusted layers (log device, checkpoint
path, enclave call gate, receipt channel). Each consultation is an
*encounter*; the plan decides deterministically whether the fault fires,
from either an explicit schedule of encounter indices or a per-point
seeded coin. Decisions are independent per point (each point gets its own
RNG derived from ``(seed, point)``), so the same seed produces the same
injection trace whenever the program's control flow is the same — which is
what makes chaos runs replayable and shrinkable.

The plan also records its firing trace, so two runs can be compared
bit-for-bit (the reproducibility acceptance criterion) and a failing
schedule can be replayed as an explicit ``at_counts`` list.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

#: Every injection site compiled into the codebase. Specs naming anything
#: else are rejected eagerly — a typo'd point would otherwise never fire.
KNOWN_POINTS = frozenset({
    # LogDevice (store/hybridlog.py)
    "device.read.transient",    # read raises TransientIOError once
    "device.read.bitrot",       # latent sector corruption: one byte of the
                                # stored page flips *persistently* — every
                                # later read sees the rot (no error raised;
                                # detection is the scrubber's/verifier's job)
    "device.write.torn",        # write persists only a prefix of the page
    "device.flush.partial",     # flush aborts partway (prefix persisted)
    # Checkpoint blob path (store/checkpoint.py)
    "checkpoint.blob.truncate", # index blob loses its tail
    "checkpoint.blob.corrupt",  # one byte of the index blob flips
    "checkpoint.blob.bitrot",   # one byte of the *retained* blob flips after
                                # the checkpoint was taken (rot at rest): the
                                # token looks healthy until recover or scrub
                                # touches it
    # Enclave call gate (enclave/enclave.py)
    "ecall.transient",          # call gate fails before dispatch (EAGAIN)
    "ecall.reboot",             # surprise reboot: volatile state lost
    # Group-commit batching (core/fastver.py, enclave/enclave.py)
    "batch.partial",            # one staged put's client MAC corrupted, so
                                # the enclave rejects exactly that entry and
                                # the partial-batch isolation path runs
    "batch.reboot_mid_batch",   # enclave reboots while an apply_batch is
                                # executing; the host reinstates the batch
    # Client receipt channel (core/protocol.py)
    "receipt.drop",             # receipt lost in transit
    "receipt.duplicate",        # receipt delivered twice
    "receipt.reorder",          # receipt withheld, delivered late/out of order
    # Serving layer (server/pipeline.py, server/supervisor.py)
    "server.queue.shed",        # admission control sheds the request
    "server.wire.request",      # request lost before reaching the pipeline
    "server.wire.response",     # response lost after the op was applied
    "server.breaker.trip",      # circuit breaker forced open (downstream flap)
    "server.supervisor.stall",  # one supervisor recovery attempt fails
    # Replication channel (replication/manager.py)
    "repl.ship.drop",           # shipment lost in transit (retransmitted)
    "repl.ship.reorder",        # a later shipment delivered first
    "repl.ship.corrupt",        # one byte of the shipment body flips
    "repl.standby.lag",         # standby apply stalls this pump (lag spike)
    "repl.primary.kill",        # primary enclave destroyed mid-epoch
    "repl.standby.kill",        # one group member killed; same encounter
                                # index as repl.primary.kill = correlated
    "repl.lease.partition",     # one standby's lease grant never arrives
    # The standby's own enclave (replication/standby.py)
    "standby.reboot",           # replica enclave reboots; replica is rebuilt
    "standby.stall_mid_apply",  # replica dies partway through an apply
    # Background scrub & verified repair (scrub/scrubber.py)
    "scrub.repair.fail",        # one repair attempt dies before patching;
                                # the page stays quarantined and is retried
})


@dataclass(frozen=True)
class FaultSpec:
    """How one fault point behaves under a plan.

    ``probability`` draws a seeded coin per encounter; ``at_counts`` fires
    at exact encounter indices (0-based) regardless of the coin;
    ``max_fires`` caps total firings (so a "transient" fault can be made
    to heal after N occurrences).
    """

    probability: float = 0.0
    at_counts: tuple[int, ...] = ()
    max_fires: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.max_fires is not None and self.max_fires < 0:
            raise ValueError("max_fires cannot be negative")


def _coerce_spec(value) -> FaultSpec:
    if isinstance(value, FaultSpec):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return FaultSpec(probability=float(value))
    if isinstance(value, (list, tuple, set, frozenset)):
        return FaultSpec(at_counts=tuple(sorted(int(c) for c in value)))
    raise TypeError(f"cannot interpret fault spec {value!r}")


class FaultPlan:
    """A seeded, fully reproducible injection schedule over fault points.

    ``specs`` maps point names to a :class:`FaultSpec`, a bare probability
    (float), or an explicit encounter-index schedule (list of ints)::

        FaultPlan(seed=7, specs={
            "device.read.transient": 0.01,     # 1% of reads
            "ecall.reboot": [42],              # exactly the 43rd ecall
        })

    The same seed and the same program control flow yield the same
    decisions and the same :attr:`trace`, twice in a row.
    """

    def __init__(self, seed: int = 0,
                 specs: dict[str, FaultSpec | float | list | tuple] | None = None):
        self.seed = seed
        self._specs: dict[str, FaultSpec] = {}
        for point, value in (specs or {}).items():
            if point not in KNOWN_POINTS:
                raise ValueError(
                    f"unknown fault point {point!r}; known: {sorted(KNOWN_POINTS)}")
            self._specs[point] = _coerce_spec(value)
        self._rngs = {point: random.Random(f"{seed}:{point}")
                      for point in self._specs}
        self._schedules = {point: frozenset(spec.at_counts)
                           for point, spec in self._specs.items()}
        self._encounters: dict[str, int] = {}
        self._fires: dict[str, int] = {}
        #: Firing log: (point, encounter index) per injected fault, in order.
        self.trace: list[tuple[str, int]] = []

    # ------------------------------------------------------------------
    # The one hot call: consulted at every instrumented boundary
    # ------------------------------------------------------------------
    def fire(self, point: str) -> bool:
        """Record an encounter of ``point``; decide whether the fault fires."""
        if point not in KNOWN_POINTS:
            raise ValueError(f"unknown fault point {point!r}")
        n = self._encounters.get(point, 0)
        self._encounters[point] = n + 1
        spec = self._specs.get(point)
        if spec is None:
            return False
        if spec.max_fires is not None and self._fires.get(point, 0) >= spec.max_fires:
            return False
        hit = n in self._schedules[point]
        if not hit and spec.probability > 0.0:
            hit = self._rngs[point].random() < spec.probability
        if hit:
            self._fires[point] = self._fires.get(point, 0) + 1
            self.trace.append((point, n))
        return hit

    # ------------------------------------------------------------------
    # Introspection (chaos reports, reproducibility checks)
    # ------------------------------------------------------------------
    def points(self) -> list[str]:
        """The point names this plan can fire, sorted (reporting aid)."""
        return sorted(self._specs)

    def fires(self, point: str) -> int:
        return self._fires.get(point, 0)

    def trace_digest(self) -> str:
        """A stable hash of the full injection trace (reproducibility)."""
        h = hashlib.sha256()
        for point, n in self.trace:
            h.update(f"{point}@{n};".encode())
        return h.hexdigest()

    def __repr__(self) -> str:
        return (f"FaultPlan(seed={self.seed}, points={sorted(self._specs)}, "
                f"fires={len(self.trace)})")


def install_faults(db, plan: FaultPlan | None) -> FaultPlan | None:
    """Thread one plan through every untrusted boundary of a FastVer.

    Pass ``None`` to uninstall. Re-run after ``recover()`` replaces the
    store with one sharing the old log device (nothing to redo there), and
    after a full re-provision (new ``FastVer``), which starts fault-free.
    If a :class:`~repro.server.FastVerServer` fronts this database it is
    found through its back-reference and armed with the same plan, so the
    queue/wire/breaker/supervisor boundaries fire from the same trace.
    """
    db.faults = plan
    db.store.log.device.faults = plan
    db.enclave.faults = plan
    db.receipt_channel.faults = plan
    server = getattr(db, "_server", None)
    if server is not None:
        server.faults = plan
    return plan
