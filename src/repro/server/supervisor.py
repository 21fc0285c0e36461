"""The supervisor: watchdog, recovery ladder, and degraded-mode exit.

The serving layer's availability story (docs/PROTOCOL.md, "Transport,
overload, and degraded-mode semantics") hinges on one invariant: after
*any* availability failure of the verifier path, no further data
operation touches the database until a recovery has completed — a lost
log batch would otherwise unbalance the epoch's set hashes at the next
close. The supervisor owns that gate:

* **Watchdog** — detects a verifier that rebooted *out of band* (no
  operation failed, but the enclave's reboot counter moved, meaning its
  volatile state is gone) and flips the server into degraded mode before
  the next request can hit the empty enclave.
* **Recovery ladder** — paced by a jittered
  :class:`~repro.backoff.BackoffPolicy`, each heal attempt climbs the
  rungs in cost order: verified record-level **repair** when the damage
  is latent quarantined rot and the verifier session is clean (the
  surgical rung — see :mod:`repro.scrub`), else **failover** to the warm
  standby when one is attached and healthy (the standby already holds
  every acknowledged write), else **checkpoint restore**
  (:meth:`FastVer.recover`), else lenient **log-scan salvage** when the
  checkpoint itself is damaged (:class:`~repro.errors.RecoveryError`).
  When salvage *also* reports the state unrecoverable, the ladder
  escalates with a typed :class:`~repro.errors.UnrecoverableError`
  carrying the fault seed and trace digest — the operator's repro
  handle. The ``server.supervisor.stall`` fault point models an attempt
  that dies before reaching the database.
* **Degraded-mode exit** — after the database is healthy again, the
  queued degraded-mode writes are replayed (idempotently: their original
  client nonces travel with them) and only then does the server return to
  normal service and count a recovery.

Each rung charges simulated ticks proportional to the work it really
does (per record restored/salvaged, per entry drained at promotion), so
recovery-time objectives are measurable: ``last_recovery_ticks`` holds
the cost of the latest successful heal session.
"""

from __future__ import annotations

from repro.backoff import BackoffPolicy
from repro.errors import (
    AvailabilityError,
    IntegrityError,
    RecoveryError,
    UnrecoverableError,
)
from repro.instrument import COUNTERS
from repro.obs import TRACER

# The recovery-ladder cost model: simulated ticks per rung.
#: Fixed cost of a checkpoint restore, plus a per-record scan cost.
RESTORE_BASE_TICKS = 5.0
RESTORE_TICK_PER_RECORD = 0.05
#: Fixed cost of a lenient log-scan salvage, plus per-record cost.
SALVAGE_BASE_TICKS = 10.0
SALVAGE_TICK_PER_RECORD = 0.05
#: Fixed cost of a failover promotion, plus a cost per drained
#: (acknowledged-but-unshipped) log entry — the warm standby already
#: holds everything else, which is the whole RTO argument.
PROMOTE_BASE_TICKS = 1.0
PROMOTE_TICK_PER_ENTRY = 0.02


class Supervisor:
    """Heals the verifier behind a :class:`FastVerServer`."""

    def __init__(self, server, policy: BackoffPolicy):
        self.server = server
        self.policy = policy
        #: Successful heal sessions (normal service restored).
        self.heals = 0
        #: Heal sessions that fell back to lenient salvage.
        self.salvages = 0
        #: Heal sessions resolved by promoting the warm standby.
        self.failovers = 0
        #: Simulated ticks the latest successful heal session cost.
        self.last_recovery_ticks = 0.0
        #: Which rung resolved the latest successful heal attempt.
        self._last_rung: str | None = None
        self._expected_reboots = server.db.enclave.reboots

    # ------------------------------------------------------------------
    def check_watchdog(self) -> None:
        """Flag an out-of-band verifier reboot before it can serve a
        request from empty volatile state."""
        if self.server.db.enclave.reboots != self._expected_reboots:
            self.server._enter_degraded("verifier rebooted out of band")

    def note_reboots(self) -> None:
        """Resynchronize the watchdog (recovery legitimately reboots)."""
        self._expected_reboots = self.server.db.enclave.reboots

    # ------------------------------------------------------------------
    def try_heal(self) -> bool:
        """One bounded heal session. Returns True when normal service is
        restored; False leaves the server degraded for a later session
        (every incoming request starts a new one, breaker permitting).
        Raises :class:`UnrecoverableError` when the bottom rung of the
        ladder reports the state unrecoverable — retrying cannot help."""
        server = self.server
        t0 = server.now
        slo = getattr(server, "_slo", None)
        # SLO advisory: with an objective already burning, the polite
        # first backoff delay is pure added downtime — skip straight to
        # the first attempt and let later attempts pace normally.
        urgent = slo is not None and bool(slo.firing())
        for attempt, delay in enumerate(self.policy.delays()):
            self.policy.sleep(0.0 if urgent and attempt == 0 else delay)
            if server.faults is not None and \
                    server.faults.fire("server.supervisor.stall"):
                continue
            if not self._heal_once():
                continue
            self.note_reboots()
            if not server._replay_degraded_writes():
                continue
            self.heals += 1
            COUNTERS.recovered += 1
            server._integrity_dirty = False
            self.last_recovery_ticks = server.now - t0
            COUNTERS.recovery_ticks += int(round(self.last_recovery_ticks))
            server._exit_degraded()
            TRACER.record("heal", server.now, None, rung=self._last_rung,
                          ticks=round(self.last_recovery_ticks, 1),
                          slo_pressure=urgent)
            return True
        return False

    def proactive_repair(self) -> bool:
        """SLO-advised repair pump: the ``scrub_quarantine`` objective is
        burning (the quarantine is not converging on its own), so run the
        surgical rung *now* — from normal service, without waiting for a
        heal session — and let the burn rate fall as the quarantine
        drains. Returns True when a repair pass ran and emptied it."""
        if self.server.degraded:
            return False  # a heal session owns recovery; don't race it
        if not self._try_repair():
            return False
        TRACER.record("heal", self.server.now, None, rung="repair",
                      ticks=0.0, slo_pressure=True, proactive=True)
        return True

    def _heal_once(self) -> bool:
        """One rung-climbing attempt: repair, else failover, else
        checkpoint restore, else lenient salvage. True when the database
        is healthy again."""
        server = self.server
        repl = server.replication
        # Rung 0: verified record-level repair. Cheapest by orders of
        # magnitude — it touches only the quarantined pages, not the
        # store — but narrow: it applies when the damage is *latent*
        # (scrubber-quarantined pages or suspect keys, found while the
        # verifier stayed clean and the enclave stayed up). An alarm the
        # verifier actually raised, or a dead enclave, means session
        # state is suspect and the heavier rungs own the heal.
        if self._try_repair():
            self._last_rung = "repair"
            return True
        # Rung 1: failover. The warm standby already holds every
        # acknowledged write, so promotion costs only the drained tail —
        # this is the RTO argument for replication.
        if repl is not None and repl.can_promote():
            try:
                drained = repl.promote()
            except AvailabilityError:
                return False
            self.failovers += 1
            self._last_rung = "failover"
            server._advance(PROMOTE_BASE_TICKS
                            + drained * PROMOTE_TICK_PER_ENTRY)
            # No _rollback_provisional here: the promoted state holds
            # every operation the idempotency table ever recorded.
            return True
        db = server.db
        # Rung 2: checkpoint restore in place.
        try:
            if db.last_checkpoint is None:
                raise RecoveryError("no checkpoint to recover from")
            db.recover(db.last_checkpoint)
        except RecoveryError as restore_exc:
            # Rung 3: the checkpoint is unusable — lenient log-scan
            # salvage. A RecoveryError *here too* means the ladder is out
            # of rungs; escalate with the repro handle instead of
            # retrying an attempt that cannot succeed.
            try:
                server._salvage()
            except RecoveryError as exc:
                faults = server.faults
                seed = getattr(faults, "seed", None)
                trace = faults.trace_digest() if faults is not None else "-"
                raise UnrecoverableError(
                    f"recovery ladder exhausted: "
                    f"restore failed ({restore_exc}); "
                    f"salvage failed ({exc}); no promotable standby; "
                    f"fault seed={seed} trace={trace}") from exc
            except AvailabilityError:
                return False
            self.salvages += 1
            self._last_rung = "salvage"
            server._advance(
                SALVAGE_BASE_TICKS
                + len(server.db.store) * SALVAGE_TICK_PER_RECORD)
        except AvailabilityError:
            return False
        else:
            # Checkpoint recovery rolled the database back to its last
            # durable state; un-checkpointed serving-layer bookkeeping
            # (provisional caches, non-durable dedup entries) must
            # follow it.
            self._last_rung = "restore"
            server._rollback_provisional()
            server._advance(
                RESTORE_BASE_TICKS
                + len(db.store) * RESTORE_TICK_PER_RECORD)
            # A restore re-reads the same device pages whose rot may have
            # tripped the alarm; repair the suspects now or the next
            # touch restarts the whole ladder.
            try:
                server._drain_suspects()
            except IntegrityError:
                # A repair courier lied; the forged pages stay
                # quarantined (and alarmed on touch) — the restore
                # itself still stands.
                server._integrity_dirty = True
        if repl is not None:
            # The healed primary's timeline rolled back past writes the
            # standby already applied; the old replica no longer extends
            # it. Rebuild the pair from the healed state.
            repl.resync()
        return True

    def _try_repair(self) -> bool:
        """Rung 0: resolve the heal by repairing quarantined pages in
        place. Only when the damage is latent — scrub quarantine or
        suspect keys with the verifier session itself clean and the
        enclave up — and only if every quarantined page actually ends up
        repaired; anything less falls through to the heavier rungs."""
        server = self.server
        scrub = server.scrubber()
        if scrub is None or server._integrity_dirty:
            return False
        db = server.db
        probe = db.enclave.probe()
        if not (probe["alive"] and probe["loaded"]):
            return False
        if not db.store.quarantined_addresses and not server._suspect_keys:
            return False
        try:
            if server._suspect_keys:
                server._drain_suspects()
            if db.store.quarantined_addresses:
                scrub.repair_pending()
        except IntegrityError:
            server._integrity_dirty = True
            return False
        return not db.store.quarantined_addresses
