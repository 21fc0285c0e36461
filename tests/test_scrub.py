"""Background scrub & verified record-level repair tests.

Covers the self-healing loop end to end: budgeted walks over
device-resident pages, quarantine on mismatch, repair through every tier
(cached / deferred / merkle) and from every source (external model,
server read cache, quorum standby), forgery rejection on both the
host-side pre-vet and the enclave gate, retained-checkpoint rot
flagging, and the repair ledger's audit/determinism properties — with
seeded fault-point firings across checkpoint→restore round-trips.
"""

from __future__ import annotations

import pytest

from repro.core.records import DataValue
from repro.errors import (
    RecoveryError,
    RepairFailedError,
    RepairForgeryError,
)
from repro.faults import FaultPlan, install_faults
from repro.faults.plan import FaultSpec
from repro.instrument import COUNTERS
from repro.replication.manager import RETAIN_MARGIN
from repro.scrub import Scrubber
from tests.conftest import small_fastver


def scrub_db(n_records=60, **kw):
    """A verified, checkpointed FastVer: the CPR flush puts every page on
    the device, so the scrubber has something at-rest to walk."""
    db, client = small_fastver(n_records=n_records, **kw)
    db.verify()
    db.checkpoint()
    return db, client


def workload_model(n_records):
    """The chaos harness's stand-in for an operator's external backup: a
    payload model plus the ``candidate_fn`` the scrubber consults."""
    payloads = {k: b"v%d" % k for k in range(n_records)}
    return payloads, (lambda bits: (bits in payloads, payloads.get(bits)))


def merkle_at_rest(db):
    """``(address, key)`` for every data record whose at-rest bytes are
    load-bearing: not verifier-cached, not deferred, flushed to device."""
    store = db.store
    device = store.log.device
    out = []
    for key, address in sorted(store.index.items(),
                               key=lambda kv: kv[1]):
        if key.length != db.config.key_width:
            continue
        if key in db.cached_where or key in db.deferred_index:
            continue
        if store.log.in_memory(address) or address not in device:
            continue
        out.append((address, key))
    return out


def smash(db, address):
    """Destroy one device page outright (undecodable garbage) — the
    deterministic stand-in for rot/tear damage."""
    db.store.log.device._pages[address] = b"\x01rot"


# ======================================================================
# Budgeted walk
# ======================================================================
class TestScrubWalk:
    def test_clean_store_converges_without_findings(self):
        db, _ = scrub_db()
        scrub = Scrubber(db, budget_pages=16)
        assert scrub.scrub_to_convergence()
        assert scrub.mismatches_found == 0
        assert len(scrub.ledger) == 0
        assert scrub.full_passes >= 1
        assert COUNTERS.scrubbed_pages > 0

    def test_budget_bounds_each_pump_and_cursor_resumes(self):
        db, _ = scrub_db()
        scrub = Scrubber(db, budget_pages=3)
        first = scrub.pump()
        assert 0 < first["pages"] <= 3
        checked = scrub.pages_checked
        scrub.pump()
        assert scrub.pages_checked > checked  # picked up past the cursor
        for _ in range(200):
            if scrub.full_passes:
                break
            scrub.pump()
        assert scrub.full_passes >= 1

    def test_in_memory_pages_are_skipped(self):
        db, _ = small_fastver(n_records=20)
        db.verify()  # no checkpoint: nothing flushed to the device
        scrub = Scrubber(db, budget_pages=64)
        assert scrub.pump()["pages"] == 0


# ======================================================================
# Detection and repair
# ======================================================================
class TestDetectionAndRepair:
    def test_garbage_page_quarantined_then_repaired(self):
        db, client = scrub_db()
        payloads, fn = workload_model(60)
        address, key = merkle_at_rest(db)[0]
        smash(db, address)
        scrub = Scrubber(db, budget_pages=256, candidate_fn=fn)
        assert scrub.scrub_to_convergence()
        assert db.store.quarantined_addresses == []
        outcomes = scrub.ledger.outcomes()
        assert outcomes.get("quarantined") == 1
        assert outcomes.get("repaired") == 1
        repaired = [a for a in scrub.ledger.actions
                    if a.outcome == "repaired"]
        assert repaired[0].source == "external"
        assert repaired[0].reason == "merkle"  # the tier it resolved in
        assert COUNTERS.scrub_mismatches == 1
        assert COUNTERS.scrub_repairs == 1
        # The record reads back verified, and the epoch closes cleanly.
        assert db.get(client, key.bits).payload == payloads[key.bits]
        db.verify()

    def test_single_byte_bitrot_detected(self):
        """The device's own flip pattern (tail-of-page XOR) is caught by
        the same hash comparison the enclave would make on first touch."""
        db, client = scrub_db()
        payloads, fn = workload_model(60)
        scrub = Scrubber(db, budget_pages=256, candidate_fn=fn)
        device = db.store.log.device
        rotted = None
        for address, key in merkle_at_rest(db):
            blob = device._pages[address]
            pos = len(blob) - 1 - (address % max(1, len(blob) // 3))
            device._pages[address] = (blob[:pos]
                                      + bytes([blob[pos] ^ 0x20])
                                      + blob[pos + 1:])
            if scrub._check_page(key, address) is not None:
                rotted = (address, key)
                break
            device._pages[address] = blob  # flip landed in dead bytes
        assert rotted is not None, "no flip produced a detectable rot"
        assert scrub.scrub_to_convergence()
        assert db.store.quarantined_addresses == []
        assert scrub.repairs_done == 1
        assert db.get(client, rotted[1].bits).payload == \
            payloads[rotted[1].bits]

    def test_torn_page_at_rest_repaired(self):
        """A torn page that slipped past a crash (half-written, never
        read back) is caught and patched like any other rot."""
        db, client = scrub_db()
        payloads, fn = workload_model(60)
        address, key = merkle_at_rest(db)[0]
        device = db.store.log.device
        blob = device._pages[address]
        device._pages[address] = blob[:len(blob) // 2]
        scrub = Scrubber(db, budget_pages=256, candidate_fn=fn)
        assert scrub.scrub_to_convergence()
        assert scrub.repairs_done == 1
        assert db.get(client, key.bits).payload == payloads[key.bits]

    def test_cached_record_repaired_without_candidate(self):
        """Verifier-cached pages need no repair courier: the enclave's
        own cache (shadowed by the host mirror) is the authority."""
        db, _ = scrub_db()
        store = db.store
        snapshot = dict(store.index.items())
        victim = None
        for key in sorted(db.cached_where, key=lambda k: (k.length, k.bits)):
            address = snapshot.get(key)
            if address is None or store.log.in_memory(address):
                continue
            if address in store.log.device:
                victim = (address, key)
                break
        assert victim is not None, "no cached record is device-resident"
        smash(db, victim[0])
        # No repl, no server, no candidate_fn: nothing external to ask.
        scrub = Scrubber(db, budget_pages=256)
        assert scrub.scrub_to_convergence()
        repaired = [a for a in scrub.ledger.actions
                    if a.outcome == "repaired"]
        assert repaired and repaired[0].source == "verifier-cache"
        assert repaired[0].reason == "cached"
        db.verify()

    def test_deferred_tier_takes_candidate_and_requires_one(self):
        db, _ = scrub_db()
        deferred = sorted(db.deferred_index,
                          key=lambda k: (k.length, k.bits))
        assert deferred, "setup should leave deferred records (anchors)"
        key = deferred[0]
        with pytest.raises(RepairFailedError):
            db.repair_record(key, None)
        authentic = db.store.read_record(key).value
        assert db.repair_record(key, authentic) == "deferred"
        db.verify()  # the aggregate set-hash check vets it

    def test_injected_bitrot_fault_point_roundtrip(self):
        """The real ``device.read.bitrot`` injection site: one seeded
        firing, then scrub-to-convergence, then a full client sweep and a
        checkpoint→restore round-trip — all healthy."""
        db, client = scrub_db()
        payloads, fn = workload_model(60)
        plan = FaultPlan(0, {"device.read.bitrot": FaultSpec(
            at_counts=(0,), max_fires=1)})
        install_faults(db, plan)
        scrub = Scrubber(db, budget_pages=64, candidate_fn=fn)
        assert scrub.scrub_to_convergence()
        assert plan.fires("device.read.bitrot") == 1
        assert db.store.quarantined_addresses == []
        install_faults(db, None)
        db.verify()
        for k, expected in payloads.items():
            assert db.get(client, k).payload == expected
        checkpoint = db.checkpoint()
        db.recover(checkpoint)
        assert db.get(client, 7).payload == payloads[7]


# ======================================================================
# Forgery rejection (the load-bearing step)
# ======================================================================
class TestForgeryRejection:
    def test_forged_candidate_rejected_host_side(self):
        """With the host pre-vet on, a forged candidate dies *before*
        enclave state is touched — the session stays healthy and an
        honest retry completes."""
        db, client = scrub_db()
        payloads, _ = workload_model(60)
        address, key = merkle_at_rest(db)[0]
        smash(db, address)
        with pytest.raises(RepairForgeryError):
            db.repair_record(key, DataValue(b"forged-bytes"))
        assert db.repair_record(
            key, DataValue(payloads[key.bits])) == "merkle"
        assert db.get(client, key.bits).payload == payloads[key.bits]
        db.verify()

    def test_forged_candidate_rejected_by_enclave_gate(self):
        """A byzantine host that skips its own pre-vet still cannot get a
        forgery past the enclave's parent-hash check."""
        db, _ = scrub_db()
        address, key = merkle_at_rest(db)[0]
        smash(db, address)
        with pytest.raises(RepairForgeryError):
            db.repair_record(key, DataValue(b"forged-bytes"),
                             host_prevet=False)

    def test_honest_candidate_passes_enclave_gate(self):
        db, client = scrub_db()
        payloads, _ = workload_model(60)
        address, key = merkle_at_rest(db)[0]
        smash(db, address)
        assert db.repair_record(key, DataValue(payloads[key.bits]),
                                host_prevet=False) == "merkle"
        assert db.get(client, key.bits).payload == payloads[key.bits]

    def test_forged_external_candidate_escalates_from_pump(self):
        """A lying courier is a *detection*: the pump re-raises the
        forgery (the supervisor treats it like any tamper alarm), the
        ledger says "forged", and the page stays quarantined."""
        db, _ = scrub_db()
        address, key = merkle_at_rest(db)[0]
        smash(db, address)
        lying = lambda bits: (True, b"forged-bytes")  # noqa: E731
        scrub = Scrubber(db, budget_pages=256, candidate_fn=lying)
        scrub.pump()  # walk: quarantine the smashed page
        assert address in db.store.quarantined_addresses
        with pytest.raises(RepairForgeryError):
            scrub.pump()  # repair phase consults the lying courier
        assert COUNTERS.repair_forgeries == 1
        assert scrub.ledger.outcomes().get("forged") == 1
        assert address in db.store.quarantined_addresses  # nothing settled


# ======================================================================
# Retained-checkpoint rot
# ======================================================================
class TestCheckpointRot:
    def test_blob_rot_flagged_once_and_cleared_by_fresh_checkpoint(self):
        db, _ = scrub_db()
        install_faults(db, FaultPlan(0, {"checkpoint.blob.bitrot": [0]}))
        scrub = Scrubber(db, budget_pages=4)
        scrub.pump()
        assert scrub.checkpoint_stale
        assert COUNTERS.scrub_checkpoint_refreshes == 1
        assert scrub.ledger.outcomes().get("checkpoint-rot") == 1
        scrub.pump()  # known-rotted: no double count
        assert COUNTERS.scrub_checkpoint_refreshes == 1
        install_faults(db, None)
        db.verify()
        db.checkpoint()  # maintenance supersedes the rotted blob
        scrub.pump()
        assert not scrub.checkpoint_stale

    def test_rotted_blob_fails_restore_with_recovery_error(self):
        """The checkpoint→restore round-trip observes the same rot the
        scrubber flags: recovery types it and the heal ladder moves on."""
        db, _ = scrub_db()
        install_faults(db, FaultPlan(0, {"checkpoint.blob.bitrot": [0]}))
        with pytest.raises(RecoveryError):
            db.recover(db.last_checkpoint)


# ======================================================================
# Checkpoint→restore round-trips around repairs
# ======================================================================
class TestRoundTrips:
    def test_repair_survives_checkpoint_restore(self):
        db, client = scrub_db()
        payloads, fn = workload_model(60)
        address, key = merkle_at_rest(db)[0]
        smash(db, address)
        scrub = Scrubber(db, budget_pages=256, candidate_fn=fn)
        assert scrub.scrub_to_convergence()
        db.verify()
        checkpoint = db.checkpoint()
        db.recover(checkpoint)
        assert db.get(client, key.bits).payload == payloads[key.bits]
        fresh = Scrubber(db, budget_pages=256)
        assert fresh.scrub_to_convergence()
        assert fresh.mismatches_found == 0  # the repair is durable

    def test_rot_after_restore_repaired(self):
        db, client = scrub_db()
        payloads, fn = workload_model(60)
        db.recover(db.last_checkpoint)
        address, key = merkle_at_rest(db)[0]
        smash(db, address)
        scrub = Scrubber(db, budget_pages=256, candidate_fn=fn)
        assert scrub.scrub_to_convergence()
        assert db.get(client, key.bits).payload == payloads[key.bits]


# ======================================================================
# Repair lifecycle: retry, supersede, gauges, determinism
# ======================================================================
class TestRepairLifecycle:
    def test_injected_repair_failure_is_retried(self):
        db, _ = scrub_db()
        payloads, fn = workload_model(60)
        address, key = merkle_at_rest(db)[0]
        smash(db, address)
        install_faults(db, FaultPlan(0, {"scrub.repair.fail": [0]}))
        scrub = Scrubber(db, budget_pages=256, candidate_fn=fn)
        scrub.pump()  # quarantine
        scrub.pump()  # repair attempt dies at the fault point
        assert COUNTERS.repair_failures == 1
        assert address in db.store.quarantined_addresses
        scrub.pump()  # retried, heals
        assert address not in db.store.quarantined_addresses
        outcomes = scrub.ledger.outcomes()
        assert outcomes.get("quarantined") == 1
        assert outcomes.get("failed") == 1
        assert outcomes.get("repaired") == 1

    def test_superseded_when_index_moves_past_the_quarantine(self):
        """An out-of-band heal (here: a direct repair_record) moves the
        index; the quarantined page becomes unreferenced dead weight and
        the scrubber retires it without a repair."""
        db, _ = scrub_db()
        payloads, _ = workload_model(60)
        address, key = merkle_at_rest(db)[0]
        smash(db, address)
        scrub = Scrubber(db, budget_pages=256)
        scrub.pump()  # quarantine
        assert address in db.store.quarantined_addresses
        db.repair_record(key, DataValue(payloads[key.bits]))
        scrub.pump()
        assert db.store.quarantined_addresses == []
        assert scrub.ledger.outcomes().get("superseded") == 1
        assert scrub.repairs_done == 0

    def test_checkpoint_clears_quarantine(self):
        """A checkpoint empties the quarantine list; damage still on the
        device is found again by the next walk."""
        db, _ = scrub_db()
        address, _key = merkle_at_rest(db)[0]
        smash(db, address)
        scrub = Scrubber(db, budget_pages=256)
        scrub.pump()  # quarantine, no candidate to repair from
        assert db.store.quarantined_addresses == [address]
        db.checkpoint()
        assert db.store.quarantined_addresses == []
        scrub.scrub_to_convergence()
        assert db.store.quarantined_addresses == [address]

    def test_quarantine_gauge_is_a_high_water_mark(self):
        db, _ = scrub_db()
        payloads, fn = workload_model(60)
        victims = merkle_at_rest(db)[:2]
        assert len(victims) == 2
        for address, _key in victims:
            smash(db, address)
        scrub = Scrubber(db, budget_pages=256, candidate_fn=fn)
        scrub.pump()
        assert COUNTERS.quarantined_pages == 2
        assert scrub.scrub_to_convergence()
        assert db.store.quarantined_addresses == []
        assert COUNTERS.quarantined_pages == 2  # gauge keeps the peak

    def test_ledger_digest_is_deterministic(self):
        def run():
            db, _ = scrub_db()
            _, fn = workload_model(60)
            address, _key = merkle_at_rest(db)[0]
            smash(db, address)
            scrub = Scrubber(db, budget_pages=8, candidate_fn=fn)
            assert scrub.scrub_to_convergence()
            return scrub.ledger.digest()

        assert run() == run()


# ======================================================================
# Quorum / server sources and the serving-path pump
# ======================================================================
class TestQuorumSources:
    def test_repair_payload_served_from_standby(self):
        from tests.test_replication import envelope, repl_setup
        db, client, server, repl = repl_setup()
        server.handle(envelope(server, client, "put", 3, b"fresh3"))
        server.maintain()  # epoch marker: the standby commits the put
        found, payload = repl.repair_payload(db.data_key(3).bits)
        assert found and payload == b"fresh3"

    def test_adaptive_retain_depth_tracks_observed_lag(self):
        """Satellite: the shipper's retained tail sizes itself to the
        worst member lag ever observed (plus margin) and never shrinks
        back below that high-water mark."""
        from tests.test_replication import envelope, repl_setup
        db, client, server, repl = repl_setup()
        for k in range(8):
            server.handle(envelope(server, client, "put", k, b"r%d" % k))
        sh = repl.shipper
        assert sh.retain == repl.config.retain_shipments  # never lagged
        member = repl.live_standbys()[0]
        member.last_admitted_seq = sh.next_seq - 1 - 400  # a deep stall
        repl._adapt_retain()
        expected = max(repl.config.retain_shipments,
                       400 + RETAIN_MARGIN)
        assert sh.retain == expected
        assert COUNTERS.replication_retain_depth == expected
        member.last_admitted_seq = sh.next_seq - 1  # fully caught up
        repl._adapt_retain()
        assert sh.retain == expected  # high-water sticks

    def test_server_pump_repairs_from_read_cache(self):
        """The serving path's per-pump scrub slice heals rot with bytes
        from the server's durable read cache — no operator involved."""
        from repro.server import FastVerServer, ServerConfig
        from tests.test_replication import envelope

        db, client = scrub_db(n_records=40)
        warm = [(k, b"v%d" % k) for k in range(40)]
        server = FastVerServer(
            db, ServerConfig(scrub_enabled=True, scrub_budget_pages=64),
            warm=warm)
        victims = merkle_at_rest(db)
        address, key = victims[0]
        other = victims[-1][1].bits
        assert other != key.bits
        smash(db, address)
        for _ in range(6):
            result = server.handle(
                envelope(server, client, "get", other))
            assert result.payload == b"v%d" % other
        assert not server.degraded
        assert db.store.quarantined_addresses == []
        ledger = server.scrubber().ledger
        repaired = [a for a in ledger.actions if a.outcome == "repaired"]
        assert repaired and repaired[0].source == "server-cache"
        assert db.get(client, key.bits).payload == b"v%d" % key.bits

    def test_post_restore_suspect_triage_repairs_the_rotted_page(self):
        """Latent rot found by a *client touch*, not the scrub walk: the
        alarm names the key a suspect, the ladder restores (the session
        is dirty, so the repair rung declines), and the post-restore
        triage re-checks the suspect's page, quarantines it and repairs
        it — otherwise the restore re-reads the same rotten bytes and the
        next touch restarts the ladder. (Group commit crosses into the
        enclave inside the touch, so the alarm lands on the op itself.)"""
        from repro.errors import IntegrityError
        from repro.server import FastVerServer, ServerConfig
        from tests.test_replication import envelope

        db, client = scrub_db(n_records=40)
        server = FastVerServer(
            db, ServerConfig(scrub_enabled=True, scrub_budget_pages=1,
                             group_commit=True),
            warm=[(k, b"v%d" % k) for k in range(40)])
        address, key = merkle_at_rest(db)[-1]
        pages = db.store.log.device._pages
        blob = pages[address]
        pages[address] = blob[:-2] + bytes([blob[-2] ^ 0x20]) + blob[-1:]
        with pytest.raises(IntegrityError):
            server.handle(envelope(server, client, "get", key.bits))
        assert server._suspect_keys == {key}
        assert server.force_heal()
        assert server.supervisor._last_rung == "restore"
        assert not server._suspect_keys
        assert db.store.quarantined_addresses == []
        triaged = [(a.reason, a.outcome)
                   for a in server.scrubber().ledger.actions
                   if a.address == address]
        assert triaged == [("suspect:hash-mismatch", "quarantined"),
                           ("merkle", "repaired")]
        heals = server.supervisor.heals
        result = server.handle(envelope(server, client, "get", key.bits))
        assert result.payload == b"v%d" % key.bits
        assert server.supervisor.heals == heals and not server.degraded


# ======================================================================
# Observability plumbing
# ======================================================================
class TestScrubObservability:
    def test_run_metrics_and_prometheus_export_scrub_group(self):
        from repro.obs.export import to_prometheus
        from repro.sim.metrics import RunMetrics

        COUNTERS.scrubbed_pages += 5
        COUNTERS.scrub_repairs += 2
        COUNTERS.quarantined_pages = 1
        metrics = RunMetrics(
            key_ops=10, op_wall_ns=1.0, verify_wall_ns=1.0,
            n_verifications=1, verifier_fraction=0.5,
            scrub=COUNTERS.group_dict("scrub"))
        exported = metrics.as_dict()["scrub"]
        assert exported["scrub_repairs"] == 2
        assert exported["quarantined_pages"] == 1
        text = to_prometheus({"counters": {}, "metrics": metrics.as_dict(),
                              "latency": {}, "attribution": {}, "trace": {}})
        assert 'repro_scrub{name="scrub_repairs"} 2' in text
        assert 'repro_scrub{name="quarantined_pages"} 1' in text
