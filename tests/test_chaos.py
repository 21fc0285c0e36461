"""Chaos-soak harness tests and crash-during-verify epoch atomicity.

The chaos runs here are smaller than the CI smoke (`python -m repro
chaos`) but assert the same contract: the tri-state invariant holds for
every operation, and a seeded run is bit-for-bit reproducible.
"""

from __future__ import annotations

import pytest

from repro.errors import EnclaveRebootError
from repro.faults import FaultPlan, install_faults
from repro.faults.chaos import run_chaos
from tests.conftest import small_fastver


class TestChaosSoak:
    def test_benign_soak_holds_tristate_invariant(self):
        report = run_chaos(seed=7, ops=600, records=100)
        assert report.ok, report.hard_failures
        assert report.ops_ok > 0
        assert report.ops_attempted == 600  # no op left the tri-state

    def test_seeded_run_is_bit_for_bit_reproducible(self):
        a = run_chaos(seed=13, ops=400, records=80)
        b = run_chaos(seed=13, ops=400, records=80)
        assert a.ok and b.ok
        assert a.digest() == b.digest()
        assert a.trace_digest == b.trace_digest

    def test_different_seeds_diverge(self):
        a = run_chaos(seed=1, ops=300, records=80)
        b = run_chaos(seed=2, ops=300, records=80)
        assert a.ok and b.ok
        assert a.digest() != b.digest()

    def test_tampering_always_detected_under_chaos(self):
        report = run_chaos(seed=5, ops=600, records=100, tamper_every=150)
        assert report.ok, report.hard_failures
        # 600 ops / tamper_every=150 -> four staged tampers; an undetected
        # one would be a hard failure, so ok + count means all were caught.
        assert report.integrity_detections == 4

    def test_quiet_plan_runs_clean(self):
        """With no faults scheduled, chaos degenerates to a plain YCSB run."""
        report = run_chaos(seed=9, ops=300, records=80, plan=FaultPlan(9))
        assert report.ok
        assert report.availability_errors == 0
        assert report.fault_fires == {}
        assert report.ops_ok == report.ops_attempted


class TestCrashDuringVerify:
    """Satellite: epochs never half-commit. A reboot at any point inside
    verify() leaves every client's settled epoch untouched, and recovery
    restores a store that closes epochs and serves reads/writes."""

    @pytest.mark.parametrize("offset", [0, 1, 2, 3])
    def test_reboot_mid_verify_never_half_commits(self, offset):
        db, client = small_fastver()
        db.verify()
        db.flush()
        ckpt = db.checkpoint()
        epoch_before = client.settled_epoch

        db.put(client, 42, b"mid-epoch")
        mid = db.put(client, 43, b"also-mid")
        install_faults(db, FaultPlan(0, {"ecall.reboot": [offset]}))
        with pytest.raises(EnclaveRebootError):
            db.verify()

        # The epoch did not settle for anyone, in whole or in part.
        assert client.settled_epoch == epoch_before
        assert not client.settled(mid.nonce)

        install_faults(db, None)
        db.recover(ckpt)

        # Recovered store: provisional work rolled back, full service back.
        db.put(client, 42, b"post-recovery")
        db.verify()
        db.flush()
        assert client.settled_epoch > epoch_before
        assert db.get(client, 42).payload == b"post-recovery"
        assert db.get(client, 1).payload == b"v1"

    def test_reboot_during_epoch_close_then_full_verify(self):
        """Acceptance criterion: reboot mid-epoch + recovery -> the store
        passes a full verify() and continues serving."""
        db, client = small_fastver()
        db.verify()
        db.flush()
        ckpt = db.checkpoint()

        for k in range(10, 20):
            db.put(client, k, b"epoch-payload-%d" % k)
        install_faults(db, FaultPlan(0, {"ecall.reboot": [2]}))
        with pytest.raises(EnclaveRebootError):
            db.verify()
        assert db.enclave.reboots == 1

        install_faults(db, None)
        db.recover(ckpt)
        before = client.settled_epoch
        for k in range(10, 20):
            db.put(client, k, b"replayed-%d" % k)
        db.verify()
        db.flush()
        for k in range(10, 20):
            assert db.get(client, k).payload == b"replayed-%d" % k
        db.verify()
        db.flush()
        assert client.settled_epoch > before


class TestServerChaosSoak:
    """The same tri-state soak, driven through the resilient serving
    pipeline: admission queue, deadlines, idempotent SDK retry, circuit
    breaker, and degraded-mode recovery all sit between the workload and
    the verifier, and none of them may manufacture a wrong answer."""

    def test_server_soak_holds_tristate_invariant(self):
        report = run_chaos(seed=7, ops=400, records=80, topology="server")
        assert report.hard_failures == []
        assert report.ops_ok > 0

    def test_server_soak_is_bit_for_bit_reproducible(self):
        first = run_chaos(seed=11, ops=300, records=60, topology="server")
        second = run_chaos(seed=11, ops=300, records=60, topology="server")
        assert first.hard_failures == []
        assert first.digest() == second.digest()
        assert first.trace_digest == second.trace_digest

    def test_server_soak_differs_from_direct_mode(self):
        direct = run_chaos(seed=7, ops=300, records=60)
        served = run_chaos(seed=7, ops=300, records=60, topology="server")
        assert direct.hard_failures == [] and served.hard_failures == []
        # Server mode arms its own fault points, so the trace diverges.
        assert direct.trace_digest != served.trace_digest

    def test_tampering_detected_through_the_pipeline(self):
        report = run_chaos(seed=23, ops=300, records=60, tamper_every=100,
                           topology="server")
        assert report.hard_failures == []
        assert report.integrity_detections == 3
