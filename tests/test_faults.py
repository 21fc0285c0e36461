"""Unit tests for the deterministic fault-injection engine: the plan
itself, the device/checkpoint/enclave/receipt injection hooks, and the
recovery hardening each hook exercises."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import new_client
from repro.adversary import RECEIPT_ATTACKS
from repro.core.keys import BitKey
from repro.core.records import DataValue
from repro.core.protocol import EpochReceipt, ReceiptChannel
from repro.errors import (
    EnclaveRebootError,
    EnclaveUnavailableError,
    RecoveryError,
    TornWriteError,
    TransientIOError,
)
from repro.faults import KNOWN_POINTS, FaultPlan, FaultSpec, install_faults
from repro.store.checkpoint import recover, take_checkpoint
from repro.store.faster import FasterKV
from repro.store.hybridlog import LogRecord
from repro.store.recovery import salvage
from tests.conftest import small_fastver


class TestFaultPlan:
    def test_same_seed_same_decisions(self):
        def run(seed):
            plan = FaultPlan(seed, {"device.read.transient": 0.3})
            return [plan.fire("device.read.transient") for _ in range(200)]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_points_are_independent(self):
        """One point's consultations never perturb another's decisions."""
        solo = FaultPlan(3, {"device.read.transient": 0.3})
        a = [solo.fire("device.read.transient") for _ in range(100)]
        mixed = FaultPlan(3, {"device.read.transient": 0.3,
                              "ecall.transient": 0.3})
        b = []
        for _ in range(100):
            mixed.fire("ecall.transient")
            b.append(mixed.fire("device.read.transient"))
        assert a == b

    def test_explicit_schedule(self):
        plan = FaultPlan(0, {"ecall.reboot": [2, 5]})
        fired = [plan.fire("ecall.reboot") for _ in range(8)]
        assert fired == [False, False, True, False, False, True, False, False]
        assert plan.trace == [("ecall.reboot", 2), ("ecall.reboot", 5)]

    def test_max_fires_heals(self):
        plan = FaultPlan(0, {"device.write.torn": FaultSpec(
            probability=1.0, max_fires=2)})
        fired = [plan.fire("device.write.torn") for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultPlan(0, {"device.write.tron": 1.0})
        plan = FaultPlan(0)
        with pytest.raises(ValueError, match="unknown fault point"):
            plan.fire("nope")

    def test_trace_digest_reproducible(self):
        def digest(seed):
            plan = FaultPlan(seed, {p: 0.2 for p in sorted(KNOWN_POINTS)})
            for p in sorted(KNOWN_POINTS):
                for _ in range(50):
                    plan.fire(p)
            return plan.trace_digest()

        assert digest(11) == digest(11)
        assert digest(11) != digest(12)


def loaded_store(n=30):
    store = FasterKV(ordered_width=16)
    from repro.core.keys import BitKey
    from repro.core.records import DataValue
    for k in range(n):
        store.upsert(BitKey.data_key(k, 16), DataValue(b"v%d" % k), 0)
    return store


class TestDeviceFaults:
    def test_torn_write_repaired_by_read_back(self):
        """A single tear is healed by the flush path's rewrite."""
        store = loaded_store()
        store.log.device.faults = FaultPlan(0, {"device.write.torn": [0]})
        flushed = store.log.flush_until(store.log.tail_address)
        assert flushed == 30
        # Every page decodes after the verified flush.
        for addr in range(store.log.tail_address):
            LogRecord.deserialize(store.log.device.read(addr))

    def test_persistent_tear_is_typed(self):
        store = loaded_store()
        store.log.device.faults = FaultPlan(0, {"device.write.torn": 1.0})
        with pytest.raises(TornWriteError):
            store.log.flush_until(store.log.tail_address)

    def test_partial_flush_commits_prefix(self):
        store = loaded_store()
        store.log.device.faults = FaultPlan(0, {"device.flush.partial": [10]})
        with pytest.raises(TransientIOError):
            store.log.flush_until(store.log.tail_address)
        assert store.log.head_address == 10      # the verified prefix
        assert len(store.log.device) == 10
        store.log.device.faults = None
        assert store.log.flush_until(store.log.tail_address) == 20  # resumes

    def test_transient_read_absorbed_by_retry(self):
        store = loaded_store()
        store.log.flush_until(store.log.tail_address)
        store.log.device.faults = FaultPlan(0, {"device.read.transient": [0]})
        from repro.core.keys import BitKey
        pair = store.read(BitKey.data_key(3, 16))
        assert pair is not None and pair[0].payload == b"v3"

    def test_persistent_read_failure_is_typed(self):
        store = loaded_store()
        store.log.flush_until(store.log.tail_address)
        store.log.device.faults = FaultPlan(0, {"device.read.transient": 1.0})
        with pytest.raises(TransientIOError):
            store.log.device.read_with_retry(0)


class TestCheckpointFaults:
    def test_corrupt_blob_detected_at_recover(self):
        store = loaded_store()
        plan = FaultPlan(0, {"checkpoint.blob.corrupt": [0]})
        token = take_checkpoint(store, 1, faults=plan)
        with pytest.raises(RecoveryError):
            recover(token, store.log.device)

    def test_truncated_blob_detected_at_recover(self):
        store = loaded_store()
        plan = FaultPlan(0, {"checkpoint.blob.truncate": [0]})
        token = take_checkpoint(store, 1, faults=plan)
        with pytest.raises(RecoveryError):
            recover(token, store.log.device)

    def test_failed_flush_issues_no_token_and_old_token_survives(self):
        """Write-once pages: a newer checkpoint's dying flush cannot
        damage recovery from the older token."""
        store = loaded_store()
        token1 = take_checkpoint(store, 1)
        from repro.core.keys import BitKey
        from repro.core.records import DataValue
        for k in range(5):
            store.upsert(BitKey.data_key(k, 16), DataValue(b"new%d" % k), 0)
        store.log.device.faults = FaultPlan(0, {"device.flush.partial": [2]})
        with pytest.raises(TransientIOError):
            take_checkpoint(store, 2)
        store.log.device.faults = None
        recovered = recover(token1, store.log.device)
        pair = recovered.read(BitKey.data_key(0, 16))
        assert pair[0].payload == b"v0"  # pre-update value, intact


class TestLenientRebuild:
    def _damaged_device(self):
        store = loaded_store()
        tail = store.log.tail_address
        store.log.flush_until(tail)
        device = store.log.device
        device._pages[7] = b"\x01rot"
        return device, tail

    def test_lenient_quarantines_and_salvages_the_rest(self):
        """The rotten page is skipped; every record behind it survives."""
        device, tail = self._damaged_device()
        assert salvage(device, tail, 16) == [
            (k, b"v%d" % k) for k in range(30) if k != 7]  # 7 lost, not lied

    def test_read_pass_runs_with_faults_off(self):
        store = loaded_store()
        store.log.flush_until(store.log.tail_address)
        device = store.log.device
        device.faults = FaultPlan(0, {"device.read.transient": 1.0})
        assert len(salvage(device, store.log.tail_address, 16)) == 30
        assert device.faults is None

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 7),
                              st.sampled_from([16, 8]),
                              st.none() | st.binary(max_size=3)),
                    max_size=40),
           st.lists(st.tuples(st.integers(0, 999),
                              st.sampled_from(["drop", "tear-header",
                                               "tear-key", "junk"]),
                              st.integers(0, 99), st.binary(max_size=20)),
                    max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_salvage_matches_model(self, ops, damage):
        """For each full-width key: the payload of its newest undamaged
        version; tombstones, null values and keys that lost every version
        are left out. The model tracks versions by the address each op
        lands at, never by reading the log back."""
        store = FasterKV(ordered_width=16, memory_budget_records=4,
                         mutable_fraction=0.5)
        versions: dict[tuple[int, int], list[list]] = {}  # [address, payload]
        for put, k, width, payload in ops:
            key = BitKey.data_key(k, width)
            if put:
                store.upsert(key, DataValue(payload))
            elif not store.delete(key):
                continue
            address = store.index.lookup(key)
            history = versions.setdefault((width, k), [])
            entry = payload if put else "tombstone"
            if history and history[-1][0] == address:
                history[-1][1] = entry  # updated in place
            else:
                history.append([address, entry])
        tail = store.log.tail_address
        store.log.flush_until(tail)
        pages = store.log.device._pages
        damaged = set()
        for n, how, cut, junk in damage:
            if not tail:
                break
            address = n % tail
            damaged.add(address)
            if how == "drop":
                pages.pop(address, None)
            elif how.startswith("tear") and address in pages:
                # Inside the 21-byte header or the key, where the decoder
                # notices; a tear inside the payload is the strict-xfail
                # torn page of tests/test_store.py.
                keep = cut % 21 if how == "tear-header" else 21 + cut % 3
                pages[address] = pages[address][:keep]
            else:
                pages[address] = junk  # under 21 bytes: never a record
        expected = []
        for (width, k), history in versions.items():
            survivors = [entry for address, entry in history
                         if address not in damaged]
            if width == 16 and survivors and survivors[-1] not in (
                    None, "tombstone"):
                expected.append((k, survivors[-1]))
        assert salvage(store.log.device, tail, 16) == sorted(expected)


class TestEnclaveFaults:
    def test_transient_ecall_retried_transparently(self):
        db, client = small_fastver()
        db.enclave.faults = FaultPlan(0, {"ecall.transient": [0]})
        db.put(client, 3, b"through-the-flake")
        db.flush()
        assert db.get(client, 3).payload == b"through-the-flake"

    def test_exhausted_transient_is_typed_and_recoverable(self):
        db, client = small_fastver()
        db.verify()
        ckpt = db.checkpoint()
        db.enclave.faults = FaultPlan(0, {"ecall.transient": 1.0})
        with pytest.raises(EnclaveUnavailableError):
            db.put(client, 3, b"x")
            db.flush()
        db.enclave.faults = None
        db.recover(ckpt)
        db.put(client, 3, b"retry-after-recovery")
        db.verify()
        assert db.get(client, 3).payload == b"retry-after-recovery"

    def test_fresh_verifier_refuses_work(self):
        """After a reboot, every integrity-bearing ecall fails typed until
        restore_state runs — never silent service from empty state."""
        db, client = small_fastver()
        db.verify()
        ckpt = db.checkpoint()
        db.enclave.reboot()
        with pytest.raises(EnclaveUnavailableError):
            db.enclave.ecall("process_batch", 0, [])
        with pytest.raises(EnclaveUnavailableError):
            db.enclave.ecall("start_epoch_close")
        with pytest.raises(EnclaveUnavailableError):
            db.enclave.ecall("checkpoint_state")
        db.recover(ckpt)
        assert db.get(client, 1).payload == b"v1"

    def test_reboot_fault_is_never_retried_inline(self):
        db, client = small_fastver()
        db.verify()
        db.checkpoint()
        install_faults(db, FaultPlan(0, {"ecall.reboot": [0]}))
        with pytest.raises(EnclaveRebootError):
            db.put(client, 3, b"x")
            db.flush()
        assert db.enclave.reboots == 1  # exactly one: no blind retry
        install_faults(db, None)
        db.recover(db.last_checkpoint)
        db.put(client, 3, b"ok")
        db.verify()
        assert db.get(client, 3).payload == b"ok"


class TestReceiptChannel:
    def _delivered(self, specs, n=6):
        client = new_client(1)
        channel = ReceiptChannel()
        channel.faults = FaultPlan(0, specs)
        for epoch in range(1, n + 1):
            receipt = EpochReceipt(epoch, b"")
            receipt.tag = client.key.sign(*receipt.mac_fields())
            channel.deliver(receipt, client)
        return client, channel

    def test_drop_means_unsettled_never_wrong(self):
        client, channel = self._delivered({"receipt.drop": 1.0})
        assert channel.dropped == 6
        assert client.settled_epoch == -1

    def test_duplicates_are_idempotent(self):
        client, channel = self._delivered({"receipt.duplicate": 1.0})
        assert channel.duplicated == 6
        assert client.settled_epoch == 6

    def test_reorder_held_then_flushed(self):
        client, channel = self._delivered({"receipt.reorder": 1.0})
        assert channel.reordered == 6
        assert client.settled_epoch == -1  # all withheld
        assert channel.flush_held() == 6   # delivered late, reversed
        assert client.settled_epoch == 6


class TestReceiptAttacks:
    """Satellite: the adversary owns the receipt wire; no attack settles a
    wrong answer (drop merely leaves operations unsettled)."""

    @pytest.mark.parametrize("name", sorted(RECEIPT_ATTACKS))
    def test_no_attack_breaks_correctness(self, name):
        db, client = small_fastver()
        RECEIPT_ATTACKS[name](db, client)
        result = db.put(client, 7, b"precious")
        db.flush()
        db.verify()
        db.flush()
        assert db.get(client, 7).payload == b"precious"
        if name == "drop_receipts":
            assert not client.settled(result.nonce)
            assert client.settled_epoch == -1
        else:
            assert client.settled(result.nonce)
            assert client.settled_epoch >= 0

    def test_dropped_receipts_settle_after_channel_heals(self):
        db, client = small_fastver()
        RECEIPT_ATTACKS["drop_receipts"](db, client)
        result = db.put(client, 7, b"precious")
        db.flush()
        assert not client.settled(result.nonce)
        db.receipt_channel.faults = None  # the wire heals
        # Re-running the op and closing the epoch settles the new op.
        again = db.put(client, 7, b"precious")
        db.flush()
        db.verify()
        db.flush()
        assert client.settled(again.nonce)
