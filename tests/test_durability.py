"""Durability and recovery tests (§7): epoch-synchronized checkpoints,
crash recovery, and rollback attacks on checkpoints (§2.2)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import FastVerConfig, new_client
from repro.core.audit import audit
from repro.core.fastver import VIA_DEFERRED, VIA_PINNED, FastVer
from repro.core.keys import BitKey
from repro.core.records import Aux, DataValue, MerkleValue, Protection
from repro.errors import (
    IntegrityError,
    RecoveryError,
    ReproError,
    RollbackError,
    TransientIOError,
)
from repro.faults import FaultPlan, install_faults
from repro.instrument import COUNTERS
from repro.store.checkpoint import rot_blob_at_rest
from repro.store.hybridlog import PAGE_CACHE_SLOTS, LogRecord
from tests.conftest import fresh_copy, small_fastver
from tests.test_checkpoint import reference_recover


def checkpointed_db():
    db, client = small_fastver(n_records=60)
    for i in range(30):
        db.put(client, i % 20, b"x%d" % i)
    db.verify()
    db.flush()
    return db, client, db.checkpoint()


class TestCheckpointRecovery:
    def test_recover_preserves_data(self):
        db, client, ckpt = checkpointed_db()
        db.recover(ckpt)
        for k in range(20):
            got = db.get(client, k).payload
            assert got is not None and got.startswith(b"x")
        for k in range(20, 60):
            assert db.get(client, k).payload == b"v%d" % k

    def test_recovered_store_verifies(self):
        db, client, ckpt = checkpointed_db()
        settled = client.settled_epoch
        db.recover(ckpt)
        db.put(client, 5, b"post-recovery")
        report = db.verify()
        db.flush()
        assert client.settled_epoch > settled
        assert db.get(client, 5).payload == b"post-recovery"
        db.verify()
        db.flush()

    def test_recovery_with_pre_crash_warm_records(self):
        """Records left deferred at checkpoint time recover as deferred
        and remain fully usable."""
        db, client = small_fastver(n_records=60)
        db.put(client, 7, b"warm")
        db.flush()
        ckpt = db.checkpoint()
        db.recover(ckpt)
        assert db.get(client, 7).payload == b"warm"
        db.verify()
        db.flush()

    def test_recovered_parent_links_match_a_full_cache_scan(self):
        """Recovery relinks cached Merkle records by probing key prefixes;
        the answer must be the one a scan of the whole cache gives."""
        from repro.core.audit import audit
        from repro.core.records import MerkleValue

        def scan(mirror, key):
            best = None
            for candidate, entry in mirror.entries.items():
                if (isinstance(entry.value, MerkleValue)
                        and candidate.is_proper_ancestor_of(key)):
                    ptr = entry.value.pointer(key.direction_from(candidate))
                    if ptr is not None and ptr.key == key:
                        best = candidate
            return best

        db, client, ckpt = checkpointed_db()
        db.recover(ckpt)
        linked = 0
        for mirror in db.mirrors:
            for key, entry in mirror.entries.items():
                assert db._find_cached_parent(mirror, key) == scan(mirror, key)
                linked += entry.via == "merkle"
        assert linked > 0
        assert audit(db).ok

    def test_work_after_checkpoint_is_lost_not_corrupted(self):
        """Updates past the checkpoint vanish at recovery (prefix
        semantics) but the recovered state is still verifiable."""
        db, client, ckpt = checkpointed_db()
        db.put(client, 3, b"lost-update")
        db.flush()
        db.recover(ckpt)
        got = db.get(client, 3).payload
        assert got != b"lost-update"
        db.verify()
        db.flush()

    def test_multiple_checkpoint_generations(self):
        db, client = small_fastver(n_records=40)
        db.put(client, 1, b"gen1")
        db.verify()
        db.checkpoint()
        db.put(client, 1, b"gen2")
        db.verify()
        ckpt2 = db.checkpoint()
        db.recover(ckpt2)
        assert db.get(client, 1).payload == b"gen2"
        db.verify()
        db.flush()


class TestRollbackAttacks:
    def test_old_checkpoint_rejected(self):
        """The §2.2 rollback attack: reboot the enclave and feed it a
        stale checkpoint. The sealed slot catches it."""
        db, client = small_fastver(n_records=40)
        db.put(client, 1, b"old")
        db.verify()
        old_ckpt = db.checkpoint()
        db.put(client, 1, b"new")
        db.verify()
        db.checkpoint()
        with pytest.raises(RollbackError):
            db.recover(old_ckpt)

    def test_forged_blob_rejected(self):
        db, client, ckpt = checkpointed_db()
        ckpt.verifier_blob = ckpt.verifier_blob[:-1] + bytes(
            [ckpt.verifier_blob[-1] ^ 0xFF])
        with pytest.raises(Exception):
            db.recover(ckpt)

    def test_tampering_survives_recovery_detection(self):
        """Tampering done *while the system is down* is still caught after
        recovery."""
        from repro.core.records import DataValue
        from repro.store.hybridlog import LogRecord
        db, client, ckpt = checkpointed_db()
        db.recover(ckpt)
        # Post-recovery records live on the device; tamper the page itself.
        key = db.data_key(25)
        address = db.store.index.lookup(key)
        original = db.store.log.get(address)
        evil = LogRecord(key, DataValue(b"__evil__"), original.aux,
                         original.prev_address)
        db.store.log.device.write(address, evil.serialize())
        with pytest.raises(IntegrityError):
            db.get(client, 25)
            db.flush()
            db.verify()
            db.flush()


class TestAntiReplayFloorAcrossCycles:
    """The verifier's anti-replay floor must survive (and not compound
    across) consecutive checkpoint/recover cycles: stale requests stay
    dead forever, fresh nonces keep working."""

    def test_floor_survives_two_recover_cycles(self):
        from repro.errors import ReplayError

        db, client, ckpt1 = checkpointed_db()
        stale = client.make_put(db.data_key(4), b"stale")  # nonce drawn now
        db.apply_put(client, stale)
        db.flush()

        # Cycle 1: the restore burns every nonce <= the checkpointed mark,
        # including `stale`'s even though it committed after the snapshot.
        db.recover(ckpt1)
        db.put(client, 4, b"fresh-1")  # fresh nonce: admitted
        db.verify()
        db.flush()

        # Cycle 2: checkpoint the healed state and recover again.
        ckpt2 = db.checkpoint()
        db.recover(ckpt2)
        db.put(client, 4, b"fresh-2")
        db.verify()
        db.flush()
        assert db.get(client, 4).payload == b"fresh-2"

        # The pre-cycle request is still a replay, two recoveries later.
        with pytest.raises(ReplayError):
            db.apply_put(client, stale)
            db.flush()

    def test_floor_does_not_compound(self):
        """Each restore burns up to the *checkpointed* high-water mark —
        repeated cycles with no intervening traffic must not creep the
        floor past nonces the client never issued."""
        db, client, ckpt = checkpointed_db()
        for _ in range(2):
            db.recover(ckpt)
            ckpt = db.checkpoint()
        db.put(client, 9, b"still-works")
        db.verify()
        db.flush()
        assert db.get(client, 9).payload == b"still-works"


# ---------------------------------------------------------------------------
# Recovery's two scans: every page is read twice; what a scan may reuse of
# the other's work is a decode, never a read, and only of the same object
# ---------------------------------------------------------------------------
def expected_decodes(n: int) -> int:
    """Page decodes of one recovery attempt over an ``n``-entry store that
    the device leaves alone between the scans (two per entry before the
    scans shared them)."""
    return n


def between_the_scans(db, step):
    """Run ``step()`` once, after recovery's store-side scan and before its
    aux scan: the enclave reboot is the one call that sits between them."""
    reboot = db.enclave.reboot

    def hooked():
        db.enclave.reboot = reboot
        step()
        reboot()
    db.enclave.reboot = hooked


def recovery_cost(db, ckpt):
    """Recover; return device reads, device writes and the counter deltas."""
    device = db.store.log.device
    reads, writes, before = device.reads, device.writes, COUNTERS.snapshot()
    db.recover(ckpt)
    return (device.reads - reads, device.writes - writes,
            COUNTERS.diff(before).as_dict())


class TestRecoveryCounts:
    def big_db(self):
        db, client = small_fastver(n_records=600)
        for i in range(40):
            db.put(client, i, b"x%d" % i)
        db.verify()
        db.flush()
        db.put(client, 7, b"warm")
        db.flush()
        ckpt = db.checkpoint()
        assert len(db.store) > 4 * PAGE_CACHE_SLOTS
        return db, ckpt, len(db.store)

    def test_one_recovery_reads_every_page_twice(self):
        db, ckpt, n = self.big_db()
        reads, writes, counters = recovery_cost(db, ckpt)
        assert (reads, writes) == (2 * n, 0)
        assert counters["store_reads"] == 2 * n
        assert counters["store_writes"] == 0
        assert counters["ecall_retries"] == 0
        log = db.store.log
        assert (log.page_decodes, log.page_hits) == (expected_decodes(n), 0)
        assert db.deferred_index and audit(db).ok

    def test_absorbed_transients_fire_where_they_did(self):
        db, ckpt, n = self.big_db()
        # One retried read in each scan, and the very last read.
        plan = install_faults(db, FaultPlan(specs={
            "device.read.transient": [3, n + 10, 2 * n + 1]}))
        reads, _writes, counters = recovery_cost(db, ckpt)
        assert reads == 2 * n + 3
        assert counters["store_reads"] == 2 * n
        assert plan.trace == [("device.read.transient", 3),
                              ("device.read.transient", n + 10),
                              ("device.read.transient", 2 * n + 1)]
        assert db.store.log.page_decodes == expected_decodes(n)

    def test_exhausted_retries_in_the_aux_scan_restart_the_attempt(self):
        db, ckpt, n = self.big_db()
        install_faults(db, FaultPlan(specs={
            "device.read.transient": [n + 5, n + 6, n + 7]}))
        reads, _writes, counters = recovery_cost(db, ckpt)
        # Attempt one dies on its (n + 6)-th page read; attempt two is whole.
        assert reads == (n + 8) + 2 * n
        assert counters["store_reads"] == (n + 6) + 2 * n
        assert counters["ecall_retries"] == 1
        # The surviving store is attempt two's own: nothing carried over.
        assert db.store.log.page_decodes == expected_decodes(n)
        assert audit(db).ok


class TestRotBetweenTheScans:
    """The device changes a page after the store-side scan validated it and
    before the aux scan reads it again: the aux scan answers from the page
    it was handed."""

    def deferred_db(self):
        db, client = small_fastver(n_records=60)
        db.put(client, 7, b"warm")
        db.flush()
        ckpt = db.checkpoint()
        key = db.data_key(7)
        address = db.store.index.lookup(key)
        assert db.deferred_index[key]
        return db, ckpt, key, address

    def test_a_rewritten_page_is_what_the_deferred_index_follows(self):
        db, ckpt, key, address = self.deferred_db()
        timestamp, epoch = db.deferred_index[key]
        pages = db.store.log.device._pages
        record = LogRecord.deserialize(pages[address])
        record.aux = Aux.deferred(timestamp + 5, epoch).pack()
        between_the_scans(
            db, lambda: pages.__setitem__(address, record.serialize()))
        db.recover(ckpt)
        assert db.deferred_index[key] == (timestamp + 5, epoch)

    def test_a_page_that_leaves_the_deferred_tier_leaves_the_index(self):
        db, ckpt, key, address = self.deferred_db()
        pages = db.store.log.device._pages
        record = LogRecord.deserialize(pages[address])
        record.aux = Aux.merkle().pack()
        between_the_scans(
            db, lambda: pages.__setitem__(address, record.serialize()))
        db.recover(ckpt)
        assert key not in db.deferred_index

    def test_a_page_that_no_longer_decodes_is_a_recovery_error(self):
        db, ckpt, _key, address = self.deferred_db()
        pages = db.store.log.device._pages
        between_the_scans(
            db, lambda: pages.__setitem__(address, pages[address][:10]))
        with pytest.raises(RecoveryError, match="store scan during recovery"):
            db.recover(ckpt)

    def test_an_equal_copy_is_a_different_page(self):
        """Identity, not equality: equal bytes in a new object are decoded
        again, and say the same thing."""
        db, ckpt, key, address = self.deferred_db()
        n = len(db.store)
        assert n < PAGE_CACHE_SLOTS
        expected = dict(db.deferred_index)
        pages = db.store.log.device._pages
        between_the_scans(
            db, lambda: pages.__setitem__(address, fresh_copy(pages[address])))
        db.recover(ckpt)
        assert db.deferred_index == expected
        assert db.store.log.page_decodes == n + 1

    def test_rot_inside_the_aux_scan_is_decoded_not_remembered(self):
        """``device.read.bitrot`` rots the page inside the second scan's own
        read and returns the rotted object: that is what gets decoded."""
        db, ckpt, key, address = self.deferred_db()
        n = len(db.store)
        position = [k for k, _ in db.store.index.items()].index(key)
        healthy = db.store.log.device._pages[address]
        install_faults(db, FaultPlan(specs={
            "device.read.bitrot": [n + position]}))
        db.recover(ckpt)
        install_faults(db, None)
        assert db.store.log.page_decodes == n + 1
        assert db.store.log.device._pages[address] != healthy
        assert db.store.read(key)[0] != DataValue(b"warm")

    @pytest.mark.parametrize("copied", [False, True])
    def test_a_tombstone_is_skipped_whatever_its_aux_says(self, copied):
        db, _client = small_fastver(n_records=60)
        key = db.data_key(9)
        store = db.store
        address = store.log.append(LogRecord(
            key, DataValue(b"gone"), Aux.deferred(3, 1).pack(),
            store.index.lookup(key), tombstone=True))
        store.index.restore(dict(store.index.items()) | {key: address})
        ckpt = db.checkpoint()
        pages = store.log.device._pages
        if copied:
            between_the_scans(db, lambda: pages.__setitem__(
                address, fresh_copy(pages[address])))
        db.recover(ckpt)
        assert key not in db.deferred_index

    def test_a_transient_between_the_scans_still_restarts(self):
        db, ckpt, _key, _address = self.deferred_db()
        n = len(db.store)
        install_faults(db, FaultPlan(specs={
            "device.read.transient": [n, n + 1, n + 2]}))
        _reads, _writes, counters = recovery_cost(db, ckpt)
        assert counters["ecall_retries"] == 1
        assert audit(db).ok


class TestCorruptAuxWord:
    def test_state_bits_0b11_are_a_recovery_error(self):
        """``Aux.unpack`` knows no protection state 3: a page whose aux word
        carries it fails recovery with the typed error the heal ladder
        falls through on, not with ``Protection``'s ``ValueError``."""
        db, _client, ckpt = checkpointed_db()
        address = db.store.index.lookup(db.data_key(25))
        pages = db.store.log.device._pages
        record = LogRecord.deserialize(pages[address])
        record.aux = (3 << 62) | 5
        pages[address] = record.serialize()
        with pytest.raises(RecoveryError,
                           match="corrupt aux word 0xc000000000000005 at"):
            db.recover(ckpt)


class TestKeysBuiltPerRecovery:
    """``BitKey`` constructions in one ``db.recover()`` of ``big_db``'s
    store, counted at ``__init__``: one per index entry (the blob parse),
    and 198 for the verifier's cache and its host mirror. The validation
    scan builds none: every page's key and all 1,198 Merkle pointer keys
    resolve through the blob's encodings (decoding those pointers made the
    count 2,595)."""

    def test_exact_count(self, monkeypatch):
        db, ckpt, n = TestRecoveryCounts().big_db()
        built = 0
        init = BitKey.__init__

        def counting(key, length, bits):
            nonlocal built
            built += 1
            init(key, length, bits)
        monkeypatch.setattr(BitKey, "__init__", counting)
        db.recover(ckpt)
        monkeypatch.undo()
        assert (n, built) == (1199, 1199 + 198)


class TwoDecodeFastVer(FastVer):
    """The reference: ``_recover_once`` with the store-side scan over the
    reference decoders of ``tests/test_checkpoint.py`` and the aux scan
    written as the ``items()`` loop that decodes every page it reads,
    whatever the store-side scan made of it."""

    def _recover_once(self, checkpoint):
        rot_blob_at_rest(checkpoint.store_token, self.faults)
        store = reference_recover(checkpoint.store_token,
                                  self.store.log.device)
        self.enclave.reboot()
        for client in self.clients.values():
            self.enclave.ecall("register_client", client.client_id,
                               client.key.key_bytes())
        self.enclave.ecall("restore_state", checkpoint.verifier_blob)
        self.store = store
        self.receipt_channel.reset()
        self.current_epoch = self.enclave.ecall("current_epoch")
        self.anchors = dict(checkpoint.anchors)
        deferred = {}
        try:
            for key, _value, aux_word in self.store.items():
                aux = Aux.unpack(aux_word)
                if aux.state is Protection.DEFERRED:
                    deferred[key] = (aux.timestamp, aux.epoch)
        except IntegrityError as exc:
            raise RecoveryError(
                f"store scan during recovery hit a corrupt page: "
                f"{exc}") from exc
        self._reset_host_state()
        self.deferred_index = deferred
        clocks = self.enclave.ecall("clocks")
        for vid, mirror in enumerate(self.mirrors):
            mirror.clock = clocks[vid]
            for key, value in self.enclave.ecall("dump_cache", vid):
                self._enter_cache(
                    vid, key, value,
                    VIA_PINNED if key.is_root else VIA_DEFERRED, None,
                    stamp=False)
        width = self.config.key_width
        for vid, mirror in enumerate(self.mirrors):
            for key, entry in mirror.entries.items():
                if key.is_root or key in self.anchors:
                    continue
                if not isinstance(entry.value, MerkleValue) and \
                        key.length != width:
                    continue
                parent = self._find_cached_parent(mirror, key)
                if parent is not None:
                    mirror.adopt_merkle_parent(key, parent)


def host_view(db):
    """Everything recovery rebuilds on the untrusted side."""
    return (
        db.deferred_index, db.anchors, db.cached_where, db.current_epoch,
        [(mirror.clock,
          [(key, entry.value, entry.via, entry.parent_key,
            entry.children_cached, entry.slot)
           for key, entry in mirror.entries.items()])
         for mirror in db.mirrors],
        dict(db.store.index.items()), db.store.directory.keys(),
        db.store.log.tail_address,
    )


OPS = st.lists(st.one_of(
    st.tuples(st.just("put"), st.integers(0, 69), st.binary(max_size=5)),
    st.tuples(st.just("get"), st.integers(0, 69)),
    st.tuples(st.just("verify")),
    st.tuples(st.just("flush")),
), max_size=25)


class TestRecoveryDifferential:
    """One random history and checkpoint, recovered under one seeded fault
    plan by ``FastVer`` and by the two-decode reference: the same host view
    and audit, or the same typed error — and the same device reads and
    writes, device pages, counters and fault firings."""

    @staticmethod
    def recovered(cls, n_records, before, after, seed, transient, bitrot):
        db = cls(FastVerConfig(key_width=16, n_workers=2, cache_capacity=24,
                               partition_depth=2),
                 items=[(k, b"v%d" % k) for k in range(n_records)])
        client = new_client(1)
        db.register_client(client)
        ckpt = None
        for ops in (before, after):
            for op in ops:
                if op[0] == "put":
                    db.put(client, op[1], op[2])
                elif op[0] == "get":
                    db.get(client, op[1])
                else:
                    getattr(db, op[0])()
            db.flush()
            ckpt = ckpt or db.checkpoint()
        device = db.store.log.device
        plan = install_faults(db, FaultPlan(seed=seed, specs={
            "device.read.transient": transient,
            "device.read.bitrot": bitrot}))
        try:
            outcome = recovery_cost(db, ckpt)
        except ReproError as exc:
            return (type(exc), str(exc)), plan.trace, device._pages
        install_faults(db, None)
        try:
            checked = audit(db).violations
        except ReproError as exc:  # rot the scans let through, met again
            checked = (type(exc), str(exc))
        return (outcome, host_view(db), checked), plan.trace, device._pages

    @settings(max_examples=60, deadline=None)
    @given(n_records=st.integers(1, 60), before=OPS, after=OPS,
           seed=st.integers(0, 2 ** 16),
           transient=st.sampled_from([0.0, 0.02, 0.3, 0.6]),
           bitrot=st.sampled_from([0.0, 0.01, 0.03]))
    def test_same_recovery_as_the_two_decode_reference(self, **drawn):
        assert self.recovered(FastVer, **drawn) \
            == self.recovered(TwoDecodeFastVer, **drawn)

    def test_the_draws_reach_every_outcome(self):
        """The plan strengths above are not decoration: they produce clean
        recoveries, restarted ones, exhausted ones and corrupt pages."""
        seen = set()
        for seed in range(40):
            result = self.recovered(
                FastVer, 40, [("put", 3, b"a"), ("verify",)], [], seed,
                (0.0, 0.3, 0.6)[seed % 3], (0.0, 0.03)[seed % 2])[0]
            if isinstance(result[0], type):
                seen.add(result[0])
                if result[1].startswith("store scan during recovery"):
                    seen.add("corrupt in the aux scan")
            else:
                seen.add("restarted" if result[0][2]["ecall_retries"]
                         else "clean")
        assert seen >= {"clean", "restarted", TransientIOError, RecoveryError,
                        "corrupt in the aux scan"}
