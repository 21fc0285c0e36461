"""Tests for the verifier cache, client protocol, and host mirrors."""

from __future__ import annotations

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.cache import VerifierCache
from repro.core.hostmirror import (
    VIA_DEFERRED,
    VIA_MERKLE,
    VIA_PINNED,
    VerifierMirror,
)
from repro.core.keys import BitKey
from repro.core.protocol import (
    GET,
    Client,
    ClientTable,
    EpochReceipt,
    OpReceipt,
)
from repro.core.records import DataValue, MerkleValue
from repro.crypto.mac import MacKey
from repro.errors import (
    CacheStateError,
    CapacityError,
    ProtocolError,
    ReplayError,
    SignatureError,
)


def bk(s):
    return BitKey.from_bits_string(s)


def dk(i):
    return BitKey.data_key(i, 8)


# ---------------------------------------------------------------------------
# Verifier cache
# ---------------------------------------------------------------------------
class TestVerifierCache:
    def test_add_get_remove(self):
        cache = VerifierCache(4)
        slot = cache.add(dk(1), DataValue(b"v"))
        assert cache.get(dk(1)).slot == slot
        assert cache.remove(dk(1)) == DataValue(b"v")
        assert dk(1) not in cache

    def test_duplicate_add_is_byzantine(self):
        cache = VerifierCache(4)
        cache.add(dk(1), DataValue(b"v"))
        with pytest.raises(CacheStateError):
            cache.add(dk(1), DataValue(b"v"))

    def test_capacity(self):
        cache = VerifierCache(2)
        cache.add(dk(1), DataValue(b"a"))
        cache.add(dk(2), DataValue(b"b"))
        assert len(cache) == cache.capacity
        with pytest.raises(CapacityError):
            cache.add(dk(3), DataValue(b"c"))

    def test_slots_recycle(self):
        cache = VerifierCache(2)
        s1 = cache.add(dk(1), DataValue(b"a"))
        cache.remove(dk(1))
        s2 = cache.add(dk(2), DataValue(b"b"))
        assert s1 == s2

    def test_pinned_cannot_be_removed(self):
        cache = VerifierCache(2)
        cache.add(BitKey.root(), MerkleValue(), pinned=True)
        with pytest.raises(CacheStateError):
            cache.remove(BitKey.root())

    def test_remove_absent(self):
        with pytest.raises(CacheStateError):
            VerifierCache(2).remove(dk(1))

    def test_update_value(self):
        cache = VerifierCache(2)
        cache.add(dk(1), DataValue(b"a"))
        cache.update(dk(1), DataValue(b"b"))
        assert cache.get(dk(1)).value == DataValue(b"b")

    def test_minimum_capacity(self):
        with pytest.raises(ValueError):
            VerifierCache(1)


# ---------------------------------------------------------------------------
# Host mirror
# ---------------------------------------------------------------------------
class TestVerifierMirror:
    def test_clock_mirroring(self):
        mirror = VerifierMirror(0, 8)
        mirror.observe_add(100)
        assert mirror.clock == 100
        assert mirror.predict_evict() == 101
        mirror.observe_add(50)  # lower timestamp: no regression
        assert mirror.clock == 101

    def test_slot_mirroring_matches_verifier_cache(self):
        """The mirror's freelist must replay VerifierCache's arithmetic."""
        cache = VerifierCache(4)
        mirror = VerifierMirror(0, 4)
        for i in range(3):
            assert (cache.add(dk(i), DataValue(b"x"))
                    == mirror.add(dk(i), DataValue(b"x"), VIA_DEFERRED).slot)
        cache.remove(dk(1))
        mirror.remove(dk(1))
        assert (cache.add(dk(9), DataValue(b"x"))
                == mirror.add(dk(9), DataValue(b"x"), VIA_DEFERRED).slot)

    def test_children_counting(self):
        mirror = VerifierMirror(0, 8)
        mirror.add(bk("0"), MerkleValue(), VIA_PINNED, None)
        mirror.add(bk("01"), MerkleValue(), VIA_MERKLE, bk("0"))
        assert mirror.get(bk("0")).children_cached == 1
        with pytest.raises(ProtocolError):
            mirror.remove(bk("0"))  # child still cached
        mirror.remove(bk("01"))
        assert mirror.get(bk("0")).children_cached == 0

    def test_victims_lru_order(self):
        mirror = VerifierMirror(0, 8)
        mirror.add(dk(1), DataValue(b"a"), VIA_DEFERRED)
        mirror.add(dk(2), DataValue(b"b"), VIA_DEFERRED)
        mirror.touch(dk(1))  # now 2 is least recently used
        victims = mirror.victims(set(), 1)
        assert victims[0].key == dk(2)

    def test_victims_respect_locks_and_pins(self):
        mirror = VerifierMirror(0, 8)
        mirror.add(dk(1), DataValue(b"a"), VIA_PINNED)
        mirror.add(dk(2), DataValue(b"b"), VIA_DEFERRED)
        mirror.add(dk(3), DataValue(b"c"), VIA_DEFERRED)
        victims = mirror.victims({dk(2)}, 1)
        assert victims[0].key == dk(3)

    def test_victims_exhaustion(self):
        mirror = VerifierMirror(0, 8)
        mirror.add(dk(1), DataValue(b"a"), VIA_PINNED)
        with pytest.raises(ProtocolError):
            mirror.victims(set(), 1)

    def test_reparent(self):
        mirror = VerifierMirror(0, 8)
        mirror.add(bk("0"), MerkleValue(), VIA_PINNED, None)
        mirror.add(bk("00"), MerkleValue(), VIA_MERKLE, bk("0"))
        mirror.add(bk("001"), DataValue(b"x"), VIA_MERKLE, bk("0"))
        mirror.reparent(bk("001"), bk("00"))
        assert mirror.get(bk("001")).parent_key == bk("00")
        assert mirror.get(bk("00")).children_cached == 1
        assert mirror.get(bk("0")).children_cached == 1

    def test_rejected_remove_has_no_side_effect(self):
        """A refused evict must not reorder ``entries`` (flush / audit
        iterate it and their order reaches the log) nor the victim order."""
        mirror = VerifierMirror(0, 8)
        mirror.add(bk("0"), MerkleValue(), VIA_DEFERRED)
        mirror.add(bk("01"), MerkleValue(), VIA_MERKLE, bk("0"))
        mirror.add(dk(1), DataValue(b"a"), VIA_DEFERRED)
        before = list(mirror.entries)
        with pytest.raises(ProtocolError):
            mirror.remove(bk("0"))
        with pytest.raises(ProtocolError):
            mirror.remove(dk(9))  # absent
        assert list(mirror.entries) == before
        assert mirror.free == 5
        mirror.remove(bk("01"))
        assert [e.key for e in mirror.victims(set(), 2)] == [bk("0"), dk(1)]

    def test_rejected_add_has_no_side_effect(self):
        mirror = VerifierMirror(0, 8)
        with pytest.raises(ProtocolError):
            mirror.add(bk("01"), MerkleValue(), VIA_MERKLE, bk("0"))
        assert len(mirror) == 0 and mirror.free == 8

    def test_adopt_merkle_parent(self):
        mirror = VerifierMirror(0, 8)
        mirror.add(bk("0"), MerkleValue(), VIA_DEFERRED)
        mirror.add(bk("01"), MerkleValue(), VIA_DEFERRED)
        mirror.adopt_merkle_parent(bk("01"), bk("0"))
        child = mirror.get(bk("01"))
        assert (child.via, child.parent_key) == (VIA_MERKLE, bk("0"))
        assert not mirror.get(bk("0")).evictable
        assert [e.key for e in mirror.victims(set(), 1)] == [bk("01")]
        with pytest.raises(ProtocolError):
            mirror.adopt_merkle_parent(bk("01"), bk("1"))  # parent absent

    def test_touches_without_evictions_keep_the_index_bounded(self):
        """The ``warm_zipf_b`` shape: a cache that never evicts is touched
        forever; recency state must stay O(capacity)."""
        mirror = VerifierMirror(0, 16)
        for i in range(16):
            mirror.add(dk(i), DataValue(b"x"), VIA_DEFERRED)
        for i in range(10_000):
            mirror.touch(dk((i * 7) % 16))
        assert len(mirror._heap) <= 2 * mirror.capacity
        # 10_000 = 625 full cycles of the 16 keys, so the cycle order stands.
        assert [e.key for e in mirror.victims(set(), 16)] == \
            [dk((i * 7) % 16) for i in range(16)]

    def test_add_evict_cycles_without_victims_keep_the_index_bounded(self):
        """The per-op leaf of a store that fits its caches: added, then
        evicted by key, and nobody ever asks for a victim."""
        mirror = VerifierMirror(0, 8)
        mirror.add(dk(0), DataValue(b"x"), VIA_DEFERRED)
        for i in range(1, 5_000):
            mirror.add(dk(i % 200 + 1), DataValue(b"x"), VIA_DEFERRED)
            mirror.remove(dk(i % 200 + 1))
            assert len(mirror._heap) <= 2 * mirror.capacity
        assert [e.key for e in mirror.victims(set(), 1)] == [dk(0)]


def reference_victims(mirror, ticks, locked, need):
    """The policy as first written — sort every entry by its last add/touch
    tick, then skip pinned / locked / has-cached-children — kept here as
    the oracle for the mirror's recency index."""
    if need <= 0:
        return []
    out = []
    for entry in sorted(mirror.entries.values(), key=lambda e: ticks[e.key]):
        if len(out) >= need:
            break
        if entry.via == VIA_PINNED or entry.key in locked:
            continue
        if entry.children_cached:
            continue
        out.append(entry)
    if len(out) < need:
        raise ProtocolError("cannot free")
    return out


KEY_POOL = [bk(format(i, f"0{n}b")) for n in range(1, 5) for i in range(1 << n)]


class MirrorMachine(RuleBasedStateMachine):
    """add / touch / remove / reparent / victims against the reference."""

    CAPACITY = 10

    def __init__(self):
        super().__init__()
        self.mirror = VerifierMirror(0, self.CAPACITY)
        self.ticks: dict[BitKey, int] = {}   # the model's own recency clock
        self.order: list[BitKey] = []        # expected ``entries`` order
        self.clock = 0
        self._stamp(self.mirror.add(BitKey.root(), MerkleValue(), VIA_PINNED))

    def _stamp(self, entry):
        self.clock += 1
        self.ticks[entry.key] = self.clock
        if entry.key not in self.order:
            self.order.append(entry.key)

    def _cached(self, index):
        return self.order[index % len(self.order)]

    @rule(key=st.sampled_from(KEY_POOL),
          via=st.sampled_from([VIA_MERKLE, VIA_DEFERRED, VIA_PINNED]),
          parent=st.one_of(st.none(), st.integers(0, 99),
                           st.sampled_from(KEY_POOL)))
    def add(self, key, via, parent):
        parent_key = parent
        if isinstance(parent, int):
            parent_key = self._cached(parent) if self.order else None
        ok = (key not in self.mirror and self.mirror.free > 0
              and (via != VIA_MERKLE or parent_key is None
                   or parent_key in self.mirror))
        if ok:
            self._stamp(self.mirror.add(key, DataValue(b"v"), via, parent_key))
        else:
            with pytest.raises(ProtocolError):
                self.mirror.add(key, DataValue(b"v"), via, parent_key)

    @precondition(lambda self: self.order)
    @rule(index=st.integers(0, 99))
    def touch(self, index):
        self._stamp(self.mirror.touch(self._cached(index)))

    @rule(key=st.sampled_from(KEY_POOL))
    def touch_any(self, key):
        if key in self.mirror:
            self._stamp(self.mirror.touch(key))
        else:
            with pytest.raises(ProtocolError):
                self.mirror.touch(key)

    @precondition(lambda self: self.order)
    @rule(index=st.integers(0, 99))
    def remove(self, index):
        key = self._cached(index)
        if self.mirror.get(key).children_cached:
            with pytest.raises(ProtocolError):
                self.mirror.remove(key)
        else:
            self.mirror.remove(key)
            self.order.remove(key)
            del self.ticks[key]

    @precondition(lambda self: len(self.order) > 1)
    @rule(child=st.integers(0, 99), parent=st.integers(0, 99))
    def reparent(self, child, parent):
        child, parent = self._cached(child), self._cached(parent)
        if child != parent:
            self.mirror.reparent(child, parent)

    @rule(locked=st.sets(st.sampled_from(KEY_POOL), max_size=6),
          need=st.integers(0, 4))
    def victims(self, locked, need):
        try:
            expected = reference_victims(self.mirror, self.ticks, locked, need)
        except ProtocolError:
            with pytest.raises(ProtocolError):
                self.mirror.victims(locked, need)
            return
        got = self.mirror.victims(locked, need)
        assert [e.key for e in got] == [e.key for e in expected]

    @rule(locked=st.sets(st.sampled_from(KEY_POOL), max_size=3))
    def make_room(self, locked):
        """What ``_make_room`` does: evict the LRU victim, if there is one."""
        try:
            expected = reference_victims(self.mirror, self.ticks, locked, 1)
        except ProtocolError:
            return
        victim = self.mirror.victims(locked, 1)[0]
        assert victim.key == expected[0].key
        self.mirror.remove(victim.key)
        self.order.remove(victim.key)
        del self.ticks[victim.key]

    @invariant()
    def audit(self):
        mirror = self.mirror
        assert list(mirror.entries) == self.order
        assert mirror.free == self.CAPACITY - len(self.order)
        assert len(mirror._heap) <= 2 * self.CAPACITY
        records: dict[int, list[int]] = {}
        for tick, entry in mirror._heap:
            records.setdefault(id(entry), []).append(tick)
        counts: dict[BitKey, int] = {}
        for entry in mirror.entries.values():
            if entry.via == VIA_MERKLE and entry.parent_key is not None:
                counts[entry.parent_key] = counts.get(entry.parent_key, 0) + 1
        for key, entry in mirror.entries.items():
            assert entry.children_cached == counts.get(key, 0)
            assert entry.evictable == (entry.via != VIA_PINNED
                                       and counts.get(key, 0) == 0)
            # The index: one record per queued entry, never newer than the
            # entry's own tick, and nothing evictable is missing from it.
            mine = records.get(id(entry), [])
            assert len(mine) == (1 if entry.queued else 0)
            assert all(tick <= entry.tick for tick in mine)
            assert entry.queued or not entry.evictable


TestMirrorMachine = MirrorMachine.TestCase
TestMirrorMachine.settings = settings(max_examples=60,
                                      stateful_step_count=50, deadline=None)


# ---------------------------------------------------------------------------
# Client protocol
# ---------------------------------------------------------------------------
class TestClientNonces:
    def test_monotone_nonces(self):
        client = Client(1, MacKey.generate())
        assert client.next_nonce() == 1
        assert client.next_nonce() == 2

    def test_sliding_window_accepts_reordering(self):
        table = ClientTable()
        table.register(1, MacKey.generate())
        table.check_nonce(1, 5)
        table.check_nonce(1, 3)  # out of order but fresh: fine
        table.check_nonce(1, 4)

    def test_replay_rejected(self):
        table = ClientTable()
        table.register(1, MacKey.generate())
        table.check_nonce(1, 5)
        with pytest.raises(ReplayError):
            table.check_nonce(1, 5)

    def test_out_of_window_rejected(self):
        table = ClientTable()
        table.register(1, MacKey.generate())
        table.check_nonce(1, ClientTable.WINDOW + 10)
        with pytest.raises(ReplayError):
            table.check_nonce(1, 1)

    def test_unknown_client(self):
        with pytest.raises(ProtocolError):
            ClientTable().check_nonce(9, 1)

    def test_double_registration_rejected(self):
        table = ClientTable()
        table.register(1, MacKey.generate())
        with pytest.raises(ProtocolError):
            table.register(1, MacKey.generate())

    def test_restore_burns_window(self):
        """Post-recovery, all pre-checkpoint nonces are dead (anti-replay
        across reboots)."""
        table = ClientTable()
        table.register(1, MacKey.generate())
        table.check_nonce(1, 7)
        saved = table.nonces()
        table2 = ClientTable()
        table2.register(1, MacKey.generate())
        table2.restore_nonces(saved)
        with pytest.raises(ReplayError):
            table2.check_nonce(1, 7)
        table2.check_nonce(1, saved[1] + ClientTable.WINDOW + 1)


class TestReceipts:
    def _receipt(self, client, payload=b"v", kind=GET, nonce=None):
        if nonce is None:
            nonce = client.next_nonce()
        receipt = OpReceipt(client.client_id, kind, dk(1), payload, nonce, 0, b"")
        receipt.tag = client.key.sign(*receipt.mac_fields())
        return receipt

    def test_accept_valid(self):
        client = Client(1, MacKey.generate())
        receipt = self._receipt(client)
        client.accept(receipt)
        assert not client.settled(receipt.nonce)  # no epoch receipt yet

    def test_settlement_requires_epoch_receipt(self):
        client = Client(1, MacKey.generate())
        receipt = self._receipt(client)
        client.accept(receipt)
        epoch = EpochReceipt(0, b"")
        epoch.tag = client.key.sign(*epoch.mac_fields())
        client.accept_epoch(epoch)
        assert client.settled(receipt.nonce)
        assert client.settled_epoch == 0

    def test_forged_payload_rejected(self):
        client = Client(1, MacKey.generate())
        receipt = self._receipt(client)
        receipt.payload = b"forged"
        with pytest.raises(SignatureError):
            client.accept(receipt)

    def test_unknown_nonce_rejected(self):
        client = Client(1, MacKey.generate())
        receipt = self._receipt(client, nonce=99)
        with pytest.raises(ReplayError):
            client.accept(receipt)

    def test_wrong_client_rejected(self):
        alice = Client(1, MacKey.generate())
        receipt = self._receipt(alice)
        bob = Client(2, MacKey.generate())
        bob.next_nonce()
        with pytest.raises(ProtocolError):
            bob.accept(receipt)

    def test_forged_epoch_receipt_rejected(self):
        client = Client(1, MacKey.generate())
        epoch = EpochReceipt(5, b"\x00" * 32)
        with pytest.raises(SignatureError):
            client.accept_epoch(epoch)

    def test_put_request_binding(self):
        client = Client(1, MacKey.generate())
        request = client.make_put(dk(3), b"payload")
        client.key.verify(request.tag, b"PUT", dk(3).to_bytes(),
                          b"\x01payload", request.nonce.to_bytes(8, "big"))
        with pytest.raises(SignatureError):
            client.key.verify(request.tag, b"PUT", dk(4).to_bytes(),
                              b"\x01payload", request.nonce.to_bytes(8, "big"))

    def test_delete_request_distinct_from_empty(self):
        client = Client(1, MacKey.generate())
        delete = client.make_put(dk(3), None)
        empty = client.make_put(dk(3), b"")
        assert delete.tag != empty.tag


class TestReceiptEpochStraddle:
    """Receipt-channel faults that straddle an epoch boundary: an op
    receipt from epoch N delayed until after the epoch-N batch receipt
    arrived, and duplicates delivered on both sides of the boundary."""

    def _op_receipt(self, client, epoch, payload=b"v"):
        nonce = client.next_nonce()
        receipt = OpReceipt(client.client_id, GET, dk(1), payload, nonce,
                            epoch, b"")
        receipt.tag = client.key.sign(*receipt.mac_fields())
        return receipt

    def _epoch_receipt(self, client, epoch):
        receipt = EpochReceipt(epoch, b"")
        receipt.tag = client.key.sign(*receipt.mac_fields())
        return receipt

    def test_op_receipt_delivered_after_its_epoch_settles(self):
        from repro.core.protocol import ReceiptChannel
        from repro.faults import FaultPlan

        client = Client(1, MacKey.generate())
        channel = ReceiptChannel()
        channel.faults = FaultPlan(0, {"receipt.reorder": [0]})
        held = self._op_receipt(client, epoch=1)
        channel.deliver(held, client)               # withheld by the fault
        assert channel.reordered == 1
        channel.deliver(self._epoch_receipt(client, 1), client)
        assert client.settled_epoch == 1
        assert not client.settled(held.nonce)       # op receipt still missing
        assert channel.flush_held() == 1            # late, out of order
        assert client.settled(held.nonce)           # settles immediately

    def test_straddling_receipts_interleave_with_next_epoch(self):
        from repro.core.protocol import ReceiptChannel
        from repro.faults import FaultPlan

        client = Client(1, MacKey.generate())
        channel = ReceiptChannel()
        channel.faults = FaultPlan(0, {"receipt.reorder": [0]})
        old = self._op_receipt(client, epoch=1)
        channel.deliver(old, client)                # epoch-1 receipt held
        channel.deliver(self._epoch_receipt(client, 1), client)
        fresh = self._op_receipt(client, epoch=2)
        channel.deliver(fresh, client)              # epoch 2 overtakes it
        channel.deliver(self._epoch_receipt(client, 2), client)
        assert client.settled(fresh.nonce)
        channel.flush_held()
        assert client.settled(old.nonce)
        assert client.settled_epoch == 2            # the max wins, no regress

    def test_duplicates_across_the_boundary_are_idempotent(self):
        from repro.core.protocol import ReceiptChannel
        from repro.faults import FaultPlan

        client = Client(1, MacKey.generate())
        channel = ReceiptChannel()
        channel.faults = FaultPlan(0, {"receipt.duplicate": [0]})
        receipt = self._op_receipt(client, epoch=0)
        channel.deliver(receipt, client)            # accepted twice
        assert channel.duplicated == 1
        epoch = self._epoch_receipt(client, 0)
        channel.deliver(epoch, client)
        assert client.settled(receipt.nonce)
        # Replays on the far side of the boundary change nothing.
        channel.deliver(receipt, client)
        channel.deliver(epoch, client)
        channel.deliver(self._epoch_receipt(client, 0), client)
        assert client.settled(receipt.nonce)
        assert client.settled_epoch == 0

    def test_reset_forgets_held_receipts(self):
        from repro.core.protocol import ReceiptChannel
        from repro.faults import FaultPlan

        client = Client(1, MacKey.generate())
        channel = ReceiptChannel()
        channel.faults = FaultPlan(0, {"receipt.reorder": [0]})
        held = self._op_receipt(client, epoch=1)
        channel.deliver(held, client)
        channel.reset()                             # e.g. across a recovery
        assert channel.flush_held() == 0
        assert not client.settled(held.nonce)
