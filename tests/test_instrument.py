"""Counters algebra: add/diff/scoped round-trips and the max-merge rule.

The cost model, ``RunMetrics``, and the per-subsystem attribution all
consume counter bags produced by ``add`` (per-worker merges), ``diff``
(scoped measurement), and ``scoped`` (their composition) — so the
algebra has to be exact, including for gauge-style fields that merge as
a running maximum rather than a sum.
"""

from __future__ import annotations

from dataclasses import fields

from repro.instrument import Counters


def test_add_sums_ordinary_fields():
    a = Counters(merkle_hashes=3, store_reads=5)
    b = Counters(merkle_hashes=4, store_reads=1, mac_ops=2)
    a.add(b)
    assert a.merkle_hashes == 7
    assert a.store_reads == 6
    assert a.mac_ops == 2


def test_add_maxes_gauge_fields():
    a = Counters(replication_lag_max=9, failovers=1)
    b = Counters(replication_lag_max=4, failovers=2)
    a.add(b)
    # The peak of a merged bag is the max of the per-worker peaks; the
    # summing counter next to it still sums.
    assert a.replication_lag_max == 9
    assert a.failovers == 3
    b.add(Counters(replication_lag_max=30))
    assert b.replication_lag_max == 30


def test_diff_subtracts_ordinary_fields():
    base = Counters(ops=10, enclave_entries=2)
    now = Counters(ops=25, enclave_entries=7)
    d = now.diff(base)
    assert d.ops == 15
    assert d.enclave_entries == 5


def test_diff_carries_moved_gauge_and_zeroes_unmoved():
    base = Counters(replication_lag_max=6)
    moved = Counters(replication_lag_max=9)
    still = Counters(replication_lag_max=6)
    # A peak minus a baseline peak is meaningless; the diff carries the
    # observed max when the gauge moved during the scope...
    assert moved.diff(base).replication_lag_max == 9
    # ...and 0 when it did not (not -0 from subtraction, and never the
    # stale baseline value).
    assert still.diff(base).replication_lag_max == 0


def test_scoped_round_trips_gauges_through_add():
    """diff mirrors the max-merge rule, so scope deltas re-merged with
    add() reconstruct the true peak instead of summing peaks."""
    global_bag = Counters(replication_lag_max=5, ops=100)
    snap = global_bag.snapshot()
    global_bag.replication_lag_max = 12   # the gauge moves in the scope
    global_bag.ops += 7
    delta = global_bag.diff(snap)
    merged = snap.snapshot()
    merged.add(delta)
    assert merged.replication_lag_max == 12
    assert merged.ops == 107


def test_scoped_measures_only_the_block(counters=None):
    c = Counters()
    c.ops = 50
    with c.scoped() as scope:
        c.ops += 3
        c.merkle_hashes += 2
    assert scope.ops == 3
    assert scope.merkle_hashes == 2
    assert c.ops == 53  # the global bag is untouched by scoping


def test_max_merge_set_derived_from_metadata():
    """No hand-maintained list: the gauge set falls out of field
    metadata, so a new gauge_max() field can't silently sum."""
    from_metadata = {f.name for f in fields(Counters)
                     if f.metadata.get("merge") == "max"}
    assert Counters._MAX_MERGE == from_metadata
    assert "replication_lag_max" in Counters._MAX_MERGE


def test_group_dict_matches_metadata():
    repl = Counters(failovers=2, shipped_batches=5,
                    replication_lag_max=3, recovery_ticks=40,
                    delta_resyncs=4, snapshot_resyncs=1, lease_expiries=1,
                    epoch_markers=6, replica_reads=12,
                    replica_staleness_max=2, replication_retain_depth=80)
    d = repl.group_dict("replication")
    assert d == {"failovers": 2, "shipped_batches": 5,
                 "replication_lag_max": 3, "recovery_ticks": 40,
                 "delta_resyncs": 4, "snapshot_resyncs": 1,
                 "lease_expiries": 1, "epoch_markers": 6,
                 "replica_reads": 12, "replica_staleness_max": 2,
                 "replication_retain_depth": 80}
    # Every grouped field really carries the metadata tag.
    for name in d:
        (f,) = [f for f in fields(Counters) if f.name == name]
        assert f.metadata.get("group") == "replication"


def test_batch_fill_avg_stable_under_per_worker_merge():
    """The average is derived from summable parts, so merging worker
    bags gives the true global average — not an average of averages."""
    w1 = Counters(batches=2, batch_ops_total=20)    # fill 10.0
    w2 = Counters(batches=8, batch_ops_total=16)    # fill 2.0
    merged = Counters()
    merged.add(w1)
    merged.add(w2)
    assert merged.batch_fill_avg == 36 / 10  # true global mean, not 6.0
    assert Counters().batch_fill_avg == 0.0


def test_snapshot_is_independent():
    c = Counters(ops=1)
    snap = c.snapshot()
    c.ops = 99
    assert snap.ops == 1
