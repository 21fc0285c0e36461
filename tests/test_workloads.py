"""Tests for YCSB workload generation and key distributions (§8 setup)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.workloads.distributions import (
    SequentialKeys,
    UniformKeys,
    ZipfianKeys,
    make_distribution,
)
from repro.workloads.ycsb import (
    OP_GET,
    OP_INSERT,
    OP_PUT,
    OP_SCAN,
    WORKLOADS,
    YCSB_A,
    YCSB_B,
    YCSB_C,
    YCSB_E,
    WorkloadSpec,
    YcsbGenerator,
)


class TestDistributions:
    def test_uniform_in_range(self):
        dist = UniformKeys(100, seed=1)
        samples = [dist.sample() for _ in range(1000)]
        assert all(0 <= s < 100 for s in samples)
        assert len(set(samples)) > 50

    def test_zipfian_in_range(self):
        dist = ZipfianKeys(1000, theta=0.9, seed=1)
        samples = [dist.sample() for _ in range(2000)]
        assert all(0 <= s < 1000 for s in samples)

    def test_zipfian_is_skewed(self):
        """At θ=0.9 the hottest key is far above uniform share."""
        dist = ZipfianKeys(1000, theta=0.9, seed=1)
        counts = Counter(dist.sample() for _ in range(20000))
        top = counts.most_common(1)[0][1]
        assert top > 20000 / 1000 * 20

    def test_zipfian_theta_zero_is_uniformish(self):
        dist = ZipfianKeys(100, theta=0.0, seed=1)
        counts = Counter(dist.sample() for _ in range(20000))
        top = counts.most_common(1)[0][1]
        assert top < 20000 / 100 * 3

    def test_zipfian_scramble_scatters_hot_keys(self):
        plain = ZipfianKeys(1000, theta=0.9, seed=1, scramble=False)
        counts = Counter(plain.sample() for _ in range(5000))
        # Unscrambled: rank 0 (key 0) is the hottest.
        assert counts.most_common(1)[0][0] == 0
        scrambled = ZipfianKeys(1000, theta=0.9, seed=1, scramble=True)
        counts2 = Counter(scrambled.sample() for _ in range(5000))
        assert counts2.most_common(1)[0][0] != 0

    def test_zipfian_large_n_constructs_quickly(self):
        dist = ZipfianKeys(200_000_000, theta=0.9, seed=1)
        assert 0 <= dist.sample() < 200_000_000

    def test_sequential_cycles(self):
        dist = SequentialKeys(3)
        assert [dist.sample() for _ in range(7)] == [0, 1, 2, 0, 1, 2, 0]

    def test_factory(self):
        assert isinstance(make_distribution("uniform", 10), UniformKeys)
        assert isinstance(make_distribution("zipfian", 10), ZipfianKeys)
        assert isinstance(make_distribution("sequential", 10), SequentialKeys)
        with pytest.raises(ValueError):
            make_distribution("pareto", 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformKeys(0)
        with pytest.raises(ValueError):
            ZipfianKeys(10, theta=1.0)


class TestYcsbSpecs:
    def test_registry(self):
        assert set(WORKLOADS) == {"YCSB-A", "YCSB-B", "YCSB-C", "YCSB-E"}

    def test_mixes_sum_to_one(self):
        for spec in WORKLOADS.values():
            total = (spec.get_fraction + spec.put_fraction
                     + spec.scan_fraction + spec.insert_fraction)
            assert abs(total - 1.0) < 1e-9

    def test_bad_mix_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec("bad", get_fraction=0.7, put_fraction=0.7)


class TestGenerator:
    def test_initial_items(self):
        gen = YcsbGenerator(YCSB_A, 50, value_size=8, seed=1)
        items = gen.initial_items()
        assert [k for k, _ in items] == list(range(50))
        assert all(len(v) == 8 for _, v in items)

    def test_mix_fractions_observed(self):
        gen = YcsbGenerator(YCSB_A, 100, seed=1)
        kinds = Counter(kind for kind, _, _ in gen.operations(4000))
        assert 0.45 < kinds[OP_GET] / 4000 < 0.55
        assert 0.45 < kinds[OP_PUT] / 4000 < 0.55

    def test_readonly_generates_only_gets(self):
        gen = YcsbGenerator(YCSB_C, 100, seed=1)
        kinds = {kind for kind, _, _ in gen.operations(500)}
        assert kinds == {OP_GET}

    def test_scan_workload(self):
        gen = YcsbGenerator(YCSB_E, 100, seed=1)
        ops = list(gen.operations(1000))
        kinds = Counter(kind for kind, _, _ in ops)
        assert kinds[OP_SCAN] > 900
        assert kinds[OP_INSERT] > 10
        scan_lengths = {arg for kind, _, arg in ops if kind == OP_SCAN}
        assert scan_lengths == {100}

    def test_inserts_draw_fresh_keys(self):
        gen = YcsbGenerator(YCSB_E, 100, seed=1)
        inserted = [key for kind, key, _ in gen.operations(2000)
                    if kind == OP_INSERT]
        assert all(k >= 100 for k in inserted)
        assert len(set(inserted)) == len(inserted)

    def test_deterministic_under_seed(self):
        a = list(YcsbGenerator(YCSB_A, 100, seed=5).operations(100))
        b = list(YcsbGenerator(YCSB_A, 100, seed=5).operations(100))
        assert a == b

    def test_reproducible_against_fastver(self):
        """The generator stream drives FastVer without errors."""
        from repro.workloads.ycsb import run_workload
        from tests.conftest import small_fastver
        db, client = small_fastver(n_records=50)
        gen = YcsbGenerator(YCSB_A, 50, value_size=4, seed=3)
        executed = run_workload(db, client, gen, 100, n_workers=2)
        assert executed == 100
        db.verify()
        db.flush()
        assert client.settled_epoch == 0
