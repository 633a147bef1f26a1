"""Tests for the running class-average table, and for the scalar
negative-class draw that the tests use as the oracle of the vector draw
in `interference`."""

import numpy as np
import pytest

from cirlab.errors import ConfigurationError, InputError, ShapeError
from cirlab.tac import ClassTable, tac_init, tac_update
from oracles import class_means, sample_negative_class


class TestInitAndLookup:
    def test_random_init_statistics(self):
        tac = tac_init(40, 50, seed=0)
        assert tac.table.shape == (40, 50)
        assert tac.momentum == 0.5
        # zero-mean unit-variance draw
        assert abs(tac.table.mean()) < 0.05
        assert abs(tac.table.std() - 1.0) < 0.05

    def test_deterministic_per_seed(self):
        a = tac_init(4, 3, seed=9)
        b = tac_init(4, 3, seed=9)
        assert np.array_equal(a.table, b.table)
        assert not np.array_equal(a.table, tac_init(4, 3, seed=10).table)

    def test_bad_settings(self):
        with pytest.raises(ConfigurationError):
            tac_init(1, 3)  # a lone class has no wrong class to offer
        with pytest.raises(ConfigurationError):
            tac_init(3, 0)
        with pytest.raises(ConfigurationError):
            tac_init(3, 3, momentum=0.0)
        with pytest.raises(ConfigurationError):
            tac_init(3, 3, momentum=1.5)


class TestClassMeans:
    def test_hand_computed(self):
        feats = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        labels = np.array([1, 1, 0])
        means, counts = class_means(feats, labels, 3)
        assert np.allclose(means[1], [2.0, 0.0])
        assert np.allclose(means[0], [0.0, 4.0])
        assert np.allclose(means[2], [0.0, 0.0])
        assert counts.tolist() == [1, 2, 0]

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, d, c = rng.integers(1, 30), rng.integers(1, 6), rng.integers(2, 8)
            feats = rng.normal(size=(n, d))
            labels = rng.integers(0, c, size=n)
            means, counts = class_means(feats, labels, int(c))
            for k in range(c):
                rows = feats[labels == k]
                assert counts[k] == len(rows)
                if len(rows):
                    assert np.allclose(means[k], rows.mean(axis=0))
                else:
                    assert np.all(means[k] == 0.0)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            class_means(np.zeros(3), np.zeros(3, dtype=int), 2)
        with pytest.raises(ShapeError):
            class_means(np.zeros((3, 2)), np.zeros(4, dtype=int), 2)


class TestUpdate:
    def test_ema_hand_example(self):
        # row 0 at [2, 2], batch mean [4, 0], momentum 0.5 -> [3, 1]
        tac = ClassTable(table=np.array([[2.0, 2.0], [5.0, 5.0]]), momentum=0.5)
        feats = np.array([[4.0, 0.0]])
        out = tac_update(tac, feats, np.array([0]))
        assert np.allclose(out.table[0], [3.0, 1.0])
        assert np.allclose(out.table[1], [5.0, 5.0])  # absent class untouched
        assert np.allclose(tac.table[0], [2.0, 2.0])  # input untouched

    def test_momentum_one_replaces(self):
        tac = ClassTable(table=np.array([[7.0, 7.0]]), momentum=1.0)
        out = tac_update(tac, np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 0]))
        assert np.allclose(out.table[0], [2.0, 3.0])

    def test_repeated_updates_converge_to_constant_mean(self):
        # feeding the same batch mean forever drives the row to that mean
        tac = tac_init(2, 2, momentum=0.5, seed=3)
        feats = np.array([[10.0, -6.0]])
        labels = np.array([0])
        for _ in range(60):
            tac = tac_update(tac, feats, labels)
        assert np.allclose(tac.table[0], [10.0, -6.0], atol=1e-10)

    def test_stationary_gap_shrinks_by_momentum_factor(self):
        # the EMA law: after t updates with a fixed batch mean m, the gap
        # ||row - m|| equals (1 - momentum)^t of the starting gap
        for momentum in (0.1, 0.5, 0.9):
            tac = tac_init(2, 3, momentum=momentum, seed=8)
            m = np.array([2.0, -1.0, 0.5])
            gap0 = np.linalg.norm(tac.table[0] - m)
            feats = m[None, :]
            labels = np.array([0])
            for t in range(1, 8):
                tac = tac_update(tac, feats, labels)
                gap = np.linalg.norm(tac.table[0] - m)
                expected = (1 - momentum) ** t * gap0
                assert abs(gap - expected) <= 1e-6 * max(expected, 1e-12)

    def test_normalize_rescales_updated_rows(self):
        tac = ClassTable(table=np.array([[0.0, 0.0], [3.0, 4.0]]), momentum=1.0)
        out = tac_update(tac, np.array([[6.0, 8.0]]), np.array([0]), normalize=True)
        assert np.isclose(np.linalg.norm(out.table[0]), 1.0)
        assert np.allclose(out.table[0], [0.6, 0.8])
        # absent row untouched, even though unnormalized
        assert np.allclose(out.table[1], [3.0, 4.0])

    def test_normalize_skips_zero_rows(self):
        tac = ClassTable(table=np.array([[5.0, 5.0]]), momentum=1.0)
        out = tac_update(tac, np.array([[0.0, 0.0]]), np.array([0]), normalize=True)
        assert np.all(out.table[0] == 0.0)

    def test_dim_mismatch_raises(self):
        tac = tac_init(2, 3)
        with pytest.raises(ShapeError):
            tac_update(tac, np.zeros((2, 4)), np.array([0, 1]))


class TestNegativeDraw:
    def test_never_returns_own_label(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            c = int(rng.integers(2, 9))
            y = int(rng.integers(0, c))
            k = sample_negative_class(rng, y, c)
            assert 0 <= k < c and k != y

    def test_uniform_over_others(self):
        # statistical check: each wrong class near 1/(C-1) frequency
        rng = np.random.default_rng(33)
        c, y, n = 5, 2, 40000
        counts = np.zeros(c)
        for _ in range(n):
            counts[sample_negative_class(rng, y, c)] += 1
        assert counts[y] == 0
        freqs = counts / n
        expected = 1.0 / (c - 1)
        for k in range(c):
            if k != y:
                assert abs(freqs[k] - expected) < 0.01

    def test_consumes_exactly_one_draw(self):
        # two generators from the same seed stay aligned if each call eats
        # one integer, whatever the label
        r1 = np.random.default_rng(7)
        r2 = np.random.default_rng(7)
        for y in [0, 3, 6, 1, 5]:
            sample_negative_class(r1, y, 7)
            r2.integers(0, 6)
        assert r1.integers(0, 1 << 30) == r2.integers(0, 1 << 30)

    def test_two_classes(self):
        rng = np.random.default_rng(1)
        assert sample_negative_class(rng, 0, 2) == 1
        assert sample_negative_class(rng, 1, 2) == 0

    def test_errors(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ConfigurationError):
            sample_negative_class(rng, 0, 1)
        with pytest.raises(InputError):
            sample_negative_class(rng, 5, 3)
