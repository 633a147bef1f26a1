"""Tests for the wrong-class blend and the Gaussian control."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cirlab.errors import ConfigurationError, InputError, ShapeError
from cirlab.interference import (
    InterferenceConfig,
    NoiseConfig,
    designated_rows,
    gaussian_perturb,
    interfere,
    interfere_backward,
    interfere_batch,
    matched_noise_sigma,
    negative_classes,
)
from cirlab.tac import ClassTable, tac_init
from oracles import sample_negative_class


class TestInterfere:
    def test_strength_zero_is_identity(self):
        z = np.array([[1.0, 2.0], [3.0, 4.0]])
        mu = np.array([[9.0, 9.0], [9.0, 9.0]])
        out = interfere(z, mu, 0.0)
        assert np.array_equal(out, z)

    def test_strength_one_is_replacement(self):
        z = np.array([[1.0, 2.0]])
        mu = np.array([[9.0, -9.0]])
        assert np.array_equal(interfere(z, mu, 1.0), mu)

    def test_halfway_blend(self):
        z = np.array([[2.0, 0.0]])
        mu = np.array([[0.0, 2.0]])
        assert np.allclose(interfere(z, mu, 0.5), [[1.0, 1.0]])

    def test_displacement_is_linear_in_strength(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(5, 3))
        mu = rng.normal(size=(5, 3))
        for lam in [0.1, 0.25, 0.7]:
            out = interfere(z, mu, lam)
            assert np.allclose(out - z, lam * (mu - z), rtol=0, atol=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            interfere(np.zeros((2, 3)), np.zeros((2, 4)), 0.5)

    def test_bad_strength_raises(self):
        with pytest.raises(InputError):
            interfere(np.zeros((1, 2)), np.zeros((1, 2)), 1.5)


class TestBackward:
    def test_scales_by_one_minus_strength(self):
        g = np.array([[4.0, -2.0]])
        assert np.allclose(interfere_backward(g, 0.25), [[3.0, -1.5]])

    def test_strength_one_blocks_gradient(self):
        g = np.ones((3, 2))
        assert np.all(interfere_backward(g, 1.0) == 0.0)

    def test_matches_finite_difference_through_blend(self):
        # scalar chain: loss = 0.5 * blended^2 with mu constant
        rng = np.random.default_rng(8)
        for lam in [0.0, 0.3, 0.9]:
            z = rng.normal(size=(4, 3))
            mu = rng.normal(size=(4, 3))

            def loss_of(zv):
                b = interfere(zv, mu, lam)
                return 0.5 * float(np.sum(b * b))

            blended = interfere(z, mu, lam)
            gz = interfere_backward(blended, lam)  # d loss/d blended = blended
            eps = 1e-6
            for idx in np.ndindex(z.shape):
                zp = z.copy()
                zp[idx] += eps
                zm = z.copy()
                zm[idx] -= eps
                fd = (loss_of(zp) - loss_of(zm)) / (2 * eps)
                assert abs(fd - gz[idx]) < 1e-6


class TestInterfereBatch:
    def make_tac(self):
        table = np.array([[10.0, 0.0], [0.0, 10.0], [-10.0, 0.0]])
        return ClassTable(table=table, momentum=0.5)

    def test_blends_toward_drawn_rows(self):
        tac = self.make_tac()
        feats = np.zeros((4, 2))
        labels = np.array([0, 1, 2, 0])
        cfg = InterferenceConfig(strength=0.5, fraction=1.0)
        rng = np.random.default_rng(2)
        blended, decoys = interfere_batch(feats, labels, tac, cfg, rng)
        assert np.all(decoys >= 0)
        assert np.all(decoys != labels)
        for i in range(4):
            assert np.allclose(blended[i], 0.5 * tac.table[decoys[i]])

    def test_disabled_leaves_features_but_consumes_rng(self):
        tac = self.make_tac()
        feats = np.random.default_rng(0).normal(size=(5, 2))
        labels = np.array([0, 1, 2, 1, 0])
        on = InterferenceConfig(strength=0.5, fraction=1.0, enabled=True)
        off = InterferenceConfig(strength=0.5, fraction=1.0, enabled=False)
        r_on = np.random.default_rng(42)
        r_off = np.random.default_rng(42)
        _, d_on = interfere_batch(feats, labels, tac, on, r_on)
        out_off, d_off = interfere_batch(feats, labels, tac, off, r_off)
        assert np.array_equal(d_on, d_off)  # identical draws
        assert np.array_equal(out_off, feats)  # but no blending
        # streams still aligned afterward
        assert r_on.integers(0, 1 << 30) == r_off.integers(0, 1 << 30)

    def test_strength_zero_equals_disabled_bitwise(self):
        tac = self.make_tac()
        feats = np.random.default_rng(1).normal(size=(6, 2))
        labels = np.array([0, 1, 2, 0, 1, 2])
        zero = InterferenceConfig(strength=0.0, fraction=1.0, enabled=True)
        off = InterferenceConfig(strength=0.5, fraction=1.0, enabled=False)
        b1, d1 = interfere_batch(feats, labels, tac, zero, np.random.default_rng(5))
        b2, d2 = interfere_batch(feats, labels, tac, off, np.random.default_rng(5))
        assert np.array_equal(b1, b2)
        assert np.array_equal(d1, d2)

    def test_fraction_designates_prefix(self):
        tac = self.make_tac()
        feats = np.ones((4, 2))
        labels = np.array([0, 0, 0, 0])
        cfg = InterferenceConfig(strength=1.0, fraction=0.5)
        blended, decoys = interfere_batch(feats, labels, tac, cfg, np.random.default_rng(3))
        assert np.all(decoys[:2] >= 0)
        assert np.all(decoys[2:] == -1)
        assert np.array_equal(blended[2:], feats[2:])
        assert not np.array_equal(blended[:2], feats[:2])

    def test_fraction_rounds_up(self):
        tac = self.make_tac()
        feats = np.zeros((3, 2))
        labels = np.array([0, 1, 2])
        cfg = InterferenceConfig(strength=1.0, fraction=0.4)  # ceil(1.2) = 2
        _, decoys = interfere_batch(feats, labels, tac, cfg, np.random.default_rng(3))
        assert (decoys >= 0).sum() == 2

    @pytest.mark.parametrize("fraction,n", [(0.14, 50), (0.28, 25), (0.07, 100)])
    def test_float_product_does_not_overshoot(self, fraction, n):
        # each product lands just above 7 in float, so a plain ceil
        # designated 8 rows
        assert math.ceil(fraction * n) == 8
        tac = tac_init(3, 2)
        labels = np.arange(n) % 3
        cfg = InterferenceConfig(strength=1.0, fraction=fraction)
        _, decoys = interfere_batch(
            np.zeros((n, 2)), labels, tac, cfg, np.random.default_rng(3)
        )
        assert (decoys >= 0).sum() == 7
        assert np.all(decoys[:7] >= 0)

    def test_designated_rows_exact_for_two_decimal_fractions(self):
        # against the exact rational ceil; a plain float ceil is wrong on
        # 30 of these cases
        overshoots = 0
        for n in range(1, 257):
            for k in range(101):
                exact = math.ceil(Fraction(k, 100) * n)
                assert designated_rows(k / 100, n) == exact, (k, n)
                overshoots += math.ceil(k / 100 * n) != exact
        assert overshoots == 30
        assert designated_rows(0.4, 3) == 2
        assert designated_rows(1.0, 0) == 0

    def test_empty_batch(self):
        tac = self.make_tac()
        cfg = InterferenceConfig()
        blended, decoys = interfere_batch(
            np.empty((0, 2)), np.empty(0, dtype=int), tac, cfg, np.random.default_rng(0)
        )
        assert blended.shape == (0, 2)
        assert decoys.shape == (0,)

    def test_decoys_match_scalar_draw_loop(self):
        # one vector draw must replay the stream of one
        # sample_negative_class call per designated row
        for num_classes in (2, 3, 7, 40):
            for fraction in (0.3, 1.0):
                tac = tac_init(num_classes, 2)
                labels = np.random.default_rng(num_classes).integers(
                    0, num_classes, size=33
                )
                cfg = InterferenceConfig(strength=0.5, fraction=fraction)
                r_batch = np.random.default_rng(17)
                _, decoys = interfere_batch(
                    np.zeros((33, 2)), labels, tac, cfg, r_batch
                )
                r_loop = np.random.default_rng(17)
                n_designated = int(np.ceil(fraction * 33))
                expected = [
                    sample_negative_class(r_loop, int(y), num_classes)
                    for y in labels[:n_designated]
                ]
                assert decoys[:n_designated].tolist() == expected
                assert np.all(decoys[n_designated:] == -1)
                assert r_batch.integers(0, 1 << 30) == r_loop.integers(0, 1 << 30)

    def test_unchecked_draw_is_the_batch_draw(self):
        # the trainer draws decoys with negative_classes, unchecked
        tac = tac_init(9, 3)
        labels = np.random.default_rng(2).integers(0, 9, size=20)
        cfg = InterferenceConfig(strength=0.5, fraction=0.6)
        r_batch, r_draw = np.random.default_rng(4), np.random.default_rng(4)
        _, decoys = interfere_batch(np.zeros((20, 3)), labels, tac, cfg, r_batch)
        got = negative_classes(r_draw, labels[:12], 9)
        assert got.tolist() == decoys[:12].tolist()
        assert r_batch.bit_generator.state == r_draw.bit_generator.state

    def test_label_outside_table_raises(self):
        tac = self.make_tac()
        cfg = InterferenceConfig()
        with pytest.raises(InputError, match="label 3 outside"):
            interfere_batch(
                np.zeros((2, 2)), np.array([0, 3]), tac, cfg, np.random.default_rng(0)
            )

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            InterferenceConfig(strength=-0.1)
        with pytest.raises(ConfigurationError):
            InterferenceConfig(fraction=1.2)
        with pytest.raises(ConfigurationError):
            NoiseConfig(sigma=-1.0)


class TestGaussianControl:
    def test_zero_sigma_identity_but_consumes(self):
        r1 = np.random.default_rng(6)
        r2 = np.random.default_rng(6)
        feats = np.ones((3, 4))
        out = gaussian_perturb(feats, 0.0, r1)
        assert np.array_equal(out, feats)
        r2.normal(0.0, 1.0, size=(3, 4))
        assert r1.integers(0, 1 << 30) == r2.integers(0, 1 << 30)

    def test_noise_scale(self):
        rng = np.random.default_rng(7)
        out = gaussian_perturb(np.zeros((2000, 8)), 0.5, rng)
        assert abs(out.std() - 0.5) < 0.01

    def test_matched_sigma_oracle(self):
        # hand oracle: mean of strength * ||mu - z|| over designated rows,
        # over sqrt(dim)
        table = np.array([[3.0, 4.0], [0.0, 0.0]])
        tac = ClassTable(table=table, momentum=0.5)
        feats = np.zeros((2, 2))
        decoys = np.array([0, -1])
        sigma = matched_noise_sigma(feats, tac, 0.5, decoys)
        assert np.isclose(sigma, 0.5 * 5.0 / np.sqrt(2.0))

    def test_matched_sigma_gives_the_norm_and_mean_bits(self):
        # the old body: np.linalg.norm and .mean() over the designated rows
        rng = np.random.default_rng(3)
        tac = ClassTable(rng.standard_normal((9, 16)), momentum=0.5)
        for n in (1, 7, 24):
            feats = rng.standard_normal((n, 16))
            decoys = rng.integers(0, 9, size=n)
            disp = 0.3 * np.linalg.norm(tac.table[decoys] - feats, axis=1)
            want = float(disp.mean() / np.sqrt(16))
            assert matched_noise_sigma(feats, tac, 0.3, decoys) == want
            # undesignated rows (-1) beside them leave the masked mean alone
            padded = np.concatenate([decoys, [-1, -1]])
            extra = np.vstack([feats, rng.standard_normal((2, 16))])
            assert matched_noise_sigma(extra, tac, 0.3, padded) == want
        assert matched_noise_sigma(np.zeros((0, 16)), tac, 0.3, []) == 0.0

    def test_matched_sigma_no_designated_rows(self):
        tac = tac_init(3, 2)
        sigma = matched_noise_sigma(np.ones((2, 2)), tac, 0.5, np.array([-1, -1]))
        assert sigma == 0.0
