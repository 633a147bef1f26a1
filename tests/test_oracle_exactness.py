"""The sort-based batch-all triplet loss and the row-blocked geometry
statistics against their dense oracles, plus memory guards that fail if
the cubic or quadratic transients come back."""

import tracemalloc

import numpy as np
import pytest

from cirlab.evaluate import GEOMETRY_BLOCK, geometry_stats
from cirlab.losses import TripletConfig, batch_all_triplet_loss
from oracles import batch_all_triplet_loss_b3, geometry_stats_dense

REDUCTIONS = ("mean_all", "mean_nonzero")


def assert_matches_b3(z, zt, labels, cfg):
    """Equal counts, bit-identical gradients, loss within 1e-12 relative."""
    got = batch_all_triplet_loss(z, zt, labels, cfg)
    want = batch_all_triplet_loss_b3(z, zt, labels, cfg)
    assert got.num_triplets == want.num_triplets
    assert got.num_active == want.num_active
    # equal_nan only matters for the NaN batch; everywhere else the
    # gradients are finite and this is plain bit equality
    assert np.array_equal(got.grad_anchor, want.grad_anchor, equal_nan=True)
    assert np.array_equal(got.grad_other, want.grad_other, equal_nan=True)
    assert got.loss == pytest.approx(want.loss, rel=1e-12, abs=0.0)
    return want


def pk_batch_embeddings(p, k, dim, seed):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(p), k).astype(np.int64)
    centers = rng.standard_normal((p, dim))
    z = centers[labels] + 0.8 * rng.standard_normal((p * k, dim))
    zt = z + 0.3 * rng.standard_normal(z.shape)
    return z, zt, labels


class TestTripletLossMatchesB3:
    @pytest.mark.parametrize("reduction", REDUCTIONS)
    @pytest.mark.parametrize("squared", [True, False])
    @pytest.mark.parametrize("p,k", [(8, 4), (16, 8), (32, 8)])
    def test_pk_batches(self, p, k, squared, reduction):
        z, zt, labels = pk_batch_embeddings(p, k, 16, seed=p * k)
        want = assert_matches_b3(
            z, zt, labels, TripletConfig(0.5, reduction, squared)
        )
        assert 0 < want.num_active < want.num_triplets

    @pytest.mark.parametrize("reduction", REDUCTIONS)
    def test_random_labels(self, reduction):
        rng = np.random.default_rng(11)
        for _ in range(60):
            b = int(rng.integers(1, 41))
            labels = rng.integers(0, int(rng.integers(1, 7)), size=b)
            z = rng.standard_normal((b, 5))
            zt = z + 0.5 * rng.standard_normal((b, 5))
            cfg = TripletConfig(
                margin=float(rng.uniform(0.0, 2.0)),
                reduction=reduction,
                squared=bool(rng.integers(2)),
            )
            assert_matches_b3(z, zt, labels, cfg)

    @pytest.mark.parametrize("reduction", REDUCTIONS)
    @pytest.mark.parametrize("margin", [0.0, 0.5, 1.0])
    def test_quantised_ties(self, margin, reduction):
        # half-integer coordinates give exactly representable squared
        # distances, so many hinges are exactly 0 and must stay inactive
        rng = np.random.default_rng(5)
        ties = 0
        for _ in range(40):
            b = int(rng.integers(4, 33))
            labels = rng.integers(0, 4, size=b)
            z = rng.integers(-2, 3, size=(b, 2)) / 2.0
            zt = z + rng.integers(-1, 2, size=(b, 2)) / 2.0
            cfg = TripletConfig(margin=margin, reduction=reduction)
            assert_matches_b3(z, zt, labels, cfg)
            d = ((zt[:, None, :] - z[None, :, :]) ** 2).sum(-1)
            same = labels[:, None] == labels[None, :]
            pos = same & ~np.eye(b, dtype=bool)
            hinge = margin + d[:, :, None] - d[:, None, :]
            ties += int(np.sum((hinge == 0.0) & pos[:, :, None] & ~same[:, None, :]))
        assert ties > 0

    @pytest.mark.parametrize("reduction", REDUCTIONS)
    def test_margin_zero_unsquared(self, reduction):
        z, zt, labels = pk_batch_embeddings(16, 8, 16, seed=3)
        assert_matches_b3(z, zt, labels, TripletConfig(0.0, reduction, False))

    @pytest.mark.parametrize("nan_sign", [1.0, -1.0])
    @pytest.mark.parametrize("squared", [True, False])
    @pytest.mark.parametrize("reduction", REDUCTIONS)
    def test_nan_distance_stays_inactive(self, reduction, squared, nan_sign):
        z, zt, labels = pk_batch_embeddings(4, 4, 3, seed=9)
        z[5] = np.copysign(np.nan, nan_sign)
        want = assert_matches_b3(
            z, zt, labels, TripletConfig(0.5, reduction, squared)
        )
        assert np.isfinite(want.loss) and want.num_active > 0


def assert_geometry_matches_dense(z, labels):
    got = geometry_stats(z, labels)
    want = geometry_stats_dense(z, labels)
    assert got.center_distance == want.center_distance
    for field in ("intra", "inter", "ratio"):
        g, w = getattr(got, field), getattr(want, field)
        if w is None:
            assert g is None
        else:
            assert g == pytest.approx(w, rel=1e-12, abs=0.0)
    return want


class TestGeometryMatchesDense:
    @pytest.mark.parametrize("n", [7, GEOMETRY_BLOCK - 1, GEOMETRY_BLOCK + 1, 777, 2560])
    def test_block_edges(self, n):
        rng = np.random.default_rng(n)
        labels = rng.integers(0, 12, size=n)
        z = rng.standard_normal((n, 16)) + labels[:, None] * 0.1
        want = assert_geometry_matches_dense(z, labels)
        assert want.ratio is not None

    def test_quantised_duplicates(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 3, size=300)
        z = rng.integers(-1, 2, size=(300, 2)).astype(np.float64)
        assert_geometry_matches_dense(z, labels)


def traced_peak_mb(fn, *args):
    """Peak bytes allocated while fn runs, above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 1e6


class TestMemoryGuards:
    def test_triplet_loss_has_no_cubic_transient(self):
        # the B^3 body peaked at 163 MB here; the sort peaks near 10 MB
        z, zt, labels = pk_batch_embeddings(32, 8, 16, seed=0)
        assert traced_peak_mb(
            batch_all_triplet_loss, z, zt, labels, TripletConfig()
        ) < 24.0

    def test_geometry_stats_has_no_quadratic_transient(self):
        # the N x N body peaked at 157 MB here; row blocks peak near 23 MB
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 64, size=2560)
        z = rng.standard_normal((2560, 16))
        assert traced_peak_mb(geometry_stats, z, labels) < 48.0
