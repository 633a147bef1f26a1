"""The gather-based batch-all triplet loss, its narrow-accumulator
active-triple counts, the in-place pairwise distances and the
class-sorted, row-blocked geometry statistics against their dense,
bool-sum or out-of-place oracles, the loss with per-run cached masks and
the block-summed table update against their per-call boolean-mask and
np.add.at forms, memory guards that fail if the cubic, quadratic or
block-sized transients come back, and the shared training step against
the four per-head steps it replaced."""

import tracemalloc

import numpy as np
import pytest

from cirlab.errors import InputError, ShapeError
from cirlab.evaluate import (
    GEOMETRY_BLOCK, _pairwise_dist, geometry_stats, squared_distances,
)
from cirlab.interference import InterferenceConfig, NoiseConfig
from cirlab.losses import (
    TripletConfig, _active_counts, batch_all_triplet_loss, triplet_masks,
)
from cirlab.nn import init_params, sgd_step
from cirlab.sampling import ClassIndex, PKSpec
from cirlab.tac import ClassTable, tac_init, tac_update
from cirlab.trainer import TrainConfig, _mode_parts
from oracles import (
    active_counts_bool_sums,
    batch_all_triplet_loss_b3,
    batch_all_triplet_loss_boolean,
    geometry_stats_dense,
    one_batch_loss,
    pairwise_dist_out_of_place,
    single_step,
    step_cross_entropy,
    step_oim,
    step_triplet_batch_all,
    step_triplet_preformed,
    tac_update_add_at,
)

REDUCTIONS = ("mean_all", "mean_nonzero")


def assert_matches_b3(z, zt, labels, cfg):
    """Equal counts, bit-identical gradients, loss within 1e-12 relative."""
    got = one_batch_loss(z, zt, labels, cfg)
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


def random_cfg(rng, reduction):
    return TripletConfig(
        margin=float(rng.uniform(0.0, 2.0)),
        reduction=reduction,
        squared=bool(rng.integers(2)),
    )


class TestTripletLossMatchesB3:
    @pytest.mark.parametrize("reduction", REDUCTIONS)
    @pytest.mark.parametrize("squared", [True, False])
    @pytest.mark.parametrize("p,k", [(8, 4), (16, 8), (32, 8), (2, 128), (4, 64)])
    def test_pk_batches(self, p, k, squared, reduction):
        z, zt, labels = pk_batch_embeddings(p, k, 16, seed=p * k)
        cfg = TripletConfig(0.5, reduction, squared)
        want = assert_matches_b3(z, zt, labels, cfg)
        assert 0 < want.num_active < want.num_triplets
        # the same rows out of class-major order scatter each anchor's
        # positives over its row
        perm = np.random.default_rng(p + k).permutation(p * k)
        assert_matches_b3(z[perm], zt[perm], labels[perm], cfg)

    @pytest.mark.parametrize("reduction", REDUCTIONS)
    def test_random_labels(self, reduction):
        rng = np.random.default_rng(11)
        for _ in range(60):
            b = int(rng.integers(1, 41))
            labels = rng.integers(0, int(rng.integers(1, 7)), size=b)
            z = rng.standard_normal((b, 5))
            zt = z + 0.5 * rng.standard_normal((b, 5))
            assert_matches_b3(z, zt, labels, random_cfg(rng, reduction))
        # many classes over few rows: singleton classes beside larger ones,
        # so anchors differ in positive count and in threshold-row padding
        uneven = 0
        for _ in range(60):
            b = int(rng.integers(2, 49))
            labels = rng.integers(0, int(rng.integers(b // 2 + 1, b + 1)), size=b)
            z = rng.standard_normal((b, 4))
            zt = z + 0.5 * rng.standard_normal((b, 4))
            assert_matches_b3(z, zt, labels, random_cfg(rng, reduction))
            sizes = np.bincount(labels)[labels]
            uneven += int(sizes.min() == 1 and sizes.max() > 2)
        assert uneven > 10

    @pytest.mark.parametrize("squared", [True, False])
    @pytest.mark.parametrize("reduction", REDUCTIONS)
    def test_zero_distance_negative_beside_padding(self, reduction, squared):
        # anchor 4 has one positive against the largest class's three, so
        # its threshold row is padded; its blended row sits exactly on the
        # negative row 0, and no padded slot may count that 0 distance
        rng = np.random.default_rng(8)
        labels = np.array([0, 0, 0, 0, 1, 1])
        z = rng.standard_normal((6, 3))
        zt = z + 0.1 * rng.standard_normal((6, 3))
        zt[4] = z[0]
        for margin in (0.0, 0.5):
            want = assert_matches_b3(
                z, zt, labels, TripletConfig(margin, reduction, squared)
            )
            assert want.num_active > 0

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


def assert_same_result(got, want):
    """Equal counts, and the same floats in the loss and both gradients."""
    assert got.num_triplets == want.num_triplets
    assert got.num_active == want.num_active
    assert np.array_equal(got.loss, want.loss, equal_nan=True)
    assert np.array_equal(got.grad_anchor, want.grad_anchor, equal_nan=True)
    assert np.array_equal(got.grad_other, want.grad_other, equal_nan=True)


def bits(x):
    """The float64 bit patterns of x, so -0.0 and 0.0 differ."""
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def class_major_labels(p, k, seed, num_classes=100):
    """A PK batch's labels: p distinct class ids, k rows each, class-major."""
    ids = np.random.default_rng(seed).choice(num_classes, size=p, replace=False)
    return np.repeat(ids, k)


def assert_counts_match(dist, masks, margin=0.5):
    """_active_counts gives the bool-sum oracle's per-pair counts, and its
    bits and dtypes in the other counts, the hinge totals and the active
    counts."""
    got = _active_counts(dist, masks, margin)
    want = active_counts_bool_sums(dist, masks, margin)
    assert got[0].shape == want[0].shape and np.array_equal(got[0], want[0])
    for g, w in zip(got[1:], want[1:]):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g.view(np.uint8), w.view(np.uint8))
    return want


def padded_labels():
    """Shuffled labels of uneven classes: padded threshold rows, each
    anchor's positives scattered over its row."""
    labels = np.repeat(np.arange(6), [5, 3, 3, 2, 4, 1])
    return labels[np.random.default_rng(1).permutation(len(labels))]


def stacked_distances(stacks, b, dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((stacks, b, dim))
    zt = z + 0.3 * rng.standard_normal(z.shape)
    return np.sqrt(squared_distances(zt, z))


class TestActiveCountsMatchBoolSums:
    @pytest.mark.parametrize("stacks", [1, 3])
    def test_pk_batch_of_256(self, stacks):
        masks = triplet_masks(np.repeat(np.arange(32), 8))
        assert_counts_match(stacked_distances(stacks, 256, 16, stacks), masks)

    @pytest.mark.parametrize("stacks", [1, 3])
    def test_class_of_300_rows(self, stacks):
        # 299 positive slots overflow a uint8 count, and an anchor outside
        # the big class has more than 255 negatives
        labels = np.repeat(np.arange(5), [300, 12, 9, 9, 1])
        labels = labels[np.random.default_rng(0).permutation(len(labels))]
        masks = triplet_masks(labels)
        assert masks.width == 299 and masks.slot_index is not None
        dist = stacked_distances(stacks, len(labels), 4, stacks)
        count_ap, count_an, _, _ = assert_counts_match(dist, masks, margin=2.0)
        assert count_an.max() > 255 and count_ap.max() > 255

    def test_non_finite_distances(self):
        masks = triplet_masks(np.repeat(np.arange(32), 8))
        dist = stacked_distances(3, 256, 8, 7)
        rng = np.random.default_rng(7)
        for value in (np.nan, np.inf, -np.inf):
            dist.reshape(-1)[rng.choice(dist.size, 500, replace=False)] = value
        with np.errstate(invalid="ignore"):  # 0 counts times inf in the total
            want = assert_counts_match(dist, masks)
        assert (want[3] > 0).all()


    @pytest.mark.parametrize("margin", [0.0, 0.5])
    def test_padded_stack_with_idle_and_fallback_batches(self, margin):
        # batch 1 has no active triple; batch 2 has inf negative distances,
        # whose zero counts make its plain hinge dot NaN, so it sums its
        # nonzero counts' terms alone and stays finite
        labels = padded_labels()
        masks = triplet_masks(labels)
        assert masks.slot_index is not None
        dist = stacked_distances(3, len(labels), 4, 5)
        dist[1] = 1e4 * masks.neg_ok
        far = masks.neg_ok & (np.arange(len(labels)) % 4 == 0)
        dist[2][far] = np.inf
        with np.errstate(invalid="ignore"):  # 0 counts times inf in the dot
            per_pair, count_an, total, active = assert_counts_match(dist, masks, margin)
            assert np.isnan(np.dot(count_an[2].ravel(), dist[2].ravel()))
        assert active[1] == 0 and active[0] > 0 and active[2] > 0
        assert total[1] == 0.0 and np.isfinite(total).all()


class TestCachedMasksMatchBooleanMasks:
    """The loss with the masks a training run builds once equals the
    per-call boolean-mask loss it replaced."""

    def check(self, z, zt, labels, cfg, masks):
        want = batch_all_triplet_loss_boolean(z, zt, labels, cfg)
        assert_same_result(one_batch_loss(z, zt, labels, cfg, masks), want)
        return want

    @pytest.mark.parametrize("reduction", REDUCTIONS)
    @pytest.mark.parametrize("squared", [True, False])
    @pytest.mark.parametrize("p,k", [(8, 4), (32, 8), (4, 64)])
    def test_pk_batches(self, p, k, squared, reduction):
        masks = triplet_masks(np.repeat(np.arange(p), k))
        assert masks.slot_index is None and masks.width == k - 1
        rng = np.random.default_rng(p * k)
        for trial in range(3):
            labels = class_major_labels(p, k, seed=trial)
            z, zt, _ = pk_batch_embeddings(p, k, 16, seed=p * k + trial)
            cfg = TripletConfig(float(rng.uniform(0.0, 2.0)), reduction, squared)
            want = self.check(z, zt, labels, cfg, masks)
            assert 0 < want.num_active < want.num_triplets

    @pytest.mark.parametrize("reduction", REDUCTIONS)
    @pytest.mark.parametrize("squared", [True, False])
    @pytest.mark.parametrize("p,k", [(8, 4), (32, 8), (4, 64)])
    def test_quantised_ties(self, p, k, squared, reduction):
        # half-integer coordinates give exactly representable squared
        # distances, so many hinges are exactly 0 and must stay inactive
        masks = triplet_masks(np.repeat(np.arange(p), k))
        rng = np.random.default_rng(p + k)
        labels = class_major_labels(p, k, seed=1)
        z = rng.integers(-2, 3, size=(p * k, 2)) / 2.0
        zt = z + rng.integers(-1, 2, size=(p * k, 2)) / 2.0
        for margin in (0.0, 0.5, 1.0):
            self.check(z, zt, labels, TripletConfig(margin, reduction, squared), masks)

    @pytest.mark.parametrize("reduction", REDUCTIONS)
    @pytest.mark.parametrize("squared", [True, False])
    @pytest.mark.parametrize("p,k", [(8, 4), (32, 8), (4, 64)])
    def test_nan_rows(self, p, k, squared, reduction):
        masks = triplet_masks(np.repeat(np.arange(p), k))
        labels = class_major_labels(p, k, seed=2)
        z, zt, _ = pk_batch_embeddings(p, k, 3, seed=9)
        z[5] = np.nan
        zt[k + 1] = -np.nan
        want = self.check(z, zt, labels, TripletConfig(0.5, reduction, squared), masks)
        assert want.num_active > 0

    @pytest.mark.parametrize("reduction", REDUCTIONS)
    def test_padded_and_shuffled_masks(self, reduction):
        # uneven classes pad the threshold rows and shuffled rows scatter
        # each anchor's positives: masks built from those labels
        rng = np.random.default_rng(4)
        padded = 0
        for _ in range(80):
            b = int(rng.integers(2, 41))
            labels = rng.integers(0, int(rng.integers(1, b + 1)), size=b)
            z = rng.standard_normal((b, 4))
            zt = z + 0.5 * rng.standard_normal((b, 4))
            masks = triplet_masks(labels)
            padded += masks.slot_index is not None
            self.check(z, zt, labels, random_cfg(rng, reduction), masks)
        assert padded > 20

    @pytest.mark.parametrize("reduction", REDUCTIONS)
    @pytest.mark.parametrize("squared", [True, False])
    @pytest.mark.parametrize("padded", [False, True])
    def test_stack_with_idle_and_fallback_batches(self, padded, squared, reduction):
        # each batch of a 3-stack against the per-call loss alone: batch 1
        # has no active triple (each class sits on one far point), and
        # batch 2's NaN row makes its plain hinge dot NaN, so it sums its
        # nonzero counts' terms alone
        labels = padded_labels() if padded else np.repeat(np.arange(6), 3)
        masks = triplet_masks(labels)
        assert (masks.slot_index is not None) == padded
        rng = np.random.default_rng(len(labels))
        z = rng.standard_normal((3, len(labels), 4))
        zt = z + 0.5 * rng.standard_normal(z.shape)
        z[1] = zt[1] = 1e4 * labels[:, None]
        z[2, 3] = np.nan
        cfg = TripletConfig(0.5, reduction, squared)
        got = batch_all_triplet_loss(z, zt, cfg, masks)
        alone = [batch_all_triplet_loss_boolean(z[s], zt[s], labels, cfg) for s in range(3)]
        assert [r.num_active == 0 for r in alone] == [False, True, False]
        assert np.isfinite(got.loss).all()
        for s, want in enumerate(alone):
            assert bits(got.loss[s]) == bits(want.loss)
            assert np.array_equal(bits(got.grad_anchor[s]), bits(want.grad_anchor))
            assert np.array_equal(bits(got.grad_other[s]), bits(want.grad_other))
        assert got.num_triplets == sum(r.num_triplets for r in alone)
        assert got.num_active == sum(r.num_active for r in alone)

    def test_masks_must_match_the_batch(self):
        z, zt, labels = pk_batch_embeddings(4, 4, 3, seed=0)
        with pytest.raises(ShapeError, match="masks of 12 rows"):
            one_batch_loss(
                z, zt, labels, TripletConfig(), triplet_masks(np.repeat(np.arange(4), 3))
            )


def assert_same_table(got, want):
    # the bit patterns, so a -0.0 where np.add.at gives +0.0 fails
    assert np.array_equal(got.table.view(np.uint64), want.table.view(np.uint64))


class TestTacBlocksMatchAddAt:
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("p,k", [(8, 4), (32, 8), (4, 64), (3, 2)])
    def test_class_major_batches(self, p, k, normalize):
        rng = np.random.default_rng(p * k)
        for momentum in (0.5, 1.0, 0.1):
            tac = ClassTable(rng.standard_normal((100, 16)), momentum)
            for trial in range(3):
                labels = class_major_labels(p, k, seed=trial)
                z = rng.standard_normal((p * k, 16))
                got = tac_update(tac, z, labels, normalize, class_rows=k)
                assert_same_table(got, tac_update_add_at(tac, z, labels, normalize))
                assert_same_table(tac_update(tac, z, labels, normalize), got)
                tac = got

    @pytest.mark.parametrize("normalize", [False, True])
    def test_signed_zeros(self, normalize):
        # a class whose rows are all -0.0 sums to +0.0 under np.add.at's
        # zero start; the table holds -0.0 and negative entries, so a
        # -0.0 mean would change the updated row's bits
        p, k, d = 4, 4, 6
        labels = class_major_labels(p, k, seed=3, num_classes=10)
        z = np.random.default_rng(0).standard_normal((p * k, d))
        z[:k] = -0.0
        z[k : 2 * k : 2] = -0.0
        z[k + 1 : 2 * k : 2] = 0.0
        z[2 * k : 3 * k, :3] = -0.0
        table = np.full((10, d), -0.0)
        table[::2] = -np.arange(d) / 4.0
        for momentum in (0.5, 1.0):
            tac = ClassTable(table, momentum)
            got = tac_update(tac, z, labels, normalize, class_rows=k)
            assert_same_table(got, tac_update_add_at(tac, z, labels, normalize))
        # at momentum 1 the row is the class mean itself: +0.0, not -0.0
        assert not np.signbit(got.table[labels[0]]).any()

    @pytest.mark.parametrize("normalize", [False, True])
    def test_any_batch_layout(self, normalize):
        # the general path on shuffled labels with repeats and absent
        # classes, signed zeros in the rows, against the per-label oracle
        rng = np.random.default_rng(7)
        for trial in range(60):
            n, d, c = int(rng.integers(1, 50)), int(rng.integers(1, 8)), int(rng.integers(2, 30))
            labels = rng.integers(0, c, size=n)
            z = rng.standard_normal((n, d))
            z[rng.random((n, d)) < 0.3] = -0.0
            tac = ClassTable(rng.standard_normal((c, d)), float(rng.choice([0.5, 1.0])))
            got = tac_update(tac, z, labels, normalize)
            assert_same_table(got, tac_update_add_at(tac, z, labels, normalize))

    def test_bad_block_layouts(self):
        tac = tac_init(5, 2)
        with pytest.raises(ShapeError, match="class-major batch of 6 rows, 4 per"):
            tac_update(tac, np.zeros((6, 2)), np.zeros(6, dtype=int), class_rows=4)
        with pytest.raises(ShapeError):
            tac_update(tac, np.zeros((4, 2)), np.zeros(3, dtype=int), class_rows=2)
        with pytest.raises(InputError, match=r"labels must lie in \[0, 5\)"):
            tac_update(tac, np.zeros((4, 2)), np.array([5, 5, 1, 1]), class_rows=2)


class TestPairwiseDistMatchesOutOfPlace:
    @pytest.mark.parametrize("shape", [(40, 7), (1, 3), (6, 9, 5)])
    def test_bit_identical(self, shape):
        # duplicate rows within and across a and b give distances that
        # cancel to (or just below) zero and are clamped
        rng = np.random.default_rng(len(shape))
        a = rng.standard_normal(shape)
        b = rng.standard_normal(shape[:-2] + (11, shape[-1]))
        a[..., -1, :] = a[..., 0, :]
        b[..., 3, :] = a[..., 0, :]
        b[..., 7, :] = b[..., 3, :]
        for x, y in ((a, b), (a, a), (b, b), (np.round(a), np.round(b))):
            got = _pairwise_dist(x, y)
            want = pairwise_dist_out_of_place(x, y)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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

    @pytest.mark.parametrize("n", [40, 255, 256, 257, 513])
    def test_integer_distances_are_exact(self, n):
        # rows on one axis at integer offsets: every squared distance, root
        # and sum is an exact integer in either order
        rng = np.random.default_rng(n)
        labels = rng.integers(0, 5, size=n)
        z = np.zeros((n, 3))
        z[:, 1] = rng.integers(-50, 51, size=n)
        got, want = geometry_stats(z, labels), geometry_stats_dense(z, labels)
        assert got == want and got.intra > 0

    def test_row_order_does_not_matter(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 9, size=600)
        z = rng.standard_normal((600, 8)) + labels[:, None] * 0.2
        base = geometry_stats(z, labels)
        perm = rng.permutation(600)
        moved = geometry_stats(z[perm], labels[perm])
        for field in ("center_distance", "intra", "inter", "ratio"):
            assert getattr(moved, field) == pytest.approx(
                getattr(base, field), rel=1e-12, abs=0.0
            )

    def test_class_ids_with_gaps(self):
        rng = np.random.default_rng(6)
        labels = rng.choice(np.array([3, 17, 40]), size=300)
        z = rng.standard_normal((300, 4)) + (labels == 17)[:, None]
        assert assert_geometry_matches_dense(z, labels).ratio is not None

    @pytest.mark.parametrize("n", [255, 256, 257, 513])
    def test_class_across_a_block_edge(self, n):
        # sorted, class 1 holds rows 250..259 and class 3 rows 500..529,
        # so at n > 256 and n > 512 a class run crosses a block edge
        sizes = [250, 10, 240, 30]
        labels = np.repeat(np.arange(4), sizes)[:n]
        perm = np.random.default_rng(n).permutation(n)
        z = np.random.default_rng(n + 1).standard_normal((n, 6)) + labels[:, None]
        assert_geometry_matches_dense(z[perm], labels[perm])

    def test_singletons_beside_large_classes(self):
        rng = np.random.default_rng(9)
        labels = np.concatenate((np.zeros(400), np.ones(100), np.arange(2, 32)))
        rng.shuffle(labels)
        z = rng.standard_normal((530, 5)) + 0.5 * labels[:, None]
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
        # the B^3 body peaked at 163 MB here
        z, zt, labels = pk_batch_embeddings(32, 8, 16, seed=0)
        assert traced_peak_mb(
            one_batch_loss, z, zt, labels, TripletConfig()
        ) < 24.0

    def test_geometry_stats_has_no_quadratic_transient(self):
        # the N x N body peaked at 157 MB here
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 64, size=2560)
        z = rng.standard_normal((2560, 16))
        assert traced_peak_mb(geometry_stats, z, labels) < 48.0

    def test_triplet_loss_has_no_sort_key_transients(self):
        # the sort over 2B keys per anchor peaked at 10.4 MB here; with the
        # count temporaries still alive in the gradient block the loss
        # peaked at 4.9 MB (6.0 MB non-squared); one B x B float64 is 0.5 MB
        z, zt, labels = pk_batch_embeddings(32, 8, 16, seed=0)
        for squared in (True, False):
            assert traced_peak_mb(
                one_batch_loss, z, zt, labels, TripletConfig(squared=squared)
            ) < 4.5

    def test_geometry_stats_holds_one_distance_block(self):
        # out-of-place block distances, two blocks alive at once, peaked at
        # 22 MB here; one in-place 256 x 2559 float64 block is 5.2 MB, and
        # the call peaks near 7 MB
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 64, size=2560)
        z = rng.standard_normal((2560, 16))
        assert traced_peak_mb(geometry_stats, z, labels) < 16.0


HEADS = {
    "batch_all": dict(loss_mode="triplet"),
    "preformed": dict(loss_mode="triplet", mining="preformed"),
    "oim": dict(loss_mode="oim"),
    "cross_entropy": dict(loss_mode="cross_entropy"),
}
OFF = InterferenceConfig(strength=0.5, enabled=False)
PERTURBATIONS = {
    "no_reg": dict(interference=OFF),
    "cir": dict(interference=InterferenceConfig(strength=0.5)),
    "cir_fraction_0.4": dict(
        interference=InterferenceConfig(strength=0.5, fraction=0.4)
    ),
    "matched_noise": dict(interference=OFF, noise=NoiseConfig(enabled=True)),
    "fixed_sigma": dict(interference=OFF, noise=NoiseConfig(sigma=0.3, enabled=True)),
}


def oracle_step(head_mode, params, head, tac, feats, labels, cfg, rng, noise_rng):
    """The per-head step the trainer ran before the fold, returning the
    shared step's tuple (z, y, loss, acc, grads, head grads or None)."""
    pk = PKSpec(cfg.p_classes, cfg.k_samples)
    if head_mode == "oim":
        return (*step_oim(params, tac, feats, labels, pk, cfg, rng, noise_rng), None)
    if head_mode == "cross_entropy":
        return step_cross_entropy(
            params, head, tac, feats, labels, pk, cfg, rng, noise_rng
        )
    if head_mode == "batch_all":
        z, y, loss, grads = step_triplet_batch_all(
            params, tac, feats, labels, ClassIndex(labels), pk, cfg, rng, noise_rng
        )
    else:
        z, y, loss, grads = step_triplet_preformed(
            params, tac, feats, labels, pk, cfg, rng, noise_rng
        )
    return z, y, loss, 0.0, grads, None


def assert_grads_equal(a, b):
    assert len(a.weights) == len(b.weights)
    for ga, gb in zip(a.weights + a.biases, b.weights + b.biases):
        assert np.array_equal(ga, gb)


class TestStepMatchesPerHeadOracles:
    @pytest.mark.parametrize("perturbation", PERTURBATIONS)
    @pytest.mark.parametrize("head_mode", HEADS)
    def test_three_steps_bit_identical(self, head_mode, perturbation):
        cfg = TrainConfig(
            p_classes=4, k_samples=3, hidden_dims=(12,), embed_dim=5,
            **HEADS[head_mode], **PERTURBATIONS[perturbation],
        )
        data = np.random.default_rng(0)
        labels = np.repeat(np.arange(7), 6)
        centers = data.standard_normal((7, 8))
        feats = centers[labels] + 0.5 * data.standard_normal((42, 8))
        params = init_params((8, 12, 5), seed=1)
        head = None
        if head_mode == "cross_entropy":
            head = init_params((5, 7), "identity", seed=2)
        tac = tac_init(7, 5, seed=3)
        parts = _mode_parts(cfg, labels, tac.num_classes)
        r_new, r_old, r_epoch = (np.random.default_rng(4) for _ in range(3))
        n_new, n_old, n_epoch = (np.random.default_rng(5) for _ in range(3))
        # the same three steps twice: each drawn as its step starts, and
        # all three drawn up front by one epoch draw
        epoch = parts.epoch(r_epoch, 3)
        for draw in zip(*epoch):
            want = oracle_step(
                head_mode, params, head, tac, feats, labels, cfg, r_old, n_old
            )
            for got in (
                single_step(params, head, tac, feats, labels, parts, cfg, r_new, n_new),
                single_step(params, head, tac, feats, labels, parts, cfg, None,
                            n_epoch, draw),
            ):
                z, y, loss, acc, grads, head_grads = got
                assert np.array_equal(z, want[0])
                assert np.array_equal(y, want[1])
                assert loss == want[2] and acc == want[3]
                assert_grads_equal(grads, want[4])
                assert (head_grads is None) == (want[5] is None)
                if head is not None:
                    assert_grads_equal(head_grads, want[5])
            if head is not None:
                head = sgd_step(head, head_grads, 0.1)
            params = sgd_step(params, grads, 0.1)
            tac = tac_update(tac, z, y)
        for r in (r_new, r_epoch):
            assert r.bit_generator.state == r_old.bit_generator.state
        for n in (n_new, n_epoch):
            assert n.bit_generator.state == n_old.bit_generator.state

    @pytest.mark.parametrize("p,k,fraction", [(10, 5, 0.14), (5, 5, 0.28), (20, 5, 0.07)])
    @pytest.mark.parametrize("head_mode", ["batch_all", "cross_entropy"])
    def test_float_fraction_pulls_back_the_designated_rows(self, head_mode, p, k, fraction):
        # fraction * B lands just above 7 in float: the blend designates 7
        # rows and the step pulls back exactly those 7, as the oracle's
        # decoy mask does
        cfg = TrainConfig(
            p_classes=p, k_samples=k, hidden_dims=(6,), embed_dim=4,
            interference=InterferenceConfig(strength=0.5, fraction=fraction),
            **HEADS[head_mode],
        )
        data = np.random.default_rng(1)
        labels = np.repeat(np.arange(22), 6)
        feats = data.standard_normal((22, 5))[labels] + data.standard_normal((132, 5))
        params = init_params((5, 6, 4), seed=1)
        head = None
        if head_mode == "cross_entropy":
            head = init_params((4, 22), "identity", seed=2)
        tac = tac_init(22, 4, seed=3)
        parts = _mode_parts(cfg, labels, tac.num_classes)
        got = single_step(params, head, tac, feats, labels, parts, cfg,
                          np.random.default_rng(4))
        want = oracle_step(head_mode, params, head, tac, feats, labels, cfg,
                           np.random.default_rng(4), None)
        assert got[2] == want[2]
        assert_grads_equal(got[4], want[4])
