"""Tests for the objective functions, checked against brute-force oracles."""

import numpy as np
import pytest

from cirlab.errors import ConfigurationError, InputError, ShapeError
from cirlab.losses import (
    StudyCase,
    TripletConfig,
    batch_all_triplet_loss,
    batch_cross_entropy,
    cross_entropy,
    label_smooth,
    oim_scores,
    study_case_loss,
    triplet_masks,
)
from cirlab.tac import ClassTable
from oracles import batch_all_triplets, triplet_loss


def brute_force_batch_all(z, zt, labels, margin, reduction, squared=True):
    """Independent loop oracle: loss and both gradient blocks from the raw
    hinge formula, one triple at a time."""
    b = len(labels)

    def dist(u, v):
        d2 = np.sum((u - v) ** 2)
        return d2 if squared else np.sqrt(d2)

    triples = []
    for a in range(b):
        for p in range(b):
            if p != a and labels[p] == labels[a]:
                for n in range(b):
                    if labels[n] != labels[a]:
                        triples.append((a, p, n))
    total = 0.0
    active = 0
    raw_terms = []
    for a, p, n in triples:
        h = margin + dist(zt[a], z[p]) - dist(zt[a], z[n])
        raw_terms.append((a, p, n, h))
        if h > 0:
            total += h
            active += 1
    if not triples:
        return 0.0, np.zeros_like(z), np.zeros_like(z), 0, 0
    denom = len(triples) if reduction == "mean_all" else max(active, 1)
    g_anchor = np.zeros_like(zt)
    g_other = np.zeros_like(z)
    for a, p, n, h in raw_terms:
        if h <= 0:
            continue
        if squared:
            g_anchor[a] += 2 * (zt[a] - z[p]) - 2 * (zt[a] - z[n])
            g_other[p] += -2 * (zt[a] - z[p])
            g_other[n] += 2 * (zt[a] - z[n])
        else:
            dp = np.sqrt(np.sum((zt[a] - z[p]) ** 2))
            dn = np.sqrt(np.sum((zt[a] - z[n]) ** 2))
            up = (zt[a] - z[p]) / dp if dp > 0 else 0.0
            un = (zt[a] - z[n]) / dn if dn > 0 else 0.0
            g_anchor[a] += up - un
            g_other[p] += -up
            g_other[n] += un
    return total / denom, g_anchor / denom, g_other / denom, len(triples), active


class TestTripletLoss:
    def test_degenerate_all_equal(self):
        v = np.array([1.0, 2.0])
        assert triplet_loss(v, v, v, 0.3) == 0.3

    def test_satisfied_margin_is_zero(self):
        # 0.2 + 1 - 4 < 0
        loss = triplet_loss(
            np.array([0.0, 0.0]), np.array([0.0, 1.0]), np.array([2.0, 0.0]), 0.2
        )
        assert loss == 0.0

    def test_equal_distances_cost_margin(self):
        loss = triplet_loss(np.array([0.0]), np.array([1.0]), np.array([1.0]), 0.5)
        assert loss == 0.5

    def test_non_negative_and_zero_condition(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, p, n = rng.normal(size=(3, 4))
            delta = float(rng.uniform(0, 2))
            loss = triplet_loss(a, p, n, delta)
            assert loss >= 0.0
            gap = np.sum((a - n) ** 2) - np.sum((a - p) ** 2)
            if gap >= delta:
                assert loss == 0.0
            else:
                assert loss > 0.0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 20:
            a, p, n = rng.normal(size=(3, 3))
            delta = float(rng.uniform(0.1, 1.0))
            hinge = delta + np.sum((a - p) ** 2) - np.sum((a - n) ** 2)
            if abs(hinge) < 1e-3:  # stay away from the kink
                continue
            _, ga, gp, gn = triplet_loss(a, p, n, delta, with_grads=True)
            eps = 1e-6
            for vec, grad in ((a, ga), (p, gp), (n, gn)):
                for i in range(3):
                    v_hi = vec.copy()
                    v_hi[i] += eps
                    v_lo = vec.copy()
                    v_lo[i] -= eps
                    args_hi = [a, p, n]
                    args_lo = [a, p, n]
                    pos = 0 if vec is a else (1 if vec is p else 2)
                    args_hi[pos] = v_hi
                    args_lo[pos] = v_lo
                    fd = (
                        triplet_loss(*args_hi, delta) - triplet_loss(*args_lo, delta)
                    ) / (2 * eps)
                    assert abs(fd - grad[i]) < 1e-5
            checked += 1

    def test_inactive_gradients_zero(self):
        a = np.array([0.0, 0.0])
        p = np.array([0.0, 0.1])
        n = np.array([5.0, 0.0])
        loss, ga, gp, gn = triplet_loss(a, p, n, 0.2, with_grads=True)
        assert loss == 0.0
        assert np.all(ga == 0) and np.all(gp == 0) and np.all(gn == 0)

    def test_non_squared_variant(self):
        a = np.array([0.0])
        p = np.array([3.0])
        n = np.array([1.0])
        # plain distances: 0.1 + 3 - 1 = 2.1; squared: 0.1 + 9 - 1 = 8.1
        assert np.isclose(triplet_loss(a, p, n, 0.1, squared=False), 2.1)
        assert np.isclose(triplet_loss(a, p, n, 0.1, squared=True), 8.1)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            triplet_loss(np.zeros(2), np.zeros(3), np.zeros(2), 0.1)


class TestBatchAllEnumeration:
    def test_two_same_one_other(self):
        triples = batch_all_triplets(np.array([0, 0, 1]))
        assert sorted(triples) == [(0, 1, 2), (1, 0, 2)]

    def test_all_distinct_is_empty(self):
        assert batch_all_triplets(np.array([0, 1, 2, 3])) == []

    def test_single_class_is_empty(self):
        assert batch_all_triplets(np.array([5, 5, 5])) == []

    def test_combinatorial_count(self):
        # P classes with K rows each: P*K anchors, (K-1) positives,
        # (P-1)*K negatives
        for p_cls, k in [(2, 2), (3, 2), (2, 4), (4, 3)]:
            labels = np.repeat(np.arange(p_cls), k)
            expected = p_cls * k * (k - 1) * (p_cls - 1) * k
            assert len(batch_all_triplets(labels)) == expected

    def test_validity_of_every_triple(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 3, size=9)
        for a, p, n in batch_all_triplets(labels):
            assert a != p
            assert labels[a] == labels[p]
            assert labels[n] != labels[a]


class TestBatchAllLoss:
    def test_identity_blend_reproduces_plain_loss(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(6, 3))
        labels = np.array([0, 0, 1, 1, 2, 2])
        cfg = TripletConfig(margin=0.4)
        res = batch_all_triplet_loss(z, z.copy(), labels, cfg)
        oracle_loss, *_ = brute_force_batch_all(z, z, labels, 0.4, "mean_all")
        assert np.isclose(res.loss, oracle_loss)

    def test_single_triplet_batch(self):
        z = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 0.0]])
        labels = np.array([0, 0, 1])
        cfg = TripletConfig(margin=0.5)
        res = batch_all_triplet_loss(z, z.copy(), labels, cfg)
        # triples (0,1,2) and (1,0,2); compare to direct single evaluations
        l0 = triplet_loss(z[0], z[1], z[2], 0.5)
        l1 = triplet_loss(z[1], z[0], z[2], 0.5)
        assert np.isclose(res.loss, (l0 + l1) / 2)
        assert res.num_triplets == 2

    def test_matches_loop_oracle_random_batches(self):
        rng = np.random.default_rng(6)
        for reduction in ("mean_all", "mean_nonzero"):
            for _ in range(12):
                b = int(rng.integers(4, 9))
                z = rng.normal(size=(b, 4))
                zt = z + 0.3 * rng.normal(size=(b, 4))  # distinct anchors
                labels = rng.integers(0, 3, size=b)
                cfg = TripletConfig(margin=0.5, reduction=reduction)
                res = batch_all_triplet_loss(z, zt, labels, cfg)
                o_loss, o_ga, o_go, o_nt, o_na = brute_force_batch_all(
                    z, zt, labels, 0.5, reduction
                )
                assert np.isclose(res.loss, o_loss, atol=1e-10)
                assert np.allclose(res.grad_anchor, o_ga, atol=1e-9)
                assert np.allclose(res.grad_other, o_go, atol=1e-9)
                assert res.num_triplets == o_nt
                assert res.num_active == o_na

    def test_non_squared_matches_oracle(self):
        rng = np.random.default_rng(60)
        z = rng.normal(size=(6, 3))
        zt = z + 0.2 * rng.normal(size=(6, 3))
        labels = np.array([0, 0, 1, 1, 2, 2])
        cfg = TripletConfig(margin=0.3, squared=False)
        res = batch_all_triplet_loss(z, zt, labels, cfg)
        o_loss, o_ga, o_go, _, _ = brute_force_batch_all(
            z, zt, labels, 0.3, "mean_all", squared=False
        )
        assert np.isclose(res.loss, o_loss)
        assert np.allclose(res.grad_anchor, o_ga, atol=1e-9)
        assert np.allclose(res.grad_other, o_go, atol=1e-9)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        cfg = TripletConfig(margin=0.5)
        found = 0
        while found < 3:
            z = rng.normal(size=(5, 3))
            zt = z + 0.3 * rng.normal(size=(5, 3))
            labels = rng.integers(0, 2, size=5)
            # skip draws with any hinge near the kink
            sq = ((zt[:, None, :] - z[None, :, :]) ** 2).sum(-1)
            hs = []
            for a, p, n in batch_all_triplets(labels):
                hs.append(0.5 + sq[a, p] - sq[a, n])
            if not hs or min(abs(h) for h in hs) < 1e-3:
                continue
            found += 1
            res = batch_all_triplet_loss(z, zt, labels, cfg)
            eps = 1e-6
            for idx in np.ndindex(zt.shape):
                hi = zt.copy()
                hi[idx] += eps
                lo = zt.copy()
                lo[idx] -= eps
                fd = (
                    batch_all_triplet_loss(z, hi, labels, cfg).loss
                    - batch_all_triplet_loss(z, lo, labels, cfg).loss
                ) / (2 * eps)
                assert abs(fd - res.grad_anchor[idx]) < 1e-5
            for idx in np.ndindex(z.shape):
                hi = z.copy()
                hi[idx] += eps
                lo = z.copy()
                lo[idx] -= eps
                fd = (
                    batch_all_triplet_loss(hi, zt, labels, cfg).loss
                    - batch_all_triplet_loss(lo, zt, labels, cfg).loss
                ) / (2 * eps)
                assert abs(fd - res.grad_other[idx]) < 1e-5

    def test_empty_triplet_set(self):
        z = np.ones((3, 2))
        res = batch_all_triplet_loss(z, z, np.array([0, 1, 2]), TripletConfig())
        assert res.loss == 0.0
        assert np.all(res.grad_anchor == 0) and np.all(res.grad_other == 0)
        assert res.num_triplets == 0

    def test_empty_batch(self):
        z = np.empty((0, 2))
        res = batch_all_triplet_loss(z, z, np.empty(0, dtype=int), TripletConfig())
        assert res.loss == 0.0

    @pytest.mark.parametrize("stacked", [False, True])
    def test_one_buffer_as_anchors_gives_the_bits_of_a_copy(self, stacked):
        # on one buffer matmul's symmetric a @ a.T path rounded the
        # distances differently, moving losses and gradients in the last bits
        rng = np.random.default_rng(21)
        labels = np.repeat(np.arange(4), 3)
        masks = triplet_masks(labels)
        cfg = TripletConfig(margin=0.5)
        for _ in range(200):
            z = rng.standard_normal((2, 12, 6) if stacked else (12, 6))
            y = np.tile(labels, (2, 1)) if stacked else labels
            got = batch_all_triplet_loss(z, z, y, cfg, masks)
            want = batch_all_triplet_loss(z, z.copy(), y, cfg, masks)
            assert np.asarray(got.loss).tobytes() == np.asarray(want.loss).tobytes()
            assert got.grad_anchor.tobytes() == want.grad_anchor.tobytes()
            assert got.grad_other.tobytes() == want.grad_other.tobytes()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TripletConfig(margin=-0.1)
        with pytest.raises(ConfigurationError):
            TripletConfig(reduction="sum")


class TestOimScores:
    def test_orthogonal_rows(self):
        tac = ClassTable(table=np.eye(3), momentum=0.5)
        logits = oim_scores(tac, np.array([1.0, 0.0, 0.0]))
        assert int(np.argmax(logits)) == 0

    def test_positive_scaling_preserves_argmax(self):
        rng = np.random.default_rng(8)
        tac = ClassTable(table=rng.normal(size=(5, 4)), momentum=0.5)
        z = rng.normal(size=4)
        base = oim_scores(tac, z)
        scaled = oim_scores(tac, 3.7 * z)
        assert np.allclose(scaled, 3.7 * base)
        assert np.argmax(scaled) == np.argmax(base)

    def test_hand_product(self):
        tac = ClassTable(table=np.array([[1.0, 0.0], [0.0, 2.0]]), momentum=0.5)
        logits = oim_scores(tac, np.array([1.0, 1.0]), temperature=1.0)
        assert np.allclose(logits, [1.0, 2.0])

    def test_temperature_divides(self):
        tac = ClassTable(table=np.array([[1.0, 0.0], [0.0, 2.0]]), momentum=0.5)
        logits = oim_scores(tac, np.array([1.0, 1.0]), temperature=0.5)
        assert np.allclose(logits, [2.0, 4.0])

    def test_batch_form(self):
        tac = ClassTable(table=np.eye(2), momentum=0.5)
        logits = oim_scores(tac, np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert logits.shape == (2, 2)
        assert np.allclose(logits, np.eye(2))

    def test_bad_temperature(self):
        tac = ClassTable(table=np.eye(2), momentum=0.5)
        with pytest.raises(ConfigurationError):
            oim_scores(tac, np.array([1.0, 0.0]), temperature=0.0)

    @pytest.mark.parametrize("temperature", [np.nan, np.inf, -np.inf])
    def test_non_finite_temperature_refused(self, temperature):
        tac = ClassTable(table=np.eye(2), momentum=0.5)
        with pytest.raises(ConfigurationError, match="temperature must be finite and > 0"):
            oim_scores(tac, np.array([1.0, 0.0]), temperature=temperature)

    def test_stack_per_slice(self):
        # batch s against table s, each with the bits of that call alone
        rng = np.random.default_rng(9)
        tables, z = rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 7, 4))
        got = oim_scores(ClassTable(tables, 0.5), z, 0.7)
        for s in range(3):
            want = oim_scores(ClassTable(tables[s], 0.5), z[s], 0.7)
            assert got[s].tobytes() == want.tobytes()
        with pytest.raises(ShapeError, match="do not match table shape"):
            oim_scores(ClassTable(tables, 0.5), z[:2], 0.7)
        with pytest.raises(ShapeError, match="do not match table shape"):
            oim_scores(ClassTable(tables[0], 0.5), z, 0.7)


class TestCrossEntropy:
    def test_uniform_logits_onehot(self):
        loss = cross_entropy(np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.isclose(loss, np.log(4.0))

    def test_self_target_gives_entropy(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=6)
        p = np.exp(logits - logits.max())
        p /= p.sum()
        entropy = -np.sum(p * np.log(p))
        assert np.isclose(cross_entropy(logits, p), entropy)

    def test_shift_invariance(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=5)
        target = label_smooth(2, 5, 0.1)
        a = cross_entropy(logits, target)
        b = cross_entropy(logits + 123.456, target)
        assert abs(a - b) < 1e-9

    def test_large_logits_stable(self):
        loss = cross_entropy(np.array([1000.0, 0.0]), np.array([1.0, 0.0]))
        assert np.isfinite(loss)
        assert loss < 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(3, 4))
        target = label_smooth(np.array([0, 2, 3]), 4, 0.1)
        loss, grads = cross_entropy(logits, target, with_grads=True)
        eps = 1e-6
        for idx in np.ndindex(logits.shape):
            hi = logits.copy()
            hi[idx] += eps
            lo = logits.copy()
            lo[idx] -= eps
            fd = (cross_entropy(hi, target) - cross_entropy(lo, target)) / (2 * eps)
            assert abs(fd - grads[idx]) < 1e-7

    def test_batch_is_row_mean(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(4, 3))
        target = label_smooth(np.array([0, 1, 2, 0]), 3)
        per_row = [cross_entropy(logits[i], target[i]) for i in range(4)]
        assert np.isclose(cross_entropy(logits, target), np.mean(per_row))

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_unchecked_body_gives_the_checked_bits(self, epsilon):
        # the trainer calls the body on label_smooth rows, skipping checks
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(32, 25)) * 3.0
        target = label_smooth(rng.integers(0, 25, size=32), 25, epsilon)
        loss, grads = cross_entropy(logits, target, with_grads=True)
        got_loss, got_grads = batch_cross_entropy(logits, target)
        assert got_loss == loss
        assert got_grads.tobytes() == grads.tobytes()
        assert type(cross_entropy(logits, target)) is float
        assert cross_entropy(logits, target) == loss
        # a stack of batches: each batch's bits, and a vector of losses
        stack = np.stack([logits, logits[::-1], 2.0 * logits])
        targets = np.stack([target, target[::-1], target])
        got_loss, got_grads = batch_cross_entropy(stack, targets)
        assert got_loss.shape == (3,)
        for s in range(3):
            want_loss, want_grads = batch_cross_entropy(stack[s], targets[s])
            assert got_loss[s] == want_loss
            assert got_grads[s].tobytes() == want_grads.tobytes()

    def test_invalid_target_raises(self):
        with pytest.raises(InputError):
            cross_entropy(np.zeros(3), np.array([0.5, 0.6, 0.0]))
        with pytest.raises(InputError):
            cross_entropy(np.zeros(3), np.array([1.5, -0.5, 0.0]))


class TestLabelSmooth:
    def test_zero_epsilon_is_onehot(self):
        out = label_smooth(1, 3, 0.0)
        assert np.array_equal(out, [0.0, 1.0, 0.0])

    def test_hand_example(self):
        assert np.allclose(label_smooth(0, 2, 0.2), [0.9, 0.1])

    def test_sums_to_one(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            c = int(rng.integers(2, 12))
            eps = float(rng.uniform(0, 0.99))
            out = label_smooth(int(rng.integers(0, c)), c, eps)
            assert abs(out.sum() - 1.0) < 1e-9
            assert out.min() >= eps / c - 1e-12

    def test_array_input(self):
        out = label_smooth(np.array([0, 1]), 2, 0.0)
        assert np.array_equal(out, np.eye(2))

    def test_stack_of_id_rows(self):
        ids = np.array([[0, 2, 1], [1, 1, 0]])
        out = label_smooth(ids, 3, 0.3)
        assert out.shape == (2, 3, 3)
        for s in range(2):
            assert out[s].tobytes() == label_smooth(ids[s], 3, 0.3).tobytes()

    def test_bad_epsilon(self):
        with pytest.raises(ConfigurationError):
            label_smooth(0, 2, 1.0)

    @pytest.mark.parametrize("shape", [(32,), (3, 32)])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_table_rows_are_the_targets_of_the_ids(self, epsilon, shape):
        # the trainer builds one C x C table per run and takes its rows by
        # label, for a batch or an S x B stack of them
        ids = np.random.default_rng(4).integers(0, 7, size=shape)
        table = label_smooth(np.arange(7), 7, epsilon)
        got, want = table.take(ids, axis=0), label_smooth(ids, 7, epsilon)
        assert got.shape == want.shape == (*shape, 7)
        assert got.tobytes() == want.tobytes()


class TestStudyCase:
    def test_zero_lambda_reduces_to_plain(self):
        rng = np.random.default_rng(14)
        case = StudyCase(
            W=rng.normal(size=(3, 2)),
            x=rng.normal(size=2),
            y=rng.normal(size=3),
            mu=rng.normal(size=3),
            lam=0.0,
        )
        plain, fa, fb, _ = study_case_loss(case)
        assert np.isclose(fa, plain)
        assert np.isclose(fb, plain)

    def test_scalar_case(self):
        case = StudyCase(
            W=np.array([[1.0]]),
            x=np.array([1.0]),
            y=np.array([0.0]),
            mu=np.array([2.0]),
            lam=0.5,
        )
        plain, fa, fb, grad = study_case_loss(case)
        assert np.isclose(plain, 0.5)
        assert np.isclose(fa, 1.125)
        assert np.isclose(fb, 1.125)
        # r = 0.5*1 + 0.5*2 - 0 = 1.5; grad = 0.5 * 1.5 * 1
        assert np.isclose(grad[0, 0], 0.75)

    def test_two_forms_agree(self):
        # the algebraic identity behind the regularized loss, checked in bulk
        rng = np.random.default_rng(15)
        for _ in range(10_000):
            d, din = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            case = StudyCase(
                W=rng.normal(size=(d, din)),
                x=rng.normal(size=din),
                y=rng.normal(size=d),
                mu=rng.normal(size=d),
                lam=float(rng.uniform(0, 1)),
            )
            _, fa, fb, _ = study_case_loss(case)
            scale = max(abs(fa), abs(fb), 1e-30)
            assert abs(fa - fb) / scale < 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        W = rng.normal(size=(3, 2))
        case = StudyCase(
            W=W,
            x=rng.normal(size=2),
            y=rng.normal(size=3),
            mu=rng.normal(size=3),
            lam=0.4,
        )
        _, _, _, grad = study_case_loss(case)
        eps = 1e-6
        for idx in np.ndindex(W.shape):
            hi = W.copy()
            hi[idx] += eps
            lo = W.copy()
            lo[idx] -= eps
            fa_hi = study_case_loss(
                StudyCase(W=hi, x=case.x, y=case.y, mu=case.mu, lam=0.4)
            )[1]
            fa_lo = study_case_loss(
                StudyCase(W=lo, x=case.x, y=case.y, mu=case.mu, lam=0.4)
            )[1]
            fd = (fa_hi - fa_lo) / (2 * eps)
            assert abs(fd - grad[idx]) < 1e-6

    def test_scalar_convexity(self):
        # second derivative in W of the regularized loss is (1-lam)^2 x^2
        x_val, lam = 1.7, 0.3
        eps = 1e-4

        def loss_at(w):
            case = StudyCase(
                W=np.array([[w]]),
                x=np.array([x_val]),
                y=np.array([0.5]),
                mu=np.array([2.0]),
                lam=lam,
            )
            return study_case_loss(case)[1]

        second = (loss_at(1.0 + eps) - 2 * loss_at(1.0) + loss_at(1.0 - eps)) / eps**2
        assert second >= 0
        assert np.isclose(second, (1 - lam) ** 2 * x_val**2, rtol=1e-4)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            study_case_loss(
                StudyCase(
                    W=np.zeros((2, 2)),
                    x=np.zeros(3),
                    y=np.zeros(2),
                    mu=np.zeros(2),
                    lam=0.5,
                )
            )
