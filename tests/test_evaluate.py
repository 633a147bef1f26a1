"""Tests for episodic accuracy, retrieval metrics, and geometry stats."""

import numpy as np
import pytest

from cirlab.errors import ConfigurationError, DataError, ShapeError
from cirlab.evaluate import (
    EPISODE_CHUNK,
    EpisodicResult,
    episodic_accuracy,
    geometry_stats,
    nearest_prototype_classify,
    retrieval_scores,
)
from cirlab.nn import ModelParams, forward, init_params
from cirlab.sampling import ClassIndex, child_seed, episode_rows, sample_episode
from oracles import geometry_stats_dense


def identity_encoder(dim):
    return ModelParams(
        layer_dims=(dim, dim),
        weights=[np.eye(dim)],
        biases=[np.zeros(dim)],
        activation="identity",
    )


def per_episode_accuracy(
    params, features, labels, n_way, k_shot, q_queries, episodes, master_seed,
    metric="euclidean",
):
    """Reference episodic accuracy, one episode at a time: sample it, embed
    its support and its queries apart, classify by nearest prototype."""
    accs = np.empty(episodes)
    for i in range(episodes):
        rng = np.random.default_rng(child_seed(master_seed, i))
        ep = sample_episode(features, labels, n_way, k_shot, q_queries, rng)
        sup_emb, _ = forward(params, ep.support_features)
        qry_emb, _ = forward(params, ep.query_features)
        pred = nearest_prototype_classify(sup_emb, ep.support_labels, qry_emb, metric)
        accs[i] = float(np.mean(pred == ep.query_labels))
    sd = float(accs.std(ddof=1)) if episodes > 1 else 0.0
    return EpisodicResult(
        mean=float(accs.mean()),
        ci95=float(1.96 * sd / np.sqrt(episodes)),
        episodes=episodes,
    )


def episodic(
    params, features, labels, n_way, k_shot, q_queries, episodes, master_seed,
    metric="euclidean",
):
    """Embed the split once, draw its episodes, score them."""
    drawn = episode_rows(labels, n_way, k_shot, q_queries, episodes, master_seed)
    return episodic_accuracy(forward(params, features)[0], drawn, metric)


def brute_force_ap(dists, gallery_labels, query_label):
    """AP by the plain definition: rank by (distance, index), average the
    precision at each relevant rank."""
    order = sorted(range(len(dists)), key=lambda j: (dists[j], j))
    precisions = []
    hits = 0
    for rank, j in enumerate(order, start=1):
        if gallery_labels[j] == query_label:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / len(precisions)


class TestNearestPrototype:
    def test_one_shot_exact_match(self):
        sup = np.array([[0.0, 0.0], [5.0, 5.0]])
        lab = np.array([0, 1])
        assert nearest_prototype_classify(sup, lab, np.array([5.0, 5.0])) == 1

    def test_hand_distances(self):
        sup = np.array([[0.0, 0.0], [4.0, 0.0]])
        lab = np.array([0, 1])
        assert nearest_prototype_classify(sup, lab, np.array([1.0, 0.0])) == 0

    def test_tie_goes_to_lower_class(self):
        sup = np.array([[0.0, 0.0], [4.0, 0.0]])
        lab = np.array([0, 1])
        assert nearest_prototype_classify(sup, lab, np.array([2.0, 0.0])) == 0

    def test_prototype_is_support_mean(self):
        # class 0 support at [0,0] and [2,0] -> prototype [1,0]
        sup = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 0.0], [12.0, 0.0]])
        lab = np.array([0, 0, 1, 1])
        assert nearest_prototype_classify(sup, lab, np.array([4.0, 0.0])) == 0
        assert nearest_prototype_classify(sup, lab, np.array([7.0, 0.0])) == 1

    def test_batch_queries(self):
        sup = np.array([[0.0], [10.0]])
        lab = np.array([0, 1])
        pred = nearest_prototype_classify(sup, lab, np.array([[1.0], [9.0]]))
        assert pred.tolist() == [0, 1]


class TestEpisodicAccuracy:
    def separable_split(self, num_classes=8, per_class=12, dim=4):
        rng = np.random.default_rng(0)
        centers = 50.0 * np.arange(num_classes)[:, None] * np.ones(dim)
        labels = np.repeat(np.arange(num_classes), per_class)
        feats = centers[labels] + 0.01 * rng.normal(size=(labels.size, dim))
        return feats, labels

    def test_separable_is_perfect(self):
        feats, labels = self.separable_split()
        res = episodic(
            identity_encoder(4), feats, labels, n_way=5, k_shot=1, q_queries=5,
            episodes=40, master_seed=1,
        )
        assert res.mean == 1.0
        assert res.ci95 == 0.0

    def test_shuffled_labels_near_chance(self):
        feats, labels = self.separable_split(num_classes=10, per_class=20)
        shuffled = np.random.default_rng(5).permutation(labels)
        res = episodic(
            identity_encoder(4), feats, shuffled, n_way=5, k_shot=1, q_queries=10,
            episodes=300, master_seed=2,
        )
        sigma = res.ci95 / 1.96
        assert abs(res.mean - 0.2) < 3 * max(sigma, 1e-9)

    def test_result_in_unit_interval(self):
        feats, labels = self.separable_split()
        res = episodic(
            identity_encoder(4), feats, labels, 4, 2, 3, episodes=10, master_seed=3
        )
        assert 0.0 <= res.mean <= 1.0
        assert res.ci95 >= 0.0
        assert res.episodes == 10

    def test_episode_content_independent_of_order(self):
        feats, labels = self.separable_split()
        seeds = [child_seed(7, i) for i in range(6)]
        forward_eps = [
            sample_episode(feats, labels, 4, 1, 2, np.random.default_rng(s))
            for s in seeds
        ]
        backward_eps = [
            sample_episode(feats, labels, 4, 1, 2, np.random.default_rng(s))
            for s in reversed(seeds)
        ]
        for a, b in zip(forward_eps, reversed(backward_eps)):
            assert np.array_equal(a.support_indices, b.support_indices)
            assert np.array_equal(a.query_indices, b.query_indices)

    def test_deterministic(self):
        feats, labels = self.separable_split()
        r1 = episodic(identity_encoder(4), feats, labels, 3, 2, 2, 15, 9)
        r2 = episodic(identity_encoder(4), feats, labels, 3, 2, 2, 15, 9)
        assert r1 == r2

    def test_bad_episode_count(self):
        feats, labels = self.separable_split()
        with pytest.raises(ConfigurationError):
            episode_rows(labels, 3, 1, 1, 0, 0)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("k_shot", [1, 3])
    def test_equals_per_episode_reference(self, metric, k_shot):
        # overlapping classes and a random relu encoder, so episodes are
        # neither all right nor all wrong; the episode count leaves a
        # partial last chunk
        rng = np.random.default_rng(3)
        labels = rng.permutation(np.repeat(np.arange(9), 14))
        centers = rng.normal(size=(9, 6))
        feats = centers[labels] + 0.7 * rng.normal(size=(labels.size, 6))
        params = init_params((6, 12, 5), "relu", seed=4)
        episodes = 2 * EPISODE_CHUNK + 5
        got = episodic(
            params, feats, labels, 4, k_shot, 3, episodes, master_seed=11,
            metric=metric,
        )
        expected = per_episode_accuracy(
            params, feats, labels, 4, k_shot, 3, episodes, 11, metric
        )
        assert 0.3 < got.mean < 0.95
        assert got == expected

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_ties_go_to_lowest_episode_class(self, metric):
        # rows on a few exact grid points, so prototypes tie often and
        # with no symmetry that would hide which class a tie goes to
        rng = np.random.default_rng(6)
        labels = np.repeat(np.arange(6), 5)
        feats = rng.integers(0, 2, size=(labels.size, 2)).astype(np.float64)
        res = episodic(
            identity_encoder(2), feats, labels, 4, 1, 3, 40, master_seed=8,
            metric=metric,
        )
        assert res == per_episode_accuracy(
            identity_encoder(2), feats, labels, 4, 1, 3, 40, 8, metric
        )

    def test_single_episode_equals_reference(self):
        feats, labels = self.separable_split()
        params = init_params((4, 3), "tanh", seed=2)
        got = episodic(params, feats, labels, 3, 2, 2, 1, master_seed=5)
        assert got == per_episode_accuracy(params, feats, labels, 3, 2, 2, 1, 5)

    def test_short_class_same_error_as_index(self):
        feats, labels = self.separable_split(num_classes=5, per_class=4)
        labels = labels.copy()
        labels[np.flatnonzero(labels == 1)[0]] = 0
        with pytest.raises(DataError) as from_index:
            ClassIndex(labels).pk_bounds(3, 1 + 3)
        with pytest.raises(DataError) as from_eval:
            episode_rows(labels, 3, 1, 3, 10, 0)
        assert str(from_eval.value) == str(from_index.value)
        assert str(from_eval.value) == "class 1 has 3 rows, a draw needs 4"

    def test_support_and_query_of_other_episode_sets_refused(self):
        # scored anyway, they would pair support means with wrong queries
        feats, labels = self.separable_split()
        support, query = episode_rows(labels, 3, 1, 2, 5, 0)
        other = episode_rows(labels, 4, 1, 2, 6, 0)
        for pair in ((support, other[1]), (other[0], query), (support, query[:4])):
            with pytest.raises(ShapeError, match="differ in episodes or classes"):
                episodic_accuracy(feats, pair)

    def test_bad_metric(self):
        feats, labels = self.separable_split()
        with pytest.raises(ConfigurationError):
            episodic_accuracy(
                feats, episode_rows(labels, 3, 1, 1, 5, 0), metric="l1"
            )


class TestRetrievalMap:
    def test_positive_ranked_first(self):
        q = np.array([[0.0, 0.0]])
        g = np.array([[0.1, 0.0], [5.0, 0.0]])
        assert retrieval_scores(q, [7], g, [7, 8])[0] == 1.0

    def test_positive_ranked_second(self):
        q = np.array([[0.0, 0.0]])
        g = np.array([[0.1, 0.0], [5.0, 0.0]])
        assert retrieval_scores(q, [8], g, [7, 8])[0] == 0.5

    def test_positives_at_ranks_one_and_three(self):
        q = np.array([[0.0]])
        g = np.array([[1.0], [2.0], [3.0]])
        ap = retrieval_scores(q, [0], g, [0, 1, 0])[0]
        assert np.isclose(ap, (1.0 + 2.0 / 3.0) / 2.0)

    def test_matches_brute_force_small_galleries(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n_g = int(rng.integers(2, 9))
            n_q = int(rng.integers(1, 5))
            g = rng.normal(size=(n_g, 3))
            g_lab = rng.integers(0, 3, size=n_g)
            q_lab = g_lab[rng.integers(0, n_g, size=n_q)]  # guaranteed covered
            q = rng.normal(size=(n_q, 3))
            expected = np.mean(
                [
                    brute_force_ap(
                        np.linalg.norm(g - q[i], axis=1), g_lab, q_lab[i]
                    )
                    for i in range(n_q)
                ]
            )
            got = retrieval_scores(q, q_lab, g, g_lab)[0]
            assert np.isclose(got, expected)
            assert 0.0 <= got <= 1.0

    def test_distance_ties_broken_by_gallery_index(self):
        # two gallery items equidistant; the relevant one sits at index 0,
        # so it must rank first and make AP 1
        q = np.array([[0.0, 0.0]])
        g = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert retrieval_scores(q, [3], g, [3, 4])[0] == 1.0
        # flip: the relevant one at index 1 now ranks second
        assert retrieval_scores(q, [4], g, [3, 4])[0] == 0.5

    def test_missing_positive_raises(self):
        q = np.zeros((1, 2))
        g = np.ones((2, 2))
        with pytest.raises(DataError, match="9"):
            retrieval_scores(q, [9], g, [1, 2])[0]


class TestCmcRank1:
    def test_perfect(self):
        g = np.array([[0.0, 0.0], [5.0, 5.0]])
        assert retrieval_scores(g, [0, 1], g, [0, 1])[1] == 1.0

    def test_adversarial_zero(self):
        q = np.array([[0.0], [10.0]])
        g = np.array([[0.1], [9.9]])
        # nearest gallery item for each query has the other label
        assert retrieval_scores(q, [0, 1], g, [1, 0])[1] == 0.0

    def test_mixed_toy_case(self):
        q = np.array([[0.0], [1.0], [5.0], [6.0]])
        q_lab = [0, 0, 1, 1]
        g = np.array([[0.2], [5.5], [0.9]])
        g_lab = [0, 1, 1]
        # exhaustive: queries at 0.0->0.2 (label 0, hit), 1.0->0.9 (label 1,
        # miss), 5.0->5.5 (label 1, hit), 6.0->5.5 (label 1, hit)
        assert retrieval_scores(q, q_lab, g, g_lab)[1] == 0.75

    def test_in_unit_interval(self):
        rng = np.random.default_rng(31)
        g = rng.normal(size=(6, 2))
        g_lab = rng.integers(0, 2, size=6)
        q = rng.normal(size=(4, 2))
        q_lab = g_lab[rng.integers(0, 6, size=4)]
        assert 0.0 <= retrieval_scores(q, q_lab, g, g_lab)[1] <= 1.0

    def test_nan_distance_ranks_last(self):
        # argmin would pick the NaN row; the stable ranking puts it last,
        # for rank-1 as for mAP
        q = np.array([[0.0, 0.0]])
        g = np.array([[np.nan, 0.0], [1.0, 0.0]])
        assert retrieval_scores(q, [1], g, [0, 1]) == (1.0, 1.0)
        assert retrieval_scores(q, [0], g, [0, 1]) == (0.5, 0.0)

    def test_one_distance_matrix_for_both_scores(self, monkeypatch):
        import cirlab.evaluate

        calls = []
        real = cirlab.evaluate._pairwise_dist
        monkeypatch.setattr(
            cirlab.evaluate, "_pairwise_dist",
            lambda *args: calls.append(1) or real(*args),
        )
        rng = np.random.default_rng(32)
        g = rng.normal(size=(6, 2))
        g_lab = np.array([0, 1, 2, 0, 1, 2])
        assert len(retrieval_scores(g[:3], [0, 1, 2], g, g_lab, "cosine")) == 2
        assert calls == [1]


class TestGeometryStats:
    def test_all_identical(self):
        z = np.zeros((4, 2))
        labels = np.array([0, 0, 1, 1])
        stats = geometry_stats(z, labels)
        assert stats.center_distance == 0.0
        assert stats.intra == 0.0
        assert stats.ratio is None

    def test_hand_case(self):
        z = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 4.0], [3.0, 4.0]])
        labels = np.array([0, 0, 1, 1])
        stats = geometry_stats(z, labels)
        assert stats.intra == 0.0
        assert stats.inter == 5.0
        assert stats.ratio is None

    def test_collapsed_classes_give_no_ratio(self):
        # the norm expansion left intra up to ~1e-5 on such clouds, and a
        # huge ratio; the dense oracle's inter is the reference
        rng = np.random.default_rng(44)
        for _ in range(500):
            c, d = int(rng.integers(2, 6)), int(rng.integers(2, 33))
            points = rng.normal(scale=float(rng.uniform(0.1, 100.0)), size=(c, d))
            copies = rng.integers(1, 30, size=c)
            copies[rng.integers(0, c)] = max(2, copies.max())  # some pair
            labels = rng.permutation(np.repeat(rng.choice(50, c, replace=False), copies))
            z = points[np.searchsorted(np.unique(labels), labels)]
            stats = geometry_stats(z, labels)
            assert stats.intra == 0.0 and stats.ratio is None
            assert np.isclose(stats.inter, geometry_stats_dense(z, labels).inter)
        # one row moved off its class's point: intra is measured again
        ids, counts = np.unique(labels, return_counts=True)
        z[np.flatnonzero(labels == ids[np.argmax(counts)])[0]] += 1e-3
        assert geometry_stats(z, labels).intra > 0.0

    def test_scale_covariance(self):
        rng = np.random.default_rng(41)
        z = rng.normal(size=(20, 3))
        labels = rng.integers(0, 4, size=20)
        base = geometry_stats(z, labels)
        scaled = geometry_stats(2.0 * z, labels)
        assert np.isclose(scaled.center_distance, 2 * base.center_distance)
        assert np.isclose(scaled.intra, 2 * base.intra)
        assert np.isclose(scaled.inter, 2 * base.inter)
        assert np.isclose(scaled.ratio, base.ratio)

    def test_translation_invariant_ratio(self):
        rng = np.random.default_rng(42)
        z = rng.normal(size=(15, 3))
        labels = rng.integers(0, 3, size=15)
        base = geometry_stats(z, labels)
        moved = geometry_stats(z + 100.0, labels)
        assert np.isclose(moved.ratio, base.ratio)
        assert np.isclose(moved.intra, base.intra)

    def test_pooled_means_match_loop_oracle(self):
        rng = np.random.default_rng(43)
        z = rng.normal(size=(12, 2))
        labels = rng.integers(0, 3, size=12)
        stats = geometry_stats(z, labels)
        intra_pairs, inter_pairs = [], []
        for i in range(12):
            for j in range(i + 1, 12):
                d = np.linalg.norm(z[i] - z[j])
                (intra_pairs if labels[i] == labels[j] else inter_pairs).append(d)
        assert np.isclose(stats.intra, np.mean(intra_pairs))
        assert np.isclose(stats.inter, np.mean(inter_pairs))
        assert np.isclose(stats.ratio, np.mean(inter_pairs) / np.mean(intra_pairs))

    def test_all_singletons_intra_absent(self):
        z = np.array([[0.0], [1.0], [2.0]])
        stats = geometry_stats(z, np.array([0, 1, 2]))
        assert stats.intra is None
        assert stats.ratio is None
        assert stats.inter is not None

    def test_single_class_raises(self):
        with pytest.raises(DataError):
            geometry_stats(np.zeros((3, 2)), np.array([0, 0, 0]))
