"""Tests for PK batches, episodes, and derived seeds."""

from collections import Counter

import numpy as np
import pytest

from cirlab.datagen import GeneratorSpec, gen_gaussian_mixture, reproduce_spec, split_classes
from cirlab.errors import ConfigurationError, DataError, InputError
from cirlab.losses import triplet_masks
from cirlab.sampling import (
    ClassIndex,
    PKSpec,
    _choice_bounds,
    _choice_replay,
    child_seed,
    episode_rows,
    pk_batch,
    sample_episode,
)


def toy_dataset(num_classes=6, per_class=10, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes), per_class)
    features = rng.normal(size=(labels.shape[0], dim)) + labels[:, None]
    return features, labels


def shuffled_uneven_labels(seed=0):
    """Labels with gaps in the class ids, uneven class sizes and rows in
    no particular order."""
    rng = np.random.default_rng(seed)
    ids = np.array([0, 2, 3, 7, 8, 11, 12, 20])
    labels = np.repeat(ids, rng.integers(8, 15, size=ids.size))
    return rng.permutation(labels)


def loop_draw(labels, n_classes, per_class, rng):
    """Reference draw that rescans the labels per call: classes without
    replacement, then per_class distinct rows of each, class-major."""
    by_class = {int(c): np.flatnonzero(labels == c) for c in np.unique(labels)}
    classes = sorted(by_class)
    drawn = rng.choice(len(classes), size=n_classes, replace=False)
    out = []
    for ci in drawn:
        rows = by_class[classes[int(ci)]]
        out.extend(rows[rng.choice(len(rows), size=per_class, replace=False)])
    return np.asarray(out, dtype=np.int64)


def noisy_train_labels(spec):
    """Train-split labels of a label-noise mixture: uneven class sizes."""
    ds = gen_gaussian_mixture(spec)
    return split_classes(ds, (0.64, 0.16, 0.20), seed=spec.seed)[0].labels


REPRODUCE_LABELS = noisy_train_labels(reproduce_spec(3))
# the CLI benchmark's split: 100 classes of 40 rows, 10% label noise
CLI_LABELS = noisy_train_labels(
    GeneratorSpec(
        num_classes=100, samples_per_class=40, input_dim=4,
        nonlinearity="rotate_mix", label_noise_rate=0.1, seed=5,
    )
)


class CountingRng:
    """Delegates to a Generator and counts the calls of each method."""

    def __init__(self, rng):
        self.rng, self.calls = rng, Counter()

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)

        return counted


class TestChildSeed:
    def test_deterministic(self):
        assert child_seed(42, 7) == child_seed(42, 7)

    def test_index_sensitivity(self):
        seeds = {child_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_master_sensitivity(self):
        assert child_seed(1, 0) != child_seed(2, 0)

    def test_in_64_bit_range(self):
        for i in range(100):
            s = child_seed(123456789, i)
            assert 0 <= s < (1 << 64)

    def test_avalanche(self):
        # flipping one master bit should flip roughly half the output bits
        flips = []
        for bit in range(32):
            a = child_seed(1000, 5)
            b = child_seed(1000 ^ (1 << bit), 5)
            flips.append(bin(a ^ b).count("1"))
        assert 20 < np.mean(flips) < 44

    def test_negative_index_raises(self):
        with pytest.raises(InputError):
            child_seed(1, -1)


class TestPkBatch:
    def test_shape_and_multiset(self):
        features, labels = toy_dataset(num_classes=25, per_class=8)
        spec = PKSpec(p_classes=20, k_samples=4)
        idx = pk_batch(ClassIndex(labels), spec, np.random.default_rng(0))
        assert idx.shape == (80,)
        batch_labels = labels[idx]
        uniq, counts = np.unique(batch_labels, return_counts=True)
        assert len(uniq) == 20
        assert np.all(counts == 4)

    def test_no_repeated_rows(self):
        features, labels = toy_dataset()
        spec = PKSpec(p_classes=4, k_samples=3)
        rng = np.random.default_rng(1)
        index = ClassIndex(labels)
        for _ in range(50):
            idx = pk_batch(index, spec, rng)
            assert len(np.unique(idx)) == len(idx)

    def test_all_classes_when_p_equals_count(self):
        features, labels = toy_dataset(num_classes=5)
        spec = PKSpec(p_classes=5, k_samples=2)
        idx = pk_batch(ClassIndex(labels), spec, np.random.default_rng(2))
        assert set(labels[idx]) == set(range(5))

    def test_class_major_order(self):
        features, labels = toy_dataset()
        spec = PKSpec(p_classes=3, k_samples=4)
        idx = pk_batch(ClassIndex(labels), spec, np.random.default_rng(3))
        batch_labels = labels[idx].reshape(3, 4)
        for row in batch_labels:
            assert len(set(row)) == 1

    @pytest.mark.parametrize("p,k", [(5, 4), (8, 2), (2, 8)])
    def test_label_pattern_is_the_per_run_one(self, p, k):
        # training builds the loss masks once from repeat(arange(P), K),
        # which holds only while every batch is P blocks of K rows of one
        # class each, with P distinct classes
        labels = shuffled_uneven_labels()
        index = ClassIndex(labels)
        cached = triplet_masks(np.repeat(np.arange(p), k))
        rng = np.random.default_rng(p * k)
        for _ in range(300):
            blocks = labels[pk_batch(index, PKSpec(p, k), rng)].reshape(p, k)
            assert np.all(blocks == blocks[:, :1])
            assert len(set(blocks[:, 0])) == p
            drawn = triplet_masks(blocks.reshape(-1))
            assert np.array_equal(drawn.pos_ok, cached.pos_ok)
            assert np.array_equal(drawn.neg_ok, cached.neg_ok)
            assert np.array_equal(drawn.pos_index, cached.pos_index)
            assert drawn.num_triplets == cached.num_triplets

    def test_deterministic_per_rng_state(self):
        features, labels = toy_dataset()
        spec = PKSpec(p_classes=4, k_samples=2)
        a = pk_batch(ClassIndex(labels), spec, np.random.default_rng(9))
        b = pk_batch(ClassIndex(labels), spec, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_rows_match_label_scan_reference(self):
        labels = shuffled_uneven_labels()
        spec = PKSpec(p_classes=5, k_samples=4)
        index = ClassIndex(labels)
        r_index, r_ref = (np.random.default_rng(13) for _ in range(2))
        for _ in range(200):
            expected = loop_draw(labels, 5, 4, r_ref)
            assert np.array_equal(pk_batch(index, spec, r_index), expected)

    def test_valid_past_choices_floyd_range(self):
        # above 10000 numpy's choice shuffles a tail of arange(n) and the
        # bytes part from it; the draw stays P distinct classes of K
        # distinct in-class rows: 202 of a 10050-row class, 3 of 10001 classes
        big = np.random.default_rng(1).permutation(np.repeat([0, 3, 9], [10050, 300, 250]))
        many = np.repeat(np.arange(10001), 2)
        rng = np.random.default_rng(4)
        # (labels, P, K, how many distinct classes 20 batches reach at least)
        for labels, p, k, reach in [(big, 2, 202, 3), (many, 3, 2, 50)]:
            index, seen = ClassIndex(labels), set()
            for _ in range(20):
                rows = pk_batch(index, PKSpec(p, k), rng).reshape(p, k)
                assert len(np.unique(rows)) == p * k
                classes = labels[rows]
                assert (classes == classes[:, :1]).all()
                assert len(set(classes[:, 0])) == p
                seen.update(classes[:, 0].tolist())
            assert len(seen) >= reach

    def test_refuses_an_infeasible_split(self):
        labels = np.repeat([0, 1, 2, 3], [10, 10, 10, 3])
        index, rng = ClassIndex(labels), np.random.default_rng(0)
        state = rng.bit_generator.state
        for p, k in [(2, 4), (5, 2)]:
            with pytest.raises(DataError, match=f"no {p} classes of {k} rows"):
                pk_batch(index, PKSpec(p, k), rng)
        assert rng.bit_generator.state == state

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            PKSpec(1, 4)
        with pytest.raises(ConfigurationError):
            PKSpec(4, 1)


def assert_replays_choice(labels, p, k, seed, batches, buffered):
    """pk_batch gives index.draw's rows and leaves its generator state,
    PCG64's buffered 32-bit half included, after every batch."""
    index, spec = ClassIndex(labels), PKSpec(p, k)
    fused, ref = (np.random.default_rng(seed) for _ in range(2))
    if buffered:
        # a 32-bit draw leaves the other half of a 64-bit word buffered
        fused.integers(0, 7, dtype=np.int32)
        ref.integers(0, 7, dtype=np.int32)
        assert fused.bit_generator.state["has_uint32"] == 1
    for _ in range(batches):
        rows = pk_batch(index, spec, fused)
        expected = index.draw(p, k, ref)[1].reshape(-1)
        assert rows.dtype == np.int64
        assert np.array_equal(rows, expected)
        assert fused.bit_generator.state == ref.bit_generator.state


def class_sizes(labels):
    return np.unique(labels, return_counts=True)[1]


class TestPkBatchReplaysChoice:
    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize(
        "labels,p,k",
        [
            (REPRODUCE_LABELS, 8, 4),  # the reproduce matrix's batches
            (CLI_LABELS, 32, 8),  # the CLI benchmark's batches
            (CLI_LABELS, 16, 16),
            (CLI_LABELS, 5, 2),
            (REPRODUCE_LABELS, len(class_sizes(REPRODUCE_LABELS)), 3),  # P == C
            (CLI_LABELS, 4, int(class_sizes(CLI_LABELS).min())),  # K == min size
            (shuffled_uneven_labels(), 8, 8),  # P == C and K == min size
        ],
        ids=["reproduce-8x4", "cli-32x8", "cli-16x16", "cli-k2", "p-all",
             "k-min", "p-all-k-min"],
    )
    def test_same_rows_and_state_as_choice(self, labels, p, k, buffered):
        sizes = class_sizes(labels)
        assert sizes.min() < sizes.max()  # uneven classes
        assert_replays_choice(labels, p, k, seed=p * k, batches=200, buffered=buffered)

    def test_random_splits(self):
        rng = np.random.default_rng(0)
        for trial in range(60):
            c = int(rng.integers(2, 60))
            sizes = rng.integers(2, 50, size=c)
            labels = rng.permutation(np.repeat(rng.choice(500, c, replace=False), sizes))
            p, k = int(rng.integers(2, c + 1)), int(rng.integers(2, sizes.min() + 1))
            assert_replays_choice(labels, p, k, trial, batches=10, buffered=trial % 2)

    def test_floyd_replay_is_choice_up_to_the_tail_shuffle(self):
        # the numpy behaviour the fused draw relies on
        for n, k in [(1, 1), (2, 2), (25, 4), (40, 40), (10000, 300), (10001, 200)]:
            fused, ref = (np.random.default_rng(n + k) for _ in range(2))
            draws = fused.integers(0, np.array(_choice_bounds(n, k)), endpoint=True)
            expected = ref.choice(n, size=k, replace=False)
            assert _choice_replay(draws.tolist(), n, k) == expected.tolist()
            assert fused.bit_generator.state == ref.bit_generator.state
        fused, ref = (np.random.default_rng(0) for _ in range(2))
        draws = fused.integers(0, np.array(_choice_bounds(10050, 202)), endpoint=True)
        tail = ref.choice(10050, size=202, replace=False)
        assert _choice_replay(draws.tolist(), 10050, 202) != tail.tolist()

    @pytest.mark.parametrize("labels,p,k", [(REPRODUCE_LABELS, 8, 4), (CLI_LABELS, 32, 8)])
    def test_two_integers_calls_per_batch(self, labels, p, k):
        index, spec = ClassIndex(labels), PKSpec(p, k)
        counting, plain = CountingRng(np.random.default_rng(7)), np.random.default_rng(7)
        for _ in range(25):
            rows = pk_batch(index, spec, counting)
            assert np.array_equal(rows, pk_batch(index, spec, plain))
        assert counting.calls == Counter(integers=50)


class TestSampleEpisode:
    def test_shape_contract(self):
        features, labels = toy_dataset(num_classes=8, per_class=20)
        ep = sample_episode(features, labels, 5, 1, 15, np.random.default_rng(0))
        assert ep.support_features.shape == (5, features.shape[1])
        assert ep.query_features.shape == (75, features.shape[1])
        assert set(ep.support_labels) == set(range(5))
        assert np.all(np.bincount(ep.query_labels) == 15)

    def test_support_query_disjoint_many_seeds(self):
        features, labels = toy_dataset(num_classes=8, per_class=12)
        for seed in range(1000):
            ep = sample_episode(
                features, labels, 4, 2, 3, np.random.default_rng(seed)
            )
            assert not set(ep.support_indices) & set(ep.query_indices)

    def test_relabeling_consistent_with_class_ids(self):
        features, labels = toy_dataset(num_classes=7, per_class=10)
        ep = sample_episode(features, labels, 3, 2, 2, np.random.default_rng(4))
        for new_label, orig in enumerate(ep.class_ids):
            rows = ep.support_indices[ep.support_labels == new_label]
            assert np.all(labels[rows] == orig)
            rows = ep.query_indices[ep.query_labels == new_label]
            assert np.all(labels[rows] == orig)

    def test_fixed_seed_identical(self):
        features, labels = toy_dataset()
        a = sample_episode(features, labels, 3, 1, 2, np.random.default_rng(11))
        b = sample_episode(features, labels, 3, 1, 2, np.random.default_rng(11))
        assert np.array_equal(a.support_indices, b.support_indices)
        assert np.array_equal(a.query_indices, b.query_indices)
        assert a.class_ids == b.class_ids

    def test_insufficient_class_rows(self):
        features, labels = toy_dataset(num_classes=5, per_class=3)
        with pytest.raises(DataError):
            sample_episode(features, labels, 3, 2, 2, np.random.default_rng(0))

    def test_too_few_classes(self):
        features, labels = toy_dataset(num_classes=3)
        with pytest.raises(DataError):
            sample_episode(features, labels, 5, 1, 1, np.random.default_rng(0))

    def test_rows_match_label_scan_reference(self):
        labels = shuffled_uneven_labels(seed=1)
        features = np.arange(labels.size, dtype=np.float64)[:, None]
        for seed in range(100):
            ep = sample_episode(features, labels, 4, 3, 2, np.random.default_rng(seed))
            rows = loop_draw(labels, 4, 5, np.random.default_rng(seed)).reshape(4, 5)
            assert np.array_equal(ep.support_indices, rows[:, :3].reshape(-1))
            assert np.array_equal(ep.query_indices, rows[:, 3:].reshape(-1))
            assert np.array_equal(ep.support_features[:, 0], ep.support_indices)
            assert ep.class_ids == tuple(int(labels[r]) for r in rows[:, 0])

    def test_short_class_same_error_from_index_and_episode(self):
        features, labels = toy_dataset(num_classes=5, per_class=6)
        labels = labels.copy()
        labels[np.flatnonzero(labels == 3)[:2]] = 4
        with pytest.raises(DataError) as from_index:
            ClassIndex.for_episodes(labels, 3, 2, 3)
        with pytest.raises(DataError) as from_episode:
            sample_episode(features, labels, 3, 2, 3, np.random.default_rng(0))
        assert str(from_index.value) == str(from_episode.value)
        assert str(from_episode.value) == "class 3 has 4 samples, episode needs 5"

    def test_bad_settings(self):
        features, labels = toy_dataset()
        with pytest.raises(ConfigurationError):
            sample_episode(features, labels, 1, 1, 1, np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            sample_episode(features, labels, 3, 0, 1, np.random.default_rng(0))


class TestEpisodeRows:
    def test_shape_and_dtype(self):
        _, labels = toy_dataset(num_classes=8, per_class=20)
        rows = episode_rows(labels, 5, 1, 15, 7, master_seed=3)
        assert rows.shape == (7, 5, 16)
        assert rows.dtype == np.int64

    def test_episode_i_is_sample_episode_from_child_seed(self):
        labels = shuffled_uneven_labels(seed=2)
        features = np.zeros((labels.size, 1))
        rows = episode_rows(labels, 4, 3, 2, 40, master_seed=21)
        for i in range(40):
            ep = sample_episode(
                features, labels, 4, 3, 2, np.random.default_rng(child_seed(21, i))
            )
            assert np.array_equal(rows[i, :, :3].reshape(-1), ep.support_indices)
            assert np.array_equal(rows[i, :, 3:].reshape(-1), ep.query_indices)

    def test_prefix_independent_of_episode_count(self):
        _, labels = toy_dataset(num_classes=7, per_class=10)
        long = episode_rows(labels, 3, 2, 2, 50, master_seed=4)
        assert np.array_equal(episode_rows(labels, 3, 2, 2, 17, 4), long[:17])

    def test_short_class_same_error_as_index(self):
        _, labels = toy_dataset(num_classes=5, per_class=6)
        labels = labels.copy()
        labels[np.flatnonzero(labels == 3)[:2]] = 4
        with pytest.raises(DataError) as from_index:
            ClassIndex.for_episodes(labels, 3, 2, 3)
        with pytest.raises(DataError) as from_rows:
            episode_rows(labels, 3, 2, 3, 10, 0)
        assert str(from_rows.value) == str(from_index.value)
        assert str(from_rows.value) == "class 3 has 4 samples, episode needs 5"

    def test_bad_settings(self):
        _, labels = toy_dataset()
        for args in ((1, 1, 1, 5), (3, 0, 1, 5), (3, 1, 0, 5), (3, 1, 1, 0)):
            with pytest.raises(ConfigurationError):
                episode_rows(labels, *args, master_seed=0)
