"""Tests for PK batches, episodes, and derived seeds."""

import copy
import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cirlab.sampling
from cirlab.datagen import GeneratorSpec, gen_gaussian_mixture, reproduce_spec, split_classes
from cirlab.errors import ConfigurationError, DataError, InputError
from cirlab.losses import triplet_masks
from cirlab.sampling import (
    _EPISODE_CHUNK,
    MAX_ARRAY_VALUES,
    ClassIndex,
    PKSpec,
    _child_seeds,
    _choice_bounds,
    _choice_replay,
    _floyd_replay,
    _lemire_draws,
    _next_words,
    _raw_words,
    check_episode_set,
    check_seed,
    child_seed,
    episode_rows,
    negative_classes,
    pk_batch,
    pk_epoch,
    sample_episode,
    step_draws,
)
from oracles import choice_draw, choice_episode_rows


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


def splitmix_reference(master_seed, index):
    """The splitmix64 mix of `child_seed` in Python ints, mod 2**64."""
    mask = (1 << 64) - 1
    x = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & mask
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & mask
    return x ^ x >> 31


class TestChildSeed:
    @pytest.mark.parametrize("master", [0, 1, 2**63, 2**64 - 1])
    def test_array_mix_is_child_seed(self, master):
        seeds = _child_seeds(master, 0, 1000)
        assert seeds.dtype == np.uint64
        expected = [splitmix_reference(master, i) for i in range(1000)]
        assert seeds.tolist() == [child_seed(master, i) for i in range(1000)] == expected
        assert _child_seeds(master, 600, 400).tolist() == expected[600:]
        # the index wraps mod 2**64 in the mix, as in Python ints
        assert child_seed(master, 2**64 + 7) == splitmix_reference(master, 2**64 + 7)

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

    @pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 5])
    def test_master_seed_outside_64_bits_raises(self, seed):
        # the mix reduces mod 2**64: -1 would alias 2**64 - 1, 2**64 alias 0
        with pytest.raises(ConfigurationError, match="master seed must be"):
            child_seed(seed, 0)
        with pytest.raises(ConfigurationError, match="master seed must be"):
            episode_rows(np.repeat(np.arange(3), 4), 2, 1, 1, 3, seed)

    def test_seed_range_edges(self):
        for seed in (0, (1 << 64) - 1):
            check_seed(seed)
            assert 0 <= child_seed(seed, 3) < (1 << 64)
        with pytest.raises(ConfigurationError, match="--seed must be >= 0, got -1"):
            check_seed(-1, "--seed")
        with pytest.raises(ConfigurationError, match=r"seed must be < 2\*\*64"):
            check_seed(1 << 64)


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
        for p, k, message in [
            (2, 4, "class 3 has 3 rows, a draw needs 4"),
            (5, 2, "split has 4 classes, a draw needs 5"),
        ]:
            with pytest.raises(DataError, match=message):
                pk_batch(index, PKSpec(p, k), rng)
        assert rng.bit_generator.state == state

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            PKSpec(1, 4)
        with pytest.raises(ConfigurationError):
            PKSpec(4, 1)


def assert_replays_choice(labels, p, k, seed, batches, buffered):
    """pk_batch gives choice_draw's rows and leaves its generator state,
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
        expected = choice_draw(index, p, k, ref)[1].reshape(-1)
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
            ClassIndex(labels).pk_bounds(3, 2 + 3)
        with pytest.raises(DataError) as from_episode:
            sample_episode(features, labels, 3, 2, 3, np.random.default_rng(0))
        assert str(from_index.value) == str(from_episode.value)
        assert str(from_episode.value) == "class 3 has 4 rows, a draw needs 5"

    def test_bad_settings(self):
        features, labels = toy_dataset()
        with pytest.raises(ConfigurationError):
            sample_episode(features, labels, 1, 1, 1, np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            sample_episode(features, labels, 3, 0, 1, np.random.default_rng(0))


class TestEpisodeRows:
    def test_shape_and_dtype(self):
        _, labels = toy_dataset(num_classes=8, per_class=20)
        support, query = episode_rows(labels, 5, 1, 15, 7, master_seed=3)
        assert support.shape == (7, 5, 1) and query.shape == (7, 5, 15)
        assert support.base is query.base and support.base.shape == (7, 5, 16)
        assert support.dtype == query.dtype == np.int64

    def test_episode_i_is_sample_episode_from_child_seed(self):
        labels = shuffled_uneven_labels(seed=2)
        features = np.zeros((labels.size, 1))
        support, query = episode_rows(labels, 4, 3, 2, 40, master_seed=21)
        for i in range(40):
            ep = sample_episode(
                features, labels, 4, 3, 2, np.random.default_rng(child_seed(21, i))
            )
            assert np.array_equal(support[i].reshape(-1), ep.support_indices)
            assert np.array_equal(query[i].reshape(-1), ep.query_indices)

    def test_prefix_independent_of_episode_count(self):
        _, labels = toy_dataset(num_classes=7, per_class=10)
        long = episode_rows(labels, 3, 2, 2, 50, master_seed=4)
        for short, full in zip(episode_rows(labels, 3, 2, 2, 17, 4), long):
            assert np.array_equal(short, full[:17])

    def test_short_class_same_error_as_index(self):
        _, labels = toy_dataset(num_classes=5, per_class=6)
        labels = labels.copy()
        labels[np.flatnonzero(labels == 3)[:2]] = 4
        with pytest.raises(DataError) as from_index:
            ClassIndex(labels).pk_bounds(3, 2 + 3)
        with pytest.raises(DataError) as from_rows:
            episode_rows(labels, 3, 2, 3, 10, 0)
        assert str(from_rows.value) == str(from_index.value)
        assert str(from_rows.value) == "class 3 has 4 rows, a draw needs 5"

    def test_bad_settings(self):
        _, labels = toy_dataset()
        for args in ((1, 1, 1, 5), (3, 0, 1, 5), (3, 1, 0, 5), (3, 1, 1, 0)):
            with pytest.raises(ConfigurationError):
                episode_rows(labels, *args, master_seed=0)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_split_at_k_of_one_row_buffer(self, k):
        labels = shuffled_uneven_labels(seed=4)
        q, episodes = 3, 60
        support, query = episode_rows(labels, 4, k, q, episodes, master_seed=k)
        expected = choice_episode_rows(labels, 4, k, q, episodes, k)
        # the E x N x (K + Q) rows of one draw, split at K
        rows = np.concatenate((support, query), axis=2)
        assert np.array_equal(rows, np.concatenate(expected, axis=2))
        assert support.base is query.base
        assert np.array_equal(support.base, rows)
        for episode in rows:
            assert len({int(labels[r[0]]) for r in episode}) == 4
            for class_rows in episode:
                assert len(set(class_rows.tolist())) == k + q
                assert len(set(labels[class_rows].tolist())) == 1

    def test_episode_set_size_bound(self):
        # 2 x (1 + 1) rows an episode: 2**26 episodes fill the bound exactly
        check_episode_set(2, 1, 1, MAX_ARRAY_VALUES // 4)
        with pytest.raises(ConfigurationError, match=r"episodes = 67108865 .*2\*\*28"):
            check_episode_set(2, 1, 1, MAX_ARRAY_VALUES // 4 + 1)
        with pytest.raises(ConfigurationError, match="eval_episodes = "):
            check_episode_set(5, 1, 15, 10**30, "eval_episodes")
        # refused before the split is read or a row is allocated
        for episodes in (10**12, 10**30):
            with pytest.raises(ConfigurationError, match="would size an array"):
                episode_rows(np.array([0, 1]), 5, 1, 15, episodes, 0)

    def test_overflow_raises_nothing(self):
        # the seeding's wrapping arithmetic is array arithmetic, which
        # numpy never checks; a numpy scalar would warn or raise here
        labels = REPRODUCE_LABELS
        plain = episode_rows(labels, 5, 1, 15, 300, master_seed=2**64 - 1)
        with np.errstate(all="raise"):
            checked = episode_rows(labels, 5, 1, 15, 300, master_seed=2**64 - 1)
        for got, want in zip(checked, plain):
            assert np.array_equal(got, want)

    def test_one_bit_generator_per_chunk(self, monkeypatch):
        built, redrawn, real = Counter(), Counter(), cirlab.sampling._pk_draws

        # named PCG64, the name a PCG64 state dict must carry
        class PCG64(np.random.PCG64):
            def __init__(self, *args, **kwargs):
                built["PCG64"] += 1
                super().__init__(*args, **kwargs)

        def count(*args):
            redrawn["_pk_draws"] += 1
            return real(*args)

        monkeypatch.setattr(np.random, "PCG64", PCG64)
        monkeypatch.setattr(cirlab.sampling, "_pk_draws", count)
        support, query = episode_rows(CLI_LABELS, 5, 1, 15, 600, master_seed=11)
        chunks = -(-600 // _EPISODE_CHUNK)
        assert built["PCG64"] <= chunks + redrawn["_pk_draws"]
        expected = choice_episode_rows(CLI_LABELS, 5, 1, 15, 600, 11)
        assert np.array_equal(support, expected[0])
        assert np.array_equal(query, expected[1])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4))
@example(seeds=[0])
@example(seeds=[1])
@example(seeds=[2**32 - 1])  # the last seed of one entropy word
@example(seeds=[2**32])  # the first of two
@example(seeds=[2**63])
@example(seeds=[2**64 - 1])
def test_raw_words_are_pcg64s(seeds):
    for n in (1, 2, 83):
        raw = _raw_words(np.array(seeds, dtype=np.uint64), n)
        assert raw.shape == (len(seeds), n) and raw.dtype == np.uint64
        for row, seed in zip(raw, seeds):
            assert np.array_equal(row, np.random.PCG64(seed).random_raw(n))


class TestFloydReplay:
    @pytest.mark.parametrize("k", [1, 2, 5, 16, 31])
    def test_equals_choice_replay_row_by_row(self, k):
        rng = np.random.default_rng(k)
        sizes = rng.integers(k, 2 * k + 10, size=400)
        sizes[:5] = k  # n == k: Floyd's first bound is 0
        draws = np.array(
            [rng.integers(0, _choice_bounds(int(n), k), endpoint=True) for n in sizes]
        ).reshape(len(sizes), 2 * k - 1)
        picks = _floyd_replay(draws, sizes, k)
        assert picks.shape == (len(sizes), k) and picks.dtype == np.int64
        for row, n, got in zip(draws, sizes, picks):
            assert got.tolist() == _choice_replay(row.tolist(), int(n), k)


def exact_class_labels():
    """Uneven classes, two of them exactly K + Q = 5 rows."""
    ids, sizes = [3, 5, 9, 12, 20], [5, 9, 7, 5, 11]
    return np.random.default_rng(6).permutation(np.repeat(ids, sizes))


EPISODE_SPLITS = {
    # (labels, n_way, k_shot, q_queries)
    "uneven": (shuffled_uneven_labels(seed=3), 4, 2, 3),
    "exact-k+q": (exact_class_labels(), 3, 2, 3),
    "n-all": (shuffled_uneven_labels(seed=5), 8, 3, 4),
    "reproduce-5x16": (REPRODUCE_LABELS, 5, 1, 15),
}


class TestEpisodeRowsReplayChoice:
    @pytest.mark.parametrize(
        "episodes", [_EPISODE_CHUNK - 1, _EPISODE_CHUNK, _EPISODE_CHUNK + 1]
    )
    @pytest.mark.parametrize("split", sorted(EPISODE_SPLITS))
    def test_rows_are_the_choice_oracles(self, split, episodes):
        labels, n, k, q = EPISODE_SPLITS[split]
        sizes = class_sizes(labels)
        assert sizes.min() < sizes.max()  # uneven classes
        assert sizes.min() >= k + q
        if split == "exact-k+q":
            assert sizes.min() == k + q
        if split == "n-all":
            assert n == sizes.size
        support, query = episode_rows(labels, n, k, q, episodes, master_seed=episodes)
        expected = choice_episode_rows(labels, n, k, q, episodes, episodes)
        assert support.dtype == query.dtype == np.int64
        assert np.array_equal(support, expected[0])
        assert np.array_equal(query, expected[1])

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("split", sorted(EPISODE_SPLITS))
    def test_sample_episode_draws_as_choice(self, split, buffered):
        labels, n, k, q = EPISODE_SPLITS[split]
        features = np.zeros((labels.size, 1))
        index = ClassIndex(labels)
        counting, ref = CountingRng(np.random.default_rng(8)), np.random.default_rng(8)
        if buffered:
            counting.rng.integers(0, 7, dtype=np.int32)
            ref.integers(0, 7, dtype=np.int32)
        for _ in range(40):
            ep = sample_episode(features, labels, n, k, q, counting)
            class_ids, rows = choice_draw(index, n, k + q, ref)
            assert ep.class_ids == class_ids
            assert np.array_equal(ep.support_indices, rows[:, :k].reshape(-1))
            assert np.array_equal(ep.query_indices, rows[:, k:].reshape(-1))
            assert counting.rng.bit_generator.state == ref.bit_generator.state
        assert counting.calls == Counter(integers=80)

    @pytest.mark.parametrize("n,k,q", [(5, 1, 15), (3, 2, 2), (12, 3, 4)])
    def test_peak_memory_is_the_rows_plus_one_chunk(self, n, k, q):
        labels = np.repeat(np.arange(12), 20)
        m = k + q
        # one chunk: its row draws, its replayed positions and its gathered
        # rows, 8 bytes each; plus the split's ClassIndex and small arrays
        chunk = _EPISODE_CHUNK * n * ((2 * m - 1) + 2 * m) * 8
        extra = {}
        for episodes in (_EPISODE_CHUNK, 4 * _EPISODE_CHUNK + 3):
            tracemalloc.start()
            try:
                support, query = episode_rows(labels, n, k, q, episodes, master_seed=2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra[episodes] = peak - support.base.nbytes
            assert extra[episodes] <= chunk + 64 * 1024
        # the extra memory does not grow with the episode count
        assert extra[4 * _EPISODE_CHUNK + 3] <= extra[_EPISODE_CHUNK] + 1024


class TestLemireReplay:
    def test_words_give_integers_draws_and_its_rejections(self):
        # near 3 * 2**30 numpy rejects a word with odds 2**32 mod (b + 1)
        # over 2**32, about a quarter; bounds of 0 and 1 are never rejected
        seeds = range(4000)
        bounds = np.tile(3 * 2**30 + np.arange(-8, 8), 250)
        bounds[:40] = [0, 1] * 20
        words = np.array(
            [np.random.PCG64(s).random_raw(1)[0] for s in seeds], dtype=np.uint64
        ).view("<u4")[0::2]
        draws = bounds.copy()[:, None]
        rejected = np.zeros(len(bounds), dtype=bool)
        rejected[_lemire_draws(draws, words[:, None])] = True
        for s, b, got, rej in zip(seeds, bounds.tolist(), draws[:, 0], rejected):
            rng, one_word = np.random.default_rng(s), np.random.PCG64(s)
            value = rng.integers(0, b, endpoint=True)
            one_word.random_raw(1)
            # one 32-bit word read: the first 64-bit word, half of it left
            read_one = (
                rng.bit_generator.state["state"] == one_word.state["state"]
                and rng.bit_generator.state["has_uint32"] == 1
            )
            assert rej == (b > 0 and not read_one)
            if not rej:
                assert got == value
        assert 0.2 < rejected.mean() < 0.3
        assert not rejected[:40].any() and (draws[:40:2] == 0).all()

    def test_rejected_row_draw_is_redrawn(self, monkeypatch):
        # an offline search over big classes: with master seed 20, numpy
        # rejects one 32-bit word of episode 285's row draws (the second
        # chunk's episode 29), so that episode reads one word more
        labels = np.repeat([0, 1, 2], [70001, 80021, 90001])
        flagged, real = [], _lemire_draws

        def spy(draws, words):
            rejected = real(draws, words)
            flagged.append((draws.shape[1], rejected.tolist()))
            return rejected

        monkeypatch.setattr(cirlab.sampling, "_lemire_draws", spy)
        support, query = episode_rows(labels, 2, 1, 40, 300, master_seed=20)
        # per chunk: the 3 class draws, then the 2 x 81 row draws
        assert flagged == [(3, []), (162, []), (3, []), (162, [29])]
        features = np.zeros((labels.size, 1))
        for i in (284, 285, 286):
            rng = np.random.default_rng(child_seed(20, i))
            ep = sample_episode(features, labels, 2, 1, 40, rng)
            assert np.array_equal(support[i].reshape(-1), ep.support_indices)
            assert np.array_equal(query[i].reshape(-1), ep.query_indices)
            # 165 words a draw set, and one more where a word is rejected
            state = rng.bit_generator.state
            words_read = np.random.PCG64(child_seed(20, i))
            words_read.advance(83)
            assert state["state"] == words_read.state["state"]
            assert state["has_uint32"] == (0 if i == 285 else 1)

    def test_bounds_past_the_word_bound_take_the_generator(self, monkeypatch):
        labels = shuffled_uneven_labels(seed=7)
        replayed = episode_rows(labels, 4, 2, 3, 300, master_seed=9)
        # with every bound of 8 or more left to numpy, every episode is
        # drawn by _pk_draws
        monkeypatch.setattr(cirlab.sampling, "_WORD_BOUND", 8)
        counting, real = Counter(), cirlab.sampling._pk_draws

        def count(*args):
            counting["_pk_draws"] += 1
            return real(*args)

        monkeypatch.setattr(cirlab.sampling, "_pk_draws", count)
        drawn = episode_rows(labels, 4, 2, 3, 300, master_seed=9)
        assert counting["_pk_draws"] == 300
        for got, want in zip(drawn, replayed):
            assert np.array_equal(got, want)


@st.composite
def episode_splits(draw):
    """A shuffled split with gaps in its class ids and the N, K, Q of an
    episode it serves: some classes of exactly K + Q rows, and N up to
    the class count."""
    k, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    count = draw(st.integers(2, 7))
    extra = draw(st.lists(st.sampled_from([0, 0, 1, 2, 5, 11]), min_size=count,
                          max_size=count))
    n_way = draw(st.integers(2, count))
    seed = draw(st.integers(0, 2**64 - 1))
    ids = np.random.default_rng(count).choice(50, count, replace=False)
    labels = np.random.default_rng(k + q).permutation(
        np.repeat(ids, [k + q + e for e in extra])
    )
    return labels, n_way, k, q, seed


@settings(max_examples=120, derandomize=True, deadline=None)
@given(split=episode_splits(), episodes=st.integers(1, 12))
def test_episode_rows_are_per_episode_sample_episode(split, episodes):
    labels, n, k, q, seed = split
    support, query = episode_rows(labels, n, k, q, episodes, master_seed=seed)
    features = np.zeros((labels.size, 1))
    for i in range(episodes):
        rng = np.random.default_rng(child_seed(seed, i))
        ep = sample_episode(features, labels, n, k, q, rng)
        assert np.array_equal(support[i].reshape(-1), ep.support_indices)
        assert np.array_equal(query[i].reshape(-1), ep.query_indices)


def step_by_step(labels, spec, rng, steps, designated, num_classes):
    """The reference epoch: per step, one `pk_batch`, then one
    `negative_classes` draw for the batch's leading designated rows."""
    index, rows, decoys = ClassIndex(labels), [], []
    for _ in range(steps):
        rows.append(pk_batch(index, spec, rng))
        if designated:
            decoys.append(negative_classes(rng, labels[rows[-1][:designated]], num_classes))
    rows = np.array(rows, dtype=np.int64).reshape(steps, spec.batch_size)
    return rows, np.array(decoys, dtype=np.int64).reshape(steps, designated)


def assert_epochs_are_steps(labels, p, k, steps, designated, num_classes, rng, epochs=2):
    """pk_epoch gives the rows, the decoys and the generator state of the
    step-by-step draw, after each of `epochs` consecutive epochs."""
    index, spec, ref = ClassIndex(labels), PKSpec(p, k), copy.deepcopy(rng)
    for _ in range(epochs):
        rows, decoys = pk_epoch(index, spec, rng, steps, designated, num_classes)
        want_rows, want_decoys = step_by_step(labels, spec, ref, steps, designated, num_classes)
        assert rows.dtype == np.int64 and np.array_equal(rows, want_rows)
        # with no row designated, an empty steps x 0 array
        assert decoys.dtype == np.int64 and decoys.shape == (steps, designated)
        assert np.array_equal(decoys, want_decoys)
        # assert_equal compares the arrays in other bit generators' states
        np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)


class TestPkEpoch:
    @pytest.mark.parametrize(
        "labels,p,k,designated",
        [(REPRODUCE_LABELS, 8, 4, 32), (CLI_LABELS, 32, 8, 256), (CLI_LABELS, 5, 3, 7)],
        ids=["reproduce-8x4", "cli-32x8", "cli-ends-in-a-class"],
    )
    def test_replays_the_step_by_step_draw(self, monkeypatch, labels, p, k, designated):
        # the workloads' splits have no class of exactly K rows: every
        # epoch is replayed, none drawn step by step
        def refused(*args):
            raise AssertionError("drawn step by step")

        index, spec = ClassIndex(labels), PKSpec(p, k)
        num_classes = int(labels.max()) + 1
        rng, ref = np.random.default_rng(p * k), np.random.default_rng(p * k)
        monkeypatch.setattr(cirlab.sampling, "_pk_draws", refused)
        epochs = [
            (*pk_epoch(index, spec, rng, 25, designated, num_classes), rng.bit_generator.state)
            for _ in range(3)
        ]
        monkeypatch.undo()
        for rows, decoys, state in epochs:
            want = step_by_step(labels, spec, ref, 25, designated, num_classes)
            assert np.array_equal(rows, want[0]) and np.array_equal(decoys, want[1])
            assert state == ref.bit_generator.state

    @pytest.mark.parametrize("classes,p", [(7, 3), (6, 4), (5, 5)])
    def test_a_rejected_word_draws_the_epoch_step_by_step(self, monkeypatch, classes, p):
        # a pending half of 0 is the first class draw's word: numpy rejects
        # it for the bound C - P, as 2**32 mod (C - P + 1) > 0, unless that
        # bound is 0 (C == P), which reads no word
        labels = np.repeat(np.arange(classes), 5)
        counting, real = Counter(), cirlab.sampling._pk_draws

        def count(*args):
            counting["_pk_draws"] += 1
            return real(*args)

        for seed in range(3):
            rng = np.random.default_rng(seed)
            state = rng.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, 0
            rng.bit_generator.state = state
            ref = copy.deepcopy(rng)
            counting.clear()
            monkeypatch.setattr(cirlab.sampling, "_pk_draws", count)
            got = pk_epoch(ClassIndex(labels), PKSpec(p, 2), rng, 4, 3, classes + 1)
            monkeypatch.undo()
            want = step_by_step(labels, PKSpec(p, 2), ref, 4, 3, classes + 1)
            assert counting["_pk_draws"] == (0 if classes == p else 4)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("designated", [0, 5])
    def test_step_draws_of_pk_batches_is_the_step_by_step_draw(self, designated):
        # the loop the uniform and preformed heads draw with, on PK batches
        labels = shuffled_uneven_labels(seed=3)
        index, spec = ClassIndex(labels), PKSpec(4, 3)
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        rows, decoys = step_draws(partial(pk_batch, index, spec), labels, designated, 21,
                                  rng, 6)
        want_rows, want_decoys = step_by_step(labels, spec, ref, 6, designated, 21)
        assert rows.dtype == decoys.dtype == np.int64 and decoys.shape == (6, designated)
        assert np.array_equal(rows, want_rows) and np.array_equal(decoys, want_decoys)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_other_bit_generators_draw_step_by_step(self):
        labels = shuffled_uneven_labels(seed=3)
        for bits in (np.random.MT19937(4), np.random.Philox(4), np.random.SFC64(4)):
            assert_epochs_are_steps(labels, 4, 3, 5, 6, 21, np.random.Generator(bits))

    @pytest.mark.parametrize("pending", [False, True])
    def test_next_words_are_the_words_integers_reads(self, pending):
        # a draw in [0, 1] reads one word, which numpy never rejects, and
        # returns its top bit
        for count in range(6):
            rng = np.random.default_rng(count)
            if pending:
                rng.integers(0, 7, dtype=np.int32)
            ref = copy.deepcopy(rng)
            words = _next_words(rng, count)
            assert np.array_equal(words >> 31, ref.integers(0, 2, size=count))
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_no_steps_draw_nothing(self):
        rng = np.random.default_rng(1)
        rng.integers(0, 7, dtype=np.int32)
        state = rng.bit_generator.state
        rows, decoys = pk_epoch(ClassIndex(REPRODUCE_LABELS), PKSpec(8, 4), rng, 0, 5, 25)
        assert rows.shape == (0, 32) and decoys.shape == (0, 5)
        assert rng.bit_generator.state == state


@st.composite
def pk_epoch_splits(draw):
    """A shuffled split of class ids below num_classes, with gaps, the
    P x K of its batches and the count of designated rows: some classes
    of exactly K rows, P up to the class count, num_classes down to 2."""
    k, count = draw(st.integers(2, 4)), draw(st.integers(2, 7))
    extra = draw(st.lists(st.sampled_from([0, 1, 1, 2, 5]), min_size=count,
                          max_size=count))
    num_classes = count + draw(st.integers(0, 3))
    ids = np.random.default_rng(num_classes).choice(num_classes, count, replace=False)
    labels = np.random.default_rng(k).permutation(np.repeat(ids, [k + e for e in extra]))
    p = draw(st.integers(2, count))
    return labels, p, k, draw(st.integers(0, p * k)), num_classes


def epoch_case(sizes, p, k, designated, num_classes):
    labels = np.random.default_rng(0).permutation(np.repeat(np.arange(len(sizes)), sizes))
    return labels, p, k, designated, num_classes


@settings(max_examples=150, derandomize=True, deadline=None)
@given(split=pk_epoch_splits(), steps=st.integers(1, 5), pending=st.booleans(),
       seed=st.integers(0, 2**64 - 1))
# C == P, with an odd word count a step (2P - 2 + P(2K - 1) + 5 = 19)
@example(epoch_case([3, 4, 5], 3, 2, 5, 4), 3, False, 1)
# a class of exactly K rows: the epoch is drawn step by step
@example(epoch_case([3, 2, 6, 4], 3, 2, 4, 4), 3, True, 2)
# num_classes == 2: a decoy bound of 0 reads no word (3 + 6 = 9 a step)
@example(epoch_case([4, 5], 2, 3, 4, 2), 3, False, 3)
# fraction 0: no decoy is drawn (5 + 9 = 14 a step, with a half pending)
@example(epoch_case([3, 3, 4, 5, 6], 3, 2, 0, 5), 3, True, 4)
# a fraction that ends inside a class (5 + 15 + 4 = 24 words, pending)
@example(epoch_case([4, 4, 5, 6], 3, 3, 4, 6), 1, True, 5)
def test_pk_epoch_is_the_step_by_step_draw(split, steps, pending, seed):
    labels, p, k, designated, num_classes = split
    rng = np.random.default_rng(seed)
    if pending:
        # a 32-bit draw leaves the other half of a 64-bit word pending
        rng.integers(0, 7, dtype=np.int32)
    assert_epochs_are_steps(labels, p, k, steps, designated, num_classes, rng, epochs=3)
