"""Tests for the training loops, schedules, logging, and checkpoint eval."""

import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import cirlab.nn
import cirlab.trainer
from cirlab.datagen import Dataset, GeneratorSpec, gen_gaussian_mixture, split_classes
from cirlab.errors import ConfigurationError, DataError, NumericError
from cirlab.evaluate import episodic_accuracy
from cirlab.interference import InterferenceConfig, NoiseConfig
from cirlab.losses import TripletConfig
from cirlab.nn import forward, init_params
from cirlab.sampling import ClassIndex, PKSpec, episode_rows, pk_batch
from cirlab.tac import tac_init
from cirlab.trainer import (
    CSV_HEADER,
    EpochLog,
    TrainConfig,
    _holdout_rows,
    _mode_parts,
    check_feasible,
    evaluate_checkpoint,
    logs_to_csv,
    train,
)
from oracles import grad_check, single_step


def make_splits(seed=0, num_classes=12, per_class=20, dim=8, spread=0.3, scale=3.0):
    ds = gen_gaussian_mixture(
        GeneratorSpec(
            num_classes=num_classes, samples_per_class=per_class, input_dim=dim,
            spread=spread, center_scale=scale, seed=seed,
        )
    )
    return split_classes(ds, (0.5, 0.25, 0.25), seed=seed)


def small_cfg(**overrides):
    base = dict(
        loss_mode="triplet",
        epochs=3,
        iterations=20,
        seed=1,
        hidden_dims=(32,),
        embed_dim=8,
        learning_rate=0.001,
        p_classes=4,
        k_samples=4,
        eval_n_way=3,
        eval_k_shot=1,
        eval_q_queries=5,
        eval_episodes=15,
        interference=InterferenceConfig(strength=0.5),
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestConfigValidation:
    def test_reference_fewshot_setting_accepted(self):
        cfg = TrainConfig(
            loss_mode="triplet", iterations=100, learning_rate=0.0002,
            tac_momentum=0.5, interference=InterferenceConfig(strength=0.5),
        )
        assert cfg.iterations == 100
        assert cfg.learning_rate == 0.0002

    def test_interference_noise_mutually_exclusive(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(
                interference=InterferenceConfig(strength=0.5, enabled=True),
                noise=NoiseConfig(sigma=0.1, enabled=True),
            )

    def test_noise_with_disabled_interference_ok(self):
        cfg = TrainConfig(
            interference=InterferenceConfig(strength=0.5, enabled=False),
            noise=NoiseConfig(sigma=None, enabled=True),
        )
        assert cfg.noise.enabled

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(loss_mode="contrastive")

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"),
        (1 << 64, r"seed must be < 2\*\*64, got 18446744073709551616"),
    ])
    def test_seed_outside_64_bits_rejected(self, seed, message):
        # child_seed mixes seeds mod 2**64: -1 would train as 2**64 - 1,
        # and 2**64 as 0
        with pytest.raises(ConfigurationError, match=message):
            TrainConfig(seed=seed)
        assert TrainConfig(seed=(1 << 64) - 1).seed == (1 << 64) - 1

    def test_classifier_needs_holdout(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(loss_mode="oim", holdout_fraction=0.0)

    def test_preformed_rejects_settings_it_ignores(self):
        # preformed mining always takes the mean hinge of squared distances
        ignored = (TripletConfig(squared=False), TripletConfig(reduction="mean_nonzero"))
        for triplet in ignored:
            with pytest.raises(ConfigurationError, match="preformed"):
                TrainConfig(mining="preformed", triplet=triplet)
            TrainConfig(mining="batch_all", triplet=triplet)
        TrainConfig(mining="preformed", triplet=TripletConfig(margin=0.2))

    def test_feasibility_checked_before_training(self):
        tr, va, _ = make_splits()
        with pytest.raises(
            DataError, match="^train split has 6 classes, batches need 30$"
        ):
            train(tr, va, small_cfg(p_classes=30))
        short = replace(tr, labels=tr.labels.copy())
        short.labels[np.flatnonzero(tr.labels == 2)[:17]] = 1  # class 2 keeps 3
        with pytest.raises(
            DataError, match="^train class 2 has 3 samples, batches need 4$"
        ):
            train(short, va, small_cfg())
        with pytest.raises(DataError):
            train(tr, None, small_cfg())  # triplet mode without val split
        # a declared class with no rows fails in check_feasible, with its
        # message, before the trainer builds its class index
        empty = replace(tr, class_count=tr.class_count + 1)
        with pytest.raises(
            DataError, match=f"class {tr.class_count} has 0 samples, batches need 4"
        ):
            train(empty, va, small_cfg())

    @pytest.mark.parametrize("label", [-1, "count"])
    @pytest.mark.parametrize("loss_mode", ["triplet", "oim"])
    def test_labels_outside_the_class_count_are_refused(self, label, loss_mode):
        # the table and the per-step decoy draws index classes by label
        # unchecked, so one check per run refuses a label they cannot take
        tr, va, _ = make_splits()
        bad = replace(tr, labels=tr.labels.copy())
        bad.labels[5] = tr.class_count if label == "count" else label
        with pytest.raises(
            DataError, match=rf"^train split has labels outside \[0, {tr.class_count}\)$"
        ):
            train(bad, va, small_cfg(loss_mode=loss_mode))

    def test_episode_shortfall_in_either_split_fails_before_first_step(
        self, monkeypatch
    ):
        # 10 classes of 5 rows feed 4 x 4 batches but not episodes of
        # 1 + 5 rows per class, which the train-proxy accuracy scores
        def steps(*args):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(cirlab.trainer, "_step", steps)
        tr, va, _ = make_splits()
        short = Dataset(
            features=np.zeros((50, tr.input_dim), dtype=np.float32),
            labels=np.repeat(np.arange(10), 5), class_count=10, provenance="short",
        )
        with pytest.raises(
            DataError, match="^train class 0 has 5 samples, episodes need 6$"
        ):
            train(short, va, small_cfg())
        with pytest.raises(
            DataError, match="^validation class 0 has 5 samples, episodes need 6$"
        ):
            train(tr, short, small_cfg())
        # the step's encoder runs unchecked, so one pass per run refuses a
        # non-finite train feature, with forward's message
        nan = replace(tr, features=tr.features.copy())
        nan.features[7, 3] = np.nan
        for mode in ("triplet", "oim"):
            with pytest.raises(
                NumericError, match="^input batch contains non-finite values$"
            ):
                train(nan, va, small_cfg(loss_mode=mode))

    def test_empty_holdout_refused(self):
        # floor(0.1 * 9) = 0 rows of every class would leave val_acc nan
        nine = Dataset(
            features=np.zeros((54, 8), dtype=np.float32),
            labels=np.repeat(np.arange(6), 9), class_count=6, provenance="nine",
        )
        for mode in ("oim", "cross_entropy"):
            with pytest.raises(
                DataError, match="^holdout_fraction 0.1 holds out no rows"
            ):
                check_feasible(nine, None, small_cfg(loss_mode=mode))
            check_feasible(nine, None, small_cfg(loss_mode=mode, holdout_fraction=0.2))
        ten = replace(nine, labels=nine.labels.copy())
        ten.labels[9] = 0  # class 0 holds 10 rows, so it gives one up
        check_feasible(ten, None, small_cfg(loss_mode="oim"))
        # floor_count(0.99999999999 * 9) is 9: every row held out, none fit;
        # a class of 1000 rows keeps one, but the 9-row class beside it
        # would train on no row, so that split is refused too, by class
        almost_all = small_cfg(loss_mode="oim", holdout_fraction=1 - 1e-11)
        with pytest.raises(DataError, match="^holdout_fraction 0.99999999999 leaves no row"):
            check_feasible(nine, None, almost_all)
        big = Dataset(
            features=np.zeros((1009, 8), dtype=np.float32),
            labels=np.repeat([0, 1], [9, 1000]), class_count=2, provenance="big",
        )
        with pytest.raises(
            DataError,
            match="^holdout_fraction 0.99999999999 leaves no row to fit in train class 0$",
        ):
            check_feasible(big, None, almost_all)
        # a class with no rows has none to fit either way
        check_feasible(replace(big, labels=np.zeros(1009, dtype=np.int64)), None,
                       almost_all)

    @pytest.mark.parametrize("mode", ["triplet", "oim", "cross_entropy"])
    def test_epoch_draw_beyond_the_bound_refused(self, mode):
        # an epoch draw holds at most 4 P K values a step, 64 at P x K =
        # 4 x 4, so 2**22 iterations fill the 2**28-value budget exactly
        small_cfg(loss_mode=mode, iterations=2**22)
        with pytest.raises(
            ConfigurationError,
            match=r"^iterations = 4194305 x 4 x p_classes x k_samples would size "
            r"an array of 268435520 values",
        ):
            small_cfg(loss_mode=mode, iterations=2**22 + 1)

    def test_encoder_arrays_beyond_the_bound_refused(self):
        # the widths of a config and of a split size the first weight
        # matrix and the class table: each is refused above 2**28 values
        with pytest.raises(
            ConfigurationError, match=r"^hidden_dims\[0\] = 20000 x hidden_dims\[1\] = 20000 "
        ):
            small_cfg(hidden_dims=(20000, 20000))
        with pytest.raises(ConfigurationError, match=r"^embed_dim = 268435457 would"):
            small_cfg(hidden_dims=(), embed_dim=2**28 + 1)
        small_cfg(hidden_dims=(2**14,), embed_dim=2**14)  # 2**28 exactly
        wide = Dataset(
            features=np.zeros((4, 2**15), dtype=np.float32),
            labels=np.arange(4) % 2, class_count=2, provenance="wide",
        )
        with pytest.raises(
            ConfigurationError, match=r"^input_dim = 32768 x hidden_dims\[0\] = 16384 "
        ):
            check_feasible(wide, None, small_cfg(hidden_dims=(2**14,)))
        with pytest.raises(
            ConfigurationError, match=r"^input_dim = 32768 x embed_dim = 16384 "
        ):
            check_feasible(wide, None, small_cfg(hidden_dims=(), embed_dim=2**14))
        many = Dataset(
            features=np.zeros((2**15, 1), dtype=np.float32),
            labels=np.arange(2**15), class_count=2**15, provenance="many",
        )
        with pytest.raises(
            ConfigurationError, match=r"^class_count = 32768 x embed_dim = 16384 "
        ):
            check_feasible(many, None, small_cfg(embed_dim=2**14))

    def test_holdout_float_product_does_not_undershoot(self):
        # 0.29 * 100 is 28.999999999999996 in float: hold out 29, not 28
        labels = np.repeat(np.arange(2), 100)
        keep, held = _holdout_rows(labels, 0.29, seed=0)
        assert np.bincount(labels[held]).tolist() == [29, 29]
        assert keep.size == 2 * 71
        assert np.array_equal(np.union1d(keep, held), np.arange(200))

    def test_declared_classes_beyond_rows_refused_before_bincount(self):
        # 2^20 declared classes would take an 8 MB bincount of class sizes
        tr, va, _ = make_splits()
        huge = replace(
            tr, features=tr.features[:5], labels=tr.labels[:5], class_count=2**20
        )
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with pytest.raises(DataError, match="declares 1048576 classes but has"):
                train(huge, va, small_cfg())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / 1e6 < 1.0


class TestTripletTraining:
    def test_learns_separable_data(self):
        tr, va, _ = make_splits(spread=0.1, scale=5.0)
        cfg = small_cfg(
            epochs=6, interference=InterferenceConfig(enabled=False), seed=3
        )
        _, _, logs = train(tr, va, cfg)
        assert logs[-1].val_acc > 0.9

    def test_separable_loss_drops_below_tenth_of_margin(self):
        # trivially separable: loss must fall well under margin within the
        # epoch budget when nothing perturbs the anchors
        tr, va, _ = make_splits(spread=0.05, scale=8.0)
        cfg = small_cfg(
            epochs=20, iterations=25, learning_rate=0.002, p_classes=3,
            k_samples=3, interference=InterferenceConfig(enabled=False),
            triplet=TripletConfig(margin=0.5), seed=4,
        )
        _, _, logs = train(tr, va, cfg)
        assert min(log.train_loss for log in logs) < 0.5 / 10

    @pytest.mark.parametrize(
        "head",
        [
            dict(),
            dict(mining="preformed"),
            dict(loss_mode="oim", learning_rate=0.02),
            dict(loss_mode="cross_entropy", learning_rate=0.02),
        ],
        ids=["batch_all", "preformed", "oim", "cross_entropy"],
    )
    def test_lambda_zero_bitwise_equals_disabled(self, head):
        tr, va, _ = make_splits()
        on = small_cfg(
            interference=InterferenceConfig(strength=0.0, enabled=True), **head
        )
        off = small_cfg(
            interference=InterferenceConfig(strength=0.5, enabled=False), **head
        )
        p_on, t_on, logs_on = train(tr, va, on)
        p_off, t_off, logs_off = train(tr, va, off)
        for a, b in zip(p_on.weights, p_off.weights):
            assert np.array_equal(a, b)
        for a, b in zip(p_on.biases, p_off.biases):
            assert np.array_equal(a, b)
        assert np.array_equal(t_on.table, t_off.table)
        assert logs_on == logs_off

    def test_deterministic_per_seed(self):
        tr, va, _ = make_splits()
        a = train(tr, va, small_cfg(seed=7))
        b = train(tr, va, small_cfg(seed=7))
        for wa, wb in zip(a[0].weights, b[0].weights):
            assert np.array_equal(wa, wb)
        assert a[2] == b[2]

    def test_seed_changes_run(self):
        tr, va, _ = make_splits()
        a = train(tr, va, small_cfg(seed=7))
        b = train(tr, va, small_cfg(seed=8))
        assert not np.array_equal(a[0].weights[0], b[0].weights[0])

    def test_divergence_aborts_with_location(self):
        tr, va, _ = make_splits()
        cfg = small_cfg(learning_rate=50.0, epochs=10, iterations=50)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="epoch"):
                train(tr, va, cfg)

    def test_tac_rows_finite_and_normalizable(self):
        tr, va, _ = make_splits()
        _, tac, _ = train(tr, va, small_cfg(tac_normalize=True))
        assert np.all(np.isfinite(tac.table))
        norms = np.linalg.norm(tac.table, axis=1)
        # classes seen at least once have unit rows
        assert np.all(np.abs(norms - 1.0) < 1e-5)

    def test_epoch_indices_monotone(self):
        tr, va, _ = make_splits()
        _, _, logs = train(tr, va, small_cfg(epochs=4))
        assert [log.epoch for log in logs] == [0, 1, 2, 3]
        assert all(log.stage == 1 for log in logs)

    def test_embeds_each_split_once_per_epoch_and_draws_episodes_once(
        self, monkeypatch
    ):
        tr, va, _ = make_splits()
        cfg = small_cfg()
        real_layers, real_draw = cirlab.nn._layers, cirlab.trainer.episode_rows
        embedded, episode_draws = [], []

        def counting_layers(params, x):
            embedded.append(len(x))
            return real_layers(params, x)

        def counting_draw(labels, *args):
            episode_draws.append(args)
            return real_draw(labels, *args)

        for name, module in list(sys.modules.items()):
            # every cirlab module that holds the encoder's passes: `forward`
            # runs them after its checks, the training step directly
            if name.startswith("cirlab") and vars(module).get("_layers") is real_layers:
                monkeypatch.setattr(module, "_layers", counting_layers)
        monkeypatch.setattr(cirlab.trainer, "episode_rows", counting_draw)
        train(tr, va, cfg)
        assert embedded.count(tr.size) == cfg.epochs
        assert embedded.count(va.size) == cfg.epochs
        assert len(embedded) == cfg.epochs * (cfg.iterations + 2)
        # the train-proxy set and the validation set, each drawn once
        assert len(episode_draws) == 2

    def test_zero_epochs_returns_init(self):
        tr, va, _ = make_splits()
        params, tac, logs = train(tr, va, small_cfg(epochs=0))
        assert logs == []
        assert params.layer_dims == (8, 32, 8)

    def test_noise_arm_runs(self):
        tr, va, _ = make_splits()
        cfg = small_cfg(
            interference=InterferenceConfig(strength=0.5, enabled=False),
            noise=NoiseConfig(sigma=None, enabled=True),
        )
        _, _, logs = train(tr, va, cfg)
        assert len(logs) == 3
        assert all(np.isfinite(log.train_loss) for log in logs)

    def test_preformed_step_gradients_match_finite_differences(self):
        # the hinge and the (1 - strength) pull-back of the blended anchors,
        # through the shared step; a fresh rng per call fixes the draws
        tr, _, _ = make_splits()
        cfg = small_cfg(
            mining="preformed", activation="tanh", hidden_dims=(5,), embed_dim=3,
            p_classes=2, k_samples=3, triplet=TripletConfig(margin=2.0),
        )
        feats = tr.features.astype(np.float64)
        tac = tac_init(tr.class_count, 3, seed=2)
        parts = _mode_parts(cfg, tr.labels, tr.class_count)

        def closure(p):
            rng = np.random.default_rng(9)
            out = single_step(p, None, tac, feats, tr.labels, parts, cfg, rng)
            return out[2], out[4]

        params = init_params((8, 5, 3), "tanh", seed=4)
        assert closure(params)[0] > 0.0
        assert grad_check(params, closure) < 1e-5

    def test_preformed_mining_learns(self):
        tr, va, _ = make_splits(spread=0.1, scale=5.0)
        cfg = small_cfg(
            mining="preformed", epochs=6,
            interference=InterferenceConfig(enabled=False), seed=5,
        )
        _, _, logs = train(tr, va, cfg)
        assert logs[-1].val_acc > 0.9


class TestPreformedSampler:
    """The preformed triplets: three array draws over the rows sorted by
    class, on splits whose classes differ in size and whose rows are not
    grouped by class."""

    SIZES = (2, 3, 7, 4, 11)

    def labels(self, seed):
        labels = np.repeat(np.arange(len(self.SIZES)), self.SIZES)
        return np.random.default_rng(seed).permutation(labels)

    def sample(self, labels, rng, p=2, k=2):
        # one step of the epoch draw, with no row designated: the batch alone
        cfg = small_cfg(mining="preformed", p_classes=p, k_samples=k,
                        interference=InterferenceConfig(fraction=0.0))
        rows, decoys = _mode_parts(cfg, labels, len(self.SIZES)).epoch(rng, 1)
        assert decoys.shape == (1, 0)
        return rows[0].reshape(3, p * k)

    @pytest.mark.parametrize("seed", range(4))
    def test_triplets_and_coverage(self, seed):
        labels = self.labels(seed)
        rng = np.random.default_rng(seed)
        seen = [set(), set(), set()]
        for _ in range(300):
            a, p, n = self.sample(labels, rng)
            assert (a != p).all()
            assert (labels[a] == labels[p]).all()
            assert (labels[n] != labels[a]).all()
            for slot, rows in zip(seen, (a, p, n)):
                slot.update(rows.tolist())
        # every row can be an anchor, a positive (every class has a second
        # row) and a negative (for the anchors of every other class)
        assert seen == [set(range(len(labels)))] * 3

    @pytest.mark.parametrize("seed", range(4))
    def test_three_integers_calls(self, seed):
        labels = self.labels(seed)
        b = 4 * 2
        rng = np.random.default_rng(seed)
        got = self.sample(labels, rng, p=4)
        twin = np.random.default_rng(seed)
        order = np.argsort(labels, kind="stable")
        a = twin.integers(0, len(labels), size=b)
        k = np.bincount(labels)[labels[order[a]]]
        twin.integers(0, k - 1)
        twin.integers(0, len(labels) - k)
        assert (got[0] == order[a]).all()
        assert rng.bit_generator.state == twin.bit_generator.state


EPOCH_HEADS = {
    "batch_all": {},
    "preformed": dict(mining="preformed"),
    "oim": dict(loss_mode="oim"),
    "cross_entropy": dict(loss_mode="cross_entropy"),
}


class TestEpochDraw:
    """Every head draws from the training stream through one call,
    `_Parts.epoch(rng, steps)`: int64 rows and decoys, one row a step."""

    LABELS = np.random.default_rng(0).permutation(np.repeat(np.arange(6), [5, 6, 7, 5, 8, 9]))
    ROWS = {"batch_all": 6, "preformed": 18, "oim": 6, "cross_entropy": 6}

    def parts(self, head, fraction):
        cfg = small_cfg(p_classes=3, k_samples=2, **EPOCH_HEADS[head],
                        interference=InterferenceConfig(fraction=fraction))
        return _mode_parts(cfg, self.LABELS, 7)

    def rows_alone(self, head, rng):
        """The leading six rows of three batches of this head, drawn as
        one-batch draws with no decoy between them."""
        labels, n = self.LABELS, len(self.LABELS)
        order, out = np.argsort(labels, kind="stable"), []
        for _ in range(3):
            if head == "batch_all":
                out.append(pk_batch(ClassIndex(labels), PKSpec(3, 2), rng))
            elif head == "preformed":
                # an anchor, a positive and a negative draw (TestPreformedSampler)
                a = rng.integers(0, n, size=6)
                k = np.bincount(labels)[labels[order[a]]]
                rng.integers(0, k - 1)
                rng.integers(0, n - k)
                out.append(order[a])
            else:
                out.append(rng.choice(n, size=6, replace=False))
        return np.array(out)

    @pytest.mark.parametrize("head", EPOCH_HEADS)
    def test_rows_and_decoys_of_every_step(self, head):
        rows, decoys = self.parts(head, 0.5).epoch(np.random.default_rng(3), 3)
        assert rows.dtype == decoys.dtype == np.int64
        assert rows.shape == (3, self.ROWS[head]) and decoys.shape == (3, 3)
        # one wrong class for each of the three designated anchors
        assert ((decoys >= 0) & (decoys < 7) & (decoys != self.LABELS[rows[:, :3]])).all()

    @pytest.mark.parametrize("head", EPOCH_HEADS)
    def test_no_designated_row_draws_no_decoy(self, head):
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        rows, decoys = self.parts(head, 0.0).epoch(rng, 3)
        assert rows.dtype == decoys.dtype == np.int64
        assert rows.shape == (3, self.ROWS[head]) and decoys.shape == (3, 0)
        assert np.array_equal(rows[:, :6], self.rows_alone(head, twin))
        assert rng.bit_generator.state == twin.bit_generator.state


class TestClassifierModes:
    def test_oim_learns(self):
        tr, va, _ = make_splits(spread=0.1, scale=5.0)
        cfg = small_cfg(
            loss_mode="oim", epochs=8, iterations=30, learning_rate=0.05,
            interference=InterferenceConfig(enabled=False), seed=6,
        )
        _, _, logs = train(tr, va, cfg)
        # 6 train classes -> chance ~ 0.17
        assert logs[-1].val_acc > 0.5
        assert 0.0 <= logs[-1].train_acc <= 1.0

    def test_cross_entropy_learns(self):
        tr, va, _ = make_splits(spread=0.1, scale=5.0)
        cfg = small_cfg(
            loss_mode="cross_entropy", epochs=8, iterations=30,
            learning_rate=0.05, interference=InterferenceConfig(enabled=False),
            seed=7,
        )
        _, _, logs = train(tr, va, cfg)
        assert logs[-1].val_acc > 0.5

    def test_oim_with_interference_runs(self):
        tr, va, _ = make_splits()
        cfg = small_cfg(
            loss_mode="oim", interference=InterferenceConfig(strength=0.1),
            learning_rate=0.02,
        )
        _, _, logs = train(tr, va, cfg)
        assert len(logs) == 3


class TestTwoStage:
    def cfg_pair(self, stage2_epochs=3, stage2=None, **stage1_overrides):
        stage2 = stage2 or small_cfg(epochs=stage2_epochs, seed=11)
        merged = dict(
            loss_mode="cross_entropy", epochs=3, iterations=20,
            learning_rate=0.02, seed=11,
            interference=InterferenceConfig(enabled=False), stage2=stage2,
        )
        merged.update(stage1_overrides)
        return small_cfg(**merged)

    def test_stage_markers(self):
        tr, va, _ = make_splits()
        _, _, logs = train(tr, va, self.cfg_pair())
        stages = [log.stage for log in logs]
        assert stages == [1, 1, 1, 2, 2, 2]
        assert [log.epoch for log in logs] == [0, 1, 2, 3, 4, 5]

    def test_stage2_counts_its_own_epochs_for_the_rate(self):
        # stage 2 decays after its own epoch 1 (counted from 0), while the
        # log's epoch column continues from stage 1's three epochs; on the
        # log's count stage 2 would start at 0.004 * 0.5**2
        tr, va, _ = make_splits()
        stage2 = small_cfg(
            epochs=3, seed=11, learning_rate=0.004, decay_start_epoch=1,
            decay_factor=0.5,
        )
        cfg = self.cfg_pair(stage2=stage2, decay_start_epoch=1, decay_factor=0.9)
        _, _, logs = train(tr, va, cfg)
        assert [(log.epoch, log.stage, log.lr) for log in logs] == [
            (0, 1, 0.02), (1, 1, 0.02), (2, 1, 0.02 * 0.9),
            (3, 2, 0.004), (4, 2, 0.004), (5, 2, 0.004 * 0.5),
        ]
        csv_lr = [row.split(",")[2] for row in logs_to_csv(logs).split("\n")[4:7]]
        assert csv_lr == ["0.004", "0.004", "0.002"]

    def test_stage2_the_split_cannot_serve_refused_before_stage1_trains(self, monkeypatch):
        # stage 2 draws PK batches of 8 classes from a 6-class split; the
        # refusal came after stage 1 had trained
        tr, va, _ = make_splits()
        cfg = self.cfg_pair(stage2=small_cfg(seed=11, p_classes=8))

        def step(*args):
            raise AssertionError("stage 1 trained")

        monkeypatch.setattr(cirlab.trainer, "_step", step)
        for check in (train, check_feasible):
            with pytest.raises(DataError, match="^train split has 6 classes, batches need 8$"):
                check(tr, va, cfg)

    def test_stage2_divergence_names_its_stage(self):
        # the epoch is stage 2's own, as its rate counts it
        tr, va, _ = make_splits()
        cfg = self.cfg_pair(stage2=small_cfg(learning_rate=50.0, epochs=10, iterations=50))
        params1, _, _ = train(tr, va, replace(cfg, stage2=None))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as alone:
                train(tr, va, cfg.stage2, initial_params=params1)
            with pytest.raises(NumericError) as chained:
                train(tr, va, cfg)
        assert str(alone.value).startswith("non-finite loss or embeddings at epoch ")
        assert str(chained.value) == f"stage 2: {alone.value}"

    def test_stage2_activation_must_match(self):
        with pytest.raises(
            ConfigurationError, match="stage2 must keep the stage-1 activation"
        ):
            self.cfg_pair(activation="tanh")

    def test_zero_stage2_equals_stage1_encoder(self):
        tr, va, _ = make_splits()
        cfg = self.cfg_pair(stage2_epochs=0)
        params2, _, logs = train(tr, va, cfg)
        stage1_params, _, _ = train(
            tr, va, small_cfg(
                loss_mode="cross_entropy", epochs=3, iterations=20,
                learning_rate=0.02, seed=11,
                interference=InterferenceConfig(enabled=False),
            )
        )
        for a, b in zip(params2.weights, stage1_params.weights):
            assert np.array_equal(a, b)
        assert [log.stage for log in logs] == [1, 1, 1]

    def test_wrong_stage1_mode_rejected(self):
        tr, va, _ = make_splits()
        with pytest.raises(ConfigurationError):
            train(tr, va, small_cfg(stage2=small_cfg()))

    def test_architecture_must_match(self):
        tr, va, _ = make_splits()
        stage2 = small_cfg(embed_dim=4)
        with pytest.raises(ConfigurationError):
            train(
                tr, va,
                small_cfg(loss_mode="cross_entropy", learning_rate=0.02, stage2=stage2),
            )


class TestLogsCsv:
    def test_header_and_shape(self):
        logs = [
            EpochLog(0, 1, 0.1, 1.0, 0.5, 0.4, 2.0, 1.5),
            EpochLog(1, 1, 0.1, 0.9, 0.6, 0.5, 2.1, None),
        ]
        text = logs_to_csv(logs)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert lines[2].endswith(",")  # absent ratio -> empty field

    def test_round_trip_floats(self):
        logs = [EpochLog(0, 1, 0.0002, 1.2345678901234, 0.5, 0.4, 2.0, 1.01)]
        line = logs_to_csv(logs).strip().split("\n")[1]
        fields = line.split(",")
        assert float(fields[3]) == 1.2345678901234

    def test_deterministic(self):
        logs = [EpochLog(0, 1, 0.1, 1.0, 0.5, 0.4, 2.0, 1.5)]
        assert logs_to_csv(logs) == logs_to_csv(logs)


class TestEvaluateCheckpoint:
    def trained(self):
        tr, va, te = make_splits(spread=0.1, scale=5.0)
        cfg = small_cfg(epochs=4, interference=InterferenceConfig(enabled=False))
        params, tac, _ = train(tr, va, cfg)
        return params, tac, tr, te

    def test_episodic_report(self):
        params, tac, _, te = self.trained()
        episodes = episode_rows(te.labels, 3, 1, 5, 30, 1)
        rows = evaluate_checkpoint(params, tac, te, "episodic", episodes=episodes)
        assert len(rows) == 1
        name, value, ci = rows[0]
        assert name == "episodic_accuracy"
        assert 0.0 <= value <= 1.0 and ci >= 0.0

    def test_retrieval_report_schema(self):
        params, tac, _, te = self.trained()
        rows = evaluate_checkpoint(params, tac, te, "retrieval")
        names = [r[0] for r in rows]
        assert names == ["map", "cmc_rank1"]
        assert all(0.0 <= r[1] <= 1.0 for r in rows)

    def test_retrieval_first_row_per_class_is_query(self):
        # hand-checkable split: rows grouped by class, so queries must be
        # the first row of each class
        params, tac, tr, te = self.trained()
        z, _ = forward(params, te.features)
        first_rows = [int(np.flatnonzero(te.labels == c)[0]) for c in range(te.class_count)]
        gallery = np.setdiff1d(np.arange(te.size), first_rows)
        from cirlab.evaluate import retrieval_scores

        expected = retrieval_scores(
            z[first_rows], te.labels[first_rows], z[gallery], te.labels[gallery]
        )[0]
        rows = evaluate_checkpoint(params, tac, te, "retrieval")
        assert rows[0][1] == expected

    def test_classification_requires_matching_classes(self):
        params, tac, tr, te = self.trained()
        rows = evaluate_checkpoint(params, tac, tr, "classification")
        assert rows[0][0] == "classification_accuracy"
        with pytest.raises(ConfigurationError):
            evaluate_checkpoint(params, tac, te, "classification")

    def test_unknown_protocol(self):
        params, tac, tr, _ = self.trained()
        with pytest.raises(ConfigurationError):
            evaluate_checkpoint(params, tac, tr, "verification")

    def test_classification_of_an_empty_split_refused(self):
        # a mean over no rows would print nan
        params, tac, tr, _ = self.trained()
        empty = replace(tr, features=tr.features[:0], labels=tr.labels[:0])
        with pytest.raises(DataError, match="classification needs at least one row"):
            evaluate_checkpoint(params, tac, empty, "classification")

    def test_episodic_deterministic(self):
        params, tac, _, te = self.trained()
        a = evaluate_checkpoint(params, tac, te, "episodic",
                                episodes=episode_rows(te.labels, 3, 1, 5, 25, 4))
        b = evaluate_checkpoint(params, tac, te, "episodic",
                                episodes=episode_rows(te.labels, 3, 1, 5, 25, 4))
        assert a == b

    def test_episodic_scores_the_given_rows(self):
        params, tac, _, te = self.trained()
        episodes = episode_rows(te.labels, 3, 2, 4, 25, 4)
        res = episodic_accuracy(forward(params, te.features)[0], episodes)
        given = evaluate_checkpoint(params, tac, te, "episodic", episodes=episodes)
        assert given == [("episodic_accuracy", res.mean, res.ci95)]

    def test_episode_rows_go_with_the_episodic_protocol_only(self):
        params, tac, tr, te = self.trained()
        with pytest.raises(ConfigurationError, match="episodic needs episode rows"):
            evaluate_checkpoint(params, tac, te, "episodic")
        episodes = episode_rows(te.labels, 3, 1, 5, 25, 4)
        for protocol, split in (("retrieval", te), ("classification", tr)):
            with pytest.raises(ConfigurationError, match="takes no episode rows"):
                evaluate_checkpoint(params, tac, split, protocol, episodes=episodes)
