"""Lockstep training against separate runs, bit for bit.

Each stacked layer (forward, backward, SGD step, batch-all loss, table
update) is checked slice by slice against the same call on one arm, and
`train(..., arms=...)` against one `train` call per config: params,
table, epoch logs and the final state of every training generator. A
lockstep call raises the first error any arm hits; the reproduce helper
then trains each arm alone, so a failing arm fails with its own exception
and leaves the others' bits alone.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import cirlab.sampling
import cirlab.trainer
from cirlab import reproduce
from cirlab.datagen import GeneratorSpec, gen_gaussian_mixture, split_classes
from cirlab.errors import ConfigurationError, DataError, NumericError, ShapeError
from cirlab.interference import InterferenceConfig, NoiseConfig
from cirlab.losses import TripletConfig, batch_all_triplet_loss, triplet_masks
from cirlab.nn import (
    backward,
    forward,
    init_params,
    input_gradient,
    sgd_step,
    stack_params,
)
from cirlab.sampling import child_seed
from cirlab.tac import ClassTable, tac_update
from cirlab.trainer import TrainConfig, train
from oracles import one_batch_loss
from test_reproduce import TINY


def bits(a):
    a = np.asarray(a, dtype=np.float64)
    return a.shape, a.tobytes()


def same(a, b):
    return bits(a) == bits(b)


def same_params(a, b):
    return a.layer_dims == b.layer_dims and all(
        same(x, y) for x, y in zip(a.weights + a.biases, b.weights + b.biases)
    )


class TestStackedLayers:
    @pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
    @pytest.mark.parametrize("dims", [(8, 12, 5), (32, 64, 16), (3, 2), (6, 7, 5, 4)])
    def test_forward_backward_sgd_per_slice(self, dims, activation):
        arms = [init_params(dims, activation, seed=s) for s in range(3)]
        stacked = stack_params(arms)
        rng = np.random.default_rng(len(dims))
        x = rng.standard_normal((3, 10, dims[0]))
        g = rng.standard_normal((3, 10, dims[-1]))
        z, cache = forward(stacked, x)
        grads = backward(stacked, cache, g)
        dx = input_gradient(stacked, cache, g)
        stepped = sgd_step(stacked, grads, 0.05)
        for s, params in enumerate(arms):
            assert same_params(stacked.arm(s), params)
            z1, cache1 = forward(params, x[s])
            grads1 = backward(params, cache1, g[s])
            assert same(z[s], z1)
            assert same(dx[s], input_gradient(params, cache1, g[s]))
            for got, want in zip(grads.weights + grads.biases,
                                 grads1.weights + grads1.biases):
                assert same(got[s], want)
            assert same_params(stepped.arm(s), sgd_step(params, grads1, 0.05))

    def test_shapes_refused(self):
        stacked = stack_params([init_params((4, 3), seed=s) for s in range(2)])
        with pytest.raises(ShapeError, match="one 2-D batch each"):
            forward(stacked, np.zeros((5, 4)))
        with pytest.raises(ShapeError, match="one 2-D batch each"):
            forward(stacked, np.zeros((3, 5, 4)))
        with pytest.raises(ShapeError, match="must be 2-D"):
            forward(stacked.arm(0), np.zeros((2, 5, 4)))
        with pytest.raises(ShapeError, match="share dims and activation"):
            stack_params([init_params((4, 3)), init_params((4, 2))])

    @pytest.mark.parametrize("squared", [True, False])
    @pytest.mark.parametrize("reduction", ["mean_all", "mean_nonzero"])
    @pytest.mark.parametrize("p,k", [(8, 4), (3, 2), (5, 3)])
    def test_batch_all_loss_per_slice(self, p, k, reduction, squared):
        cfg = TripletConfig(margin=0.5, reduction=reduction, squared=squared)
        labels = np.repeat(np.arange(p), k)
        masks = triplet_masks(labels)
        rng = np.random.default_rng(p * k)
        z = rng.standard_normal((4, p * k, 6))
        zt = z + 0.3 * rng.standard_normal(z.shape)
        # arm 2 has no active triple: each class sits on one far point
        z[2] = 1e4 * labels[:, None]
        zt[2] = z[2]
        # arm 3 is non-finite, as a diverged arm is
        z[3, 0, 0] = np.nan
        with np.errstate(invalid="ignore"):
            got = batch_all_triplet_loss(z, zt, cfg, masks)
            alone = [one_batch_loss(z[s], zt[s], labels, cfg) for s in range(4)]
        assert alone[2].num_active == 0
        for s, want in enumerate(alone):
            assert type(want.loss) is float
            assert same(got.loss[s], want.loss)
            assert same(got.grad_anchor[s], want.grad_anchor)
            assert same(got.grad_other[s], want.grad_other)
        assert type(got.num_triplets) is int and type(got.num_active) is int
        assert got.num_triplets == sum(r.num_triplets for r in alone)
        assert got.num_active == sum(r.num_active for r in alone)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_table_update_per_slice(self, normalize):
        rng = np.random.default_rng(1)
        p, k, c, d = 4, 3, 9, 5
        table = rng.standard_normal((3, c, d))
        labels = np.stack([np.repeat(rng.permutation(c)[:p], k) for _ in range(3)])
        z = rng.standard_normal((3, p * k, d))
        got = tac_update(ClassTable(table, 0.5), z, labels, normalize, class_rows=k)
        assert same(table, np.asarray(table))  # the input is untouched
        for s in range(3):
            want = tac_update(ClassTable(table[s], 0.5), z[s], labels[s], normalize,
                              class_rows=k)
            assert same(got.table[s], want.table)
        # the general path on shuffled labels with repeats and absent classes
        labels = rng.integers(0, c, size=(3, p * k))
        got = tac_update(ClassTable(table, 0.5), z, labels, normalize)
        for s in range(3):
            want = tac_update(ClassTable(table[s], 0.5), z[s], labels[s], normalize)
            assert same(got.table[s], want.table)


def splits(seed=0, classes=12, per_class=20):
    ds = gen_gaussian_mixture(GeneratorSpec(
        num_classes=classes, samples_per_class=per_class, input_dim=8,
        spread=0.4, center_scale=2.0, seed=seed,
    ))
    return split_classes(ds, (0.5, 0.25, 0.25), seed=seed)


def recorded_generators(monkeypatch, *seeds):
    """Record every generator made from each of `seeds`, in the order made:
    one list per seed."""
    made = {seed: [] for seed in seeds}
    real = np.random.default_rng

    def default_rng(*args, **kwargs):
        rng = real(*args, **kwargs)
        if args and args[0] in made:
            made[args[0]].append(rng)
        return rng

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    return made.values()


def states(generators):
    return [rng.bit_generator.state for rng in generators]


def assert_lockstep_matches_separate_runs(monkeypatch, train_ds, val_ds, configs):
    """Lockstep makes one training generator for every arm and one noise
    generator per arm; each config's run alone makes one of each, and
    ends each in the state lockstep leaves the arm's in."""
    seed = configs[0].seed
    made, noise = recorded_generators(
        monkeypatch, child_seed(seed, 2), child_seed(seed, 7)
    )
    lockstep = train(train_ds, val_ds, configs[0], arms=tuple(configs[1:]))
    stream, noise_states = states(made), states(noise)
    assert len(lockstep) == len(configs) == len(noise_states)
    assert len(stream) == 1
    for cfg, got, noise_state in zip(configs, lockstep, noise_states):
        made.clear()
        noise.clear()
        want = train(train_ds, val_ds, cfg)
        assert same_params(got[0], want[0])
        assert same(got[1].table, want[1].table) and got[1].momentum == want[1].momentum
        assert got[2] == want[2] and len(got[2]) == cfg.epochs
        assert states(made) == stream
        assert states(noise) == [noise_state]


HEADS = {
    "batch_all": dict(loss_mode="triplet"),
    "preformed": dict(loss_mode="triplet", mining="preformed"),
    "oim": dict(loss_mode="oim"),
    "cross_entropy": dict(loss_mode="cross_entropy"),
}


def small_config(head, **blend):
    return TrainConfig(
        epochs=2, iterations=15, seed=3, hidden_dims=(16,), embed_dim=6,
        learning_rate=0.01, p_classes=4, k_samples=3, eval_n_way=3,
        eval_q_queries=3, eval_episodes=5,
        interference=InterferenceConfig(**blend), **HEADS[head],
    )


def as_noise(cfg):
    return replace(
        cfg, interference=replace(cfg.interference, enabled=False),
        noise=NoiseConfig(enabled=True),
    )


def as_no_reg(cfg):
    return replace(cfg, interference=replace(cfg.interference, enabled=False))


class TestLockstepMatchesSeparateRuns:
    @pytest.mark.parametrize("settings", [
        TINY, reproduce.ReproduceSettings(seeds=(0,), epochs=2),
    ], ids=["tiny", "default_cell"])
    def test_three_reproduce_arms(self, monkeypatch, settings):
        seed = settings.seeds[0]
        inputs = reproduce._prepare(settings, seed)
        configs = [reproduce._train_config(settings, arm, seed) for arm in reproduce.ARMS]
        assert_lockstep_matches_separate_runs(
            monkeypatch, inputs.train_ds, inputs.val_ds, configs
        )

    def test_reproduce_arms_share_every_batch_and_decoy_draw(self, monkeypatch):
        # the paired design: in the seed's one lockstep call every arm
        # trains on the same rows, from one draw of an epoch's batches and
        # decoys
        seed = TINY.seeds[0]
        inputs = reproduce._prepare(TINY, seed)
        configs = [reproduce._train_config(TINY, arm, seed) for arm in reproduce.ARMS]
        calls, ys = Counter(), []

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(reproduce, "train")
        counted(cirlab.trainer, "pk_epoch")
        counted(cirlab.sampling, "negative_classes")
        real_step = cirlab.trainer._step

        def step(*args):
            out = real_step(*args)
            ys.append(out.y)
            return out

        monkeypatch.setattr(cirlab.trainer, "_step", step)
        outcomes = reproduce._train_arms(inputs, configs)
        assert all(type(o) is tuple for o in outcomes)
        steps = configs[0].epochs * configs[0].iterations
        assert calls == {"train": 1, "pk_epoch": configs[0].epochs}
        assert len(ys) == steps
        assert all(y.shape[0] == 3 and (y == y[0]).all() for y in ys)

    @pytest.mark.parametrize("head", HEADS)
    def test_two_arms_of_each_head(self, monkeypatch, head):
        tr, va, _ = splits()
        cir = small_config(head, strength=0.5, fraction=0.5)
        assert_lockstep_matches_separate_runs(monkeypatch, tr, va, [cir, as_noise(cir)])

    @pytest.mark.parametrize("head", HEADS)
    def test_no_reg_and_two_blend_strengths_share_one_stream(self, monkeypatch, head):
        tr, va, _ = splits()
        weak = small_config(head, strength=0.2, fraction=0.5)
        strong = replace(weak, interference=replace(weak.interference, strength=0.7))
        assert_lockstep_matches_separate_runs(
            monkeypatch, tr, va, [as_no_reg(weak), weak, strong]
        )

    @pytest.mark.parametrize("head", HEADS)
    def test_each_noise_arm_draws_from_a_generator_of_its_own(self, monkeypatch, head):
        tr, va, _ = splits()
        cir = small_config(head, strength=0.5, fraction=1.0)
        fixed = replace(as_noise(cir), noise=NoiseConfig(sigma=0.3, enabled=True))
        assert_lockstep_matches_separate_runs(
            monkeypatch, tr, va, [cir, as_noise(cir), as_no_reg(cir), fixed]
        )

    def test_a_noise_arm_designating_no_rows(self, monkeypatch):
        # it draws no noise, and so trains as no_reg does
        tr, va, _ = splits()
        cir = small_config("batch_all", strength=0.5, fraction=0.0)
        noise = as_noise(cir)
        assert_lockstep_matches_separate_runs(monkeypatch, tr, va, [cir, noise])
        got, want = train(tr, va, noise), train(tr, va, as_no_reg(cir))
        assert same_params(got[0], want[0]) and got[2] == want[2]


class TestFailingArms:
    def configs(self):
        base = replace(TINY.base, seed=0)
        return [reproduce._train_config(replace(TINY, base=base), arm, 0)
                for arm in reproduce.ARMS]

    def inputs(self):
        tr, va, _ = splits()
        return reproduce.SeedInputs(tr, va, None, None)

    def nan_noise(self, monkeypatch):
        # only the noise arm draws Gaussian noise; make it non-finite
        real = cirlab.trainer.gaussian_perturb
        monkeypatch.setattr(
            cirlab.trainer, "gaussian_perturb",
            lambda features, sigma, rng: real(features, sigma, rng) * np.nan,
        )

    def train_calls(self, monkeypatch):
        """The number of arms of each `train` call the reproduce helper
        makes, in order."""
        calls, real = [], reproduce.train

        def train(*args, arms=(), **kwargs):
            calls.append(1 + len(arms))
            return real(*args, arms=arms, **kwargs)

        monkeypatch.setattr(reproduce, "train", train)
        return calls

    def test_a_failing_arm_fails_alone(self, monkeypatch):
        self.nan_noise(monkeypatch)
        inputs, configs = self.inputs(), self.configs()
        tr, va = inputs.train_ds, inputs.val_ds
        outcomes = reproduce._train_arms(inputs, configs)
        with pytest.raises(NumericError) as alone:
            train(tr, va, configs[2])
        assert type(outcomes[2]) is NumericError
        assert str(outcomes[2]) == str(alone.value)
        assert str(alone.value) == "non-finite loss or embeddings at epoch 0 iteration 0"
        for cfg, got in zip(configs[:2], outcomes[:2]):
            want = train(tr, va, cfg)
            assert same_params(got[0], want[0]) and got[2] == want[2]

    def test_a_failing_stacked_layer_fails_only_the_arm_it_fails_alone(
        self, monkeypatch
    ):
        # from the third step on, the table update fails in any step that
        # pulled a gradient back through the blend, which only the cir arm
        # does: the lockstep run fails, the cir arm fails alone, and the
        # other two train alone to their own bits
        real_step = cirlab.trainer._step
        real_backward = cirlab.trainer.interfere_backward
        real_update = cirlab.trainer.tac_update
        steps, blended = [], []

        def step(*args):
            steps.append(1)
            blended.clear()
            return real_step(*args)

        def interfere_backward(grad, strength):
            blended.append(1)
            return real_backward(grad, strength)

        def tac_update(*args, **kwargs):
            if len(steps) >= 3 and blended:
                raise RuntimeError("table update failed")
            return real_update(*args, **kwargs)

        inputs, configs = self.inputs(), self.configs()
        with monkeypatch.context() as patch:
            patch.setattr(cirlab.trainer, "_step", step)
            patch.setattr(cirlab.trainer, "interfere_backward", interfere_backward)
            patch.setattr(cirlab.trainer, "tac_update", tac_update)
            outcomes = reproduce._train_arms(inputs, configs)
        assert type(outcomes[1]) is RuntimeError
        assert str(outcomes[1]) == "table update failed"
        for i in (0, 2):
            want = train(inputs.train_ds, inputs.val_ds, configs[i])
            assert same_params(outcomes[i][0], want[0]) and outcomes[i][2] == want[2]

    def test_every_arm_failing_returns_every_failure(self):
        inputs = self.inputs()
        configs = [replace(c, learning_rate=1e200, activation="identity", iterations=20)
                   for c in self.configs()]
        with np.errstate(over="ignore", invalid="ignore"):
            outcomes = reproduce._train_arms(inputs, configs)
            for cfg, got in zip(configs, outcomes):
                with pytest.raises(NumericError) as alone:
                    train(inputs.train_ds, inputs.val_ds, cfg)
                assert type(got) is NumericError and str(got) == str(alone.value)

    def test_lockstep_raises_the_first_error_any_arm_hits(self, monkeypatch):
        self.nan_noise(monkeypatch)
        tr, va, _ = splits()
        configs = self.configs()
        with pytest.raises(NumericError) as failure:
            train(tr, va, configs[0], arms=tuple(configs[1:]))
        assert str(failure.value) == (
            "non-finite loss or embeddings at epoch 0 iteration 0"
        )

        # arms 1 and 2 fail in their perturbation, arm 1 first
        def treat(out, z, decoys, tac, cfg, rng):
            arm = "cir" if cfg.interference.enabled else "noise" if cfg.noise else None
            if arm:
                raise RuntimeError(f"{arm} arm failed")
            return real_treat(out, z, decoys, tac, cfg, rng)

        real_treat = cirlab.trainer._treat
        monkeypatch.setattr(cirlab.trainer, "_treat", treat)
        with pytest.raises(RuntimeError, match="^cir arm failed$"):
            train(tr, va, configs[0], arms=tuple(configs[1:]))

    def test_a_failed_lockstep_run_is_followed_by_one_call_per_arm(
        self, monkeypatch
    ):
        self.nan_noise(monkeypatch)
        calls = self.train_calls(monkeypatch)
        outcomes = reproduce._train_arms(self.inputs(), self.configs())
        assert calls == [3, 1, 1, 1]
        assert [type(o) is NumericError for o in outcomes] == [False, False, True]

    def test_shared_failures_are_raised(self):
        tr, va, _ = splits()
        configs = self.configs()
        with pytest.raises(DataError):
            train(tr, None, configs[0], arms=tuple(configs[1:]))

    @pytest.mark.parametrize("change", [
        dict(seed=9), dict(learning_rate=0.5), dict(epochs=1),
        dict(triplet=TripletConfig(margin=1.0)),
    ])
    def test_arms_differ_only_in_the_anchor_treatment(self, change):
        tr, va, _ = splits()
        cfg = self.configs()[0]
        with pytest.raises(ConfigurationError, match="arm 1 differs"):
            train(tr, va, cfg, arms=(replace(cfg, **change),))

    @pytest.mark.parametrize("fraction", [0.0, 0.45, 0.5])
    def test_arms_designate_the_same_rows(self, fraction):
        # one decoy draw serves every arm, so every arm designates the
        # same rows; 0.45 and 0.5 of 12 anchors are both 6 rows, and
        # are still refused
        tr, va, _ = splits()
        cfg = small_config("batch_all", strength=0.5, fraction=1.0)
        other = as_noise(replace(
            cfg, interference=replace(cfg.interference, fraction=fraction)
        ))
        with pytest.raises(ConfigurationError, match="^arm 2 differs"):
            train(tr, va, cfg, arms=(as_no_reg(cfg), other))
