"""Tests for the feed-forward encoder: forward, backward, SGD and its
in-place form on flat buffers, the learning-rate schedule of TrainConfig,
and the finite-difference checker the other gradient tests rely on."""

import numpy as np
import pytest

from cirlab.errors import ConfigurationError, NumericError, ShapeError
from cirlab.nn import (
    ModelParams,
    backward,
    flatten_params,
    forward,
    init_params,
    input_gradient,
    sgd_step,
    sgd_step_in_place,
    stack_params,
)
from cirlab.trainer import TrainConfig
from oracles import grad_check


def single_layer(w, b, activation="identity"):
    w = np.asarray(w, dtype=float)
    b = np.asarray(b, dtype=float)
    return ModelParams(
        layer_dims=(w.shape[1], w.shape[0]),
        weights=[w.copy()],
        biases=[b.copy()],
        activation=activation,
    )


class TestForward:
    def test_known_affine_map(self):
        # identity activation, one layer: z = W x + b computed by hand
        params = single_layer([[2.0, 0.0], [0.0, 3.0]], [1.0, -1.0])
        z, _ = forward(params, np.array([[1.0, 1.0]]))
        assert np.allclose(z, [[3.0, 2.0]])

    def test_linear_net_scales_linearly(self):
        params = init_params((3, 5, 2), activation="identity", seed=7)
        # zero the biases so the map is exactly linear
        params.biases = [np.zeros_like(b) for b in params.biases]
        x = np.random.default_rng(0).normal(size=(4, 3))
        z1, _ = forward(params, x)
        z2, _ = forward(params, 2.0 * x)
        assert np.allclose(z2, 2.0 * z1)

    def test_relu_clamps_hidden_only(self):
        # hidden layer forced negative, output layer negative: output must
        # pass through (linear output), hidden must clamp to zero
        params = ModelParams(
            layer_dims=(1, 1, 1),
            weights=[np.array([[1.0]]), np.array([[1.0]])],
            biases=[np.array([-5.0]), np.array([-2.0])],
            activation="relu",
        )
        z, cache = forward(params, np.array([[1.0]]))
        assert cache.preacts[0][0, 0] == -4.0
        assert cache.inputs[1][0, 0] == 0.0  # clamped hidden activation
        assert z[0, 0] == -2.0  # linear output may go negative

    def test_empty_batch(self):
        params = init_params((4, 3), seed=1)
        z, _ = forward(params, np.empty((0, 4)))
        assert z.shape == (0, 3)

    def test_wrong_width_raises(self):
        params = init_params((4, 3), seed=1)
        with pytest.raises(ShapeError):
            forward(params, np.zeros((2, 5)))

    def test_non_finite_input_raises(self):
        params = init_params((2, 2), seed=1)
        with pytest.raises(NumericError):
            forward(params, np.array([[np.nan, 0.0]]))

    def test_one_dim_input_raises(self):
        params = init_params((2, 2), seed=1)
        with pytest.raises(ShapeError):
            forward(params, np.zeros(2))


class TestInit:
    def test_deterministic(self):
        a = init_params((6, 8, 4), seed=123)
        b = init_params((6, 8, 4), seed=123)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_seed_changes_weights(self):
        a = init_params((6, 8, 4), seed=123)
        b = init_params((6, 8, 4), seed=124)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_biases_zero(self):
        p = init_params((6, 8, 4), seed=0)
        for b in p.biases:
            assert np.all(b == 0.0)

    def test_fan_in_scaling(self):
        # statistical check: sample std tracks 1/sqrt(fan_in)
        rng_dim = 400
        p = init_params((rng_dim, 300), seed=5)
        observed = p.weights[0].std()
        assert abs(observed - 1.0 / np.sqrt(rng_dim)) < 0.005

    def test_too_few_dims_raises(self):
        with pytest.raises(ConfigurationError):
            init_params((4,))

    def test_nonpositive_dim_raises(self):
        with pytest.raises(ConfigurationError):
            init_params((4, 0, 2))

    def test_bad_activation_raises(self):
        with pytest.raises(ConfigurationError):
            init_params((4, 2), activation="sigmoid")


class TestBackward:
    def test_least_squares_gradient_matches_closed_form(self):
        # loss = 0.5 ||W x - y||^2 on a single linear layer;
        # grad_W = (W x - y) x^T, computed independently below.
        rng = np.random.default_rng(42)
        w = rng.normal(size=(3, 4))
        x = rng.normal(size=(1, 4))
        y = rng.normal(size=(1, 3))
        params = single_layer(w, np.zeros(3))
        z, cache = forward(params, x)
        grads = backward(params, cache, z - y)
        expected = np.outer((w @ x[0] - y[0]), x[0])
        assert np.allclose(grads.weights[0], expected)
        assert np.allclose(grads.biases[0], w @ x[0] - y[0])

    def test_batch_gradient_sums_per_sample(self):
        rng = np.random.default_rng(3)
        params = init_params((4, 5, 2), activation="tanh", seed=9)
        x = rng.normal(size=(6, 4))
        g_out = rng.normal(size=(6, 2))
        _, cache_all = forward(params, x)
        total = backward(params, cache_all, g_out)
        acc_w = [np.zeros_like(w) for w in params.weights]
        for i in range(6):
            _, cache_i = forward(params, x[i : i + 1])
            gi = backward(params, cache_i, g_out[i : i + 1])
            for l in range(len(acc_w)):
                acc_w[l] += gi.weights[l]
        for l in range(len(acc_w)):
            assert np.allclose(total.weights[l], acc_w[l])

    def test_grad_output_shape_mismatch_raises(self):
        params = init_params((4, 2), seed=0)
        _, cache = forward(params, np.zeros((3, 4)))
        with pytest.raises(ShapeError):
            backward(params, cache, np.zeros((3, 5)))

    def test_input_gradient_matches_finite_difference(self):
        params = init_params((3, 6, 2), activation="tanh", seed=11)
        x = np.random.default_rng(1).normal(size=(2, 3))
        target = np.random.default_rng(2).normal(size=(2, 2))

        def loss_of(xv):
            z, _ = forward(params, xv)
            return 0.5 * float(np.sum((z - target) ** 2))

        z, cache = forward(params, x)
        gin = input_gradient(params, cache, z - target)
        eps = 1e-6
        for idx in np.ndindex(x.shape):
            xp = x.copy()
            xp[idx] += eps
            xm = x.copy()
            xm[idx] -= eps
            fd = (loss_of(xp) - loss_of(xm)) / (2 * eps)
            assert abs(fd - gin[idx]) < 1e-6


class TestSgd:
    def test_scalar_step(self):
        # W = 1, grad = 2, rate = 0.5 -> W becomes 0
        params = single_layer([[1.0]], [0.0])
        from cirlab.nn import ParamGrads

        grads = ParamGrads(weights=[np.array([[2.0]])], biases=[np.array([0.0])])
        new = sgd_step(params, grads, 0.5)
        assert new.weights[0][0, 0] == 0.0
        # original untouched
        assert params.weights[0][0, 0] == 1.0

    def test_non_finite_grad_raises(self):
        from cirlab.nn import ParamGrads

        params = single_layer([[1.0]], [0.0])
        grads = ParamGrads(weights=[np.array([[np.inf]])], biases=[np.array([0.0])])
        with pytest.raises(NumericError):
            sgd_step(params, grads, 0.1)

    def test_nonpositive_rate_raises(self):
        from cirlab.nn import ParamGrads

        params = single_layer([[1.0]], [0.0])
        grads = ParamGrads(weights=[np.array([[1.0]])], biases=[np.array([0.0])])
        with pytest.raises(ConfigurationError):
            sgd_step(params, grads, 0.0)


def params_of(dims, arms, activation="relu"):
    """Plain params (arms = 0) or a stack of `arms` encoders."""
    if not arms:
        return init_params(dims, activation, seed=1)
    return stack_params([init_params(dims, activation, seed=s) for s in range(arms)])


def batch_of(params, rows=6, seed=0):
    """An input batch and an output gradient shaped for params."""
    lead = params.weights[0].shape[:-2]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((*lead, rows, params.input_dim))
    g = rng.standard_normal((*lead, rows, params.layer_dims[-1]))
    return x, g


def bits_of(arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


LAYOUTS = [((5, 7, 3), 0), ((5, 7, 3), 3), ((4, 3), 3), ((6, 5, 4, 2), 3)]


class TestFlatParams:
    @pytest.mark.parametrize("dims,arms", LAYOUTS)
    def test_views_of_one_buffer_holding_a_copy(self, dims, arms):
        params = params_of(dims, arms)
        flat = flatten_params(params)
        arrays = params.weights + params.biases
        views = flat.params.weights + flat.params.biases
        assert bits_of(views) == bits_of(arrays)
        assert all(np.shares_memory(v, flat.buf) for v in views)
        assert not any(np.shares_memory(a, flat.buf) for a in arrays)
        grads = flat.grads.weights + flat.grads.biases
        assert all(np.shares_memory(g, flat.grad_buf) for g in grads)
        assert [g.shape for g in grads] == [a.shape for a in arrays]
        assert flat.buf.size == flat.grad_buf.size == sum(a.size for a in arrays)

    @pytest.mark.parametrize("dims,arms", LAYOUTS)
    def test_backward_into_out_has_the_bits_of_backward(self, dims, arms):
        params = params_of(dims, arms, "tanh")
        flat = flatten_params(params)
        x, g = batch_of(params)
        _, cache = forward(params, x)
        got = backward(params, cache, g, out=flat.grads)
        want = backward(params, cache, g)
        assert got is flat.grads
        assert bits_of(got.weights + got.biases) == bits_of(want.weights + want.biases)
        assert all(np.shares_memory(a, flat.grad_buf) for a in got.weights + got.biases)

    @pytest.mark.parametrize("dims,arms", LAYOUTS)
    def test_in_place_step_has_the_bits_of_sgd_step(self, dims, arms):
        params = params_of(dims, arms)
        flat = flatten_params(params)
        x, g = batch_of(params)
        _, cache = forward(params, x)
        grads = backward(params, cache, g, out=flat.grads)
        want = sgd_step(params, grads, 0.05)
        sgd_step_in_place(flat, 0.05)
        assert bits_of(flat.params.weights + flat.params.biases) == bits_of(
            want.weights + want.biases
        )

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("dims,arms", LAYOUTS)
    def test_non_finite_gradient_raises_and_writes_nothing(self, dims, arms, bad):
        flat = flatten_params(params_of(dims, arms))
        flat.grad_buf[:] = 1.0
        # in the last layer's bias, after every other layer's gradient
        flat.grads.biases[-1].flat[-1] = bad
        before = flat.buf.tobytes()
        with pytest.raises(NumericError, match="^non-finite gradients$"):
            sgd_step_in_place(flat, 0.1)
        assert flat.buf.tobytes() == before

    def test_nonpositive_rate_raises(self):
        flat = flatten_params(single_layer([[1.0]], [0.0]))
        with pytest.raises(ConfigurationError):
            sgd_step_in_place(flat, 0.0)
        assert flat.buf.tolist() == [1.0, 0.0]


class TestLrSchedule:
    def test_flat_then_decay(self):
        cfg = TrainConfig(learning_rate=0.1, decay_start_epoch=3, decay_factor=0.5)
        rates = [cfg.rate(e) for e in range(8)]
        assert rates[:4] == [0.1, 0.1, 0.1, 0.1]
        assert np.isclose(rates[4], 0.05)
        assert np.isclose(rates[7], 0.1 * 0.5**4)

    def test_non_increasing(self):
        cfg = TrainConfig(learning_rate=0.2, decay_start_epoch=2, decay_factor=0.9)
        rates = [cfg.rate(e) for e in range(30)]
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_factor_one_is_constant(self):
        cfg = TrainConfig(learning_rate=0.3)
        assert all(cfg.rate(e) == 0.3 for e in range(5))

    def test_invalid_settings_raise(self):
        with pytest.raises(ConfigurationError, match="learning_rate"):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigurationError, match="decay_factor"):
            TrainConfig(learning_rate=0.1, decay_factor=0.0)
        with pytest.raises(ConfigurationError, match="decay_factor"):
            TrainConfig(learning_rate=0.1, decay_factor=1.5)


class TestGradCheck:
    def test_quadratic_loss_tight(self):
        # loss quadratic in every parameter -> central differences are exact
        # up to rounding, so the normalized discrepancy sits near machine eps
        params = init_params((3, 4, 2), activation="identity", seed=21)
        x = np.random.default_rng(5).normal(size=(4, 3))
        target = np.random.default_rng(6).normal(size=(4, 2))

        def closure(p):
            z, cache = forward(p, x)
            diff = z - target
            loss = 0.5 * float(np.sum(diff * diff))
            return loss, backward(p, cache, diff)

        assert grad_check(params, closure, epsilon=1e-5) < 1e-6

    def test_tanh_net(self):
        params = init_params((3, 5, 2), activation="tanh", seed=22)
        x = np.random.default_rng(7).normal(size=(3, 3))
        target = np.random.default_rng(8).normal(size=(3, 2))

        def closure(p):
            z, cache = forward(p, x)
            diff = z - target
            return 0.5 * float(np.sum(diff * diff)), backward(p, cache, diff)

        assert grad_check(params, closure, epsilon=1e-5) < 1e-4

    def test_constant_loss_returns_zero(self):
        from cirlab.nn import ParamGrads

        params = init_params((2, 2), seed=0)

        def closure(p):
            return 1.0, ParamGrads(
                weights=[np.zeros_like(w) for w in p.weights],
                biases=[np.zeros_like(b) for b in p.biases],
            )

        assert grad_check(params, closure) == 0.0

    def test_bad_epsilon_raises(self):
        params = init_params((2, 2), seed=0)
        with pytest.raises(ConfigurationError):
            grad_check(params, lambda p: (0.0, None), epsilon=0.0)
