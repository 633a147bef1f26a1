"""Minimal feed-forward encoder with explicit forward/backward passes.

Weights live in plain numpy arrays so every gradient is inspectable and
checkable against finite differences. Hidden layers share one activation;
the output layer is always linear so embeddings are unconstrained reals.

The passes work on the last two axes of every array. Plain params hold
2-D weights and take B x d_in batches; a stack of S encoders of one
architecture (`stack_params`) holds (S, ...) weights and takes S x B x d_in
batches, one per encoder, and each slice of its results has the bits of
the same pass on that encoder alone.

Training steps its weights in place: `flatten_params` copies params into
one contiguous buffer with per-layer views, plus a gradient buffer of the
same layout that `backward(..., out=)` fills, and `sgd_step_in_place`
descends the whole buffer at once with the checks and bits of `sgd_step`,
which stays as the allocating reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, NumericError, ShapeError

ACTIVATIONS = ("relu", "tanh", "identity")


@dataclass
class ModelParams:
    """Weights and biases of a feed-forward encoder.

    weights[l] has shape (layer_dims[l+1], layer_dims[l]); biases[l] has
    length layer_dims[l+1]. The hidden activation applies to all layers
    except the last, which stays linear. A stack of S encoders puts a
    leading axis of length S on every array.
    """

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "relu"

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    def arm(self, s: int) -> "ModelParams":
        """Encoder s of a stack, as plain params viewing the stack's arrays."""
        return ModelParams(
            layer_dims=self.layer_dims,
            weights=[w[s] for w in self.weights],
            biases=[b[s] for b in self.biases],
            activation=self.activation,
        )


@dataclass
class ForwardCache:
    """Per-layer intermediates from one forward pass.

    inputs[l] is the batch fed into layer l (inputs[0] is the raw input);
    preacts[l] is the affine output of layer l before its activation.
    """

    inputs: list[np.ndarray]
    preacts: list[np.ndarray]


@dataclass
class ParamGrads:
    """Gradients shaped congruently with a ModelParams."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass
class FlatParams:
    """Params and gradients of one layout, each a set of per-layer views
    of one contiguous float64 buffer (buf and grad_buf), for in-place SGD
    steps."""

    params: ModelParams
    grads: ParamGrads
    buf: np.ndarray
    grad_buf: np.ndarray


def check_activation(activation: str) -> None:
    if activation not in ACTIVATIONS:
        raise ConfigurationError(
            f"unknown activation {activation!r}; expected one of {ACTIVATIONS}"
        )


def stack_params(arms: Sequence[ModelParams]) -> ModelParams:
    """Stack plain params of one architecture on a new leading axis."""
    first = arms[0]
    if any(p.layer_dims != first.layer_dims or p.activation != first.activation
           for p in arms):
        raise ShapeError("stacked params must share dims and activation")
    return ModelParams(
        layer_dims=first.layer_dims,
        weights=[np.stack(ws) for ws in zip(*(p.weights for p in arms))],
        biases=[np.stack(bs) for bs in zip(*(p.biases for p in arms))],
        activation=first.activation,
    )


def flatten_params(params: ModelParams) -> FlatParams:
    """Copy plain or stacked params into one buffer, layer by layer, each
    layer's weights then its biases; the gradient buffer starts at 0."""
    arrays = [a for pair in zip(params.weights, params.biases) for a in pair]
    buf = np.concatenate([a.ravel() for a in arrays], dtype=np.float64)
    grad_buf = np.zeros_like(buf)
    ends = np.cumsum([a.size for a in arrays])[:-1]

    def views(flat):
        return [part.reshape(a.shape) for part, a in zip(np.split(flat, ends), arrays)]

    layers, grads = views(buf), views(grad_buf)
    return FlatParams(
        params=replace(params, weights=layers[0::2], biases=layers[1::2]),
        grads=ParamGrads(weights=grads[0::2], biases=grads[1::2]),
        buf=buf,
        grad_buf=grad_buf,
    )


def init_params(
    layer_dims: Sequence[int], activation: str = "relu", seed: int = 0
) -> ModelParams:
    """Create encoder weights scaled by 1/sqrt(fan-in), biases zero.

    Deterministic for a fixed seed.
    """
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise ConfigurationError(f"need at least input and output dims, got {dims}")
    if any(d <= 0 for d in dims):
        raise ConfigurationError(f"all layer dims must be positive, got {dims}")
    check_activation(activation)

    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        scale = 1.0 / np.sqrt(fan_in)
        weights.append(rng.normal(0.0, scale, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return ModelParams(layer_dims=dims, weights=weights, biases=biases, activation=activation)


def _activate(pre: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(pre, 0.0)
    if activation == "tanh":
        return np.tanh(pre)
    return pre


def _activate_grad(pre: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return (pre > 0.0).astype(pre.dtype)
    if activation == "tanh":
        t = np.tanh(pre)
        return 1.0 - t * t
    return np.ones_like(pre)


def forward(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run the encoder on a B x d_in batch, returning B x d features and a
    cache; a stack of S encoders runs on S x B x d_in, batch s on encoder s."""
    x = np.asarray(x, dtype=np.float64)
    if params.weights[0].ndim == 3:
        if x.ndim != 3 or x.shape[0] != params.weights[0].shape[0]:
            raise ShapeError(
                f"a stack of {params.weights[0].shape[0]} encoders takes one "
                f"2-D batch each, got shape {x.shape}"
            )
    elif x.ndim != 2:
        raise ShapeError(f"input batch must be 2-D, got shape {x.shape}")
    if x.shape[-1] != params.input_dim:
        raise ShapeError(
            f"input has {x.shape[-1]} columns, encoder expects {params.input_dim}"
        )
    if x.size and not np.isfinite(x).all():
        raise NumericError("input batch contains non-finite values")
    return _layers(params, x)


def _layers(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """`forward`'s passes without its checks: x must be a float64 batch
    that `forward` would accept, finite and of the encoder's input width,
    S x B x d_in for a stack of S encoders."""
    inputs = [x]
    preacts = []
    h = x
    last = params.num_layers - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        pre = h @ w.swapaxes(-1, -2)
        pre += b[..., None, :]
        preacts.append(pre)
        h = pre if l == last else _activate(pre, params.activation)
        if l != last:
            inputs.append(h)
    return h, ForwardCache(inputs=inputs, preacts=preacts)


def backward(
    params: ModelParams,
    cache: ForwardCache,
    grad_output: np.ndarray,
    out: ParamGrads | None = None,
) -> ParamGrads:
    """Accumulate d(loss)/d(params) from d(loss)/d(output) by reverse passes.

    With out, shaped like params, the gradients are written into its
    arrays, and out is returned with the bits of a call without it."""
    grad_output = np.asarray(grad_output, dtype=np.float64)
    if grad_output.shape != cache.preacts[-1].shape:
        raise ShapeError(
            f"grad_output shape {grad_output.shape} does not match the forward "
            f"output {cache.preacts[-1].shape}"
        )

    if out is None:
        out = ParamGrads([None] * params.num_layers, [None] * params.num_layers)
    delta = grad_output  # d loss / d preact of the (linear) output layer
    for l in range(params.num_layers - 1, -1, -1):
        out.weights[l] = np.matmul(
            delta.swapaxes(-1, -2), cache.inputs[l], out=out.weights[l]
        )
        out.biases[l] = delta.sum(axis=-2, out=out.biases[l])
        if l > 0:
            delta = (delta @ params.weights[l]) * _activate_grad(
                cache.preacts[l - 1], params.activation
            )
    return out


def input_gradient(params: ModelParams, cache: ForwardCache, grad_output: np.ndarray) -> np.ndarray:
    """d(loss)/d(input batch) for the same reverse pass as `backward`."""
    grad_output = np.asarray(grad_output, dtype=np.float64)
    if grad_output.shape != cache.preacts[-1].shape:
        raise ShapeError("grad_output shape does not match the forward output")
    delta = grad_output
    for l in range(params.num_layers - 1, 0, -1):
        delta = (delta @ params.weights[l]) * _activate_grad(
            cache.preacts[l - 1], params.activation
        )
    return delta @ params.weights[0]


def sgd_step(params: ModelParams, grads: ParamGrads, rate: float) -> ModelParams:
    """Descend the loss: new = old - rate * grad, elementwise, for plain or
    stacked params alike."""
    if rate <= 0:
        raise ConfigurationError(f"learning rate must be > 0, got {rate}")
    if len(grads.weights) != params.num_layers:
        raise ShapeError("gradient layer count does not match the params")
    new_w = []
    new_b = []
    for w, b, gw, gb in zip(params.weights, params.biases, grads.weights, grads.biases):
        if gw.shape != w.shape or gb.shape != b.shape:
            raise ShapeError("gradient shapes do not match the params")
        if not (np.isfinite(gw).all() and np.isfinite(gb).all()):
            raise NumericError("non-finite gradients")
        new_w.append(w - rate * gw)
        new_b.append(b - rate * gb)
    return ModelParams(
        layer_dims=params.layer_dims,
        weights=new_w,
        biases=new_b,
        activation=params.activation,
    )


def sgd_step_in_place(flat: FlatParams, rate: float) -> None:
    """`sgd_step` of flat.params by flat.grads, written into flat.buf: the
    same checks and bits, and on a non-finite gradient nothing is written."""
    if rate <= 0:
        raise ConfigurationError(f"learning rate must be > 0, got {rate}")
    if not np.isfinite(flat.grad_buf).all():
        raise NumericError("non-finite gradients")
    flat.buf -= rate * flat.grad_buf
