"""Binary checkpoints for encoder weights and the class table.

Format `CIR1`, all little-endian: magic, u32 layer count L, L+1 u32 layer
dims, u8 activation code, then per layer the weight matrix (row-major) and
bias vector as f32; after the encoder block the class table: u32 C, u32 d,
f32 momentum, then C*d f32 row-major. Weights are stored in 32-bit floats,
so save/load round-trips are bit-exact only after one save (float64 state
is truncated once, then stable). Both directions refuse a non-finite
weight, bias or table entry and a momentum outside (0, 1].
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DataError
from .nn import ACTIVATIONS, ModelParams
from .tac import ClassTable

MAGIC = b"CIR1"


def _check_values(path, arrays, momentum) -> None:
    """Refuse what no training run leaves in a checkpoint: a non-finite
    weight, bias or table entry, or a momentum outside (0, 1]."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise DataError(f"{path}: non-finite weight, bias or table entry")
    if not 0.0 < momentum <= 1.0:
        raise DataError(f"{path}: momentum {momentum} outside (0, 1]")


def save_checkpoint(params: ModelParams, tac: ClassTable, path: str) -> None:
    with np.errstate(over="ignore"):  # _check_values refuses an overflow
        layers = [np.ascontiguousarray(a, dtype="<f4")
                  for pair in zip(params.weights, params.biases) for a in pair]
        table = np.ascontiguousarray(tac.table, dtype="<f4")
        momentum = np.float32(tac.momentum)
    _check_values(path, [*layers, table], momentum)
    parts = [MAGIC]
    parts.append(struct.pack("<I", params.num_layers))
    parts.append(struct.pack(f"<{len(params.layer_dims)}I", *params.layer_dims))
    parts.append(struct.pack("<B", ACTIVATIONS.index(params.activation)))
    parts += [a.tobytes() for a in layers]
    parts.append(struct.pack("<IIf", tac.num_classes, tac.dim, momentum))
    parts.append(table.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_checkpoint(path: str) -> tuple[ModelParams, ClassTable]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise DataError(f"{path}: not a CIR1 checkpoint")

    def take(n):
        nonlocal off
        if off + n > len(blob):
            raise DataError(f"{path}: truncated checkpoint")
        piece = blob[off : off + n]
        off += n
        return piece

    off = 4
    (num_layers,) = struct.unpack("<I", take(4))
    if num_layers < 1 or num_layers > 64:
        raise DataError(f"{path}: implausible layer count {num_layers}")
    dims = struct.unpack(f"<{num_layers + 1}I", take(4 * (num_layers + 1)))
    (act_code,) = struct.unpack("<B", take(1))
    if act_code >= len(ACTIVATIONS):
        raise DataError(f"{path}: unknown activation code {act_code}")

    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = np.frombuffer(take(4 * fan_out * fan_in), dtype="<f4")
        weights.append(w.reshape(fan_out, fan_in).astype(np.float64))
        b = np.frombuffer(take(4 * fan_out), dtype="<f4")
        biases.append(b.astype(np.float64))

    c, d = struct.unpack("<II", take(8))
    (momentum,) = struct.unpack("<f", take(4))
    table = np.frombuffer(take(4 * c * d), dtype="<f4").reshape(c, d)
    if off != len(blob):
        raise DataError(f"{path}: {len(blob) - off} trailing bytes")
    _check_values(path, [*weights, *biases, table], momentum)
    params = ModelParams(
        layer_dims=dims,
        weights=weights,
        biases=biases,
        activation=ACTIVATIONS[act_code],
    )
    tac = ClassTable(table=table.astype(np.float64), momentum=float(momentum))
    return params, tac
