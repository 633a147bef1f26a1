"""Tests for the binary checkpoint format."""

import struct
from pathlib import Path

import numpy as np
import pytest

from cirlab.checkpoint import load_checkpoint, save_checkpoint
from cirlab.errors import DataError
from cirlab.nn import forward, init_params
from cirlab.tac import tac_init


def make_state(seed=0):
    params = init_params((6, 8, 4), activation="tanh", seed=seed)
    tac = tac_init(5, 4, momentum=0.5, seed=seed + 1)
    return params, tac


class TestRoundTrip:
    def test_structure_preserved(self, tmp_path):
        params, tac = make_state()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(params, tac, path)
        p2, t2 = load_checkpoint(path)
        assert p2.layer_dims == params.layer_dims
        assert p2.activation == params.activation
        assert t2.num_classes == 5 and t2.dim == 4
        assert np.isclose(t2.momentum, 0.5)

    def test_values_preserved_to_f32(self, tmp_path):
        params, tac = make_state()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(params, tac, path)
        p2, t2 = load_checkpoint(path)
        for w, w2 in zip(params.weights, p2.weights):
            assert np.array_equal(w.astype(np.float32), w2.astype(np.float32))
        assert np.array_equal(
            tac.table.astype(np.float32), t2.table.astype(np.float32)
        )

    def test_second_round_trip_bit_exact(self, tmp_path):
        # after one f32 truncation the state is stable
        params, tac = make_state()
        p1 = str(tmp_path / "a.ckpt")
        p2 = str(tmp_path / "b.ckpt")
        save_checkpoint(params, tac, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(*loaded, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_loaded_encoder_runs(self, tmp_path):
        params, tac = make_state()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(params, tac, path)
        p2, _ = load_checkpoint(path)
        x = np.random.default_rng(3).normal(size=(4, 6))
        z1, _ = forward(params, x)
        z2, _ = forward(p2, x)
        assert np.allclose(z1, z2, atol=1e-6)

    def test_same_state_same_bytes(self, tmp_path):
        params, tac = make_state()
        a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(params, tac, a)
        save_checkpoint(params, tac, b)
        assert Path(a).read_bytes() == Path(b).read_bytes()


class TestValidation:
    def test_magic_present(self, tmp_path):
        params, tac = make_state()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(params, tac, path)
        assert Path(path).read_bytes()[:4] == b"CIR1"

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "x.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"WHAT" + b"\x00" * 64)
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        params, tac = make_state()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(params, tac, path)
        blob = Path(path).read_bytes()
        with open(path, "wb") as fh:
            fh.write(blob[:-9])
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        params, tac = make_state()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(params, tac, path)
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00\x00")
        with pytest.raises(DataError):
            load_checkpoint(path)

    def write_with(self, tmp_path, offset, value):
        """A saved checkpoint with the f32 at byte `offset` (from the end
        when negative) set to `value`; returns its path."""
        params, tac = make_state()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, tac, str(path))
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, offset % len(blob), value)
        path.write_bytes(blob)
        return str(path)

    # the first weight, the last bias of the encoder, the last table entry
    @pytest.mark.parametrize("offset", [4 + 4 + 4 * 3 + 1, -(4 * 5 * 4 + 16), -4])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_refused_on_load(self, tmp_path, offset, value):
        path = self.write_with(tmp_path, offset, value)
        with pytest.raises(DataError, match="non-finite weight, bias or table entry"):
            load_checkpoint(path)

    @pytest.mark.parametrize("momentum", [0.0, -0.5, 1.5, np.nan, np.inf])
    def test_momentum_outside_unit_interval_refused_on_load(self, tmp_path, momentum):
        path = self.write_with(tmp_path, -(4 * 5 * 4 + 4), momentum)
        with pytest.raises(DataError, match=r"outside \(0, 1\]"):
            load_checkpoint(path)

    @pytest.mark.parametrize("change", [
        lambda p, t: p.weights[0].__setitem__((1, 2), np.nan),
        lambda p, t: p.biases[1].__setitem__(0, -np.inf),
        lambda p, t: p.weights[1].__setitem__((0, 0), 1e39),  # inf in f32
        lambda p, t: t.table.__setitem__((4, 3), np.nan),
        lambda p, t: setattr(t, "momentum", 0.0),
        lambda p, t: setattr(t, "momentum", 1.5),
        lambda p, t: setattr(t, "momentum", 1e-50),  # 0 in f32
        lambda p, t: setattr(t, "momentum", float("nan")),
    ])
    def test_save_refuses_what_load_refuses(self, tmp_path, change):
        params, tac = make_state()
        change(params, tac)
        path = tmp_path / "m.ckpt"
        with pytest.raises(DataError, match=f"^{path}: "):
            save_checkpoint(params, tac, str(path))
        assert not path.exists()
