"""Damaged CIRD datasets, CIR1 checkpoints and config files: every
truncation or byte flip of a valid file either loads or raises a package
error."""

import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cirlab.checkpoint import load_checkpoint, save_checkpoint
from cirlab.config import ConfigFileError, config_to_text, parse_config_file
from cirlab.datagen import Dataset, load_dataset, save_dataset
from cirlab.errors import CirError, DataError
from cirlab.interference import NoiseConfig
from cirlab.nn import init_params
from cirlab.tac import tac_init
from cirlab.trainer import TrainConfig

FUZZ = settings(max_examples=300, derandomize=True, deadline=None)


def _valid_bytes(save):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "valid")
        save(path)
        with open(path, "rb") as fh:
            return fh.read()


def _save_dataset(path):
    rng = np.random.default_rng(0)
    ds = Dataset(
        features=rng.standard_normal((5, 3)).astype(np.float32),
        labels=np.array([0, 1, 2, 1, 0], dtype=np.int64),
        class_count=3,
        provenance="gen seed=0",
    )
    save_dataset(ds, path)


def _save_checkpoint(path):
    save_checkpoint(
        init_params((3, 4, 2), activation="tanh", seed=0),
        tac_init(3, 2, momentum=0.5, seed=1),
        path,
    )


VALID_CIRD = _valid_bytes(_save_dataset)
VALID_CIR1 = _valid_bytes(_save_checkpoint)
# every key, a noise section and a [stage2] section, with a comment
VALID_CFG = ("# a two-stage run\n" + config_to_text(TrainConfig(
    loss_mode="cross_entropy", hidden_dims=(8, 4), noise=NoiseConfig(sigma=0.5),
    stage2=TrainConfig(hidden_dims=(8, 4)),
))).encode()


def damaged(valid):
    """valid bytes with up to four bytes XOR-ed, then cut at any length."""
    size = len(valid)
    flip = st.tuples(st.integers(0, size - 1), st.integers(1, 255))
    return st.tuples(st.lists(flip, max_size=4), st.integers(0, size)).map(
        lambda spec: _apply(valid, *spec)
    )


def _apply(valid, flips, cut):
    blob = bytearray(valid)
    for pos, mask in flips:
        blob[pos] ^= mask
    return bytes(blob[:cut])


def _load_or_cir_error(load, blob):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "damaged")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            load(path)
        except CirError:
            pass


@FUZZ
@given(damaged(VALID_CIRD))
def test_damaged_dataset_loads_or_raises_cir_error(blob):
    _load_or_cir_error(load_dataset, blob)


@FUZZ
@given(damaged(VALID_CIR1))
def test_damaged_checkpoint_loads_or_raises_cir_error(blob):
    _load_or_cir_error(load_checkpoint, blob)


@FUZZ
@given(damaged(VALID_CFG))
def test_damaged_config_parses_or_raises_cir_error(blob):
    _load_or_cir_error(parse_config_file, blob)


def test_non_utf8_config_names_the_path_and_the_byte(tmp_path):
    path = tmp_path / "bad.cfg"
    # an 11-byte line, then a comment whose lone \xe9 is byte 19
    path.write_bytes(b"epochs = 2\n# caf\xc3\xa9 \xe9\n")
    message = f"{re.escape(str(path))}: not UTF-8 text at byte 19$"
    with pytest.raises(ConfigFileError, match=message):
        parse_config_file(str(path))


def test_non_utf8_provenance_is_data_error(tmp_path):
    path = tmp_path / "bad.cird"
    path.write_bytes(VALID_CIRD + b"\xff")
    with pytest.raises(DataError, match=str(path)):
        load_dataset(str(path))


def test_huge_feature_dim_without_records_loads_empty(tmp_path):
    blob = bytearray(VALID_CIRD[:20])
    blob[8:12] = (0).to_bytes(4, "little")  # no records
    blob[12:16] = (2**31).to_bytes(4, "little")  # feature dim
    path = tmp_path / "empty.cird"
    path.write_bytes(bytes(blob))
    ds = load_dataset(str(path))
    assert ds.features.shape == (0, 2**31) and ds.labels.shape == (0,)
