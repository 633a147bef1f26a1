"""Every refusal of a draw's inputs, from every entry point that takes them.

The rules have one owner each in `cirlab.sampling`: `check_episode_set`
for an episode set's shape and size, and `ClassIndex.pk_bounds` for what
a split must hold. These tests show that each refusal still fires, with
its exception type, wherever the settings come in: the training config,
the reproduce settings, the episode and batch draws, and the command line
(exit 2, with no traceback).
"""

import numpy as np
import pytest

from cirlab.checkpoint import save_checkpoint
from cirlab.cli import entrypoint
from cirlab.datagen import Dataset, save_dataset
from cirlab.errors import ConfigurationError, DataError
from cirlab.nn import init_params
from cirlab.reproduce import ReproduceSettings
from cirlab.sampling import ClassIndex, PKSpec, episode_rows, pk_batch, sample_episode
from cirlab.tac import tac_init
from cirlab.trainer import TrainConfig

# (n_way, k_shot, q_queries, episodes) with one setting out of range
BAD_SHAPES = {
    "n_way": (1, 1, 3, 5),
    "k_shot": (3, 0, 3, 5),
    "q_queries": (3, 1, 0, 5),
    "episodes": (3, 1, 3, 0),
}
CLI_FLAGS = {"n_way": "--way", "k_shot": "--shot", "q_queries": "--queries",
             "episodes": "--episodes"}


def split_labels():
    # 6 classes of 10 rows: room for every shape in BAD_SHAPES but its bad value
    return np.repeat(np.arange(6), 10)


@pytest.mark.parametrize("setting", BAD_SHAPES)
def test_bad_episode_shape_refused_everywhere(setting):
    n, k, q, e = BAD_SHAPES[setting]
    with pytest.raises(ConfigurationError):
        TrainConfig(eval_n_way=n, eval_k_shot=k, eval_q_queries=q, eval_episodes=e)
    labels = split_labels()
    with pytest.raises(ConfigurationError):
        episode_rows(labels, n, k, q, e, master_seed=0)
    if setting != "episodes":
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError):
            sample_episode(np.zeros((labels.size, 2)), labels, n, k, q, rng)
        assert rng.bit_generator.state == state
    if setting in ("q_queries", "episodes"):
        # the reproduce settings take these two; the base config the others
        with pytest.raises(ConfigurationError):
            ReproduceSettings(eval_q_queries=q, eval_episodes=e)


@pytest.mark.parametrize("p, k, message", [
    (3, 5, "class 4 has 4 rows, a draw needs 5"),
    (7, 2, "split has 6 classes, a draw needs 7"),
])
def test_short_split_same_error_from_every_draw(p, k, message):
    labels = split_labels()
    labels[np.flatnonzero(labels == 4)[:6]] = 5
    features = np.zeros((labels.size, 2))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    draws = {
        "pk_bounds": lambda: ClassIndex(labels).pk_bounds(p, k),
        "pk_batch": lambda: pk_batch(ClassIndex(labels), PKSpec(p, k), rng),
        # episodes of K + Q = 1 + (k - 1) rows a class
        "sample_episode": lambda: sample_episode(features, labels, p, 1, k - 1, rng),
        "episode_rows": lambda: episode_rows(labels, p, 1, k - 1, 10, master_seed=0),
    }
    for name, draw in draws.items():
        with pytest.raises(DataError) as refused:
            draw()
        assert str(refused.value) == message, name
    assert rng.bit_generator.state == state


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """A 6-class split and an untrained checkpoint of its width."""
    root = tmp_path_factory.mktemp("refusals")
    save_dataset(Dataset(
        features=np.random.default_rng(0).standard_normal((60, 4)).astype(np.float32),
        labels=split_labels(), class_count=6, provenance="refusals",
    ), str(root / "ds.cird"))
    save_checkpoint(
        init_params((4, 3), "relu", seed=0), tac_init(6, 3, seed=0), str(root / "m.ckpt")
    )
    return root


def config_text(**changes):
    """A config that trains on `cli_files`' split, with changes."""
    keys = dict(epochs=1, iterations=1, embed_dim=3, p_classes=3, k_samples=2,
                eval_n_way=3, eval_k_shot=1, eval_q_queries=3, eval_episodes=5)
    return "".join(f"{k} = {v}\n" for k, v in {**keys, **changes}.items())


def _exit_2_without_traceback(argv, capsys):
    assert entrypoint(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("setting", BAD_SHAPES)
def test_bad_episode_shape_exits_2_from_the_cli(cli_files, tmp_path, capsys, setting):
    shape = dict(zip(BAD_SHAPES, (3, 1, 3, 5)))
    good_run = ["eval", str(cli_files / "m.ckpt"), "-d", str(cli_files / "ds.cird")]
    for key, value in shape.items():
        good_run += [CLI_FLAGS[key], str(value)]
    assert entrypoint(good_run) == 0
    capsys.readouterr()
    bad = dict(zip(BAD_SHAPES, BAD_SHAPES[setting]))[setting]
    _exit_2_without_traceback(good_run + [CLI_FLAGS[setting], str(bad)], capsys)

    good, bad_cfg = tmp_path / "good.cfg", tmp_path / "bad.cfg"
    good.write_text(config_text())
    bad_cfg.write_text(config_text(**{f"eval_{setting}": bad}))
    train = ["train", "-d", str(cli_files / "ds.cird"), "--val", str(cli_files / "ds.cird"),
             "-o", str(tmp_path / "m.ckpt"), "--dry-run"]
    assert entrypoint(train + ["-c", str(good)]) == 0
    capsys.readouterr()
    _exit_2_without_traceback(train + ["-c", str(bad_cfg)], capsys)
    assert not (tmp_path / "m.ckpt").exists()
