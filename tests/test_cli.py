"""End-to-end tests of the command-line interface and its exit codes."""

import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import cirlab
from cirlab.cli import entrypoint
from cirlab.config import parse_config_text
from cirlab.datagen import Dataset, load_dataset, save_dataset
from cirlab.reproduce import ReproduceSettings

RUN_CFG = """\
epochs = 2
iterations = 10
hidden_dims = 16
embed_dim = 8
learning_rate = 0.001
p_classes = 4
k_samples = 3
eval_n_way = 2
eval_q_queries = 3
eval_episodes = 10
lambda = 0.5
gamma = 0.5
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding a small split dataset and a training config."""
    root = tmp_path_factory.mktemp("cli")
    code = entrypoint([
        "gen", "--classes", "8", "--per-class", "12", "--dim", "6",
        "--seed", "3", "--split", "0.5,0.25,0.25",
        "-o", str(root / "ds.cird"),
    ])
    assert code == 0
    (root / "run.cfg").write_text(RUN_CFG)
    return root


@pytest.fixture(scope="module")
def wide_split(tmp_path_factory):
    """A split large enough for RUN_CFG's batches, episodes and holdout."""
    root = tmp_path_factory.mktemp("wide")
    assert entrypoint([
        "gen", "--classes", "30", "--per-class", "20", "--seed", "3",
        "--split", "0.5,0.3,0.2", "-o", str(root / "ds.cird"),
    ]) == 0
    return root


def _set(text, key, value):
    """RUN_CFG-style text with the line of `key` set to `value`."""
    lines = [
        f"{key} = {value}" if line.split(" = ")[0] == key else line
        for line in text.splitlines()
    ]
    return "\n".join(lines) + "\n"


def _two_stage(stage1_mode, stage2_text):
    return f"{RUN_CFG}loss_mode = {stage1_mode}\n[stage2]\n{stage2_text}"


@pytest.fixture(scope="module")
def trained(workdir):
    code = entrypoint([
        "train", "-c", str(workdir / "run.cfg"),
        "-d", str(workdir / "ds.train.cird"),
        "--val", str(workdir / "ds.val.cird"),
        "-o", str(workdir / "m.ckpt"),
    ])
    assert code == 0
    return workdir


class TestGen:
    def test_split_files_written_and_loadable(self, workdir):
        for part in ("train", "val", "test"):
            ds = load_dataset(str(workdir / f"ds.{part}.cird"))
            assert ds.size > 0
        assert (workdir / "ds.cird.manifest").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            assert entrypoint([
                "gen", "--classes", "5", "--per-class", "6", "--dim", "4",
                "--seed", "11", "-o", str(tmp_path / sub / "d.cird"),
            ]) == 0
        assert (tmp_path / "a" / "d.cird").read_bytes() == \
               (tmp_path / "b" / "d.cird").read_bytes()

    def test_preset_reproduce(self, tmp_path):
        assert entrypoint([
            "gen", "--preset", "reproduce", "--seed", "1",
            "-o", str(tmp_path / "r.cird"),
        ]) == 0
        ds = load_dataset(str(tmp_path / "r.cird"))
        assert ds.class_count == 40
        assert ds.size == 1000

    def test_non_numeric_split_exits_2(self, tmp_path, capsys):
        assert entrypoint([
            "gen", "--split", "a,b,c", "-o", str(tmp_path / "x.cird"),
        ]) == 2
        assert "--split needs comma-separated numbers" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [
        ("--seed", "-3"),
        ("--preset", "reproduce", "--seed", "-3"),
        ("--split", "0.5,0.25,0.25", "--split-seed", "-1"),
    ])
    def test_negative_seed_exits_2(self, tmp_path, capsys, flags):
        assert entrypoint(["gen", *flags, "-o", str(tmp_path / "x.cird")]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [
        ("--seed", "18446744073709551616"),
        ("--split", "0.5,0.25,0.25", "--split-seed", "18446744073709551616"),
    ])
    def test_seed_of_2_to_the_64_exits_2(self, tmp_path, capsys, flags):
        assert entrypoint(["gen", *flags, "-o", str(tmp_path / "x.cird")]) == 2
        assert "seed must be < 2**64, got 18446744073709551616" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, message", [
        (("--spread", "nan"), "spread must be finite and > 0"),
        (("--spread", "inf"), "spread must be finite and > 0"),
        (("--center-scale", "nan"), "center_scale must be >= 0"),
        (("--center-scale", "inf"), "center_scale must be >= 0"),
        # finite, but the features overflow float32
        (("--spread", "1e39"), "has a non-finite feature"),
    ])
    def test_non_finite_size_exits_2(self, tmp_path, capsys, flags, message):
        assert entrypoint(["gen", *flags, "-o", str(tmp_path / "x.cird")]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [
        ("--classes", str(10**30)),
        ("--classes", str(10**12)),
        ("--per-class", str(10**30)),
        ("--dim", str(10**30)),
        # 2 x 1 x 20000 features, but a 20000 x 20000 rotate_mix matrix
        ("--classes", "2", "--per-class", "1", "--dim", "20000",
         "--nonlinearity", "rotate_mix"),
    ])
    def test_oversized_arrays_exit_2(self, tmp_path, capsys, flags):
        # refused when the spec is built, before any array is allocated
        assert entrypoint(["gen", *flags, "-o", str(tmp_path / "x.cird")]) == 2
        err = capsys.readouterr().err
        assert "at most 2**28 (2 GiB) are allowed" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_single_class_rejected(self, tmp_path):
        assert entrypoint([
            "gen", "--classes", "1", "-o", str(tmp_path / "x.cird"),
        ]) == 2
        assert not (tmp_path / "x.cird").exists()


def test_memory_error_exits_2_with_one_error_line(monkeypatch, capsys):
    def too_big(path):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cirlab.cli, "load_checkpoint", too_big)
    assert entrypoint(["eval", "m.ckpt", "-d", "ds.cird"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: Unable to allocate 7.28 TiB for an array\n"


def _run_cli(argv):
    """Run `python -m cirlab.cli argv` in a fresh interpreter, as the
    console command runs: an uncaught error exits 1 with a traceback."""
    src = os.path.dirname(os.path.dirname(cirlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "cirlab.cli", *argv], env=env, capture_output=True,
        text=True,
    )


class TestTrain:
    def test_non_utf8_config_exits_2(self, workdir, tmp_path):
        # a dataset given as the config: its decode error escaped the
        # exit-code contract, with exit 1 and a traceback
        config = workdir / "ds.test.cird"
        for flags in (["--dry-run"], []):
            out = tmp_path / "m.ckpt"
            done = _run_cli([
                "train", "-c", str(config), "-d", str(workdir / "ds.train.cird"),
                "--val", str(workdir / "ds.val.cird"), "-o", str(out), *flags,
            ])
            assert done.returncode == 2
            assert done.stderr.startswith(f"error: {config}: not UTF-8 text at byte ")
            assert len(done.stderr.splitlines()) == 1 and "Traceback" not in done.stderr
            assert done.stdout == "" and not out.exists()

    def test_holdout_of_every_row_exits_2(self, tmp_path):
        # floor_count(0.99999999999 * 10) is 10, so no row was left to fit:
        # --dry-run printed "config ok", and the run warned twice and
        # exited 4 at epoch 0 iteration 0
        assert entrypoint([
            "gen", "--classes", "12", "--per-class", "10",
            "--split", "0.5,0.25,0.25", "-o", str(tmp_path / "ds.cird"),
        ]) == 0
        cfg = tmp_path / "all.cfg"
        cfg.write_text(
            "loss_mode = oim\nhidden_dims = 8\nembed_dim = 4\n"
            "holdout_fraction = 0.99999999999\n"
        )
        for flags in (["--dry-run"], []):
            out = tmp_path / "m.ckpt"
            done = _run_cli([
                "train", "-c", str(cfg), "-d", str(tmp_path / "ds.train.cird"),
                "-o", str(out), *flags,
            ])
            assert done.returncode == 2
            assert done.stderr == (
                "error: holdout_fraction 0.99999999999 leaves no row to fit in "
                "train class 0\n"
            )
            assert done.stdout == "" and not out.exists()

    def test_outputs_exist(self, trained):
        assert (trained / "m.ckpt").exists()
        assert (trained / "m.ckpt.log.csv").exists()
        assert (trained / "m.ckpt.manifest").exists()

    def test_manifest_config_round_trips(self, trained):
        manifest = (trained / "m.ckpt.manifest").read_text()
        config_block = manifest.split("[config]\n", 1)[1]
        assert parse_config_text(config_block) == parse_config_text(RUN_CFG)

    def test_rerun_byte_identical(self, workdir, tmp_path, monkeypatch):
        # identical inputs, relative paths, different directories: every
        # output byte including the manifest must match
        outputs = {}
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            for f in ("run.cfg", "ds.train.cird", "ds.val.cird"):
                (d / f).write_bytes((workdir / f).read_bytes())
            monkeypatch.chdir(d)
            assert entrypoint([
                "train", "-c", "run.cfg", "-d", "ds.train.cird",
                "--val", "ds.val.cird", "-o", "m.ckpt",
            ]) == 0
            outputs[sub] = {
                f: (d / f).read_bytes()
                for f in ("m.ckpt", "m.ckpt.log.csv", "m.ckpt.manifest")
            }
        assert outputs["a"] == outputs["b"]

    def test_out_of_range_lambda_exits_2(self, workdir, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(RUN_CFG + "lambda = 1.5\n")
        assert entrypoint([
            "train", "-c", str(bad), "-d", str(workdir / "ds.train.cird"),
            "--val", str(workdir / "ds.val.cird"), "-o", str(tmp_path / "m.ckpt"),
        ]) == 2
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize("extra", [
        "margin = nan\n",
        "margin = inf\n",
        "interference = false\nnoise = true\nsigma = nan\n",
        "interference = false\nnoise = true\nsigma = inf\n",
        "learning_rate = nan\n",
        "learning_rate = inf\n",
        "loss_mode = oim\ntemperature = nan\n",
        "loss_mode = oim\ntemperature = inf\n",
    ], ids=["margin-nan", "margin-inf", "sigma-nan", "sigma-inf", "lr-nan",
            "lr-inf", "temperature-nan", "temperature-inf"])
    def test_non_finite_float_exits_2(self, workdir, tmp_path, capsys, extra, dry_run):
        # nan passes every `< 0` check: it trained a frozen encoder at loss
        # 0.0, or diverged and exited 4
        bad = tmp_path / "bad.cfg"
        bad.write_text(RUN_CFG.replace("learning_rate = 0.001\n", "") + extra)
        out = tmp_path / "m.ckpt"
        assert entrypoint([
            "train", "-c", str(bad), "-d", str(workdir / "ds.train.cird"),
            "--val", str(workdir / "ds.val.cird"), "-o", str(out),
            *(["--dry-run"] if dry_run else []),
        ]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        (_set(RUN_CFG, "gamma", "0"), "gamma (tac_momentum) must lie in (0, 1]"),
        (_set(RUN_CFG, "gamma", "1.5"), "gamma (tac_momentum) must lie in (0, 1]"),
        (_set(RUN_CFG, "gamma", "nan"), "gamma (tac_momentum) must lie in (0, 1]"),
        # 0 as the checkpoint's float32: the save refused it after training
        (_set(RUN_CFG, "gamma", "1e-46"), "gamma (tac_momentum) must lie in (0, 1]"),
        (_set(RUN_CFG, "p_classes", "1"), "p_classes must be >= 2"),
        (_set(RUN_CFG, "k_samples", "1"), "k_samples must be >= 2"),
        (RUN_CFG + "activation = sigmoid\n", "unknown activation 'sigmoid'"),
        (_two_stage("oim", RUN_CFG), "starts from cross_entropy, got 'oim'"),
        (_two_stage("cross_entropy", RUN_CFG + "loss_mode = oim\n"),
         "stage2 must use the triplet loss"),
        (_two_stage("cross_entropy", _set(RUN_CFG, "embed_dim", "4")),
         "stage2 must keep the stage-1 encoder architecture"),
        (_two_stage("cross_entropy", _set(RUN_CFG, "gamma", "0")),
         "gamma (tac_momentum) must lie in (0, 1]"),
        (_two_stage("cross_entropy", RUN_CFG + "activation = tanh\n"),
         "stage2 must keep the stage-1 activation 'relu', got 'tanh'"),
        # the rate underflows to 0.0 before the last epoch, where sgd_step
        # refused it after training the earlier epochs
        (_set(RUN_CFG, "epochs", "3") + "decay_factor = 1e-200\n",
         "learning rate decays to 0.0 by epoch 2; it must stay > 0"),
        (_set(RUN_CFG, "epochs", "130") + "decay_factor = 0.001\n",
         "learning rate decays to 0.0 by epoch 129; it must stay > 0"),
        (_two_stage("cross_entropy", _set(RUN_CFG, "epochs", "3")
                    + "decay_factor = 1e-200\n"),
         "learning rate decays to 0.0 by epoch 2; it must stay > 0"),
        (RUN_CFG + "seed = -1\n", "seed must be >= 0, got -1"),
        (RUN_CFG + "seed = 18446744073709551616\n",
         "seed must be < 2**64, got 18446744073709551616"),
    ], ids=["gamma-0", "gamma-1.5", "gamma-nan", "gamma-0-in-f32", "p-1", "k-1", "sigmoid",
            "stage1-oim", "stage2-oim", "stage2-dims", "stage2-gamma-0",
            "stage2-activation", "lr-underflow", "lr-decays-to-0",
            "stage2-lr-underflow", "seed-negative", "seed-2**64"])
    def test_dry_run_refuses_what_training_refuses(
        self, wide_split, tmp_path, capsys, text, message
    ):
        # the split passes check_feasible, so only the config can fail
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        errors = []
        for flags in (["--dry-run"], []):
            out = tmp_path / "m.ckpt"
            assert entrypoint([
                "train", "-c", str(cfg), "-d", str(wide_split / "ds.train.cird"),
                "--val", str(wide_split / "ds.val.cird"), "-o", str(out), *flags,
            ]) == 2
            assert not out.exists()
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert message in errors[0]

    @pytest.mark.parametrize("episodes", [10**12, 10**30])
    def test_episode_set_beyond_the_bound_exits_2(
        self, wide_split, tmp_path, capsys, episodes
    ):
        # the rows of 2-way episodes of 1 + 3 rows would need 64 TB, or
        # overflow numpy's dimension limit; --dry-run printed "config ok"
        cfg = tmp_path / "big.cfg"
        cfg.write_text(_set(RUN_CFG, "eval_episodes", str(episodes)))
        for flags in (["--dry-run"], []):
            out = tmp_path / "m.ckpt"
            assert entrypoint([
                "train", "-c", str(cfg), "-d", str(wide_split / "ds.train.cird"),
                "--val", str(wide_split / "ds.val.cird"), "-o", str(out), *flags,
            ]) == 2
            err = capsys.readouterr().err
            assert f"eval_episodes = {episodes} episodes of 2 x (1 + 3) rows" in err
            assert "at most 2**28" in err and "Traceback" not in err
            assert not out.exists()

    def test_epoch_draw_beyond_the_bound_exits_2(self, wide_split, tmp_path):
        # --dry-run printed "config ok", and the run then asked for a
        # 1.9 GiB word array for its first epoch's draw
        cfg = tmp_path / "big.cfg"
        cfg.write_text(_set(_set(RUN_CFG, "iterations", "10000000"), "k_samples", "4"))
        for flags in (["--dry-run"], []):
            out = tmp_path / "m.ckpt"
            done = _run_cli([
                "train", "-c", str(cfg), "-d", str(wide_split / "ds.train.cird"),
                "--val", str(wide_split / "ds.val.cird"), "-o", str(out), *flags,
            ])
            assert done.returncode == 2
            assert done.stderr.startswith("error: iterations = 10000000 x 4 x p_classes")
            assert len(done.stderr.splitlines()) == 1 and "Traceback" not in done.stderr
            assert "at most 2**28" in done.stderr
            assert done.stdout == "" and not out.exists()

    @pytest.mark.parametrize("key", ["embed_dim", "hidden_dims"])
    def test_encoder_beyond_the_bound_exits_2(self, wide_split, tmp_path, capsys, key):
        # numpy raised MemoryError after --dry-run printed "config ok"
        cfg = tmp_path / "big.cfg"
        cfg.write_text(_set(RUN_CFG, key, str(10**12)))
        for flags in (["--dry-run"], []):
            out = tmp_path / "m.ckpt"
            assert entrypoint([
                "train", "-c", str(cfg), "-d", str(wide_split / "ds.train.cird"),
                "--val", str(wide_split / "ds.val.cird"), "-o", str(out), *flags,
            ]) == 2
            err = capsys.readouterr().err
            assert f"{key}" in err and str(10**12) in err
            assert "at most 2**28" in err and "Traceback" not in err
            assert not out.exists()

    def test_unknown_key_exits_2(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("lamda = 0.5\n")
        assert entrypoint([
            "train", "-c", str(bad), "-d", str(workdir / "ds.train.cird"),
            "-o", str(tmp_path / "m.ckpt"),
        ]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_dry_run_writes_nothing(self, workdir, tmp_path):
        out = tmp_path / "m.ckpt"
        assert entrypoint([
            "train", "-c", str(workdir / "run.cfg"),
            "-d", str(workdir / "ds.train.cird"),
            "--val", str(workdir / "ds.val.cird"),
            "-o", str(out), "--dry-run",
        ]) == 0
        assert not out.exists()
        assert not (tmp_path / "m.ckpt.manifest").exists()

    def test_missing_dataset_exits_3(self, workdir, tmp_path):
        assert entrypoint([
            "train", "-c", str(workdir / "run.cfg"),
            "-d", str(tmp_path / "nope.cird"), "-o", str(tmp_path / "m.ckpt"),
        ]) == 3

    def test_non_utf8_provenance_exits_2(self, workdir, tmp_path):
        bad = tmp_path / "bad.cird"
        bad.write_bytes((workdir / "ds.train.cird").read_bytes() + b"\xff\xfe")
        assert entrypoint([
            "train", "-c", str(workdir / "run.cfg"),
            "-d", str(bad), "-o", str(tmp_path / "m.ckpt"),
        ]) == 2

    def test_declared_classes_beyond_rows_exit_2(self, tmp_path, capsys):
        # an OIM run would size its class table from the header's count
        path = tmp_path / "huge.cird"
        save_dataset(Dataset(
            features=np.zeros((5, 3), dtype=np.float32),
            labels=np.arange(5), class_count=2**20, provenance="header test",
        ), str(path))
        cfg = tmp_path / "oim.cfg"
        cfg.write_text("loss_mode = oim\nepochs = 1\niterations = 1\nembed_dim = 4\n")
        assert entrypoint([
            "train", "-c", str(cfg), "-d", str(path), "-o", str(tmp_path / "m.ckpt"),
        ]) == 2
        assert "declares 1048576 classes but has only 5 rows" in capsys.readouterr().err

    def test_dry_run_checks_train_split_episodes(self, workdir, tmp_path, capsys):
        # 10 classes of 3 rows feed 4 x 3 batches, but the per-epoch
        # train-proxy episodes need 1 + 3 rows per class
        path = tmp_path / "short.cird"
        save_dataset(Dataset(
            features=np.zeros((30, 6), dtype=np.float32),
            labels=np.repeat(np.arange(10), 3), class_count=10,
            provenance="short classes",
        ), str(path))
        out = tmp_path / "m.ckpt"
        assert entrypoint([
            "train", "-c", str(workdir / "run.cfg"), "-d", str(path),
            "--val", str(workdir / "ds.val.cird"), "-o", str(out), "--dry-run",
        ]) == 2
        assert "train class 0 has 3 samples, episodes need 4" in capsys.readouterr().err
        assert not out.exists()

    def test_validation_split_of_another_width_exits_2(self, workdir, tmp_path, capsys):
        # --dry-run printed "config ok", and training failed after epoch 0
        assert entrypoint([
            "gen", "--classes", "8", "--per-class", "12", "--dim", "8", "--seed", "3",
            "--split", "0.5,0.25,0.25", "-o", str(tmp_path / "wide.cird"),
        ]) == 0
        capsys.readouterr()
        for flags in (["--dry-run"], []):
            out = tmp_path / "m.ckpt"
            assert entrypoint([
                "train", "-c", str(workdir / "run.cfg"),
                "-d", str(tmp_path / "wide.train.cird"),
                "--val", str(workdir / "ds.val.cird"), "-o", str(out), *flags,
            ]) == 2
            err = capsys.readouterr().err
            assert err == (
                "error: validation split has 6 input columns, train split has 8\n"
            )
            assert not out.exists()

    def test_dry_run_refuses_empty_holdout(self, tmp_path, capsys):
        # 9 rows per class: a 0.1 holdout takes floor(0.9) = 0 of each
        assert entrypoint([
            "gen", "--classes", "6", "--per-class", "9", "--dim", "4",
            "-o", str(tmp_path / "nine.cird"),
        ]) == 0
        cfg = tmp_path / "oim.cfg"
        cfg.write_text("loss_mode = oim\nepochs = 1\niterations = 1\nembed_dim = 4\n")
        out = tmp_path / "m.ckpt"
        assert entrypoint([
            "train", "-c", str(cfg), "-d", str(tmp_path / "nine.cird"),
            "-o", str(out), "--dry-run",
        ]) == 2
        assert "holds out no rows" in capsys.readouterr().err
        assert not out.exists()

    def test_divergence_exits_4(self, workdir, tmp_path):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(
            "epochs = 2\niterations = 30\nhidden_dims = 8\nembed_dim = 4\n"
            "activation = identity\nlearning_rate = 1e200\n"
            "p_classes = 4\nk_samples = 3\neval_n_way = 2\n"
            "eval_q_queries = 3\neval_episodes = 5\n"
        )
        with np.errstate(over="ignore", invalid="ignore"):
            code = entrypoint([
                "train", "-c", str(cfg), "-d", str(workdir / "ds.train.cird"),
                "--val", str(workdir / "ds.val.cird"),
                "-o", str(tmp_path / "m.ckpt"),
            ])
        assert code == 4


class TestEval:
    def eval_args(self, trained, extra=()):
        return [
            "eval", str(trained / "m.ckpt"), "-d", str(trained / "ds.test.cird"),
            "--way", "2", "--queries", "3", "--episodes", "40", "--seed", "9",
            *extra,
        ]

    @pytest.mark.parametrize("seed, message", [
        ("-1", "--seed must be >= 0, got -1"),
        ("18446744073709551616", "--seed must be < 2**64, got 18446744073709551616"),
    ])
    def test_seed_outside_64_bits_exits_2_before_loading(
        self, tmp_path, capsys, seed, message
    ):
        # -1 drew the episodes of 2**64 - 1, and 2**64 those of 0; a
        # missing checkpoint would exit 3, so the seed is refused first
        assert entrypoint([
            "eval", str(tmp_path / "none.ckpt"), "-d", str(tmp_path / "none.cird"),
            "--seed", seed,
        ]) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""

    def test_stdout_csv_schema(self, trained, capsys):
        assert entrypoint(self.eval_args(trained)) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "metric,value,ci95"
        name, value, ci = lines[1].split(",")
        assert name == "episodic_accuracy"
        assert 0.0 <= float(value) <= 1.0
        assert float(ci) >= 0.0

    def test_stdout_deterministic(self, trained, capsys):
        entrypoint(self.eval_args(trained))
        first = capsys.readouterr().out
        entrypoint(self.eval_args(trained))
        assert capsys.readouterr().out == first

    def test_output_file_and_manifest(self, trained, tmp_path):
        out = tmp_path / "metrics.csv"
        assert entrypoint(self.eval_args(trained, ("-o", str(out)))) == 0
        assert out.read_text().startswith("metric,value,ci95\n")
        assert (tmp_path / "metrics.csv.manifest").exists()

    def test_retrieval_protocol(self, trained, capsys):
        assert entrypoint([
            "eval", str(trained / "m.ckpt"), "-d", str(trained / "ds.test.cird"),
            "--protocol", "retrieval",
        ]) == 0
        out = capsys.readouterr().out
        assert "map," in out and "cmc_rank1," in out

    def test_zero_episodes_exits_2(self, trained):
        assert entrypoint([
            "eval", str(trained / "m.ckpt"), "-d", str(trained / "ds.test.cird"),
            "--episodes", "0",
        ]) == 2

    @pytest.mark.parametrize("episodes", [10**12, 10**30])
    def test_episode_set_beyond_the_bound_exits_2(self, trained, capsys, episodes):
        # numpy raised MemoryError at 10**12 and ValueError at 10**30 (exit 1)
        extra = ("--episodes", str(episodes))
        assert entrypoint(self.eval_args(trained, extra)) == 2
        captured = capsys.readouterr()
        assert f"episodes = {episodes} episodes of 2 x (1 + 3) rows" in captured.err
        assert "at most 2**28" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("temperature, code, message", [
        ("nan", 2, "temperature must be finite and > 0"),
        ("inf", 2, "temperature must be finite and > 0"),
        ("1e-320", 4, "non-finite classification logits"),
    ])
    def test_classification_temperature_out_of_range(
        self, trained, capsys, temperature, code, message
    ):
        # argmax does not depend on a finite positive temperature; these
        # would print another accuracy
        assert entrypoint([
            "eval", str(trained / "m.ckpt"), "-d", str(trained / "ds.train.cird"),
            "--protocol", "classification", "--temperature", temperature,
        ]) == code
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_dim_mismatch_exits_2(self, trained, tmp_path):
        assert entrypoint([
            "gen", "--classes", "4", "--per-class", "8", "--dim", "9",
            "-o", str(tmp_path / "wide.cird"),
        ]) == 0
        assert entrypoint([
            "eval", str(trained / "m.ckpt"), "-d", str(tmp_path / "wide.cird"),
            "--way", "2", "--queries", "2", "--episodes", "5",
        ]) == 2


class TestAnalyze:
    def test_reports_geometry_and_identity(self, trained, capsys):
        assert entrypoint([
            "analyze", str(trained / "m.ckpt"),
            "-d", str(trained / "ds.test.cird"), "--draws", "500",
        ]) == 0
        out = capsys.readouterr().out
        assert "inter_intra_ratio" in out
        line = next(l for l in out.split("\n") if l.startswith("blend_identity"))
        assert float(line.split()[1]) < 1e-9

    @pytest.mark.parametrize("flags,message", [
        (("--seed", "-1"), "--seed must be >= 0, got -1"),
        (("--seed", "18446744073709551616"),
         "--seed must be < 2**64, got 18446744073709551616"),
        (("--draws", "-3"), "--draws must be >= 1, got -3"),
        (("--draws", "0"), "--draws must be >= 1, got 0"),
    ])
    def test_bad_flags_exit_2(self, trained, capsys, flags, message):
        assert entrypoint([
            "analyze", str(trained / "m.ckpt"),
            "-d", str(trained / "ds.test.cird"), *flags,
        ]) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("command", [
    ("train",), ("eval", "--protocol", "episodic"), ("eval", "--protocol", "retrieval"),
    ("eval", "--protocol", "classification"), ("analyze",),
])
def test_non_finite_feature_exits_2_naming_file_and_row(
    trained, tmp_path, capsys, command
):
    split = "train" if command[0] == "train" else "test"
    # save_dataset refuses a non-finite feature: write it into the bytes
    blob = bytearray((trained / f"ds.{split}.cird").read_bytes())
    d = struct.unpack_from("<I", blob, 12)[0]
    struct.pack_into("<f", blob, 20 + 4 * ((1 + d) * 3 + 2), np.inf)
    bad = tmp_path / "bad.cird"
    bad.write_bytes(blob)
    if command[0] == "train":
        args = ["train", "-c", str(trained / "run.cfg"), "-d", str(bad),
                "--val", str(trained / "ds.val.cird"), "-o", str(tmp_path / "m.ckpt")]
    else:
        args = [command[0], str(trained / "m.ckpt"), "-d", str(bad), *command[1:]]
    assert entrypoint(args) == 2
    assert f"{bad}: row 3 has a non-finite feature" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("command", [
    ("eval", "--protocol", "episodic", "--way", "2", "--queries", "3"),
    ("eval", "--protocol", "retrieval"), ("analyze",),
])
def test_non_finite_weight_exits_2_naming_file(trained, tmp_path, capsys, command):
    # save_checkpoint refuses a NaN weight: write it into the bytes; the
    # scores came out as numbers, and analyze printed a nan distance
    blob = bytearray((trained / "m.ckpt").read_bytes())
    layers = struct.unpack_from("<I", blob, 4)[0]
    struct.pack_into("<f", blob, 4 + 4 * (layers + 2) + 1, np.nan)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob)
    assert entrypoint([command[0], str(bad), "-d", str(trained / "ds.test.cird"),
                       *command[1:]]) == 2
    captured = capsys.readouterr()
    assert f"{bad}: non-finite weight, bias or table entry" in captured.err
    assert captured.out == ""


def test_classification_of_an_empty_split_exits_2(trained, tmp_path, capsys):
    # the other protocols and analyze refuse a 0-row file too
    ds = load_dataset(str(trained / "ds.train.cird"))
    empty = tmp_path / "empty.cird"
    save_dataset(Dataset(ds.features[:0], ds.labels[:0], ds.class_count, ""), str(empty))
    assert entrypoint(["eval", str(trained / "m.ckpt"), "-d", str(empty),
                       "--protocol", "classification"]) == 2
    captured = capsys.readouterr()
    assert "classification needs at least one row" in captured.err
    assert captured.out == ""


class TestReproduceCommand:
    def test_tiny_matrix_runs(self, tmp_path, capsys):
        code = entrypoint([
            "reproduce", "-o", str(tmp_path / "rep"),
            "--seeds", "0", "--epochs", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cir" in out and ("PASS" in out or "FAIL" in out)
        assert (tmp_path / "rep" / "summary.csv").exists()
        manifest = (tmp_path / "rep" / "reproduce.manifest").read_text()
        config_block = manifest.split("[config]\n", 1)[1]
        base = ReproduceSettings(seeds=(0,), epochs=2).base
        assert parse_config_text(config_block) == base
        assert "# seeds = (0,)\n" in config_block

    def test_manifest_lists_only_this_runs_files(self, tmp_path):
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        for out, seeds in ((reused, "0,1"), (reused, "0"), (fresh, "0")):
            assert entrypoint([
                "reproduce", "-o", str(out), "--seeds", seeds, "--epochs", "1",
                "--threads", "1",
            ]) == 0
        # the first run's seed-1 curves are still in the reused directory
        assert (reused / "curves_cir_seed1.csv").exists()
        manifest = (reused / "reproduce.manifest").read_text()
        listed = [
            line.split(" = ")[1] for line in manifest.splitlines()
            if line.startswith("output_") and "_sha256 = " not in line
        ]
        assert [os.path.basename(p) for p in listed] == [
            "curves_cir_seed0.csv", "curves_no_reg_seed0.csv",
            "curves_noise_seed0.csv", "summary.csv", "train_loss.svg",
            "val_accuracy.svg",
        ]
        fresh_manifest = (fresh / "reproduce.manifest").read_text()
        assert manifest.replace(str(reused), str(fresh)) == fresh_manifest

    @pytest.mark.parametrize("flags", [
        ("--seeds", "a"),
        ("--seeds", "0,,1"),
        ("--epochs", "-1"),
        ("--epochs", "0"),
        ("--seeds=-1",),
        ("--seeds", "0,18446744073709551616"),
    ])
    def test_bad_matrix_flags_exit_2_before_any_output(self, tmp_path, capsys, flags):
        out = tmp_path / "rep"
        assert entrypoint(["reproduce", "-o", str(out), *flags]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


BLAS_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
)


def _blas_probe(**env):
    """Import cirlab.cli in a fresh interpreter with no BLAS variable set
    but `env`, run a 300 x 300 matmul, and return the interpreter's thread
    count (None without /proc) and its OPENBLAS_NUM_THREADS."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS} | env
    src = os.path.dirname(os.path.dirname(cirlab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import os, cirlab.cli, numpy as np\n"
        "a = np.ones((300, 300)); a @ a\n"
        "task = '/proc/self/task'\n"
        "print(len(os.listdir(task)) if os.path.isdir(task) else None,"
        " os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout.split()
    return (None if out[0] == "None" else int(out[0])), out[1]


class TestBlasThreads:
    def test_one_thread_by_default(self):
        threads, value = _blas_probe()
        if threads is None:
            pytest.skip("no /proc/self/task to count threads in")
        assert (threads, value) == (1, "1")

    def test_explicit_setting_wins(self):
        assert _blas_probe(OPENBLAS_NUM_THREADS="2")[1] == "2"


def test_usage_error_exits_2(capsys):
    assert entrypoint(["train"]) == 2
    capsys.readouterr()
