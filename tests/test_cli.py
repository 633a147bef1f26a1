"""End-to-end tests of the command-line interface and its exit codes."""

import numpy as np
import pytest

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

    def test_single_class_rejected(self, tmp_path):
        assert entrypoint([
            "gen", "--classes", "1", "-o", str(tmp_path / "x.cird"),
        ]) == 2
        assert not (tmp_path / "x.cird").exists()


class TestTrain:
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

    @pytest.mark.parametrize("flags", [
        ("--seeds", "a"),
        ("--seeds", "0,,1"),
        ("--epochs", "-1"),
        ("--epochs", "0"),
    ])
    def test_bad_matrix_flags_exit_2_before_any_output(self, tmp_path, capsys, flags):
        out = tmp_path / "rep"
        assert entrypoint(["reproduce", "-o", str(out), *flags]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


def test_usage_error_exits_2(capsys):
    assert entrypoint(["train"]) == 2
    capsys.readouterr()
