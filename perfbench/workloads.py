"""The benchmark's three workloads.

Each workload is single-process and closed-loop: an operation starts
when the previous one ends.  A workload has

* ``setup(data_dir, inputs)``: dataset generation and config writing,
  timed as part of ``setup_s``;
* ``run_pass(pass_dir, data_dir, inputs, threads, between=None)``: the
  measured operations, returning one `Op` per matrix cell or CLI command;
  the CLI workloads call ``between`` before each round of their eval
  commands;
* ``numbers(pass_dir)``: the scientific numbers of the pass outputs, which
  the correctness gate compares with the seed commit's reference values;
* ``exponents``: the host-speed exponents (see hostspeed.py) of those
  timings that do not use the default one.

``inputs`` is the input set, derived from the workload seed; every dataset,
run and episode seed comes from it.  CLI commands run in-process through
``cirlab.cli.entrypoint`` with the pass directory as working directory and
the data at ``../data``, so manifests hold the same relative paths in every
pass.  Everything is called through module attributes, so the tracer's
replacements are seen.
"""

import contextlib
import csv
import hashlib
import io
import os
import time
import traceback
from dataclasses import dataclass

import cirlab.cli
import cirlab.reproduce


@dataclass
class Op:
    kind: str  # "cell", "setup", "gen", "train" or "eval"
    ok: bool
    seconds: float
    message: str = ""


def run_cli(kind, argv):
    """Run one CLI command in-process; any exception counts as a failure."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cirlab.cli.entrypoint(argv)
        message = "" if code == 0 else f"exit {code}: {err.getvalue().strip()}"
    except Exception:
        message = traceback.format_exc()
    return Op(kind, not message, time.perf_counter() - start,
              f"{' '.join(argv)}: {message}" if message else "")


@contextlib.contextmanager
def _cwd(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def digest(directory):
    """sha256 over the relative path and bytes of every file below it."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, directory).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _log_numbers(prefix, path):
    last = _read_csv(path)[-1]
    return {
        f"{prefix}/val_acc": float(last["val_acc"]),
        f"{prefix}/gap": float(last["train_acc"]) - float(last["val_acc"]),
        f"{prefix}/inter_intra_ratio": float(last["inter_intra_ratio"]),
    }


def _eval_numbers(prefix, path):
    return {f"{prefix}/{row['metric']}": float(row["value"])
            for row in _read_csv(path)}


class CellTimers:
    """Wall time of the ``train`` and ``evaluate_checkpoint`` calls of the
    reproduce cells.

    The cells run in pool workers forked from this process, which inherit
    the timing wrappers; each worker appends its records to a file named by
    its pid in ``directory``, which the caller points at a fresh directory
    before each pass.
    """

    KINDS = {"train": "train_s", "evaluate_checkpoint": "eval_s"}

    def __init__(self):
        self.directory = None
        for attr, kind in self.KINDS.items():
            setattr(cirlab.reproduce, attr,
                    self._timed(getattr(cirlab.reproduce, attr), kind))

    def _timed(self, fn, kind):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                path = os.path.join(self.directory, f"{os.getpid()}.txt")
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(f"{kind} {seconds!r}\n")
        return timed

    def totals(self):
        out = dict.fromkeys(self.KINDS.values(), 0.0)
        for name in os.listdir(self.directory):
            with open(os.path.join(self.directory, name), encoding="utf-8") as fh:
                for line in fh:
                    kind, seconds = line.split()
                    out[kind] += float(seconds)
        return out


class ReproduceMatrix:
    """All three arms over two seeds at P x K = 8 x 4, the reproduce
    defaults otherwise (spec, 30 log episodes, 2 x 600 final episodes)."""

    name = "reproduce_matrix"
    threads = 2
    epochs = 10
    exponents = {}

    def setup(self, data_dir, inputs):
        os.makedirs(data_dir, exist_ok=True)
        return []  # the cells generate their own datasets

    def run_pass(self, pass_dir, data_dir, inputs, threads, between=None):
        seeds = (2 * inputs, 2 * inputs + 1)
        settings = cirlab.reproduce.ReproduceSettings(
            seeds=seeds, epochs=self.epochs
        )
        cells = len(cirlab.reproduce.ARMS) * len(seeds)
        start = time.perf_counter()
        try:
            report = cirlab.reproduce.run_reproduction(
                pass_dir, settings=settings, threads=threads
            )
        except Exception:
            seconds = time.perf_counter() - start
            return [Op("cell", False, seconds, traceback.format_exc())] * cells
        seconds = time.perf_counter() - start
        return [Op("cell", True, seconds)] * len(report.runs) + [
            Op("cell", False, seconds, f"{arm} seed={seed}: {msg}")
            for arm, seed, msg in report.failures
        ]

    def numbers(self, pass_dir):
        out = {}
        for row in _read_csv(os.path.join(pass_dir, "summary.csv")):
            if row["seed"] == "ci95":
                continue
            for col in ("val_acc", "gap", "inter_intra_ratio"):
                out[f"{row['arm']}/{row['seed']}/{col}"] = float(row[col])
        return out


class CliWorkload:
    """Shared shape of the CLI workloads: ``gen`` in setup, then a fixed
    list of train/eval commands per pass.

    The eval commands of a pass run ``eval_rounds`` times, one round after
    another, each round rewriting the same bytes.  An eval lasts well under
    a second, and on a shared host a short operation is often caught by
    another tenant's burst, so a pass's eval time is its fastest round.
    """

    threads = 1
    eval_rounds = 5
    exponents = {}
    gen_args = ()
    configs = {}  # file name -> config text with a {seed} field

    def setup(self, data_dir, inputs):
        os.makedirs(data_dir, exist_ok=True)
        for name, text in self.configs.items():
            with open(os.path.join(data_dir, name), "w", encoding="utf-8",
                      newline="\n") as fh:
                fh.write(text.format(seed=inputs))
        with _cwd(os.path.dirname(data_dir)):
            return [run_cli("gen", ["gen", *self.gen_args, "--split",
                                    "0.64,0.16,0.20", "--seed", str(inputs),
                                    "-o", "data/ds.cird"])]

    def run_pass(self, pass_dir, data_dir, inputs, threads, between=None):
        data = os.path.relpath(data_dir, pass_dir)
        os.makedirs(pass_dir, exist_ok=True)
        ops = []
        commands = self.commands(data, inputs)
        with _cwd(pass_dir):
            for argv in commands:
                if argv[0] == "train":
                    ops.append(run_cli("train", argv))
            for _ in range(self.eval_rounds):
                if between is not None:
                    between()
                for argv in commands:
                    if argv[0] == "eval":
                        ops.append(run_cli("eval", argv))
        return ops

    @staticmethod
    def train(data, config, out):
        return ["train", "-c", f"{data}/{config}", "-d", f"{data}/ds.train.cird",
                "--val", f"{data}/ds.val.cird", "-o", out]


class CliTripletB256(CliWorkload):
    """Batch-all triplet training at P x K = 32 x 8, then 600 episodes."""

    name = "cli_triplet_b256"
    # Its training time goes to B^3 array math, which slows down much less
    # than the probe's small operations when the host is busy.
    exponents = {"train_s": 0.4}
    gen_args = ("--classes", "100", "--per-class", "40", "--dim", "32",
                "--nonlinearity", "rotate_mix", "--label-noise", "0.1")
    configs = {"triplet.cfg": (
        "loss_mode = triplet\nepochs = 2\niterations = 20\n"
        "learning_rate = 0.001\np_classes = 32\nk_samples = 8\n"
        "lambda = 0.5\ngamma = 0.5\nseed = {seed}\n"
    )}

    def commands(self, data, inputs):
        return [
            self.train(data, "triplet.cfg", "model.ckpt"),
            ["eval", "model.ckpt", "-d", f"{data}/ds.test.cird",
             "--protocol", "episodic", "--way", "5", "--shot", "1",
             "--queries", "15", "--episodes", "600", "--seed", str(inputs),
             "-o", "eval.csv"],
        ]

    def numbers(self, pass_dir):
        return {
            **_log_numbers("train", os.path.join(pass_dir, "model.ckpt.log.csv")),
            **_eval_numbers("eval", os.path.join(pass_dir, "eval.csv")),
        }


class CliClassify(CliWorkload):
    """OIM training plus classification eval, and a cross-entropy then
    preformed-triplet two-stage run plus retrieval eval."""

    name = "cli_classify"
    gen_args = ("--preset", "reproduce")
    configs = {
        "oim.cfg": (
            "loss_mode = oim\nepochs = 10\nlearning_rate = 0.001\n"
            "temperature = 1.0\nlambda = 0.5\ngamma = 0.5\nseed = {seed}\n"
        ),
        "two_stage.cfg": (
            "loss_mode = cross_entropy\nepochs = 10\nlearning_rate = 0.01\n"
            "lambda = 0.5\ngamma = 0.5\nseed = {seed}\n\n[stage2]\n"
            "loss_mode = triplet\nmining = preformed\nepochs = 5\n"
            "learning_rate = 0.001\nlambda = 0.5\ngamma = 0.5\nseed = {seed}\n"
        ),
    }

    def commands(self, data, inputs):
        return [
            self.train(data, "oim.cfg", "oim.ckpt"),
            ["eval", "oim.ckpt", "-d", f"{data}/ds.train.cird",
             "--protocol", "classification", "-o", "oim.eval.csv"],
            self.train(data, "two_stage.cfg", "two_stage.ckpt"),
            ["eval", "two_stage.ckpt", "-d", f"{data}/ds.test.cird",
             "--protocol", "retrieval", "-o", "two_stage.eval.csv"],
        ]

    def numbers(self, pass_dir):
        return {
            **_log_numbers("oim", os.path.join(pass_dir, "oim.ckpt.log.csv")),
            **_eval_numbers("oim", os.path.join(pass_dir, "oim.eval.csv")),
            **_log_numbers("two_stage",
                           os.path.join(pass_dir, "two_stage.ckpt.log.csv")),
            **_eval_numbers("two_stage",
                            os.path.join(pass_dir, "two_stage.eval.csv")),
        }


WORKLOADS = {w.name: w for w in (ReproduceMatrix(), CliTripletB256(), CliClassify())}
