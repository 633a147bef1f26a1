"""Checks that the benchmark's tooling still matches the package.

The traced benchmark run looks every traced layer up by name, and the
reproduce workload builds its settings and times its cells through
names in `cirlab.reproduce`, so a function deleted or renamed in the
package breaks it; these tests catch that here instead. The tracer
also sees a training step's calls only while the trainer makes them
through its module-level names, not through references captured once
per run. The reproduce workload's train_s times the matrix's calls of
`cirlab.reproduce.train`, so every training step must run inside one;
its eval_s times the calls of `cirlab.reproduce.evaluate_checkpoint`,
so every final episodic score must run inside one. The tracer sums the
loss's counts and dumps them to JSON, so they must stay Python ints.
They read perfbench/ and change nothing there. Another test scans the
package's own source for code that nothing reads, one checks README's
config-key table against the parser, and the last runs a failing
property test under the repo's pytest settings.
"""

import ast
import importlib
import importlib.util
import json
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import cirlab.config
import cirlab.reproduce
import cirlab.sampling
import cirlab.trainer
from cirlab.datagen import GeneratorSpec, gen_gaussian_mixture, split_classes
from cirlab.interference import NoiseConfig
from cirlab.trainer import TrainConfig

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = Path(cirlab.trainer.__file__).resolve().parent


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_the_package():
    traced = load_tracer().TRACED
    assert traced
    missing = []
    for name in traced:
        module_name, func_name = name.split(".")
        module = importlib.import_module(f"cirlab.{module_name}")
        if not callable(getattr(module, func_name, None)):
            missing.append(name)
    assert missing == []


def test_reproduce_workload_call_contract():
    # perfbench/workloads.py builds the matrix's settings from these two
    # keywords, and its CellTimers wraps train and evaluate_checkpoint
    # where the cells look them up
    reproduce = importlib.import_module("cirlab.reproduce")
    settings = reproduce.ReproduceSettings(seeds=(0, 1), epochs=10)
    assert settings.base.epochs == 10
    assert reproduce.ARMS
    for name in ("train", "evaluate_checkpoint"):
        assert callable(getattr(reproduce, name, None)), name


# the step runs the encoder and folds the table through the unchecked
# cores; `forward` and `tac_update` check, then call them
STEP_CALLS = (
    "_layers", "batch_all_triplet_loss", "backward", "sgd_step_in_place", "_fold",
)
# the training stream's draws: the batch-all head draws an epoch's
# batches and decoys in one pk_epoch call, the others in one step_draws
# call, which makes one sampling.negative_classes call a step
DRAW_CALLS = ("pk_epoch", "step_draws")
# the softmax heads' layers, which the batch-all head never calls (the
# checked `forward` runs the cross-entropy head); label_smooth builds the
# run's target table once, so no step calls it
SOFTMAX_CALLS = (
    "oim_scores", "label_smooth", "batch_cross_entropy", "input_gradient", "forward",
)

HEADS = {
    "batch_all": {},
    "preformed": dict(mining="preformed"),
    "oim": dict(loss_mode="oim"),
    "cross_entropy": dict(loss_mode="cross_entropy"),
}


def count_step_calls(monkeypatch, arms, head="batch_all"):
    """Each step layer's calls in one more training step of a call that
    trains a config of this head plus `arms` further configs in lockstep;
    layers the step does not call are left out. Every head's epoch is
    one pk_epoch or step_draws call, however many steps and arms it has."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in STEP_CALLS + DRAW_CALLS + SOFTMAX_CALLS:
        monkeypatch.setattr(
            cirlab.trainer, name, counted(name, getattr(cirlab.trainer, name))
        )
    real_decoys = cirlab.sampling.negative_classes
    monkeypatch.setattr(
        cirlab.sampling, "negative_classes", counted("negative_classes", real_decoys)
    )
    totals = []
    for iterations in (1, 2):
        counts.clear()
        train_tiny(head, iterations, arms)
        totals.append(counts.copy())
    assert all(totals[0][name] >= 1 for name in totals[1])
    assert [t["pk_epoch"] for t in totals] == [int(head == "batch_all")] * 2
    assert [t["step_draws"] for t in totals] == [int(head != "batch_all")] * 2
    return dict(totals[1] - totals[0])


def tiny_split():
    """The (train, val) splits `train_tiny` trains on."""
    ds = gen_gaussian_mixture(GeneratorSpec(
        num_classes=12, samples_per_class=20, input_dim=8, seed=0,
    ))
    return split_classes(ds, (0.5, 0.25, 0.25), seed=0)[:2]


def tiny_config(head, iterations):
    """A one-epoch config of this head of `iterations` steps that fits
    `tiny_split`."""
    return TrainConfig(
        epochs=1, iterations=iterations, hidden_dims=(8,), embed_dim=4,
        p_classes=4, k_samples=3, eval_n_way=3, eval_q_queries=2,
        eval_episodes=2, **HEADS[head],
    )


def train_tiny(head, iterations, arms):
    """Train one epoch of `iterations` steps of a config of this head with
    the blend off, in lockstep with the first `arms` of (cir, matched
    noise)."""
    tr, va = tiny_split()
    cfg = tiny_config(head, iterations)
    off = replace(cfg.interference, enabled=False)
    cir_noise = (
        cfg, replace(cfg, interference=off, noise=NoiseConfig(enabled=True))
    )[:arms]
    cirlab.trainer.train(tr, va, replace(cfg, interference=off), arms=cir_noise)


def test_each_step_calls_every_layer_once_through_trainer_names(monkeypatch):
    # one more step: one more call of each, outside the per-epoch embeds
    # and the epoch's one draw
    assert count_step_calls(monkeypatch, 0) == {name: 1 for name in STEP_CALLS}


def test_lockstep_arms_share_one_call_of_each_stacked_layer(monkeypatch):
    # no_reg, cir and noise share one draw of the epoch's batches and
    # decoys (count_step_calls checks one pk_epoch call an epoch); the
    # encoder, the loss, the backward pass, the SGD step and the table
    # update run once a step for all three
    assert count_step_calls(monkeypatch, 2) == {
        "_layers": 1, "batch_all_triplet_loss": 1, "backward": 1,
        "sgd_step_in_place": 1, "_fold": 1,
    }


@pytest.mark.parametrize("arms", [0, 2])
@pytest.mark.parametrize("head", ["preformed", "oim", "cross_entropy"])
def test_every_head_runs_once_on_the_arm_stack(monkeypatch, head, arms):
    # the preformed and softmax heads and the general table update take
    # the whole stack too: one call per step however many arms there are,
    # and one decoy draw for every arm
    want = {"_layers": 1, "negative_classes": 1, "backward": 1,
            "sgd_step_in_place": 1, "_fold": 1}
    if head == "oim":
        want.update(oim_scores=1, batch_cross_entropy=1)
    if head == "cross_entropy":
        # the linear head's own checked forward, backward and SGD step, and
        # the gradient through it; it scores the blended rows, not the table
        want.update(batch_cross_entropy=1, forward=1, backward=2,
                    sgd_step_in_place=2, input_gradient=1)
    assert count_step_calls(monkeypatch, arms, head) == want


@pytest.mark.parametrize("head", HEADS)
def test_the_step_draws_nothing(monkeypatch, head):
    # the training stream is read outside the step, by `parts.epoch`
    # alone, once an epoch: the batch-all epoch is one draw of every batch
    # and decoy, the other heads' `step_draws` takes one batch and one
    # decoy draw a step, and none of them is drawn while the step runs
    draws = ("pk_epoch", "step_draws", "negative_classes", "batch sample", "parts.epoch")
    counts, stepping = Counter(), [False]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name, stepping[0]] += 1
            return fn(*args, **kwargs)
        return wrapper

    real_step, real_parts = cirlab.trainer._step, cirlab.trainer._mode_parts
    real_draws = cirlab.trainer.step_draws

    def step(*args):
        stepping[0] = True
        try:
            return real_step(*args)
        finally:
            stepping[0] = False

    def mode_parts(*args):
        parts = real_parts(*args)
        return parts._replace(epoch=counted("parts.epoch", parts.epoch))

    def step_draws(sample, *args):
        # the one-batch sampler of the uniform and preformed heads
        return real_draws(counted("batch sample", sample), *args)

    monkeypatch.setattr(cirlab.trainer, "pk_epoch",
                        counted("pk_epoch", cirlab.trainer.pk_epoch))
    monkeypatch.setattr(cirlab.trainer, "step_draws", counted("step_draws", step_draws))
    monkeypatch.setattr(cirlab.sampling, "negative_classes",
                        counted("negative_classes", cirlab.sampling.negative_classes))
    monkeypatch.setattr(cirlab.trainer, "_step", step)
    monkeypatch.setattr(cirlab.trainer, "_mode_parts", mode_parts)
    train_tiny(head, 3, 2)
    assert {name: counts[name, True] for name in draws} == dict.fromkeys(draws, 0)
    epoch = head == "batch_all"
    assert {name: counts[name, False] for name in draws} == {
        "pk_epoch": 1 if epoch else 0,
        "step_draws": 0 if epoch else 1,
        "negative_classes": 0 if epoch else 3,
        "batch sample": 0 if epoch else 3,
        "parts.epoch": 1,
    }


TINY_MATRIX = cirlab.reproduce.ReproduceSettings(
    seeds=(0, 1), epochs=1,
    base=replace(
        cirlab.reproduce.ReproduceSettings().base,
        iterations=3, hidden_dims=(8,), embed_dim=4, p_classes=3, k_samples=3,
        eval_n_way=3, eval_episodes=4,
    ),
    eval_q_queries=3, eval_episodes=6,
    dataset=GeneratorSpec(num_classes=12, samples_per_class=16, input_dim=8),
    splits=(0.5, 0.25, 0.25),
)


def test_reproduce_steps_run_only_inside_reproduce_train(monkeypatch, tmp_path):
    # the benchmark's train_s times calls of cirlab.reproduce.train, so
    # every training step of the matrix must run inside one; the arms of
    # a seed share a call
    depth, outside, calls = [0], [], []
    real_train, real_step = cirlab.reproduce.train, cirlab.trainer._step

    def train(*args, **kwargs):
        calls.append(1)
        depth[0] += 1
        try:
            return real_train(*args, **kwargs)
        finally:
            depth[0] -= 1

    def step(*args):
        if not depth[0]:
            outside.append(1)
        return real_step(*args)

    monkeypatch.setattr(cirlab.reproduce, "train", train)
    monkeypatch.setattr(cirlab.trainer, "_step", step)
    report = cirlab.reproduce.run_reproduction(
        str(tmp_path), settings=TINY_MATRIX, threads=1
    )
    assert report.ok and len(report.runs) == 6
    assert outside == [] and len(calls) == 2


def test_reproduce_final_evals_run_only_inside_reproduce_evaluate_checkpoint(
    monkeypatch, tmp_path
):
    # the benchmark's eval_s times calls of cirlab.reproduce.evaluate_checkpoint,
    # so every episodic score outside training must run inside one: a
    # validation and a train score per cell
    active, calls = Counter(), []
    real_episodic = cirlab.trainer.episodic_accuracy

    def entered(name, fn):
        def wrapper(*args, **kwargs):
            active[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                active[name] -= 1
        return wrapper

    def episodic_accuracy(*args, **kwargs):
        if not active["train"]:  # the epoch logs score inside train
            calls.append(active["evaluate_checkpoint"])
        return real_episodic(*args, **kwargs)

    for name in ("train", "evaluate_checkpoint"):
        monkeypatch.setattr(
            cirlab.reproduce, name, entered(name, getattr(cirlab.reproduce, name))
        )
    monkeypatch.setattr(cirlab.trainer, "episodic_accuracy", episodic_accuracy)
    report = cirlab.reproduce.run_reproduction(
        str(tmp_path), settings=TINY_MATRIX, threads=1
    )
    assert report.ok and len(report.runs) == 6
    assert calls == [1] * 2 * 6


def test_traced_matrix_counts_are_plain_ints(tmp_path):
    # the tracer sums the loss's counts, compares them across passes and
    # dumps them to JSON, so they must stay Python ints
    tracer = load_tracer().Tracer()
    tracer.pass_id = 0
    tracer.install()
    try:
        report = cirlab.reproduce.run_reproduction(
            str(tmp_path), settings=TINY_MATRIX, threads=1
        )
    finally:
        tracer.uninstall()
    assert report.ok
    layers = tracer.layers()[0]
    counts = {k: v for k, v in layers.items() if not k.endswith("_s")}
    assert all(type(v) is int for v in counts.values()), counts
    json.dumps(layers)
    assert counts["trainer.train.calls"] == 2
    assert counts["trainer.train.steps"] == 2 * 3
    # 3 arms x 2 seeds x 3 steps, each a 3 x 3 batch of 9 x 2 x 6 triplets
    assert counts["losses.batch_all_triplet_loss.triplets"] == 18 * 108
    # each seed's epoch draws its batches for all three arms in one
    # pk_epoch call, which has no span, and calls no pk_batch; the blend
    # no longer goes through interfere_batch
    assert counts["sampling.pk_batch.calls"] == 0
    assert counts["interference.interfere_batch.calls"] == 0


# `trainer._mode_parts` picks one of these per run and `_step` calls it
# with one signature, so each takes the arguments that any of them reads
SHARED_SIGNATURE = {"_batch_all_loss", "_preformed_loss", "_oim_loss", "_cross_entropy_loss"}


def _unread_params(fn):
    args = fn.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    read = {
        node.id for stmt in body for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [p for p in params if p not in read]


def test_package_reads_every_private_name_and_parameter():
    # a private module-level name that no module reads, or a parameter that
    # its function never reads (a read in a nested function counts), is
    # dead code
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [
                    n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
                ]
            else:
                names = []
            dead += [
                f"{module}.{name}" for name in names
                if name.startswith("_") and not name.startswith("__")
                and name not in read
            ]
        for fn in ast.walk(tree):
            if isinstance(fn, ast.Lambda) or (
                isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and fn.name not in SHARED_SIGNATURE
            ):
                name = getattr(fn, "name", "<lambda>")
                dead += [f"{module}.{name}({p})" for p in _unread_params(fn)]
    assert dead == []


def test_readme_config_table_matches_the_parser():
    # each row names its keys in backticks, then their defaults in order
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | default | meaning |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        keys, defaults = line.split(" | ")[:2]
        names = re.findall(r"`(\w+)`", keys)
        values = defaults.replace("`", "").split(", ")
        assert len(names) == len(values), line
        rows += zip(names, values)
    assert sorted(name for name, _ in rows) == sorted(cirlab.config._KEYS)
    text = cirlab.config.config_to_text(replace(TrainConfig(), noise=NoiseConfig()))
    assert dict(rows) == dict(line.split(" = ") for line in text.splitlines())


FAILING_PROPERTY = """\
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None, max_examples=20)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""


def test_failing_property_test_reports_its_example(tmp_path):
    # under filterwarnings = ["error"], a DeprecationWarning raised in
    # hypothesis's report hook ended the run with INTERNALERROR and hid
    # the falsifying example
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_property.py",
        ],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert done.returncode == 1
    assert "Falsifying example" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
