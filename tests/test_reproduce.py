"""Tests for the three-arm comparison harness (shrunken settings)."""

import concurrent.futures
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

import cirlab.trainer
import oracles
from cirlab import reproduce
from cirlab.cli import entrypoint
from cirlab.datagen import (
    GeneratorSpec, gen_gaussian_mixture, reproduce_spec, split_classes,
)
from cirlab.errors import ConfigurationError, NumericError
from cirlab.reproduce import (
    ARMS,
    SUMMARY_HEADER,
    ReproduceSettings,
    format_report,
    run_reproduction,
)
from cirlab.sampling import episode_rows

TINY_DATASET = GeneratorSpec(
    num_classes=12, samples_per_class=16, input_dim=8,
    spread=0.4, center_scale=2.0,
)

TINY = ReproduceSettings(
    seeds=(0, 1),
    epochs=2,
    base=replace(
        ReproduceSettings().base,
        iterations=10,
        learning_rate=0.0005,
        hidden_dims=(16,),
        embed_dim=8,
        p_classes=4,
        k_samples=4,
        eval_n_way=3,
        eval_episodes=10,
    ),
    eval_q_queries=5,
    eval_episodes=20,
    dataset=TINY_DATASET,
    splits=(0.5, 0.25, 0.25),
)

# the cells' shared shrunken base: 3-way episodes on 3 x 3 batches
SMALL_BASE = replace(
    ReproduceSettings().base,
    iterations=5, hidden_dims=(8,), embed_dim=4, p_classes=3, k_samples=3,
    eval_n_way=3, eval_episodes=5,
)

# two seeds of one epoch on SMALL_BASE
SMALL = ReproduceSettings(
    seeds=(0, 1), epochs=1, base=SMALL_BASE, eval_q_queries=3,
    eval_episodes=10, dataset=TINY_DATASET, splits=TINY.splits,
)


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("repro")
    report = run_reproduction(str(out), settings=TINY)
    return report, out


def test_all_cells_complete(tiny_report):
    report, _ = tiny_report
    assert report.ok
    assert len(report.runs) == len(ARMS) * 2


def test_summary_schema(tiny_report):
    report, out = tiny_report
    lines = (out / "summary.csv").read_text().strip().split("\n")
    assert lines[0] == SUMMARY_HEADER
    # 3 arms x 2 seeds run rows + 3 arms x 2 aggregate rows
    assert len(lines) == 1 + 6 + 6
    tags = [line.split(",")[1] for line in lines[7:]]
    assert tags == ["mean", "ci95"] * 3
    # every value column is a plain number, ci95 rows included
    for line in lines[1:]:
        for value in line.split(",")[2:]:
            float(value)


def test_curve_files_written(tiny_report):
    _, out = tiny_report
    for arm in ARMS:
        for seed in (0, 1):
            path = out / f"curves_{arm}_seed{seed}.csv"
            assert path.exists()
            body = path.read_text().strip().split("\n")
            assert len(body) == 1 + TINY.epochs


def test_plots_written(tiny_report):
    _, out = tiny_report
    assert (out / "val_accuracy.svg").read_text().startswith("<svg")
    assert (out / "train_loss.svg").exists()


def test_verdicts_present(tiny_report):
    report, _ = tiny_report
    names = [name for name, _ in report.verdicts]
    assert len(names) == 4
    assert any("noise" in n for n in names)


def test_format_report_mentions_all_arms(tiny_report):
    report, _ = tiny_report
    text = format_report(report)
    for arm in ARMS:
        assert arm in text
    assert "PASS" in text or "FAIL" in text


def test_deterministic_summary(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    small = ReproduceSettings(
        seeds=(0,), epochs=1, base=SMALL_BASE, eval_q_queries=3,
        eval_episodes=10, dataset=TINY.dataset, splits=TINY.splits,
    )
    run_reproduction(str(a), settings=small)
    run_reproduction(str(b), settings=small)
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
    assert (a / "val_accuracy.svg").read_bytes() == (b / "val_accuracy.svg").read_bytes()


def test_failures_recorded_not_raised(tmp_path):
    bad = ReproduceSettings(
        seeds=(0,), epochs=2,
        base=replace(
            SMALL_BASE, iterations=20, learning_rate=1e200, activation="identity"
        ),
        eval_q_queries=3, eval_episodes=10,
        dataset=TINY.dataset, splits=TINY.splits,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        report = run_reproduction(str(tmp_path), settings=bad)
    assert not report.ok
    assert len(report.failures) == 3
    assert all("NumericError" in msg for _, _, msg in report.failures)
    # summary still written (empty of run rows)
    assert (tmp_path / "summary.csv").read_text().startswith(SUMMARY_HEADER)


def test_unexpected_error_is_recorded_per_cell(tmp_path, monkeypatch):
    real_score_cell = reproduce._score_cell

    def score_cell(arm, seed, inputs, trained, out_dir):
        if (arm, seed) == ("cir", 1):
            raise RuntimeError("worker blew up")
        return real_score_cell(arm, seed, inputs, trained, out_dir)

    monkeypatch.setattr(reproduce, "_score_cell", score_cell)
    report = run_reproduction(str(tmp_path), settings=SMALL, threads=1)
    assert not report.ok
    assert report.failures == (("cir", 1, "RuntimeError: worker blew up"),)
    assert sorted((r.arm, r.seed) for r in report.runs) == sorted(
        (arm, seed) for arm in ARMS for seed in (0, 1) if (arm, seed) != ("cir", 1)
    )
    assert format_report(report).endswith("\n[ERROR] cir seed=1: RuntimeError: worker blew up")


def test_one_failing_arm_fails_alone(tmp_path, monkeypatch):
    # only the noise arm draws Gaussian noise: make it non-finite, and
    # the noise cells fail as they do alone while no_reg and cir, trained
    # in lockstep with them, keep every byte
    clean, broken = tmp_path / "clean", tmp_path / "broken"
    assert run_reproduction(str(clean), settings=SMALL, threads=1).ok
    real = cirlab.trainer.gaussian_perturb
    monkeypatch.setattr(
        cirlab.trainer, "gaussian_perturb",
        lambda features, sigma, rng: real(features, sigma, rng) * np.nan,
    )
    alone = []
    for seed in SMALL.seeds:
        inputs = reproduce._prepare(SMALL, seed)
        with pytest.raises(NumericError) as failure:
            cirlab.trainer.train(
                inputs.train_ds, inputs.val_ds,
                reproduce._train_config(SMALL, "noise", seed),
            )
        alone.append(("noise", seed, f"NumericError: {failure.value}"))
    report = run_reproduction(str(broken), settings=SMALL, threads=1)
    assert report.failures == tuple(alone)
    assert alone[0][2] == (
        "NumericError: non-finite loss or embeddings at epoch 0 iteration 0"
    )
    for arm in ("no_reg", "cir"):
        for seed in SMALL.seeds:
            name = f"curves_{arm}_seed{seed}.csv"
            assert (broken / name).read_bytes() == (clean / name).read_bytes()

    def rows(path):
        return [row for row in (path / "summary.csv").read_text().split("\n")
                if row.startswith(("no_reg,", "cir,"))]

    assert rows(broken) == rows(clean) and len(rows(clean)) == 8
    assert not (broken / "curves_noise_seed0.csv").exists()


def test_failed_preparation_fails_only_that_seeds_cells(tmp_path, monkeypatch):
    real_prepare = reproduce._prepare

    def prepare(settings, seed):
        if seed == 1:
            raise RuntimeError("no data for seed 1")
        return real_prepare(settings, seed)

    monkeypatch.setattr(reproduce, "_prepare", prepare)
    report = run_reproduction(str(tmp_path), settings=SMALL, threads=1)
    assert report.failures == tuple(
        (arm, 1, "RuntimeError: no data for seed 1") for arm in ARMS
    )
    assert [(r.arm, r.seed) for r in report.runs] == [(arm, 0) for arm in ARMS]
    rows = (tmp_path / "summary.csv").read_text().strip().split("\n")[1:4]
    assert [row.split(",")[:2] for row in rows] == [[arm, "0"] for arm in ARMS]


def test_each_seed_prepared_once_for_its_three_arms(tmp_path, monkeypatch):
    calls = {"gen_gaussian_mixture": 0, "split_classes": 0, "episode_rows": 0}

    def counted(name):
        real = getattr(reproduce, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(reproduce, name, counted(name))
    report = run_reproduction(str(tmp_path), settings=SMALL, threads=1)
    assert report.ok and len(report.runs) == 6
    # one dataset and split per seed; val and train final-eval rows per seed
    assert calls == {"gen_gaussian_mixture": 2, "split_classes": 2, "episode_rows": 4}


def test_prepared_inputs_are_the_seeded_draws_and_read_only():
    inputs = reproduce._prepare(SMALL, 1)
    ds = gen_gaussian_mixture(replace(TINY_DATASET, seed=1))
    train_ds, val_ds, _ = split_classes(ds, TINY.splits, seed=1)
    for got, want in ((inputs.train_ds, train_ds), (inputs.val_ds, val_ds)):
        assert np.array_equal(got.features, want.features)
        assert np.array_equal(got.labels, want.labels)
    # the draws `cirlab eval` makes from --seed
    for drawn, split in ((inputs.train_episodes, train_ds),
                         (inputs.val_episodes, val_ds)):
        for got, want in zip(drawn, episode_rows(split.labels, 3, 1, 3, 10, 1)):
            assert np.array_equal(got, want)
    for array in (inputs.train_ds.features, inputs.train_ds.labels,
                  inputs.val_ds.features, inputs.val_ds.labels,
                  *inputs.train_episodes, *inputs.val_episodes):
        assert not array.flags.writeable


REAL_RUN_SEED = reproduce._run_seed


def run_seed_dying_in_a_worker(packed):
    """`_run_seed`, except that a pool worker handed seed 1 dies at once,
    as a worker the OOM killer takes does."""
    if packed[1] == 1 and multiprocessing.parent_process() is not None:
        os._exit(9)
    return REAL_RUN_SEED(packed)


def test_a_dead_worker_loses_no_seed(tmp_path, monkeypatch, capsys):
    # the broken pool's lost seeds run again in this process: the run
    # exits 0 with the bytes of a one-thread run, and no worker outlives it
    args = ["reproduce", "--seeds", "0,1", "--epochs", "1", "-o"]
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert entrypoint([*args, str(serial), "--threads", "1"]) == 0
    monkeypatch.setattr(reproduce, "_run_seed", run_seed_dying_in_a_worker)
    assert entrypoint([*args, str(pooled), "--threads", "2"]) == 0
    assert multiprocessing.active_children() == []
    assert "seed 1 runs again in the main process" in capsys.readouterr().err

    def outputs(out):
        return {p.name: p.read_bytes() for p in out.iterdir()
                if p.name != "reproduce.manifest"}

    assert outputs(pooled) == outputs(serial)
    assert "summary.csv" in outputs(serial)


def _stat(pid):
    """The state and parent pid fields of /proc/<pid>/stat, or None once
    the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
    except OSError:
        return None
    return state, int(ppid)


def _alive(pid):
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"  # a zombie has exited


def _children(pid):
    return [int(e) for e in os.listdir("/proc")
            if e.isdigit() and _alive(int(e)) and _stat(int(e))[1] == pid]


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="finds workers in /proc")
def test_a_killed_run_leaves_no_worker(tmp_path):
    # a SIGKILL of the main process: each worker sees its parent gone
    # within about a second and exits, not after it has run its seeds
    src = os.path.dirname(os.path.dirname(reproduce.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["reproduce", "--seeds", "0,1", "--threads", "2", "-o", str(tmp_path)]
    main = subprocess.Popen(
        [sys.executable, "-c", f"from cirlab.cli import entrypoint; entrypoint({argv!r})"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    workers = []
    try:
        deadline = time.monotonic() + 10
        while len(workers) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = _children(main.pid)
        assert len(workers) == 2
        main.kill()
        main.wait(timeout=5)
        deadline = time.monotonic() + 3
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, workers))
    finally:
        main.kill()
        main.wait(timeout=5)
        for pid in filter(_alive, workers):
            os.kill(pid, 9)


class LosingPool:
    """A pool that runs each seed as it is submitted, in this process,
    and loses seed 1 as a pool whose worker died loses it."""

    def __init__(self, max_workers, initializer=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, job):
        future = concurrent.futures.Future()
        if job[1] == 1:
            future.set_exception(BrokenProcessPool("a worker died"))
        else:
            future.set_result(fn(job))
        return future


def test_a_broken_pool_keeps_the_seeds_that_returned(tmp_path, monkeypatch):
    ran = []

    def run_seed(packed):
        ran.append(packed[1])
        return REAL_RUN_SEED(packed)

    monkeypatch.setattr(reproduce, "_run_seed", run_seed)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", LosingPool)
    pooled = run_reproduction(str(tmp_path / "pooled"), settings=SMALL, threads=2)
    # seed 0 ran once, in the pool; seed 1 only after the pool lost it
    assert ran == [0, 1]
    serial = run_reproduction(str(tmp_path / "serial"), settings=SMALL, threads=1)
    assert pooled.ok and pooled.outputs == serial.outputs
    for name in serial.outputs:
        got = (tmp_path / "pooled" / name).read_bytes()
        assert got == (tmp_path / "serial" / name).read_bytes()


@pytest.mark.parametrize("seeds", [(0, 1), (0, 1, 2)])
def test_parallel_matches_sequential(tmp_path, seeds):
    # each worker takes whole seeds: one seed per worker, or at 2 threads
    # with 3 seeds one worker runs two; every output file keeps its bytes
    settings = replace(SMALL, seeds=seeds)
    outputs = {}
    for threads in (1, 2, 3):
        out = tmp_path / f"threads{threads}"
        run_reproduction(str(out), settings=settings, threads=threads)
        outputs[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    names = {"summary.csv", "val_accuracy.svg", "train_loss.svg"} | {
        f"curves_{arm}_seed{seed}.csv" for arm in ARMS for seed in seeds
    }
    assert set(outputs[1]) == names
    # run rows in arm-major order, though each job runs one seed's arms
    lines = outputs[1]["summary.csv"].decode().split("\n")
    rows = lines[1:1 + len(ARMS) * len(seeds)]
    assert [row.split(",")[:2] for row in rows] == [
        [arm, str(seed)] for arm in ARMS for seed in seeds
    ]
    assert outputs[2] == outputs[1]
    assert outputs[3] == outputs[1]


def test_settings_validation():
    with pytest.raises(ConfigurationError):
        ReproduceSettings(seeds=())
    with pytest.raises(ConfigurationError):
        ReproduceSettings(seeds=(1, 1))
    with pytest.raises(ConfigurationError, match="seeds must be >= 0, got -1"):
        ReproduceSettings(seeds=(0, -1))
    with pytest.raises(ConfigurationError, match=r"seeds must be < 2\*\*64"):
        ReproduceSettings(seeds=(1 << 64, 0))
    for epochs in (0, -1):
        with pytest.raises(ConfigurationError, match="epochs must be >= 1"):
            ReproduceSettings(epochs=epochs)
    two_stage = replace(
        ReproduceSettings().base, loss_mode="cross_entropy",
        stage2=ReproduceSettings().base,
    )
    with pytest.raises(ConfigurationError, match="stage2"):
        ReproduceSettings(base=two_stage)
    # the final-eval episodes: 5-way, 1 + 15 rows a class by default
    for episodes in (10**12, 10**30):
        with pytest.raises(ConfigurationError, match=f"eval_episodes = {episodes} "):
            ReproduceSettings(eval_episodes=episodes)
    with pytest.raises(ConfigurationError, match=r"5 x \(1 \+ 1000000000\) rows"):
        ReproduceSettings(eval_q_queries=10**9)


@pytest.mark.parametrize("changes, message", [
    (dict(splits=(0.5, 0.5, 0.0)), "need three positive fractions"),
    (dict(splits=(0.6, 0.3, 0.3)), "fractions must sum to 1"),
    # 10 / 0 / 2 of TINY_DATASET's 12 classes; the default 40 give 36 / 2 / 2
    (dict(splits=(0.9, 0.05, 0.05), dataset=TINY_DATASET), "every split needs >= 1 class"),
    (dict(eval_q_queries=0), "q_queries, eval_episodes >= 1"),
    (dict(eval_episodes=0), "q_queries, eval_episodes >= 1"),
])
def test_settings_refuse_what_would_fail_every_cell(changes, message):
    with pytest.raises(ConfigurationError, match=message):
        ReproduceSettings(**changes)
    if "splits" in changes:
        # split_classes' own rule, on the spec's class count
        spec = changes.get("dataset") or reproduce_spec()
        with pytest.raises(ConfigurationError, match=message):
            split_classes(gen_gaussian_mixture(spec), changes["splits"])
    if "dataset" in changes:
        ReproduceSettings(splits=changes["splits"])


# TINY as the settings spelled it when they mirrored TrainConfig
ORACLE_TINY = oracles.ReproduceSettings(
    seeds=(0, 1),
    epochs=2,
    iterations=10,
    learning_rate=0.0005,
    hidden_dims=(16,),
    embed_dim=8,
    p_classes=4,
    k_samples=4,
    eval_n_way=3,
    eval_q_queries=5,
    eval_episodes=20,
    log_episodes=10,
    dataset=TINY_DATASET,
    splits=(0.5, 0.25, 0.25),
)


@pytest.mark.parametrize("settings, mirrored", [
    (ReproduceSettings(), oracles.ReproduceSettings()),
    (TINY, ORACLE_TINY),
], ids=["default", "tiny"])
def test_cell_configs_equal_the_mirrored_settings(settings, mirrored):
    for arm in ARMS:
        for seed in settings.seeds:
            cfg = reproduce._train_config(settings, arm, seed)
            assert cfg == oracles.train_config(mirrored, arm, seed)
    # the final eval: way and shot from the cell config, the rest as before
    assert (cfg.eval_n_way, cfg.eval_k_shot) == (mirrored.eval_n_way, 1)
    for name in ("seeds", "eval_q_queries", "eval_episodes", "dataset", "splits"):
        assert getattr(settings, name) == getattr(mirrored, name)
