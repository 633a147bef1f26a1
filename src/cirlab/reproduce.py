"""The three-arm regularization comparison.

Runs {no_reg, cir, noise} x seeds on the synthetic benchmark spec, each
arm differing only in what happens to anchor embeddings before the loss:
nothing, a blend toward a wrong-class table row, or magnitude-matched
gaussian noise.  Per-run learning curves, a summary table, and static
curve plots land in an output directory; the directional verdicts
(does the blend beat doing nothing / beat noise, shrink the
train-validation gap, expand the embedding geometry?) are returned for
the caller to print.

Within one seed the three arms share their inputs by design: the
generated dataset, the class split and the final-eval episodes. So the
seed is the unit of work: one job per seed prepares those inputs once,
trains the seed's three arms in lockstep, in one `train` call that runs
each step's encoder, loss and updates once for the stacked arms, then
scores each cell in order. A lockstep call that raises is followed by
one `train` call per arm, so a failing cell fails as it does alone and
the others keep their bits. The ``threads`` argument sets the number of
worker processes, min(threads, number of seeds) (below 1 counts as 1),
each taking whole seeds; with 1 the seeds run serially in this process.
A worker that dies loses the pool's unfinished seeds, which then run
again in this process; the seeds that returned keep their results.
Results are put back in arm-major order before aggregation, so every
output file is the same at any thread count.
"""

import math
import os
import sys
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from .datagen import (
    Dataset,
    GeneratorSpec,
    gen_gaussian_mixture,
    reproduce_spec,
    split_classes,
    split_counts,
)
from .errors import CirError, ConfigurationError
from .evaluate import geometry_stats
from .interference import NoiseConfig
from .nn import forward
from .sampling import check_episode_set, check_seed, episode_rows
from .svgplot import Series, line_chart, save_chart
from .trainer import TrainConfig, evaluate_checkpoint, logs_to_csv, train

ARMS = ("no_reg", "cir", "noise")

SUMMARY_HEADER = "arm,seed,val_acc,train_acc,gap,inter_intra_ratio"


@dataclass(frozen=True)
class ReproduceSettings:
    """The comparison matrix: one base training config plus the keys that
    only the matrix has.

    Every cell trains ``base`` with its own seed and its arm's anchor
    treatment; ``epochs`` is written into ``base``, so after construction
    ``base`` is the config the cells train with. The final episodic eval
    takes its way and shot from ``base`` and its query and episode counts
    from here (`check_episode_set`). ``dataset`` overrides the generator
    spec (its seed field is replaced by each run's seed); None means the
    standard benchmark spec. ``splits`` must give each split a class of
    the spec's (`split_counts`). The defaults are the calibrated benchmark
    preset; tests shrink them.
    """

    seeds: tuple = (0, 1, 2, 3, 4)
    epochs: int = 60
    base: TrainConfig = TrainConfig(learning_rate=0.001, eval_episodes=30)
    eval_q_queries: int = 15
    eval_episodes: int = 600
    dataset: GeneratorSpec | None = None
    splits: tuple = (0.64, 0.16, 0.20)

    def __post_init__(self):
        if len(self.seeds) < 1:
            raise ConfigurationError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("seeds must be distinct")
        for seed in sorted(self.seeds):
            check_seed(seed, "seeds")
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if self.base.stage2 is not None:
            raise ConfigurationError(
                "reproduce cells train one stage; base must not set stage2"
            )
        check_episode_set(
            self.base.eval_n_way, self.base.eval_k_shot, self.eval_q_queries,
            self.eval_episodes, "eval_episodes",
        )
        split_counts(self.splits, (self.dataset or reproduce_spec()).num_classes)
        object.__setattr__(self, "base", replace(self.base, epochs=self.epochs))


@dataclass(frozen=True)
class RunResult:
    arm: str
    seed: int
    val_acc: float
    train_acc: float
    gap: float
    ratio: float
    logs: tuple


@dataclass(frozen=True)
class ReproduceReport:
    runs: tuple
    failures: tuple  # (arm, seed, message)
    aggregates: dict = field(compare=False)
    verdicts: tuple = ()
    outputs: tuple = ()  # names of the files this run wrote, sorted

    @property
    def ok(self):
        return not self.failures


def _train_config(settings, arm, seed):
    base = settings.base
    return replace(
        base,
        seed=seed,
        interference=replace(base.interference, enabled=arm == "cir"),
        noise=NoiseConfig(enabled=True) if arm == "noise" else None,
    )


def _dataset_spec(settings, seed):
    if settings.dataset is None:
        return reproduce_spec(seed)
    return replace(settings.dataset, seed=seed)


@dataclass(frozen=True)
class SeedInputs:
    """What every arm of one seed trains and is scored on: the train and
    validation splits and the final-eval episodes of each, as the
    (support, query) pairs of `episode_rows`. The arrays are read-only,
    because the seed's cells share them."""

    train_ds: Dataset
    val_ds: Dataset
    train_episodes: tuple[np.ndarray, np.ndarray]
    val_episodes: tuple[np.ndarray, np.ndarray]


def _prepare(settings, seed):
    """Generate and split the seed's dataset and draw its final-eval
    episodes, once for all the seed's arms."""
    ds = gen_gaussian_mixture(_dataset_spec(settings, seed))
    train_ds, val_ds, _ = split_classes(ds, settings.splits, seed=seed)
    shape = (
        settings.base.eval_n_way, settings.base.eval_k_shot,
        settings.eval_q_queries, settings.eval_episodes,
    )
    inputs = SeedInputs(
        train_ds=train_ds,
        val_ds=val_ds,
        train_episodes=episode_rows(train_ds.labels, *shape, seed),
        val_episodes=episode_rows(val_ds.labels, *shape, seed),
    )
    for array in (train_ds.features, train_ds.labels, val_ds.features,
                  val_ds.labels, *inputs.train_episodes, *inputs.val_episodes):
        array.flags.writeable = False
    return inputs


def _score_cell(arm, seed, inputs, trained, out_dir):
    """Score one trained (arm, seed) cell on its seed's inputs and write
    its curve CSV.

    Runs inside a worker process when parallelism is on, so everything
    it needs arrives through the arguments and everything it produces
    goes back through the return value (plus its own CSV file).
    """
    train_ds, val_ds = inputs.train_ds, inputs.val_ds
    params, tac, logs = trained

    def final_accuracy(split, episodes):
        return evaluate_checkpoint(
            params, tac, split, "episodic", episodes=episodes
        )[0][1]

    val_acc = final_accuracy(val_ds, inputs.val_episodes)
    train_acc = final_accuracy(train_ds, inputs.train_episodes)
    z, _ = forward(params, val_ds.features)
    geom = geometry_stats(z, val_ds.labels)
    ratio = geom.ratio if geom.ratio is not None else float("nan")

    curve_path = os.path.join(out_dir, _curve_file(arm, seed))
    with open(curve_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(logs_to_csv(logs))
    return RunResult(
        arm=arm, seed=seed, val_acc=val_acc, train_acc=train_acc,
        gap=train_acc - val_acc, ratio=ratio, logs=tuple(logs),
    )


def _curve_file(arm, seed):
    return f"curves_{arm}_seed{seed}.csv"


def _failure(exc):
    """The failure-row message for an exception raised in a cell or in its
    seed's preparation; an unexpected one also prints its traceback."""
    if not isinstance(exc, (CirError, FloatingPointError)):
        traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


def _train_arms(inputs, cfgs):
    """Train one seed's arms on its inputs; returns one outcome per config:
    its (params, table, logs), or the exception it raised.

    The arms train in lockstep. If that raises, each arm trains alone, so
    every outcome is that of a `train` call on its config alone; the
    re-run costs time only when a cell fails, which fails the report.
    """
    train_ds, val_ds = inputs.train_ds, inputs.val_ds
    try:
        return train(train_ds, val_ds, cfgs[0], arms=tuple(cfgs[1:]))
    except Exception:
        pass  # each arm's own run below finds which arms fail, and how
    outcomes = []
    for cfg in cfgs:
        try:
            outcomes.append(train(train_ds, val_ds, cfg))
        except Exception as exc:
            outcomes.append(exc)
    return outcomes


def _run_seed(packed):
    """Run one seed's cells: prepare its inputs once, train its arms
    together and score each; returns one outcome per arm, in ARMS order.

    A failed cell becomes one (arm, seed, message) row and the other cells
    still run; a failed preparation gives its row to each of the seed's
    cells.
    """
    settings, seed, out_dir = packed
    try:
        inputs = _prepare(settings, seed)
        cfgs = [_train_config(settings, arm, seed) for arm in ARMS]
    except Exception as exc:
        message = _failure(exc)
        return [(arm, seed, message) for arm in ARMS]
    outcomes = []
    for arm, result in zip(ARMS, _train_arms(inputs, cfgs)):
        try:
            if isinstance(result, Exception):
                raise result
            outcomes.append(_score_cell(arm, seed, inputs, result, out_dir))
        except Exception as exc:
            outcomes.append((arm, seed, _failure(exc)))
    return outcomes


def _ci95(values):
    if len(values) < 2:
        return 0.0
    return 1.96 * float(np.std(values, ddof=1)) / math.sqrt(len(values))


def _aggregate(runs):
    out = {}
    for arm in ARMS:
        arm_runs = [r for r in runs if r.arm == arm]
        if not arm_runs:
            continue
        metrics = {}
        for name in ("val_acc", "train_acc", "gap", "ratio"):
            vals = [getattr(r, name) for r in arm_runs]
            metrics[name] = (float(np.mean(vals)), _ci95(vals))
        out[arm] = metrics
    return out


def _verdicts(agg):
    if not all(arm in agg for arm in ARMS):
        return ()
    cir, base, noise = agg["cir"], agg["no_reg"], agg["noise"]
    return (
        ("cir val_acc >= no_reg val_acc", cir["val_acc"][0] >= base["val_acc"][0]),
        ("cir train-val gap < no_reg gap", cir["gap"][0] < base["gap"][0]),
        ("cir val_acc >= noise val_acc", cir["val_acc"][0] >= noise["val_acc"][0]),
        ("cir inter/intra ratio > no_reg ratio", cir["ratio"][0] > base["ratio"][0]),
    )


def _write_summary(path, runs, agg):
    lines = [SUMMARY_HEADER]
    for r in runs:
        lines.append(
            f"{r.arm},{r.seed},{r.val_acc!r},{r.train_acc!r},"
            f"{r.gap!r},{r.ratio!r}"
        )
    for arm in ARMS:
        if arm not in agg:
            continue
        m = agg[arm]
        lines.append(
            f"{arm},mean,{m['val_acc'][0]!r},{m['train_acc'][0]!r},"
            f"{m['gap'][0]!r},{m['ratio'][0]!r}"
        )
        lines.append(
            f"{arm},ci95,{m['val_acc'][1]!r},{m['train_acc'][1]!r},"
            f"{m['gap'][1]!r},{m['ratio'][1]!r}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _mean_curve(runs, attr):
    epochs = [log.epoch for log in runs[0].logs]
    stack = np.array([[getattr(log, attr) for log in r.logs] for r in runs])
    return epochs, stack.mean(axis=0)


def _write_plots(out_dir, runs):
    """Write the seed-mean curve charts; return the names written."""
    written = []
    by_arm = {arm: [r for r in runs if r.arm == arm] for arm in ARMS}
    for attr, fname, ylab in (
        ("val_acc", "val_accuracy.svg", "validation episodic accuracy"),
        ("train_loss", "train_loss.svg", "training loss"),
    ):
        series = []
        for arm in ARMS:
            arm_runs = by_arm[arm]
            if not arm_runs:
                continue
            xs, ys = _mean_curve(arm_runs, attr)
            series.append(Series(arm, tuple(xs), tuple(ys)))
        if series:
            save_chart(
                os.path.join(out_dir, fname),
                line_chart(series, title=f"{ylab} (seed mean)",
                           x_label="epoch", y_label=ylab),
            )
            written.append(fname)
    return written


def run_reproduction(out_dir, settings=None, threads=1):
    """Run the full matrix; write curves, summary.csv, and plots.

    Returns a ReproduceReport; ``report.ok`` is False when any run
    failed (failed cells are recorded and excluded from aggregates), and
    ``report.outputs`` names the files this call wrote in out_dir.
    """
    settings = settings or ReproduceSettings()
    os.makedirs(out_dir, exist_ok=True)
    jobs = [(settings, seed, out_dir) for seed in settings.seeds]
    workers = min(max(1, int(threads)), len(jobs))
    if workers > 1:
        # imported here, so that a one-worker run does not pay for it
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_seed, job) for job in jobs]
        by_seed = []
        for job, future in zip(jobs, futures):
            try:
                by_seed.append(future.result())
            except BrokenProcessPool:
                # a worker died (the OOM killer, say) and the pool lost the
                # seeds it had not returned: each runs again here, as a
                # failed lockstep runs again arm by arm
                print(f"warning: a worker died; seed {job[1]} runs again "
                      "in the main process", file=sys.stderr)
                by_seed.append(_run_seed(job))
    else:
        by_seed = [_run_seed(job) for job in jobs]
    # arm-major, as the summary lists the runs
    outcomes = [o for of_arm in zip(*by_seed) for o in of_arm]

    runs = tuple(o for o in outcomes if isinstance(o, RunResult))
    failures = tuple(o for o in outcomes if not isinstance(o, RunResult))
    agg = _aggregate(runs)
    verdicts = _verdicts(agg)
    _write_summary(os.path.join(out_dir, "summary.csv"), runs, agg)
    written = ["summary.csv", *(_curve_file(r.arm, r.seed) for r in runs)]
    if runs:
        written += _write_plots(out_dir, runs)
    return ReproduceReport(
        runs=runs, failures=failures, aggregates=agg, verdicts=verdicts,
        outputs=tuple(sorted(written)),
    )


def format_report(report):
    """Human-readable verdict block for stdout."""
    lines = []
    for arm, metrics in report.aggregates.items():
        va, vc = metrics["val_acc"]
        ga, gc = metrics["gap"]
        ra, rc = metrics["ratio"]
        lines.append(
            f"{arm:7s} val_acc {va:.4f} ±{vc:.4f}   gap {ga:+.4f} ±{gc:.4f}   "
            f"inter/intra {ra:.4f} ±{rc:.4f}"
        )
    for name, ok in report.verdicts:
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}")
    for arm, seed, msg in report.failures:
        lines.append(f"[ERROR] {arm} seed={seed}: {msg}")
    return "\n".join(lines)
