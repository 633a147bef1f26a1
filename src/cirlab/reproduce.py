"""The three-arm regularization comparison.

Runs {no_reg, cir, noise} x seeds on the synthetic benchmark spec, each
arm differing only in what happens to anchor embeddings before the loss:
nothing, a blend toward a wrong-class table row, or magnitude-matched
gaussian noise.  Per-run learning curves, a summary table, and static
curve plots land in an output directory; the directional verdicts
(does the blend beat doing nothing / beat noise, shrink the
train-validation gap, expand the embedding geometry?) are returned for
the caller to print.

Each (arm, seed) run is independent and internally single-threaded;
``CIR_THREADS`` (or the ``threads`` argument) allows running them in
parallel worker processes.  Aggregation order is fixed regardless.
"""

import dataclasses
import math
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .datagen import GeneratorSpec, gen_gaussian_mixture, reproduce_spec, split_classes
from .errors import CirError, ConfigurationError
from .evaluate import geometry_stats
from .interference import InterferenceConfig, NoiseConfig
from .losses import TripletConfig
from .nn import forward
from .svgplot import Series, line_chart, save_chart
from .trainer import TrainConfig, evaluate_checkpoint, logs_to_csv, train

ARMS = ("no_reg", "cir", "noise")

SUMMARY_HEADER = "arm,seed,val_acc,train_acc,gap,inter_intra_ratio"


@dataclass(frozen=True)
class ReproduceSettings:
    """Hyperparameters of the comparison matrix.

    The defaults are the calibrated benchmark preset; tests shrink them.
    ``dataset`` overrides the generator spec (its seed field is replaced
    by each run's seed); None means the standard benchmark spec.
    """

    seeds: tuple = (0, 1, 2, 3, 4)
    epochs: int = 60
    iterations: int = 100
    learning_rate: float = 0.001
    hidden_dims: tuple = (64,)
    embed_dim: int = 16
    activation: str = "relu"
    p_classes: int = 8
    k_samples: int = 4
    strength: float = 0.5
    momentum: float = 0.5
    margin: float = 0.5
    eval_n_way: int = 5
    eval_q_queries: int = 15
    eval_episodes: int = 600
    log_episodes: int = 30
    dataset: GeneratorSpec | None = None
    splits: tuple = (0.64, 0.16, 0.20)

    def __post_init__(self):
        if len(self.seeds) < 1:
            raise ConfigurationError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("seeds must be distinct")


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

    @property
    def ok(self):
        return not self.failures


def _train_config(settings, arm, seed):
    if arm == "no_reg":
        inter = InterferenceConfig(strength=settings.strength, enabled=False)
        noise = None
    elif arm == "cir":
        inter = InterferenceConfig(strength=settings.strength, enabled=True)
        noise = None
    elif arm == "noise":
        inter = InterferenceConfig(strength=settings.strength, enabled=False)
        noise = NoiseConfig(sigma=None, enabled=True)
    else:
        raise ConfigurationError(f"unknown arm {arm!r}")
    return TrainConfig(
        loss_mode="triplet",
        epochs=settings.epochs,
        iterations=settings.iterations,
        seed=seed,
        hidden_dims=settings.hidden_dims,
        embed_dim=settings.embed_dim,
        activation=settings.activation,
        learning_rate=settings.learning_rate,
        p_classes=settings.p_classes,
        k_samples=settings.k_samples,
        tac_momentum=settings.momentum,
        interference=inter,
        noise=noise,
        triplet=TripletConfig(margin=settings.margin),
        eval_n_way=settings.eval_n_way,
        eval_k_shot=1,
        eval_q_queries=5,
        eval_episodes=settings.log_episodes,
    )


def _dataset_spec(settings, seed):
    if settings.dataset is None:
        return reproduce_spec(seed)
    return dataclasses.replace(settings.dataset, seed=seed)


def _run_one(settings, arm, seed, out_dir):
    """Train one (arm, seed) cell and write its curve CSV.

    Runs inside a worker process when parallelism is on, so everything
    it needs arrives through the arguments and everything it produces
    goes back through the return value (plus its own CSV file).
    """
    ds = gen_gaussian_mixture(_dataset_spec(settings, seed))
    train_ds, val_ds, _ = split_classes(ds, settings.splits, seed=seed)
    cfg = _train_config(settings, arm, seed)
    params, tac, logs = train(train_ds, val_ds, cfg)

    val_acc = evaluate_checkpoint(
        params, tac, val_ds, "episodic", seed=seed,
        n_way=settings.eval_n_way, k_shot=1,
        q_queries=settings.eval_q_queries, episodes=settings.eval_episodes,
    )[0][1]
    train_acc = evaluate_checkpoint(
        params, tac, train_ds, "episodic", seed=seed,
        n_way=settings.eval_n_way, k_shot=1,
        q_queries=settings.eval_q_queries, episodes=settings.eval_episodes,
    )[0][1]
    z, _ = forward(params, val_ds.features)
    geom = geometry_stats(z, val_ds.labels)
    ratio = geom.ratio if geom.ratio is not None else float("nan")

    curve_path = os.path.join(out_dir, f"curves_{arm}_seed{seed}.csv")
    with open(curve_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(logs_to_csv(logs))
    return RunResult(
        arm=arm, seed=seed, val_acc=val_acc, train_acc=train_acc,
        gap=train_acc - val_acc, ratio=ratio, logs=tuple(logs),
    )


def _worker(packed):
    settings, arm, seed, out_dir = packed
    try:
        return _run_one(settings, arm, seed, out_dir)
    except Exception as exc:
        # one failed cell becomes a failure row; the other cells still run
        if not isinstance(exc, (CirError, FloatingPointError)):
            traceback.print_exc(file=sys.stderr)
        return (arm, seed, f"{type(exc).__name__}: {exc}")


def _thread_budget(threads):
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("CIR_THREADS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigurationError(f"CIR_THREADS={env!r} is not an integer")
    return 1


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


def run_reproduction(out_dir, settings=None, threads=None):
    """Run the full matrix; write curves, summary.csv, and plots.

    Returns a ReproduceReport; ``report.ok`` is False when any run
    failed (failed cells are recorded and excluded from aggregates).
    """
    settings = settings or ReproduceSettings()
    os.makedirs(out_dir, exist_ok=True)
    jobs = [
        (settings, arm, seed, out_dir)
        for arm in ARMS
        for seed in settings.seeds
    ]
    budget = _thread_budget(threads)
    if budget > 1:
        with ProcessPoolExecutor(max_workers=budget) as pool:
            outcomes = list(pool.map(_worker, jobs))
    else:
        outcomes = [_worker(job) for job in jobs]

    runs = tuple(o for o in outcomes if isinstance(o, RunResult))
    failures = tuple(o for o in outcomes if not isinstance(o, RunResult))
    agg = _aggregate(runs)
    verdicts = _verdicts(agg)
    _write_summary(os.path.join(out_dir, "summary.csv"), runs, agg)
    if runs:
        _write_plots(out_dir, runs)
    return ReproduceReport(
        runs=runs, failures=failures, aggregates=agg, verdicts=verdicts
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
