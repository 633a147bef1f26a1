"""Command-line front end.

Subcommands:
  gen        sample a synthetic dataset file (optionally pre-split)
  train      run a config-driven training run; write checkpoint + log CSV
  eval       score a checkpoint on a dataset under one protocol
  analyze    embedding geometry + blend-identity demo for a checkpoint
  reproduce  the three-arm regularization comparison matrix

Exit codes are a stable contract: 0 success, 2 user/config error,
3 IO error, 4 numeric failure. Settings are refused before they size an
array of more than 2**28 values; a `MemoryError` that still gets through
is a setting too large for this machine, and exits 2 as well.

Every file-writing command drops a `<output>.manifest` next to its main
output: tool version, input/output sha256 hashes and a [config] block.
`train` writes the resolved config there (all defaults materialized),
which re-parses to the identical config; `reproduce` does the same for
the base config its cells train with, then adds its matrix keys as `#`
comment lines; `gen` and `eval` write their settings only as `#` lines,
which do not parse back.
Manifests contain no timestamps -- rerunning a command with identical
inputs produces byte-identical outputs, manifests included.  Wall-clock
goes to stderr only.
"""

import argparse
import dataclasses
import hashlib
import os
import sys
import time

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .config import config_to_text, parse_config_file
from .datagen import (
    NONLINEARITIES,
    GeneratorSpec,
    gen_gaussian_mixture,
    load_dataset,
    reproduce_spec,
    save_dataset,
    split_classes,
)
from .errors import CirError, ConfigurationError, NumericError
from .evaluate import geometry_stats
from .losses import StudyCase, study_case_loss
from .nn import forward
from .reproduce import ReproduceSettings, format_report, run_reproduction
from .sampling import check_seed, episode_rows
from .trainer import (
    check_feasible,
    evaluate_checkpoint,
    logs_to_csv,
    train,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(path, command, inputs, outputs, config_text=None):
    """inputs/outputs: list of (label, path); paths get hashed."""
    lines = [f"tool = cirlab {__version__}", f"command = {command}"]
    for label, p in inputs:
        lines.append(f"input_{label} = {p}")
        lines.append(f"input_{label}_sha256 = {_sha256(p)}")
    for label, p in outputs:
        lines.append(f"output_{label} = {p}")
        lines.append(f"output_{label}_sha256 = {_sha256(p)}")
    if config_text is not None:
        lines.append("[config]")
        lines.append(config_text.rstrip("\n"))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _numbers(text, kind, flag):
    try:
        return tuple(kind(p) for p in text.split(","))
    except ValueError:
        raise ConfigurationError(
            f"{flag} needs comma-separated numbers, got {text!r}"
        ) from None


def cmd_gen(args):
    if args.preset == "reproduce":
        spec = reproduce_spec(args.seed)
    else:
        spec = GeneratorSpec(
            num_classes=args.classes,
            samples_per_class=args.per_class,
            input_dim=args.dim,
            spread=args.spread,
            center_scale=args.center_scale,
            nonlinearity=args.nonlinearity,
            label_noise_rate=args.label_noise,
            seed=args.seed,
        )
    ds = gen_gaussian_mixture(spec)
    outputs = []
    if args.split:
        split_seed = args.seed if args.split_seed is None else args.split_seed
        parts = split_classes(ds, _numbers(args.split, float, "--split"), seed=split_seed)
        stem = args.out[:-5] if args.out.endswith(".cird") else args.out
        for name, part in zip(("train", "val", "test"), parts):
            path = f"{stem}.{name}.cird"
            save_dataset(part, path)
            outputs.append((name, path))
    else:
        save_dataset(ds, args.out)
        outputs.append(("dataset", args.out))
    _write_manifest(
        args.out + ".manifest", "gen", [], outputs,
        config_text=f"# {spec.describe()}",
    )
    for _, path in outputs:
        print(path)
    return EXIT_OK


def _load_config_and_data(args):
    cfg = parse_config_file(args.config)
    train_ds = load_dataset(args.data)
    val_ds = load_dataset(args.val) if args.val else None
    return cfg, train_ds, val_ds


def cmd_train(args):
    cfg, train_ds, val_ds = _load_config_and_data(args)
    check_feasible(train_ds, val_ds, cfg)
    if args.dry_run:
        print("config ok")
        return EXIT_OK
    start = time.monotonic()
    params, tac, logs = train(train_ds, val_ds, cfg)
    save_checkpoint(params, tac, args.out)
    log_path = args.log or args.out + ".log.csv"
    with open(log_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(logs_to_csv(logs))
    inputs = [("train", args.data)] + ([("val", args.val)] if args.val else [])
    _write_manifest(
        args.out + ".manifest", "train", inputs,
        [("checkpoint", args.out), ("log", log_path)],
        config_text=config_to_text(cfg),
    )
    print(f"wall-clock {time.monotonic() - start:.1f}s", file=sys.stderr)
    if logs:
        last = logs[-1]
        print(f"final epoch {last.epoch}: train_loss {last.train_loss:.4f} "
              f"val_acc {last.val_acc:.4f}")
    return EXIT_OK


def cmd_eval(args):
    check_seed(args.seed, "--seed")
    params, tac = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.data)
    start = time.monotonic()
    episodes = None
    if args.protocol == "episodic":
        episodes = episode_rows(
            ds.labels, args.way, args.shot, args.queries, args.episodes, args.seed
        )
    rows = evaluate_checkpoint(
        params, tac, ds, args.protocol, temperature=args.temperature,
        metric=args.metric, episodes=episodes,
    )
    lines = ["metric,value,ci95"]
    for name, value, ci in rows:
        lines.append(f"{name},{value!r},{'' if ci is None else repr(ci)}")
    text = "\n".join(lines) + "\n"
    print(f"wall-clock {time.monotonic() - start:.1f}s", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        _write_manifest(
            args.out + ".manifest", "eval",
            [("checkpoint", args.checkpoint), ("dataset", args.data)],
            [("metrics", args.out)],
            config_text=(
                f"# protocol={args.protocol} way={args.way} shot={args.shot} "
                f"queries={args.queries} episodes={args.episodes} "
                f"seed={args.seed} metric={args.metric}"
            ),
        )
        for name, value, ci in rows:
            tail = "" if ci is None else f" ±{ci:.4f}"
            print(f"{name} {value:.4f}{tail}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_analyze(args):
    check_seed(args.seed, "--seed")
    if args.draws < 1:
        raise ConfigurationError(f"--draws must be >= 1, got {args.draws}")
    params, tac = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.data)
    z, _ = forward(params, ds.features)
    geom = geometry_stats(z, ds.labels)
    print(f"center_distance {geom.center_distance!r}")
    print(f"intra {'' if geom.intra is None else repr(geom.intra)}")
    print(f"inter {'' if geom.inter is None else repr(geom.inter)}")
    print(f"inter_intra_ratio {'' if geom.ratio is None else repr(geom.ratio)}")

    # algebraic sanity demo: the blended least-squares objective written as
    # blend-then-subtract vs residual-minus-pull must agree to fp noise
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.draws):
        d_out, d_in = rng.integers(1, 6, size=2)
        case = StudyCase(
            W=rng.standard_normal((d_out, d_in)),
            x=rng.standard_normal(d_in),
            y=rng.standard_normal(d_out),
            mu=rng.standard_normal(d_out),
            lam=float(rng.uniform(0.0, 1.0)),
        )
        _, form_a, form_b, _ = study_case_loss(case)
        scale = max(abs(form_a), abs(form_b), 1e-30)
        worst = max(worst, abs(form_a - form_b) / scale)
    print(f"blend_identity_max_rel_err {worst!r} over {args.draws} draws")
    return EXIT_OK


def cmd_reproduce(args):
    seeds = _numbers(args.seeds, int, "--seeds")
    settings = ReproduceSettings(seeds=seeds, epochs=args.epochs)
    start = time.monotonic()
    report = run_reproduction(args.out, settings=settings, threads=args.threads)
    print(f"wall-clock {time.monotonic() - start:.1f}s", file=sys.stderr)
    print(format_report(report))
    # only this run's files: a reused directory may hold an earlier run's
    _write_manifest(
        os.path.join(args.out, "reproduce.manifest"), "reproduce", [],
        [(f.replace(".", "_"), os.path.join(args.out, f)) for f in report.outputs],
        config_text=config_to_text(settings.base) + "\n".join(
            f"# {f.name} = {getattr(settings, f.name)!r}"
            for f in dataclasses.fields(settings) if f.name != "base"
        ),
    )
    return EXIT_OK if report.ok else EXIT_NUMERIC


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cirlab",
        description="metric-learning lab: class-interference regularization",
    )
    parser.add_argument("--version", action="version",
                        version=f"cirlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    g.add_argument("--preset", choices=("reproduce",), default=None)
    g.add_argument("--classes", type=int, default=10)
    g.add_argument("--per-class", type=int, default=20)
    g.add_argument("--dim", type=int, default=16)
    g.add_argument("--spread", type=float, default=1.0)
    g.add_argument("--center-scale", type=float, default=2.0)
    g.add_argument("--nonlinearity", choices=NONLINEARITIES, default="none")
    g.add_argument("--label-noise", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--split", default=None,
                   help="three comma fractions; writes .train/.val/.test files")
    g.add_argument("--split-seed", type=int, default=None)
    g.add_argument("-o", "--out", required=True)
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="train from a config file")
    t.add_argument("-c", "--config", required=True)
    t.add_argument("-d", "--data", required=True, help="training split")
    t.add_argument("--val", default=None, help="validation split")
    t.add_argument("-o", "--out", required=True, help="checkpoint path")
    t.add_argument("--log", default=None, help="log CSV path")
    t.add_argument("--dry-run", action="store_true")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("checkpoint")
    e.add_argument("-d", "--data", required=True)
    e.add_argument("--protocol",
                   choices=("episodic", "retrieval", "classification"),
                   default="episodic")
    e.add_argument("--way", type=int, default=5)
    e.add_argument("--shot", type=int, default=1)
    e.add_argument("--queries", type=int, default=15)
    e.add_argument("--episodes", type=int, default=600)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--metric", choices=("euclidean", "cosine"),
                   default="euclidean")
    e.add_argument("--temperature", type=float, default=1.0)
    e.add_argument("-o", "--out", default=None,
                   help="metrics CSV path (default: CSV to stdout)")
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("analyze",
                       help="geometry stats and blend-identity demo")
    a.add_argument("checkpoint")
    a.add_argument("-d", "--data", required=True)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--draws", type=int, default=10000)
    a.set_defaults(func=cmd_analyze)

    r = sub.add_parser("reproduce", help="run the three-arm comparison")
    r.add_argument("-o", "--out", required=True)
    r.add_argument("--seeds", default="0,1,2,3,4")
    r.add_argument("--epochs", type=int, default=60)
    r.add_argument("--threads", type=int, default=1,
                   help="worker processes, at most one per seed; each runs "
                        "whole seeds (default: 1)")
    r.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


def entrypoint(argv=None):
    """Console entry: map errors to the exit-code contract."""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: out of memory: {exc or 'an array too large'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(entrypoint())
