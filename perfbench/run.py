"""Benchmark of the cirlab lab.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

``--trace 0`` times the workload end to end with tracing off and reports
the ``end_to_end`` metrics of BENCHMARK.json; ``--trace 1`` makes a traced
run and reports the ``per_layer`` metrics.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The exit status is 1 when the correctness gate fails and 2 when
the arguments or the source tree are unusable.  A full record of each run
(every sample, output digests, environment) goes to
``.perfbench/results/``; see perfbench/README.md.
"""

import os

# Before numpy is imported anywhere: one BLAS thread, so that the reproduce
# pool's workers do not oversubscribe the cores.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOAD_NAMES = ("reproduce_matrix", "cli_triplet_b256", "cli_classify")

# The workload seed selects one of INPUT_SETS input sets, for each of which
# reference.json holds the seed commit's output digest and numbers.
INPUT_SETS = 8
SETUP_REPEATS = 7
MIN_PASSES = 2  # byte identity is checked across the passes of a run
MAX_MEASURE_S = 120.0  # stop starting passes after this, whatever --seconds

# Tolerance of the scientific numbers against the seed commit's values,
# keyed by the last part of the number's name: (kind, amount).  The
# absolute ones allow a flip of about one query or holdout row.
TOLERANCE = {
    "val_acc": ("abs", 0.05),
    "gap": ("abs", 0.05),
    "inter_intra_ratio": ("rel", 0.05),
    "episodic_accuracy": ("abs", 0.03),
    "classification_accuracy": ("abs", 0.03),
    "map": ("abs", 0.05),
    "cmc_rank1": ("abs", 0.13),
}

# Counts that do not depend on the input set; every count repeats exactly
# between passes of one input set.
SEED_INVARIANT = (
    "trainer.train.steps",
    "evaluate.episodic_accuracy.episodes",
    "interference.interfere_batch.rows",
    "reproduce.run_reproduction.cells",
)

# Per-layer metrics that are not "<module>.<function>.<key>".
LAYER_ALIASES = {
    "reproduce.cells": "reproduce.run_reproduction.cells",
    "reproduce.failures": "reproduce.run_reproduction.failures",
}


def _median(values):
    return statistics.median(values) if values else None


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _require_source():
    """The benchmark builds nothing; it needs the checkout's own src/."""
    if not os.path.isfile(os.path.join(SRC, "cirlab", "__init__.py")):
        print(f"perfbench: no cirlab source under {SRC}; run from the "
              "repository root", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import cirlab

    if not os.path.abspath(cirlab.__file__).startswith(SRC + os.sep):
        print(f"perfbench: cirlab imported from {cirlab.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Gate:
    """Operation counts and correctness problems of one run."""

    def __init__(self, reference, workload):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = (reference or {}).get("outputs", {}).get(workload, {})

    def ops(self, ops):
        for op in ops:
            self.attempted += 1
            if not op.ok:
                self.failed += 1
                self.problems.append(f"{op.kind} failed: {op.message}")

    def check_numbers(self, numbers, inputs):
        """Compare with the seed commit's numbers within TOLERANCE."""
        ref = self.reference.get(str(inputs))
        if ref is None:
            self.problems.append(f"no reference for input set {inputs}")
            return
        if set(numbers) != set(ref["numbers"]):
            self.problems.append("numbers differ in name from the reference")
            return
        for name, value in numbers.items():
            kind, amount = TOLERANCE[name.rsplit("/", 1)[-1]]
            expected = ref["numbers"][name]
            allowed = amount * (abs(expected) if kind == "rel" else 1.0)
            if abs(value - expected) > allowed:
                self.problems.append(
                    f"{name} = {value!r}, reference {expected!r} "
                    f"(tolerance {kind} {amount})")

    def digest_matches(self, digest, inputs):
        ref = self.reference.get(str(inputs))
        return ref is not None and ref["digest"] == digest

    @property
    def correct(self):
        return not self.problems and self.failed == 0


def verify_pass(w, gate, pass_dir, inputs):
    """Check the numbers of one pass and return its output digest (None
    when the outputs are missing or unreadable)."""
    import workloads

    try:
        numbers = w.numbers(pass_dir)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        gate.problems.append(f"unreadable outputs in {pass_dir}: {exc!r}")
        return None
    gate.check_numbers(numbers, inputs)
    return workloads.digest(pass_dir)


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "cirlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(),
        "source_sha256": h.hexdigest(),
    }


def git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def setup_child(args):
    """One timed set-up in a fresh interpreter: imports, then the
    workload's dataset generation and config writing."""
    start = time.perf_counter()
    import workloads

    ops = workloads.WORKLOADS[args.workload].setup(
        os.path.join(args.setup_child, "data"), args.inputs)
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds,
                      "ops": [[op.kind, op.ok, op.message] for op in ops]}))


def timed_setups(w, gate, run_dir, inputs):
    """SETUP_REPEATS set-ups, each in its own interpreter, between host
    probes; the first one's data becomes ``run_dir/data`` once all are shown
    byte-identical.  Returns [(seconds, probe before, probe after)]."""
    import hostspeed
    import workloads

    times, digests = [], set()
    probes = [hostspeed.probe_once()]
    for k in range(SETUP_REPEATS):
        target = os.path.join(run_dir, f"setup-{k}")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--setup-child",
                 target, "--workload", w.name, "--inputs", str(inputs)],
                capture_output=True, text=True, timeout=120, cwd=ROOT,
            )
            message = proc.stderr.strip() if proc.returncode else ""
        except subprocess.TimeoutExpired:
            message = "set-up timed out"
        probes.append(hostspeed.probe_once())
        if message:
            gate.ops([workloads.Op("setup", False, 0.0, message)])
            continue
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((record["seconds"], probes[-2], probes[-1]))
        gate.ops([workloads.Op(kind, ok, 0.0, msg)
                  for kind, ok, msg in record["ops"]])
        digests.add(workloads.digest(os.path.join(target, "data")))
    if len(digests) > 1:
        gate.problems.append("set-up outputs differ between repeats")
    data_dir = os.path.join(run_dir, "data")
    if os.path.isdir(os.path.join(run_dir, "setup-0", "data")):
        os.replace(os.path.join(run_dir, "setup-0", "data"), data_dir)
    for k in range(SETUP_REPEATS):
        shutil.rmtree(os.path.join(run_dir, f"setup-{k}"), ignore_errors=True)
    return times, data_dir


def peak_rss_mb(w):
    """Peak resident memory: this process, plus, for the reproduce pool,
    one largest child per worker (an upper bound on the pool's share)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if w.threads > 1:
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        own += w.threads * child
    return own


def measure(w, seed, seconds, reference, record):
    """Untraced run: timed set-ups, then passes for ``seconds``.  Timings
    are reported scaled to the reference host speed (see hostspeed.py)."""
    import hostspeed
    import workloads

    inputs = seed % INPUT_SETS
    gate = Gate(reference, w.name)
    run_dir = _fresh_dir(os.path.join(WORK, w.name))
    setups, data_dir = timed_setups(w, gate, run_dir, inputs)
    timers = workloads.CellTimers() if w.threads > 1 else None

    passes, first_digest = [], None
    with hostspeed.HostSpeed(w.threads) as speed:
        probe = speed.probe()
        start = time.perf_counter()
        while True:
            passes.append(_measured_pass(
                w, gate, os.path.join(run_dir, f"pass-{len(passes)}"),
                data_dir, inputs, timers, speed, probe))
            probe = passes[-1]["probe_after"]
            if len(passes) == 1:
                first_digest = passes[0]["digest"]
            elif passes[-1]["digest"] != first_digest:
                gate.problems.append(
                    f"pass {len(passes) - 1} outputs differ from pass 0")
            elapsed = time.perf_counter() - start
            if len(passes) >= MIN_PASSES and (
                    elapsed + passes[-1]["wall"]["run_s"] > seconds
                    or elapsed > MAX_MEASURE_S):
                break

    def scaled(name):
        return _median([p["scaled"][name] for p in passes])

    metrics = {
        "setup_s": _median([hostspeed.scale(*s) for s in setups]),
        "run_s": scaled("run_s"),
        "train_s": scaled("train_s"),
        "eval_s": scaled("eval_s"),
        "peak_rss_mb": peak_rss_mb(w),
    }
    record.update(
        inputs=inputs, threads=w.threads,
        setups=[{"wall": t, "probe_before": a, "probe_after": b}
                for t, a, b in setups],
        passes=passes, digest=first_digest,
        digest_matches_reference=gate.digest_matches(first_digest, inputs),
        numbers=w.numbers(os.path.join(run_dir, "pass-0"))
        if first_digest else None,
        wall_medians={
            "setup_s": _median([t for t, _, _ in setups]),
            **{name: _median([p["wall"][name] for p in passes])
               for name in ("run_s", "train_s", "eval_s")},
        },
        samples={"setup_s": len(setups), "run_s": len(passes),
                 "train_s": len(passes), "eval_s": len(passes),
                 "peak_rss_mb": 1},
    )
    return gate, metrics


def _measured_pass(w, gate, pass_dir, data_dir, inputs, timers, speed,
                   probe_before):
    """One timed pass, its verification, and the probe after it.

    On the CLI workloads a probe also runs before each eval round.  The
    probes cut the pass into stretches: the train commands, then one eval
    round each (the last one with the verification).  Each stretch is
    scaled by the two probes around it, so that a timing is corrected by
    the host speed nearest to it; the probes' own time is left out of
    ``run_s``.  ``eval_s`` is the fastest scaled round.
    """
    import hostspeed

    exponents = {**dict.fromkeys(("run_s", "train_s", "eval_s"),
                                 hostspeed.EXPONENT), **w.exponents}
    probes = [probe_before]
    cuts = []  # (start, end) of each probe inside the pass

    def probe_between():
        start = time.perf_counter()
        probes.append(speed.probe())
        cuts.append((start, time.perf_counter()))

    def scale(seconds, k, name):
        """``seconds`` of stretch k, between probes k and k + 1."""
        return hostspeed.scale(seconds, probes[k], probes[k + 1],
                               exponents[name])

    if timers is not None:
        timers.directory = _fresh_dir(pass_dir + "-timers")
    t0 = time.perf_counter()
    ops = w.run_pass(pass_dir, data_dir, inputs, w.threads, probe_between)
    digest = verify_pass(w, gate, pass_dir, inputs)
    edges = [t0, *(t for cut in cuts for t in cut), time.perf_counter()]
    probes.append(speed.probe())
    gate.ops(ops)
    stretches = [b - a for a, b in zip(edges[::2], edges[1::2])]
    if timers is not None:
        wall = {"run_s": stretches[0], **timers.totals()}
        rounds = None
        scaled = {name: scale(value, 0, name) for name, value in wall.items()}
    else:
        evals = [op.seconds for op in ops if op.kind == "eval"]
        per_round = len(evals) // w.eval_rounds
        rounds = [sum(evals[r * per_round:(r + 1) * per_round])
                  for r in range(w.eval_rounds)]
        wall = {
            "run_s": sum(stretches),
            "train_s": sum(op.seconds for op in ops if op.kind == "train"),
            "eval_s": min(rounds),
        }
        scaled = {
            "run_s": scale(stretches[0], 0, "train_s") + sum(
                scale(t, k, "eval_s")
                for k, t in enumerate(stretches[1:], start=1)),
            "train_s": scale(wall["train_s"], 0, "train_s"),
            "eval_s": min(scale(t, k, "eval_s")
                          for k, t in enumerate(rounds, start=1)),
        }
    return {
        "wall": wall,
        "scaled": scaled,
        "eval_rounds": rounds,
        "probes": probes,
        "probe_before": probe_before,
        "probe_after": probes[-1],
        "digest": digest,
    }


def _pass_with_setup(w, gate, base, inputs):
    """Set-up plus one pass under ``base``; returns (ops run_s, digest)."""
    data_dir = os.path.join(_fresh_dir(base), "data")
    gate.ops(w.setup(data_dir, inputs))
    pass_dir = os.path.join(base, "pass")
    t0 = time.perf_counter()
    gate.ops(w.run_pass(pass_dir, data_dir, inputs, 1))
    run_s = time.perf_counter() - t0
    return run_s, verify_pass(w, gate, pass_dir, inputs)


def traced(w, seed, seconds, reference, layer_names, record):
    """Traced run at one thread.

    Untraced and traced passes of the same input set alternate for
    ``seconds``; the untraced ones are the base of byte identity and of the
    tracing overhead, taken per pair so that host drift cancels.  One
    traced pass of the next input set follows.  Each pass includes its
    own set-up, so the set-up layers are traced too.
    """
    from tracer import Tracer

    inputs = seed % INPUT_SETS
    other = (inputs + 1) % INPUT_SETS
    gate = Gate(reference, w.name)
    run_dir = _fresh_dir(os.path.join(WORK, w.name + "-trace"))
    tracer = Tracer()
    pairs, base_digest = [], None
    start = time.perf_counter()
    while True:
        n = len(pairs)
        base_s, digest = _pass_with_setup(
            w, gate, os.path.join(run_dir, f"untraced-{n}"), inputs)
        base_digest = base_digest or digest
        tracer.pass_id = n
        tracer.install()
        try:
            run_s, traced_digest = _pass_with_setup(
                w, gate, os.path.join(run_dir, f"traced-{n}"), inputs)
        finally:
            tracer.uninstall()
        pairs.append((base_s, run_s))
        if digest != base_digest or traced_digest != base_digest:
            gate.problems.append(f"pass pair {n} outputs differ from pass 0")
        elapsed = time.perf_counter() - start
        if elapsed + base_s + run_s > seconds or elapsed > MAX_MEASURE_S:
            break
    tracer.pass_id = "other"
    tracer.install()
    try:
        _pass_with_setup(w, gate, os.path.join(run_dir, "traced-other"), other)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(run_dir, "spans.csv"))

    layers = tracer.layers()
    counts = {
        key: value for key, value in layers[0].items()
        if not key.endswith(("self_s", "total_s"))
    }
    invariant = {key: value for key, value in counts.items()
                 if key.endswith(".calls") or key in SEED_INVARIANT}
    for pass_id, row in layers.items():
        same = invariant if pass_id == "other" else counts
        if {key: row.get(key) for key in same} != same:
            gate.problems.append(
                f"counts of traced pass {pass_id} differ from pass 0")

    def layer_value(name):
        key = LAYER_ALIASES.get(name, name)
        if name == "trace.overhead_frac":
            return _median([(t - u) / u for u, t in pairs])
        if name == "losses.batch_all_triplet_loss.active_ratio":
            valid = counts.get("losses.batch_all_triplet_loss.triplets", 0)
            active = counts.get("losses.batch_all_triplet_loss.active", 0)
            return active / valid if valid else 0.0
        if key.endswith(".self_s"):
            return _median([row[key] for row in layers.values()])
        return counts.get(key, 0)

    metrics = {name: layer_value(name) for name in layer_names}
    ref_counts = (reference or {}).get("counts", {}).get(w.name)
    record.update(
        inputs=inputs, other_inputs=other, threads=1,
        untraced_run_s=[u for u, _ in pairs],
        traced_run_s=[t for _, t in pairs], digest=base_digest,
        digest_matches_reference=gate.digest_matches(base_digest, inputs),
        counts=counts, invariant_counts=invariant,
        invariant_counts_match_reference=ref_counts == invariant,
        times={key: _median([row[key] for row in layers.values()])
               for key in layers[0] if key.endswith(("self_s", "total_s"))},
        spans=len(tracer.spans),
        samples=dict.fromkeys(layer_names, len(layers)),
    )
    return gate, metrics


def run_one(args, spec):
    import workloads

    w = workloads.WORKLOADS[args.workload]
    try:
        reference = _load_json(REFERENCE)
    except FileNotFoundError:
        reference = None
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "loadavg_before": os.getloadavg()}
    record["environment"] = environment()
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        gate, values = traced(w, args.seed, args.seconds, reference, names,
                              record)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        gate, values = measure(w, args.seed, args.seconds, reference, record)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    record.update(
        loadavg_after=os.getloadavg(), correct=gate.correct,
        attempted=gate.attempted, failed=gate.failed,
        failed_frac=gate.failed / gate.attempted if gate.attempted else None,
        problems=gate.problems, metrics=metrics,
    )
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(
            results, f"{w.name}-seed{args.seed}-trace{args.trace}.json"),
            "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for problem in gate.problems:
        print(f"perfbench: {w.name}: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{w.name} {name} {m['value']!r} {m['unit']} "
              f"(n={record.get('samples', {}).get(name, 1)})", file=sys.stderr)
    print(f"{w.name} failed_frac {record['failed_frac']!r} "
          f"({gate.failed}/{gate.attempted}) digest {record['digest']} "
          f"matches_seed_commit {record['digest_matches_reference']}",
          file=sys.stderr)
    print(json.dumps({"correct": gate.correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if gate.correct else 1


def run_all(args, spec):
    """Every workload, each in a fresh interpreter."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            correct = False
            continue
        result = json.loads(lines[-1])
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, m in result["metrics"].items():
            print(f"{name:18s} {metric:45s} {m['value']!r} {m['unit']}")
            metrics[f"{name}.{metric}"] = m
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


PR_SET_CHILD_SUBREAPER = 36
REAP_GRACE_S = 5.0


def _become_subreaper():
    """Have orphaned descendants re-parented to this process instead of to
    init, so that `_reap_descendants` waits for them too (Linux only)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children():
    pids = set()
    try:
        tids = os.listdir("/proc/self/task")
    except OSError:
        return pids
    for tid in tids:
        try:
            with open(f"/proc/self/task/{tid}/children", encoding="ascii") as fh:
                pids.update(int(pid) for pid in fh.read().split())
        except OSError:
            pass
    return pids


def _reap_descendants():
    """Wait for every process this one started, and every orphan handed to
    it, to end; those still running after REAP_GRACE_S are killed."""
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        now = time.monotonic()
        if now > deadline + REAP_GRACE_S:
            print("perfbench: child processes did not end", file=sys.stderr)
            return
        if now > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)


def main(argv=None):
    _become_subreaper()
    try:
        return _main(argv)
    finally:
        _reap_descendants()


def _main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", help=argparse.SUPPRESS)
    parser.add_argument("--inputs", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.seed = abs(args.seed)

    _require_source()
    sys.path.insert(0, HERE)
    if args.setup_child:
        setup_child(args)
        return 0
    spec = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
