"""Golden digests: the SHA-256 of every main output of a fixed command set.

The commands run in-process through `cirlab.cli.main` and their outputs
(CIRD files, checkpoints, CSVs and SVGs, not the manifests, which hold
paths and the tool version) are hashed and compared with
`tests/golden.json`. A change that moves any output byte fails here, even
when reruns still agree with each other.

    python tests/test_golden.py --record

reruns the set, prints the outputs whose digests moved, went missing or
are new against the recorded file, and then rewrites it. A change that
moves bytes on purpose re-records it and names every digest that moved,
and why.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import numpy as np

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

NET = """\
hidden_dims = 32
embed_dim = 8
epochs = 3
iterations = 15
eval_episodes = 10
lambda = 0.5
gamma = 0.5
seed = 11
"""

CONFIGS = {
    "oim": NET + "loss_mode = oim\nlearning_rate = 0.001\n",
    "ce_smooth": NET + (
        "loss_mode = cross_entropy\nlearning_rate = 0.01\n"
        "label_smoothing = 0.1\nfraction = 0.5\n"
    ),
    "noise_matched": NET + (
        "loss_mode = cross_entropy\nlearning_rate = 0.01\nfraction = 0.5\n"
        "interference = false\nnoise = true\nsigma = matched\n"
    ),
    "noise_fixed": NET + (
        "loss_mode = triplet\nlearning_rate = 0.001\nfraction = 0.5\n"
        "interference = false\nnoise = true\nsigma = 0.3\n"
    ),
    "triplet_decay": NET + (
        "loss_mode = triplet\nlearning_rate = 0.002\nfraction = 0.4\n"
        "decay_start_epoch = 1\ndecay_factor = 0.5\ntac_normalize = true\n"
    ),
    "two_stage": NET + (
        "loss_mode = cross_entropy\nlearning_rate = 0.01\n[stage2]\n" + NET
        + "loss_mode = triplet\nmining = preformed\nlearning_rate = 0.001\n"
    ),
}


def _commands():
    """(argv, [main outputs]) of the set, paths relative to the run dir."""
    split = ("--split", "0.64,0.16,0.20")
    sets = ("train", "val", "test")
    yield (["gen", "--preset", "reproduce", *split, "--seed", "3", "-o", "rep.cird"],
           [f"rep.{s}.cird" for s in sets])
    yield (["gen", "--classes", "12", "--per-class", "20", "--dim", "8",
            "--nonlinearity", "rotate_mix", "--label-noise", "0.1", *split,
            "--seed", "4", "-o", "noisy.cird"],
           [f"noisy.{s}.cird" for s in sets])
    for threads in ("1", "2"):
        yield (["reproduce", "--seeds", "0,1,2", "--epochs", "3",
                "--threads", threads, "-o", f"reproduce-t{threads}"],
               [f"reproduce-t{threads}"])
    for name in CONFIGS:
        ckpt = f"{name}.ckpt"
        yield (["train", "-c", f"{name}.cfg", "-d", "rep.train.cird",
                "--val", "rep.val.cird", "-o", ckpt],
               [ckpt, f"{ckpt}.log.csv"])
        for protocol in ("episodic", "retrieval"):
            out = f"{name}.{protocol}.csv"
            yield (["eval", ckpt, "-d", "rep.test.cird", "--protocol", protocol,
                    "--episodes", "100", "--seed", "5", "-o", out],
                   [out])
    # the table's classes are the train split's
    yield (["eval", "oim.ckpt", "-d", "rep.train.cird", "--protocol",
            "classification", "-o", "oim.classification.csv"],
           ["oim.classification.csv"])


def _digests(path):
    """{path: sha256} of a file, or of every non-manifest file below a
    directory, paths relative to the working directory."""
    if os.path.isfile(path):
        found = [path]
    else:
        found = sorted(
            os.path.join(d, f) for d, _, files in os.walk(path) for f in files
        )
    out = {}
    for p in found:
        if p.endswith(".manifest"):
            continue
        with open(p, "rb") as fh:
            rel = os.path.relpath(p).replace(os.sep, "/")
            out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_golden_set(root):
    """Run the set in `root` and return {output: sha256}."""
    from cirlab.cli import main

    for name, text in CONFIGS.items():
        with open(os.path.join(root, f"{name}.cfg"), "w", encoding="utf-8") as fh:
            fh.write(text)
    digests = {}
    old = os.getcwd()
    os.chdir(root)
    try:
        for argv, outputs in _commands():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code == 0, f"{' '.join(argv)} exited {code}"
            for out in outputs:
                digests.update(_digests(out))
    finally:
        os.chdir(old)
    return digests


def compare_digests(want, got):
    """(moved, missing, extra): the sorted outputs whose digest changed,
    that are recorded but no longer made, and that are made but not
    recorded."""
    moved = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    return moved, sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())


def test_compare_digests_names_each_kind_of_difference():
    want = {"a": "1", "b": "2", "c": "3"}
    got = {"c": "3", "b": "9", "d": "4"}
    assert compare_digests(want, got) == (["b"], ["a"], ["d"])
    assert compare_digests(want, dict(want)) == ([], [], [])


def test_outputs_match_golden_digests(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = run_golden_set(str(tmp_path))
    moved, missing, extra = compare_digests(golden["digests"], got)
    if moved or missing or extra:
        note = ""
        if golden["numpy"] != np.__version__:
            note = (f" (recorded on numpy {golden['numpy']}, running numpy "
                    f"{np.__version__}: the digests may differ across numpy builds)")
        raise AssertionError(
            f"golden digests differ{note}: moved {moved}, missing {missing}, "
            f"extra {extra}"
        )


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    sys.path.insert(0, os.path.join(os.path.dirname(GOLDEN), "..", "src"))
    with tempfile.TemporaryDirectory() as root:
        digests = run_golden_set(root)
    with open(GOLDEN, encoding="utf-8") as fh:
        recorded = json.load(fh)["digests"]
    for kind, keys in zip(("moved", "missing", "extra"), compare_digests(recorded, digests)):
        print(f"{kind} ({len(keys)}):")
        for key in keys:
            print(f"  {key}")
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"numpy": np.__version__, "digests": digests}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests to {GOLDEN}")
