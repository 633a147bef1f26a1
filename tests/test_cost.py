"""Cost pins: the call events of one training step, of one call of each
step and eval layer, and of a repeated CLI command.

`sys.setprofile` counts the C-level (`c_call`) and Python-level (`call`)
events of

* one more training step: a 2-iteration epoch minus a 1-iteration epoch
  of `test_tooling.train_tiny`, for each of the four heads alone and for
  the three-arm lockstep batch-all step;
* one call of a layer after a warm-up call, on fixed inputs made outside
  the count: the batch-all loss at S = 1 and 3 with B = 32 and at S = 1
  with B = 256, the encoder's `forward` and `backward` at S = 3, B = 32,
  a 100-step `pk_epoch` at 8 x 4 with 32 designated rows, `episode_rows`
  and `episodic_accuracy` over 600 5-way 1 + 15 episodes, and
  `geometry_stats` at N = 626, d = 16;
* the second of two identical in-process `cirlab.cli.main(["train", ...,
  "--dry-run"])` commands on `test_tooling.tiny_split`, so that work the
  CLI repeats on every command, such as building its parser, shows.

Each count is pinned as an upper bound, at most 10% above the count
recorded in RECORDED, so a change that adds calls fails here even when
no timing shows it.

The counts depend on the numpy and Python versions, which are recorded
beside them; under other versions the pins do not apply and the test
skips. A change that moves the counts on purpose re-records them:

    python tests/test_cost.py --record

measures every case, prints the counts and rewrites RECORDED and
VERSIONS in this file.
"""

import contextlib
import functools
import gc
import io
import json
import math
import os
import re
import sys
import tempfile
from collections import Counter
from platform import python_version

import numpy as np
import pytest

HEADROOM = 1.1

# (head, further lockstep arms) of each step case, as `train_tiny` takes them
CASES = {
    "batch_all": ("batch_all", 0),
    "preformed": ("preformed", 0),
    "oim": ("oim", 0),
    "cross_entropy": ("cross_entropy", 0),
    "three_arm_batch_all": ("batch_all", 2),
}

# (C-level, Python-level) call events of each case, rewritten by --record
VERSIONS = {"numpy": "2.4.6", "python": "3.11.7"}
RECORDED = {
    "batch_all": (71, 43),
    "preformed": (65, 64),
    "oim": (67, 58),
    "cross_entropy": (76, 67),
    "three_arm_batch_all": (89, 58),
    "loss_s1_b32": (38, 19),
    "loss_s3_b32": (40, 20),
    "loss_s1_b256": (38, 19),
    "forward_s3_b32": (10, 7),
    "backward_s3_b32": (12, 8),
    "pk_epoch_100_steps": (94, 76),
    "episode_rows_600": (364, 393),
    "episodic_accuracy_600": (503, 221),
    "geometry_stats_626": (113, 90),
    "repeated_train_dry_run": (458, 236),
}


def versions():
    return {"numpy": np.__version__, "python": python_version()}


def count_events(fn, *args):
    """(C-level, Python-level) call events of fn(*args), with the
    collector off so that no collection runs inside the count."""
    counts = Counter()

    def profile(frame, event, arg):
        counts[event] += 1

    collecting, outer = gc.isenabled(), sys.getprofile()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(outer)
        if collecting:
            gc.enable()
    return counts["c_call"], counts["call"]


def step_events(head, arms):
    """(C-level, Python-level) call events of one more step of `head`
    trained in lockstep with `arms` further configs."""
    # imported here: run as a script, this file puts src/ on the path first
    from test_tooling import train_tiny

    train_tiny(head, 1, arms)  # first-call set-up is no step's cost
    one, two = (count_events(train_tiny, head, n, arms) for n in (1, 2))
    return two[0] - one[0], two[1] - one[1]


def call_events(fn, make_args):
    """Call events of fn(*make_args()) after a warm-up call, each call on
    arguments made outside the count."""
    fn(*make_args())
    return count_events(fn, *make_args())


def loss_events(stacks, p, k):
    """One batch-all loss call on S = stacks batches of p classes of k rows."""
    from cirlab.losses import TripletConfig, batch_all_triplet_loss, triplet_masks

    rng = np.random.default_rng(0)
    z, zt = (rng.standard_normal((stacks, p * k, 16)) for _ in range(2))
    masks = triplet_masks(np.repeat(np.arange(p), k))
    return call_events(batch_all_triplet_loss, lambda: (z, zt, TripletConfig(), masks))


def encoder_inputs():
    """A stack of 3 encoders of the default 16-64-16 shape, their forward
    cache of 32 rows each and a gradient of their output."""
    from cirlab.nn import _layers, init_params, stack_params

    params = stack_params([init_params((16, 64, 16), seed=s) for s in range(3)])
    x = np.random.default_rng(0).standard_normal((3, 32, 16))
    z, cache = _layers(params, x)
    return params, x, cache, np.ones_like(z)


def forward_events():
    from cirlab.nn import forward

    params, x, _, _ = encoder_inputs()
    return call_events(forward, lambda: (params, x))


def backward_events():
    from cirlab.nn import backward

    params, _, cache, grad = encoder_inputs()
    return call_events(backward, lambda: (params, cache, grad))


def pk_epoch_events():
    """100 steps of 8 x 4 batches with 32 designated rows on 20 classes of
    20 rows, each call from a generator of seed 0."""
    from cirlab.sampling import ClassIndex, PKSpec, pk_epoch

    index = ClassIndex(np.repeat(np.arange(20), 20))
    return call_events(pk_epoch, lambda: (
        index, PKSpec(8, 4), np.random.default_rng(0), 100, 32, 20,
    ))


EPISODE_LABELS = np.repeat(np.arange(20), 20)


def episode_rows_events():
    """600 5-way 1 + 15 episodes of 20 classes of 20 rows."""
    from cirlab.sampling import episode_rows

    return call_events(episode_rows, lambda: (EPISODE_LABELS, 5, 1, 15, 600, 0))


def episodic_accuracy_events():
    from cirlab.evaluate import episodic_accuracy
    from cirlab.sampling import episode_rows

    z = np.random.default_rng(0).standard_normal((EPISODE_LABELS.size, 16))
    episodes = episode_rows(EPISODE_LABELS, 5, 1, 15, 600, 0)
    return call_events(episodic_accuracy, lambda: (z, episodes))


def geometry_events():
    """626 rows of 16 dims in 25 classes."""
    from cirlab.evaluate import geometry_stats

    z = np.random.default_rng(0).standard_normal((626, 16))
    labels = np.arange(626) % 25
    return call_events(geometry_stats, lambda: (z, labels))


def command_events():
    """The second of two identical in-process `train --dry-run` commands
    on `tiny_split`, stdout captured outside the count."""
    from cirlab import cli
    from cirlab.config import config_to_text
    from cirlab.datagen import save_dataset
    from test_tooling import tiny_config, tiny_split

    with tempfile.TemporaryDirectory() as root:
        tr, va = (os.path.join(root, f"{n}.cird") for n in ("train", "val"))
        for split, path in zip(tiny_split(), (tr, va)):
            save_dataset(split, path)
        cfg = os.path.join(root, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(config_to_text(tiny_config("batch_all", 2)))
        argv = ["train", "-c", cfg, "-d", tr, "--val", va,
                "-o", os.path.join(root, "m.ckpt"), "--dry-run"]
        with contextlib.redirect_stdout(io.StringIO()):
            return call_events(cli.main, lambda: (argv,))


LAYER_CASES = {
    "loss_s1_b32": functools.partial(loss_events, 1, 8, 4),
    "loss_s3_b32": functools.partial(loss_events, 3, 8, 4),
    "loss_s1_b256": functools.partial(loss_events, 1, 32, 8),
    "forward_s3_b32": forward_events,
    "backward_s3_b32": backward_events,
    "pk_epoch_100_steps": pk_epoch_events,
    "episode_rows_600": episode_rows_events,
    "episodic_accuracy_600": episodic_accuracy_events,
    "geometry_stats_626": geometry_events,
}

# every case's measurement, in RECORDED's order
MEASURE = {
    **{case: functools.partial(step_events, *spec) for case, spec in CASES.items()},
    **LAYER_CASES,
    "repeated_train_dry_run": command_events,
}


def check_pins(case):
    if versions() != VERSIONS:
        pytest.skip(f"pins recorded under {VERSIONS}, running {versions()}; "
                    "re-record with python tests/test_cost.py --record")
    pins = tuple(math.floor(HEADROOM * n) for n in RECORDED[case])
    c_calls, py_calls = MEASURE[case]()
    assert c_calls <= pins[0] and py_calls <= pins[1], (c_calls, py_calls, pins)


@pytest.mark.parametrize("case", CASES)
def test_one_step_makes_no_more_calls_than_its_pins(case):
    check_pins(case)


@pytest.mark.parametrize("case", LAYER_CASES)
def test_one_layer_call_makes_no_more_calls_than_its_pins(case):
    check_pins(case)


def test_a_repeated_command_makes_no_more_calls_than_its_pins():
    # a command run twice in one process repeats none of the CLI's set-up
    check_pins("repeated_train_dry_run")


def record():
    counts = {case: measure() for case, measure in MEASURE.items()}
    for case, (c_calls, py_calls) in counts.items():
        print(f"{case}: {c_calls} C-level / {py_calls} Python-level")
    lines = [f"VERSIONS = {json.dumps(versions())}", "RECORDED = {"]
    lines += [f"    {json.dumps(case)}: {pair!r}," for case, pair in counts.items()]
    path = os.path.abspath(__file__)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    block = "\n".join(lines) + "\n}\n"
    text = re.sub(r"^VERSIONS = .*?\n}\n", lambda _: block, text, count=1,
                  flags=re.MULTILINE | re.DOTALL)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"recorded {len(counts)} cases to {path}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_cost.py --record")
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    record()
