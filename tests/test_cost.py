"""Per-step cost pins: the call events of one training step.

`sys.setprofile` counts the C-level (`c_call`) and Python-level (`call`)
events of one more training step: a 2-iteration epoch minus a
1-iteration epoch of `test_tooling.train_tiny`, which also makes the
tiny split both runs train on. The cases are the four heads, each alone,
and the three-arm lockstep batch-all step. Each count is pinned as an
upper bound, at most 10% above the count recorded in RECORDED, so a
change that adds calls to every step fails here even when no timing
shows it.

The counts depend on the numpy and Python versions, which are recorded
beside them; under other versions the pins do not apply and the test
skips. A change that moves the counts on purpose re-records them:

    python tests/test_cost.py --record

measures every case, prints the counts and rewrites RECORDED and
VERSIONS in this file.
"""

import gc
import json
import math
import os
import re
import sys
from collections import Counter
from platform import python_version

import numpy as np
import pytest

HEADROOM = 1.1

# (head, further lockstep arms) of each case, as `train_tiny` takes them
CASES = {
    "batch_all": ("batch_all", 0),
    "preformed": ("preformed", 0),
    "oim": ("oim", 0),
    "cross_entropy": ("cross_entropy", 0),
    "three_arm_batch_all": ("batch_all", 2),
}

# (C-level, Python-level) call events of one step, rewritten by --record
VERSIONS = {"numpy": "2.4.6", "python": "3.11.7"}
RECORDED = {
    "batch_all": (71, 43),
    "preformed": (65, 64),
    "oim": (67, 58),
    "cross_entropy": (76, 67),
    "three_arm_batch_all": (89, 58),
}


def versions():
    return {"numpy": np.__version__, "python": python_version()}


def step_events(head, arms):
    """(C-level, Python-level) call events of one more step of `head`
    trained in lockstep with `arms` further configs."""
    # imported here: run as a script, this file puts src/ on the path first
    from test_tooling import train_tiny

    train_tiny(head, 1, arms)  # first-call set-up is no step's cost
    totals = []
    for iterations in (1, 2):
        counts = Counter()

        def profile(frame, event, arg):
            counts[event] += 1

        collecting, outer = gc.isenabled(), sys.getprofile()
        gc.disable()
        sys.setprofile(profile)
        try:
            train_tiny(head, iterations, arms)
        finally:
            sys.setprofile(outer)
            if collecting:
                gc.enable()
        totals.append(counts)
    return tuple(totals[1][event] - totals[0][event] for event in ("c_call", "call"))


@pytest.mark.parametrize("case", CASES)
def test_one_step_makes_no_more_calls_than_its_pins(case):
    if versions() != VERSIONS:
        pytest.skip(f"pins recorded under {VERSIONS}, running {versions()}; "
                    "re-record with python tests/test_cost.py --record")
    pins = tuple(math.floor(HEADROOM * n) for n in RECORDED[case])
    c_calls, py_calls = step_events(*CASES[case])
    assert c_calls <= pins[0] and py_calls <= pins[1], (c_calls, py_calls, pins)


def record():
    counts = {case: step_events(*spec) for case, spec in CASES.items()}
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
