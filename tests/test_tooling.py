"""Checks that the benchmark's tooling still matches the package.

The traced benchmark run looks every traced layer up by name, and the
reproduce workload builds its settings and times its cells through
names in `cirlab.reproduce`, so a function deleted or renamed in the
package breaks it; these tests catch that here instead. They read
perfbench/ and change nothing there.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
