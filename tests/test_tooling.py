"""Checks that the benchmark's tooling still matches the package.

The traced benchmark run looks every traced layer up by name, so a
function deleted or renamed in the package breaks it; this test catches
that here instead. It reads perfbench/ and changes nothing there.
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
