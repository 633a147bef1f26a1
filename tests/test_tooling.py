"""Checks that the benchmark's tooling still matches the package.

The traced benchmark run looks every traced layer up by name, and the
reproduce workload builds its settings and times its cells through
names in `cirlab.reproduce`, so a function deleted or renamed in the
package breaks it; these tests catch that here instead. The tracer
also sees a training step's calls only while the trainer makes them
through its module-level names, not through references captured once
per run. They read perfbench/ and change nothing there.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import cirlab.trainer
from cirlab.datagen import GeneratorSpec, gen_gaussian_mixture, split_classes
from cirlab.trainer import TrainConfig

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


STEP_CALLS = (
    "pk_batch", "forward", "interfere_batch", "batch_all_triplet_loss",
    "backward", "sgd_step", "tac_update",
)


def test_each_step_calls_every_layer_once_through_trainer_names(monkeypatch):
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in STEP_CALLS:
        monkeypatch.setattr(
            cirlab.trainer, name, counted(name, getattr(cirlab.trainer, name))
        )
    ds = gen_gaussian_mixture(GeneratorSpec(
        num_classes=12, samples_per_class=20, input_dim=8, seed=0,
    ))
    tr, va, _ = split_classes(ds, (0.5, 0.25, 0.25), seed=0)
    totals = []
    for iterations in (1, 2):
        counts.clear()
        cfg = TrainConfig(
            epochs=1, iterations=iterations, hidden_dims=(8,), embed_dim=4,
            p_classes=4, k_samples=3, eval_n_way=3, eval_q_queries=2,
            eval_episodes=2,
        )
        cirlab.trainer.train(tr, va, cfg)
        totals.append(counts.copy())
    # one more step: one more call of each, outside the per-epoch embeds
    assert {name: totals[1][name] - totals[0][name] for name in STEP_CALLS} == {
        name: 1 for name in STEP_CALLS
    }
    assert all(totals[0][name] >= 1 for name in STEP_CALLS)
