"""Span tracer for the traced benchmark run.

`Tracer.install` replaces each traced public function of the cirlab
modules with a timing wrapper, in the namespace of every loaded
``cirlab.*`` module that holds it (``cirlab.trainer.pk_batch`` as well as
``cirlab.sampling.pk_batch``), so calls between modules are seen.  Each
call becomes one span (id, name, start, end, parent id, pass id) kept in
memory; `Tracer.write` saves them when the run ends and `Tracer.layers`
derives per-pass call counts, work counts and self time from them.

Spans nest on one stack, so the tracer is for single-threaded runs only:
spans do not cross a process pool.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _train_steps(args, kwargs, result):
    cfg = _arg(args, kwargs, 2, "cfg")
    return {"steps": cfg.epochs * cfg.iterations}


def _triplets(args, kwargs, result):
    return {"triplets": result.num_triplets, "active": result.num_active}


def _cells(args, kwargs, result):
    return {
        "cells": len(result.runs) + len(result.failures),
        "failures": len(result.failures),
    }


# Traced functions ("module.function" under cirlab) and, where a layer
# does countable work, how to count it from (args, kwargs, result).
TRACED = {
    "sampling.pk_batch": None,
    "sampling.sample_episode": None,
    "nn.forward": lambda a, k, r: {"rows": len(_arg(a, k, 1, "x"))},
    "nn.backward": None,
    "nn.sgd_step": None,
    "nn.input_gradient": None,
    "interference.interfere_batch":
        lambda a, k, r: {"rows": len(_arg(a, k, 0, "features"))},
    "interference.matched_noise_sigma": None,
    "interference.gaussian_perturb": None,
    "tac.tac_update": None,
    "losses.batch_all_triplet_loss": _triplets,
    "losses.cross_entropy": None,
    "losses.oim_scores": None,
    "evaluate.episodic_accuracy": lambda a, k, r: {"episodes": r.episodes},
    "evaluate.nearest_prototype_classify": None,
    "evaluate.geometry_stats": None,
    "trainer.train": _train_steps,
    "trainer.evaluate_checkpoint": None,
    "reproduce.run_reproduction": _cells,
    "svgplot.save_chart": None,
    "datagen.gen_gaussian_mixture": None,
    "datagen.split_classes": None,
    "datagen.save_dataset": None,
    "datagen.load_dataset": None,
    "checkpoint.save_checkpoint": None,
    "checkpoint.load_checkpoint": None,
    "config.parse_config_file": None,
    "cli.main": None,
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, pass id)
        self.counts = defaultdict(int)  # (pass id, name, key) -> total
        self.pass_id = None
        self._stack = [0]
        self._next_id = 0
        self._saved = []  # (module, attribute, original)

    def install(self):
        for name, counter in TRACED.items():
            module_name, func_name = name.split(".")
            original = getattr(
                importlib.import_module(f"cirlab.{module_name}"), func_name
            )
            wrapper = self._wrap(name, original, counter)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "cirlab" and not mod_name.startswith("cirlab."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1]
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.pass_id))
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[(self.pass_id, name, key)] += value
            return result

        return traced

    def layers(self):
        """{pass id: {"<name>.calls" / ".self_s" / ".total_s" / ".<count>": v}}.

        Self time is a span's duration minus the durations of its direct
        children, total time the whole duration; every traced function
        appears, with zeros when unused.
        """
        child_time = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            child_time[parent] += end - start
        out = defaultdict(
            lambda: {f"{n}.{k}": 0 for n in TRACED
                     for k in ("calls", "self_s", "total_s")}
        )
        for span_id, name, start, end, _, pass_id in self.spans:
            row = out[pass_id]
            row[f"{name}.calls"] += 1
            row[f"{name}.self_s"] += (end - start) - child_time[span_id]
            row[f"{name}.total_s"] += end - start
        for (pass_id, name, key), value in self.counts.items():
            out[pass_id][f"{name}.{key}"] = value
        return dict(out)

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,name,start,end,parent,pass\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")
