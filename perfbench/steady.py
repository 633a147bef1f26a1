"""Run-to-run spread of the end-to-end metrics.

Run from the repository root:

    python3 perfbench/steady.py --workloads reproduce_matrix,cli_classify \\
        --seeds 0-9 [--out FILE]

Runs ``perfbench/run.py`` once per workload and seed (tracing off, the
run length of BENCHMARK.json) and prints, per workload and metric, the
median of the runs, their quartiles, and the spread: the distance between
the quartiles as a share of the median, beside the metric's bound.  With
``--out`` the table is also written as JSON, which is how the baseline in
perfbench/baseline.json was made.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--out")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    table = {}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                timeout=900,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and proc.returncode == 0 and result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = table[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "bound": bounds[name],
                          "runs": vals}
            print(f"{workload:18s} {name:12s} median {med:10.4f} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread "
                  f"{rows[name]['spread']:.4f} bound {bounds[name]}",
                  flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
