"""Record the reference outputs that the correctness gate compares with.

Run from the repository root, at the commit whose outputs are the
reference (the seed commit for the reference checked in):

    python3 perfbench/record_reference.py

For every workload and input set it makes a short untraced run and keeps
the output digest and scientific numbers; for every workload it makes one
short traced run and keeps its counts.  The result replaces
perfbench/reference.json.
"""

import json
import os
import subprocess
import sys

import run


def _record(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace",
         str(trace)],
        stdout=subprocess.DEVNULL, cwd=run.ROOT, timeout=900,
    )
    path = os.path.join(run.WORK, "results",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    if proc.returncode not in (0, 1) or record["failed"]:
        sys.exit(f"{workload} seed {seed}: operations failed: "
                 f"{record['problems']}")
    return record


def main():
    reference = {
        "source_sha256": None,
        "input_sets": run.INPUT_SETS,
        "outputs": {},
        "counts": {},
    }
    for workload in run.WORKLOAD_NAMES:
        outputs = reference["outputs"][workload] = {}
        for inputs in range(run.INPUT_SETS):
            record = _record(workload, inputs, 0)
            if len({p["digest"] for p in record["passes"]}) != 1:
                sys.exit(f"{workload} input set {inputs}: passes differ")
            outputs[str(inputs)] = {"digest": record["digest"],
                                    "numbers": record["numbers"]}
            reference["source_sha256"] = record["environment"]["source_sha256"]
            print(f"{workload} {inputs} {record['digest']}", file=sys.stderr)
        reference["counts"][workload] = _record(
            workload, 0, 1)["invariant_counts"]
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
