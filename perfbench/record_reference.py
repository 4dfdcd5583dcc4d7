"""Record reference.json: every workload's outputs at its default seed.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record_reference.py
"""

import json
import os
import sys
import time

import run

REFERENCE = os.path.join(run.BENCH_DIR, "reference.json")


def main():
    root = os.getcwd()
    env = run.child_env(root)
    reference = {}
    for workload, seed in sorted(run.DEFAULT_SEEDS.items()):
        result, _ = run.spawn(["--workload", workload, "--seed", str(seed)],
                              env, time.monotonic() + run.RUN_LIMIT_S)
        reference[workload] = {"seed": seed, "outputs": result["outputs"]}
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
