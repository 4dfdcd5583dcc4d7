"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py [WORKLOAD ...]      (default: all three)

Asserts that BENCHMARK.json names exactly the metrics run.py and spans.py
produce; that two traced runs of each workload print every per-layer metric
with its unit and repeat every count exactly; that layer self times plus the
benchmark's glue account for the traced wall time; that an untraced run
prints every end-to-end metric with its unit and passes its checks; and that
run.py fails without a result outside a repository checkout.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=400)
    return proc


def result(workload, trace):
    proc = bench("--workload", workload, "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, lines
    for name, m in out["metrics"].items():
        assert any(line.split()[:2] == ["metric", name]
                   and line.split()[3] == m["unit"] for line in lines), name
    return out["metrics"]


def main(workloads):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(spans.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.DEFAULT_SEEDS)

    for workload in workloads:
        first, second = result(workload, 1), result(workload, 1)
        for name, unit, _ in spans.PER_LAYER:
            assert first[name]["unit"] == unit, name
            if unit == "count":
                assert first[name]["value"] == second[name]["value"], name
        busy = sum(first[f"{layer}.busy_s" if layer != "runner" else
                         "runner.self_s"]["value"] for layer in spans.LAYERS)
        wall, glue = first["trace.wall_s"]["value"], first["trace.glue_s"]["value"]
        assert abs(busy + glue - wall) <= 1e-9 * wall, (busy, glue, wall)
        assert glue <= 0.01 * wall, (glue, wall)
        e2e = result(workload, 0)
        assert {n: m["unit"] for n, m in e2e.items()} == run.END_TO_END_UNITS
        print(f"{workload}: ok")

    bare = os.path.join(ROOT, run.OUT_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "energy", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    shutil.rmtree(bare)
    print("bare directory: fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or sorted(run.DEFAULT_SEEDS)))
