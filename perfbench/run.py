"""toruslab benchmark: time slices of the slowest acceptance criteria.

Run from the repository root:

    python3 perfbench/run.py --workload {apriori,ensembles,energy}
        [--seed N] [--seconds S] [--trace 0|1]

Workloads (see workloads.py):

* apriori    criterion 10: ``runner.apriori_run``, one sample (M=256, T=1);
             the RK4 loop and the windowed modulation norm carry the time.
* ensembles  criterion-8 families at a reduced count plus the criterion-9
             three-highs-to-low sweep on both equations; all the time is in
             ``estimates``, with no RK4 step and no spacetime windowed norm.
* energy     criteria 6, 4 and 3: Gamma4 lattice sums, and short M=32
             trajectories where per-step overhead sets the evolution cost.

Every repetition runs in its own interpreter (child.py), so class-level
caches such as ``TrilinearConfig._window_cache`` start empty, as users meet
them.  A run first starts a few set-up-only interpreters, then repeats the
workload until ``--seconds`` would be exceeded (at least once).  The first
timed repetition also runs the correctness checks and the oracles, outside
its timed phase; every later repetition must reproduce its outputs exactly.
With ``--trace 1`` that first repetition is traced (spans.py) and the
per-layer metrics come from it; the untraced repetitions give the baseline
for ``trace.overhead_frac``.

Children get ``src`` on PYTHONPATH, TORUSLAB_THREADS unset (the serial
default every criterion uses) and one BLAS/OpenMP thread, which matches the
single-core desk scale of the acceptance budgets.

The seed defaults to each workload's criterion seeds (apriori 110; ensembles
108 and 109; energy 103, 104 and 106), where outputs must also match
reference.json within 1e-9 relative.  Another seed runs the seed-independent
checks only.

Standard output ends with one JSON line holding ``correct``, ``attempted``,
``failed`` (correctness checks) and ``metrics``: the end-to-end metrics
(median over repetitions) with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Spans and the full result go to ``.perfbench_runs/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEEDS = {"apriori": 110, "ensembles": 108, "energy": 103}
SETUP_PROBES = 8
BLAS_THREADS = "1"
RUN_LIMIT_S = 170.0
OUT_DIR = ".perfbench_runs"
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def child_env(root):
    env = dict(os.environ)
    env.pop("TORUSLAB_THREADS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def git_rev(root):
    """Commit of the checkout when it is a git work tree, else "unknown"."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(args, env, deadline):
    """Run child.py to completion; returns its JSON result and its duration."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("run time limit reached")
    t_spawn = time.monotonic()
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), *args,
           "--t-spawn", repr(t_spawn)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child timed out: {' '.join(args)}") from exc
    duration = time.monotonic() - t_spawn
    if proc.returncode != 0:
        raise ChildFailed(f"child failed ({proc.returncode}): {' '.join(args)}\n"
                          + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1]), duration


def measure(workload, seed, seconds, trace, root):
    """All repetitions of one run; returns the result dict."""
    start = time.monotonic()
    hard_stop = start + RUN_LIMIT_S
    env = child_env(root)
    run_id = f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    out_dir = os.path.join(root, OUT_DIR, run_id)
    os.makedirs(out_dir, exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed)]

    setups = [spawn(base + ["--setup-only"], env, hard_stop)[0]["setup_s"]
              for _ in range(SETUP_PROBES)]
    first_args = base + ["--check"]
    if trace:
        first_args += ["--spans", os.path.join(out_dir, "spans.json")]
    first, duration = spawn(first_args, env, hard_stop)
    setups.append(first["setup_s"])
    # the checks and oracles are not part of the measured time
    budget_end = start + seconds + first["check_s"]
    checks = list(first["checks"])
    reps = [] if trace else [first]
    durations = [duration - first["check_s"]]
    while not reps or time.monotonic() + statistics.median(durations) <= budget_end:
        rep, duration = spawn(base, env, hard_stop)
        setups.append(rep["setup_s"])
        durations.append(duration)
        checks.append({"name": f"repetition {len(durations)} reproduces the "
                               "first repetition's outputs",
                       "ok": rep["outputs"] == first["outputs"], "detail": ""})
        reps.append(rep)

    wall = statistics.median(r["wall_s"] for r in reps)
    result = {
        "workload": workload, "seed": seed, "trace": trace,
        "repetitions": len(reps), "setup_samples": len(setups),
        "env": dict(first["env"], git_rev=git_rev(root)),
        "checks": checks,
        "samples": {"wall_s": [r["wall_s"] for r in reps],
                    "setup_s": setups,
                    "peak_rss_mb": [r["peak_rss_mb"] for r in reps]},
    }
    if trace:
        layers = dict(first["layers"])
        layers["trace.overhead_frac"] = (first["wall_s"] - wall) / wall
        result["metrics"] = layers
        result["units"] = first["units"]
        result["computed"] = first["computed"]
    else:
        result["metrics"] = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "toruslab", "__init__.py")):
        print("error: run from the toruslab repository root "
              "(src/toruslab not found)", file=sys.stderr)
        return 2
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    try:
        result = measure(args.workload, seed, args.seconds, args.trace, root)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = result.get("units", END_TO_END_UNITS)
    computed = result.get("computed", {})
    checks = result["checks"]
    failed = sum(not c["ok"] for c in checks)
    print("env " + json.dumps(result["env"], sort_keys=True))
    for c in checks:
        print(f"check {'PASS' if c['ok'] else 'FAIL'} {c['name']} {c['detail']}")
    print(f"repetitions {result['repetitions']}, set-up samples "
          f"{result['setup_samples']}, seed {seed}")
    for name, value in result["metrics"].items():
        label = f" ({computed[name]})" if name in computed else ""
        print(f"metric {name} {value:.6g} {units[name]}{label}")
    print(f"metric check_failures {failed / len(checks):.6g} ratio "
          f"({failed} of {len(checks)} checks failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
