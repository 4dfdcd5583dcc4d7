"""One benchmark repetition in a fresh interpreter.

Run from the repository root with ``src`` on PYTHONPATH (run.py does this):

    python3 perfbench/child.py --workload NAME --seed N --t-spawn T
        [--setup-only] [--check] [--spans PATH]

Sets up the workload's inputs, runs its timed phase (traced when ``--spans``
is given), and with ``--check`` runs its correctness checks afterwards.
Prints one JSON object as the last line of standard output.  ``--t-spawn`` is
the parent's ``time.monotonic()`` just before it started this process, so
``setup_s`` covers interpreter start, imports and input generation.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "TORUSLAB_THREADS")


def environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    setup_s = time.monotonic() - args.t_spawn
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    recorder = restore = None
    if args.spans:
        import spans

        recorder = spans.Recorder(os.path.basename(os.path.dirname(args.spans)))
        restore = spans.instrument(recorder)
    t0 = time.perf_counter()
    if recorder is None:
        outputs = workload.run(inputs)
    else:
        with recorder.span("bench.timed"):
            outputs = workload.run(inputs)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "outputs": outputs, "env": environment()}
    if recorder is not None:
        restore()
        result["layers"] = spans.layer_metrics(recorder.spans)
        result["units"] = spans.UNITS
        result["computed"] = spans.COMPUTED
        with open(args.spans, "w") as fh:
            json.dump(recorder.spans, fh)

    if args.check:
        t1 = time.perf_counter()
        checks = workload.check(inputs, outputs)
        with open(REFERENCE) as fh:
            reference = json.load(fh)[args.workload]
        if args.seed == reference["seed"]:
            checks += workloads.reference_checks(reference["outputs"], outputs)
        result["checks"] = checks
        result["check_s"] = time.perf_counter() - t1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
