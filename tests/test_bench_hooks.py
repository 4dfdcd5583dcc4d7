"""The benchmark's tracing layer wraps toruslab functions by name from
outside ``src/`` (``perfbench/spans.py``); a renamed function or parameter
would break a traced run.  These checks keep every wrapped name bindable,
and run every workload against its recorded reference."""

import inspect
import json
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import spans, workloads  # noqa: E402
from toruslab import (energy, estimates, evolution, runner,  # noqa: E402
                      spacetime, spectral)


def test_instrument_and_restore():
    originals = [getattr(owner, attr) for owner, attr, *_ in spans.TARGETS]
    restore = spans.instrument(spans.Recorder(0))
    try:
        for (owner, attr, *_), fn in zip(spans.TARGETS, originals):
            assert getattr(owner, attr) is not fn, attr
    finally:
        restore()
    for (owner, attr, *_), fn in zip(spans.TARGETS, originals):
        assert getattr(owner, attr) is fn, attr


def test_counted_parameters_bind():
    params = inspect.signature(estimates.free_solution_grid).parameters
    assert {"times", "nx"} <= set(params)
    g = spectral.TorusGeometry(1.0, 16)
    u = spectral.SpectralField(g, np.eye(16)[3])
    times = np.linspace(0.0, 0.1, 5)
    bound = inspect.signature(estimates.free_solution_grid).bind(
        u, evolution.SCHROEDINGER, times, 32)
    assert spans._grid_counts(bound.arguments, None, None) == {"bytes": 5 * 32 * 16}
    for fn in (energy.e1_correction, energy.r4_form, energy.r6_form):
        assert "u" in inspect.signature(fn).parameters, fn.__name__


def test_window_counts_bind():
    """The traced window norms keep the ``field``, ``k`` and ``centers``
    parameters that the window count reads."""
    g = spectral.TorusGeometry(1.0, 16)
    tgrid = np.linspace(-0.5, 0.5, 9)
    field = spacetime.SpaceTimeField(g, np.arange(2, 4), tgrid,
                                     np.ones((9, 2)), (-0.5, 0.5))
    windows = len(spacetime.window_centers(field.support, 1))
    for fn in (spacetime.fk_norm, spacetime.nk_norm):
        for centers, count in ((None, windows), (np.zeros(3), 3)):
            bound = inspect.signature(fn).bind(
                field, 1, evolution.BENJAMIN_ONO, centers=centers)
            bound.apply_defaults()
            counts = spans._window_counts(bound.arguments, None, None)
            assert counts == {"k": 1, "windows": count}, fn.__name__


def test_member_counts_bind():
    """Members per family call: count plus the coherent member at each sweep
    value (n_values, or j_values for l4), and for one trilinear tuple the
    coherent and tuned candidates; skips are read off the stub result."""
    report = SimpleNamespace(skipped=2)
    families = [(estimates.bilinear_ratio, "n_values", ([5, 6, 7], 1)),
                (estimates.maximal_ratio, "n_values", ([3, 4, 5],)),
                (estimates.smoothing_ratio, "n_values", ([3, 4, 5],)),
                (estimates.l4_modulation_ratio, "j_values", ([0, 1, 2],))]
    for fn, sweep, args in families:
        for coherent, members in ((True, 18), (False, 15)):
            bound = inspect.signature(fn).bind(*args, count=5,
                                               include_coherent=coherent)
            bound.apply_defaults()
            counts = spans._family_counts(sweep)(bound.arguments, report, None)
            assert counts == {"members": members, "skipped": 2}, fn.__name__
    bound = inspect.signature(estimates.trilinear_ratio).bind(
        "low_low_low_to_low", (1, 1, 1, 1), count=5, include_tuned=True)
    bound.apply_defaults()
    counts = spans._trilinear_ratio_counts(bound.arguments, (None, 1), None)
    assert counts == {"members": 7, "skipped": 1}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_reference_checks(name):
    """Each workload, set up at the seed reference.json records, passes its
    own checks and the 1e-9 reference gate of a benchmark run, so reference
    drift fails here before it fails the benchmark."""
    with open(os.path.join(ROOT, "perfbench", "reference.json")) as fh:
        reference = json.load(fh)[name]
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(reference["seed"])
    outputs = workload.run(inputs)
    checks = (workload.check(inputs, outputs)
              + workloads.reference_checks(reference["outputs"], outputs))
    failed = [c for c in checks if not c["ok"]]
    assert checks and not failed, failed


def test_trilinear_recipes_keep_their_keys():
    """The workloads read each class's sweep, tuned flag and window through
    runner.TRILINEAR_SWEEPS, which is the class table itself."""
    assert runner.TRILINEAR_SWEEPS is estimates.INTERACTION_CLASSES
    for cls_name, recipe in runner.TRILINEAR_SWEEPS.items():
        assert {"sweep", "tuned", "window"} <= set(recipe), cls_name
