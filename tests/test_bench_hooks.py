"""The benchmark's tracing layer wraps toruslab functions by name from
outside ``src/`` (``perfbench/spans.py``); a renamed function or parameter
would break a traced run.  These checks keep every wrapped name bindable."""

import inspect
import os
import sys

import numpy as np

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import spans  # noqa: E402
from toruslab import energy, estimates, evolution, spectral  # noqa: E402


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
