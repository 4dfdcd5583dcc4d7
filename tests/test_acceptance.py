"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Each test runs the criterion function that the CLI scenario of the same name
runs (``runner.SCENARIOS``), at its pinned seed and default recipe.  Each
criterion in ``runner`` sets its own check tolerances, and ``BOUNDS`` holds
a second copy of them: every test asserts that its criterion reports exactly
the bounds of ``BOUNDS`` before asserting that every check passes, so a
tolerance loosened in ``runner`` alone fails here.  Every criterion also
carries a wall-clock budget which is asserted (single-core desk scale).
"""

import math
import time

from toruslab import runner as rn

BOUNDS = {
    "spectral_exactness": {"plancherel": 1e-12, "parseval": 1e-12},
    "conservation": {"mass_drift": 1e-8, "energy_drift": 1e-6,
                     "order_1": 0.3, "order_2": 0.3},
    "symmetrization": {"max_rel": 1e-10, "flat_form": 1e-12},
    "cancellation": {"order_e0_r4": 1.0, "order_corrected_r6": 1.0,
                     "r6_enumerated": 1e-10},
    "multiplier_bounds": {"size_constant": 20.0, "branch_agreement": 1e-10,
                          "branch_agreement_scaled": 1e-12,
                          "switching_band": 1e-8},
    "boundary_bound": {"spread": 1.5, "amplitude_deviation": 1e-12},
    "envelope": {"domination": 1e-12, "log_lipschitz": 1e-12,
                 "envelope_sum": math.inf},
    "estimates": {
        "bilinear_slope": 0.15, "bilinear_residual": 0.5,
        "maximal_slope": 0.15, "maximal_residual": 0.5,
        "smoothing_slope": 0.1, "smoothing_residual": 0.5,
        "smoothing_log_slope": 0.1, "smoothing_log_residual": 0.5,
        "l4_slope": 0.1, "l4_residual": 0.5,
        "gridop_ratio": 5.0, "gridop_monotone": 1e-12,
    },
    "trilinear": {
        "mbo_high_low_low_to_high_slope": 0.2,
        "mbo_high_low_low_to_high_residual": 0.5,
        "mbo_high_high_low_to_high_slope": 0.4,
        "mbo_high_high_low_to_high_residual": 0.5,
        "mbo_high_high_high_to_high_slope": 0.2,
        "mbo_high_high_high_to_high_residual": 0.5,
        "mbo_high_high_low_to_low_slope": 0.4,
        "mbo_high_high_low_to_low_residual": 0.5,
        "mbo_high_high_high_to_low_slope": 0.4,
        "mbo_high_high_high_to_low_residual": 0.5,
        "mbo_low_low_low_to_low_slope": 0.2,
        "mbo_low_low_low_to_low_residual": 0.5,
        "dnls_high_low_low_to_high_slope": 0.2,
        "dnls_high_low_low_to_high_residual": 0.5,
        "dnls_high_high_low_to_high_slope": 0.4,
        "dnls_high_high_low_to_high_residual": 0.5,
        "dnls_high_high_high_to_high_slope": 0.2,
        "dnls_high_high_high_to_high_residual": 0.5,
        "dnls_high_high_low_to_low_slope": 0.4,
        "dnls_high_high_low_to_low_residual": 0.5,
        "dnls_high_high_high_to_low_slope": 0.4,
        "dnls_high_high_high_to_low_residual": 0.5,
        "dnls_low_low_low_to_low_slope": 0.2,
        "dnls_low_low_low_to_low_residual": 0.5,
    },
    "apriori": {"sobolev_ratio": 4.0, "energy_constant": 50.0},
}


def _accept(label, scenario, budget, seed):
    t0 = time.time()
    result = rn.SCENARIOS[scenario](seed=seed)
    elapsed = time.time() - t0
    bounds = [(name, bound) for name, _, bound in result.checks]
    assert bounds == list(BOUNDS[scenario].items())
    ok = result.passed and elapsed < budget
    detail = "; ".join(result.lines) + f"; {elapsed:.1f}s < {budget:g}s"
    print(f"\n[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_01_spectral_exactness():
    _accept("1 spectral exactness", "spectral_exactness", 5.0, seed=101)


def test_criterion_02_conservation():
    _accept("2 conservation", "conservation", 120.0, seed=7)


def test_criterion_03_symmetrization():
    _accept("3 symmetrization identity", "symmetrization", 60.0, seed=103)


def test_criterion_04_cancellation():
    _accept("4 cancellation", "cancellation", 600.0, seed=104)


def test_criterion_05_multiplier_bounds():
    _accept("5 multiplier bounds", "multiplier_bounds", 120.0, seed=105)


def test_criterion_06_boundary_bound():
    _accept("6 boundary bound", "boundary_bound", 300.0, seed=106)


def test_criterion_07_envelope_axioms():
    _accept("7 envelope axioms", "envelope", 10.0, seed=107)


def test_criterion_08_estimate_slopes():
    _accept("8 estimate slopes", "estimates", 900.0, seed=108)


def test_criterion_09_trilinear_classes():
    _accept("9 trilinear classes", "trilinear", 1200.0, seed=109)


def test_criterion_10_apriori_tracking():
    _accept("10 a priori tracking", "apriori", 600.0, seed=110)
