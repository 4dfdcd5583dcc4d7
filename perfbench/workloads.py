"""The benchmark workloads: slices of the slowest acceptance criteria.

Each workload calls the public functions that ``tests/test_acceptance.py``
calls, with that file's pinned recipes, and has three phases that run in one
fresh interpreter per repetition:

* ``setup(seed)``: parameters and generated input fields (not timed);
* ``run(inputs)``: every call into toruslab (timed), returning a flat dict of
  output lists;
* ``check(inputs, outputs)``: the acceptance thresholds that hold for any
  seed, including the oracles (never timed).

The workload seed is the only input: the default reproduces the criterion
seeds, and another seed draws other data for the same recipe.
"""

import math
from dataclasses import dataclass

import numpy as np

from toruslab import bumps, energy, estimates, evolution, runner, spectral

# Ensemble size of the criterion-8 families (the acceptance test uses 64).
FAMILY_COUNT = 2
# Criterion-6 draws (the acceptance test uses 12) and criterion-3 fields.
E1_DRAWS = 2
R4_FIELDS = 50

# Slope windows pinned in tests/test_acceptance.py (criterion 8).
FAMILY_WINDOWS = {"bilinear": 0.15, "maximal": 0.15, "smoothing": 0.1,
                  "l4_modulation": 0.1}
TRILINEAR_CLASS = "high_high_high_to_low"
EQUATIONS = (("mbo", evolution.BENJAMIN_ONO, False),
             ("dnls", evolution.SCHROEDINGER, True))


def check(name, ok, detail):
    return {"name": name, "ok": bool(ok), "detail": detail}


def worst_relative(pairs):
    return max(abs(a - b) / max(abs(b), 1e-300) for a, b in pairs)


# ---------------------------------------------------------------------------
# apriori: criterion 10, the RK4 loop plus the windowed modulation norm


def apriori_setup(seed):
    return {"seed": seed, "s": 0.3, "size": 0.05, "m": 256, "t_final": 1.0,
            "count": 1}


def apriori_run(inputs):
    ratios, consts = runner.apriori_run(**inputs)
    return {"ratio": list(ratios), "constant": list(consts)}


def apriori_check(inputs, outputs):
    rmax, cmax = max(outputs["ratio"]), max(outputs["constant"])
    return [
        check("apriori Sobolev ratio <= 4", rmax <= 4.0, f"{rmax:.6f}"),
        check("apriori constant finite and <= 50",
              math.isfinite(cmax) and cmax <= 50.0, f"{cmax:.6g}"),
    ]


# ---------------------------------------------------------------------------
# ensembles: criterion-8 families at a reduced count and the criterion-9
# three-highs-to-low sweep on both equations


def ensembles_setup(seed):
    return {"seed": seed, "trilinear_seed": seed + 1}


def _report_outputs(name, rep):
    return {
        f"{name}.slope": [rep.slope],
        f"{name}.max_ratio": [p.max_ratio for p in rep.points],
        f"{name}.mean_ratio": [p.mean_ratio for p in rep.points],
        f"{name}.skipped": [rep.skipped],
    }


def ensembles_run(inputs):
    seed, count = inputs["seed"], FAMILY_COUNT
    reports = {
        "bilinear": estimates.bilinear_ratio([5, 6, 7, 8], 1, seed=seed,
                                             count=count),
        "maximal": estimates.maximal_ratio([3, 4, 5, 6, 7, 8], seed=seed,
                                           count=count, slope_tol=0.15),
        "smoothing": estimates.smoothing_ratio([3, 4, 5, 6, 7, 8], seed=seed,
                                               count=count),
        "l4_modulation": estimates.l4_modulation_ratio(
            [0, 1, 2, 3, 4, 5, 6], seed=seed, count=count),
    }
    recipe = runner.TRILINEAR_SWEEPS[TRILINEAR_CLASS]
    for eq, law, conj in EQUATIONS:
        reports[f"trilinear_{eq}"] = estimates.trilinear_sweep(
            TRILINEAR_CLASS, recipe["sweep"], law=law, conjugate_middle=conj,
            seed=inputs["trilinear_seed"], count=4,
            include_tuned=recipe["tuned"])
    out = {}
    for name, rep in reports.items():
        out.update(_report_outputs(name, rep))
    return out


def ensembles_check(inputs, outputs):
    checks = []
    for name, tol in FAMILY_WINDOWS.items():
        slope = outputs[f"{name}.slope"][0]
        checks.append(check(f"{name} slope within 0 +- {tol}",
                            abs(slope) <= tol, f"{slope:+.4f}"))
    center, tol = runner.TRILINEAR_SWEEPS[TRILINEAR_CLASS]["window"]
    for eq, _, _ in EQUATIONS:
        slope = outputs[f"trilinear_{eq}.slope"][0]
        checks.append(check(f"trilinear {eq} slope within {center:+} +- {tol}",
                            abs(slope - center) <= tol, f"{slope:+.4f}"))
    return checks


# ---------------------------------------------------------------------------
# energy: criterion 6 (E1 draws), criterion 4 (trajectories and the sextic
# form) and criterion 3 (the symmetrized quartic form)


def _truncate(u_full, m):
    g = spectral.TorusGeometry(1.0, m)
    ms = g.mvals[np.abs(g.mvals) <= min(85, m // 2 - 1)]
    tab = np.zeros(m, dtype=complex)
    tab[ms % m] = u_full.coeffs[ms % u_full.geometry.grid_size]
    return spectral.SpectralField(g, tab, real=True)


def energy_setup(seed):
    sym = energy.DyadicSymbol.from_exponent(0.3)
    # criterion 6: one band-85 family at three truncations, then a pair of
    # amplitudes of one low-band field
    rng = np.random.default_rng(seed + 3)
    base = spectral.TorusGeometry(1.0, 256)
    draws = []
    for _ in range(E1_DRAWS):
        u_full = spectral.random_field(base, rng, band=85, real=True,
                                       decay=1.5) * 0.2
        draws.append([_truncate(u_full, m) for m in (64, 128, 256)])
    u_amp = spectral.random_field(spectral.TorusGeometry(1.0, 64), rng, band=5,
                                  real=True) * 0.2
    # criterion 4: one M=32 datum, then the small fields of the oracle check
    rng = np.random.default_rng(seed + 1)
    g32 = spectral.TorusGeometry(1.0, 32)
    u0 = spectral.random_field(g32, rng, band=10, real=True, decay=2.0) * 0.4
    small = []
    for m in (8, 12, 16):
        gs = spectral.TorusGeometry(1.0, max(16, bumps.next_pow2(m)))
        band = max(2, m // 3)
        for real, law in ((True, evolution.BENJAMIN_ONO),
                          (False, evolution.SCHROEDINGER)):
            small.append((spectral.random_field(gs, rng, band=band, real=real)
                          * 0.7, law))
    # criterion 3: five symbols, fields alternating law and sign
    rng = np.random.default_rng(seed)
    g64 = spectral.TorusGeometry(1.0, 64)
    env_seed = spectral.random_field(g64, rng, band=20, real=True)
    symbols = [energy.DyadicSymbol.from_exponent(s) for s in (0.3, 0.5, 0.75, 1.0)]
    symbols.append(energy.build_symbol(energy.build_envelope(env_seed, 0.3, 0.1),
                                       2, 0.3, 0.1))
    forms = []
    for i in range(R4_FIELDS):
        law = evolution.BENJAMIN_ONO if i % 2 == 0 else evolution.SCHROEDINGER
        sigma = 1 if i % 4 < 2 else -1
        u = spectral.random_field(g64, rng, band=20, real=law.odd) * 0.5
        forms.append((symbols[i % 5], u, law, sigma))
    return {
        "sym": sym, "draws": draws, "amplitudes": (u_amp, u_amp * 3.7),
        "problem": evolution.FlowProblem(evolution.BENJAMIN_ONO, +1, u0),
        "band": evolution.dealias_band(g32), "small": small, "forms": forms,
    }


def energy_run(inputs):
    sym, law = inputs["sym"], evolution.BENJAMIN_ONO
    out = {"e1_ratio": [], "amplitude_ratio": [], "e0": [], "e1": [], "r4": [],
           "r6": [], "r6_small": [], "r4_field": []}

    def boundary_ratio(u):
        return abs(energy.e1_correction(sym, u, law)) / (
            u.l2_norm() ** 2 * energy.e0_energy(sym, u, law))

    for draw in inputs["draws"]:
        out["e1_ratio"] += [boundary_ratio(u) for u in draw]
    out["amplitude_ratio"] = [boundary_ratio(u) for u in inputs["amplitudes"]]
    for nsnap in (11, 21, 41):
        traj = evolution.evolve(inputs["problem"], 0.2,
                                dt=(0.2 / (nsnap - 1)) / 10.0, n_snapshots=nsnap)
        rep = energy.cancellation_check(traj, sym, band=inputs["band"])
        _, e0s, e1s, r4s, r6s = rep["series"]
        for key, series in (("e0", e0s), ("e1", e1s), ("r4", r4s), ("r6", r6s)):
            out[key] += [float(x) for x in series]
    for u, ulaw in inputs["small"]:
        out["r6_small"].append(energy.r6_form(sym, u, ulaw))
    for symb, u, ulaw, sigma in inputs["forms"]:
        out["r4_field"].append(energy.r4_form(symb, u, ulaw, sigma))
    return out


def energy_check(inputs, outputs):
    sym = inputs["sym"]
    r1, r2 = outputs["amplitude_ratio"]
    amp_dev = abs(r1 - r2) / r1
    worst_r4 = worst_relative(
        (r4, energy.e0_time_derivative(symb, u, law, sigma))
        for r4, (symb, u, law, sigma) in zip(outputs["r4_field"], inputs["forms"]))
    worst_r6 = worst_relative(
        (r6, energy.r6_enumerated(sym, u, law))
        for r6, (u, law) in zip(outputs["r6_small"], inputs["small"]))
    return [
        check("amplitude deviation <= 1e-12", amp_dev <= 1e-12, f"{amp_dev:.2e}"),
        check("r4_form vs e0_time_derivative <= 1e-10", worst_r4 <= 1e-10,
              f"{worst_r4:.2e}"),
        check("r6_form vs r6_enumerated (M <= 16) <= 1e-10", worst_r6 <= 1e-10,
              f"{worst_r6:.2e}"),
    ]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    check: object


WORKLOADS = {
    "apriori": Workload(apriori_setup, apriori_run, apriori_check),
    "ensembles": Workload(ensembles_setup, ensembles_run, ensembles_check),
    "energy": Workload(energy_setup, energy_run, energy_check),
}


def reference_checks(reference, outputs, rel_tol=1e-9):
    """Every output value within rel_tol of the recorded reference value."""
    checks = []
    for key in sorted(set(reference) | set(outputs)):
        want, got = reference.get(key), outputs.get(key)
        if want is None or got is None or len(want) != len(got):
            checks.append(check(f"reference {key}", False, "missing or resized"))
            continue
        worst = max((abs(a - b) / abs(b) if b else abs(a)
                     for a, b in zip(got, want)), default=0.0)
        checks.append(check(f"reference {key} within {rel_tol:g}",
                            worst <= rel_tol, f"{worst:.2e}"))
    return checks
