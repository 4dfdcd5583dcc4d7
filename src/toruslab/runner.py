"""Acceptance criteria, configuration-driven scenarios and report emission.

Each acceptance criterion is one function in ``SCENARIOS``.  Its keyword
parameters default to the acceptance test's pinned recipe, and it returns a
ScenarioResult: measurements, estimate reports and named checks
``(name, value, bound)``, where a check passes iff ``value`` is finite and at
most ``bound``.  The acceptance suite and the CLI call the same functions.

Configs are plain key-value files with bracketed sections (configparser
syntax): [run] names the scenario, seed and output directory, and the
scenario's own section sets its keyword parameters; unknown sections, keys
and list entries are config errors.  Outputs are a CSV of estimate rows with
fixed schema and a JSON manifest echoing the config, seed, library versions,
wall time, measurements and checks.  Float formatting is pinned to 17
significant digits so identical runs are byte-identical.
"""

import configparser
import inspect
import json
import os
import platform
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from . import estimates as es
from . import energy as en
from . import evolution as ev
from . import spacetime as st
from . import spectral as sp
from .bumps import next_pow2

CSV_HEADER = "estimate_id,N,lambda,max_ratio,mean_ratio,slope,residual,verdict"

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    pass


def fmt(x):
    """Locale-free float formatting at 17 significant digits."""
    return format(float(x), ".17g")


def check_passed(value, bound):
    return bool(np.isfinite(value) and value <= bound)


@dataclass
class ScenarioResult:
    """What one criterion measured: raw measurements, estimate reports (the
    CSV rows), named checks ``(name, value, bound)`` and lazily written side
    files (file name -> callable taking the output path)."""

    measurements: dict
    checks: list
    reports: list = field(default_factory=list)
    exports: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(check_passed(v, b) for _, v, b in self.checks)

    @property
    def lines(self):
        return [
            f"{name} {value:.3e} <= {bound:g}: "
            + ("PASS" if check_passed(value, bound) else "FAIL")
            for name, value, bound in self.checks
        ]


def report_rows(report):
    rows = []
    for p in report.points:
        rows.append(
            [
                report.estimate_id,
                fmt(2.0**p.sweep),
                fmt(p.lam),
                fmt(p.max_ratio),
                fmt(p.mean_ratio),
                fmt(report.slope),
                fmt(report.residual),
                str(bool(report.verdict)),
            ]
        )
    return rows


def emit_report(reports, csv_path, manifest_path=None, config_echo=None,
                seed=None, wall_times=None, measurements=None, checks=()):
    """Write the fixed-schema CSV and a JSON run manifest."""
    lines = [CSV_HEADER]
    for rep in reports:
        for row in report_rows(rep):
            lines.append(",".join(row))
    os.makedirs(os.path.dirname(os.path.abspath(csv_path)), exist_ok=True)
    with open(csv_path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    if manifest_path is not None:
        manifest = {
            "config": config_echo or {},
            "seed": seed,
            "versions": {"numpy": np.__version__,
                         "python": platform.python_version(),
                         "toruslab": __version__},
            "wall_times": wall_times or {},
            "measurements": measurements or {},
            "checks": [
                {"name": n, "value": v, "bound": b,
                 "passed": check_passed(v, b)}
                for n, v, b in checks
            ],
            "reports": [
                {
                    "estimate_id": r.estimate_id,
                    "slope": r.slope,
                    "intercept": r.intercept,
                    "residual": r.residual,
                    "predicted_slope": r.predicted_slope,
                    "slope_tol": r.slope_tol,
                    "residual_cap": r.residual_cap,
                    "verdict": bool(r.verdict),
                    "skipped": r.skipped,
                }
                for r in reports
            ],
        }
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
    return csv_path


def trajectory_rows(traj, s):
    """Snapshot export rows (t, L2 norm, energy, Sobolev norm)."""
    rows = []
    for i in range(len(traj)):
        u = traj.field(i)
        energy = ev.conserved_energy(u, traj.problem.sigma) if u.real else np.nan
        rows.append(
            (float(traj.times[i]), u.l2_norm(), energy, sp.sobolev_norm(u, s))
        )
    return rows


def write_trajectory_csv(traj, s, path):
    lines = ["t,l2_norm,energy,sobolev_norm"]
    for row in trajectory_rows(traj, s):
        lines.append(",".join(fmt(x) for x in row))
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def energy_series_rows(report):
    """Energy-diagnostic rows (t, E0, E1, R4, R6, dE0/dt, d(E0+sigma E1)/dt)
    from a cancellation report (interior rows carry the derivatives)."""
    times, e0s, e1s, r4s, r6s = report["series"]
    sigma = report.get("sigma", 1)
    dt = float(times[1] - times[0])
    idx, d0 = en._fd_derivative(e0s, dt)
    _, dc = en._fd_derivative(e0s + sigma * e1s, dt)
    deriv0 = np.full(len(times), np.nan)
    derivc = np.full(len(times), np.nan)
    deriv0[idx] = d0
    derivc[idx] = dc
    return [
        (float(times[i]), e0s[i], e1s[i], r4s[i], r6s[i], deriv0[i], derivc[i])
        for i in range(len(times))
    ]


def write_energy_series_csv(report, path):
    lines = ["t,e0,e1,r4,r6,de0_dt,dcorrected_dt"]
    for row in energy_series_rows(report):
        lines.append(",".join(fmt(x) for x in row))
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def read_reports_csv(path):
    """Parse an emitted CSV back into per-estimate point sets and recompute
    verdict-relevant statistics (round-trip check support)."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if lines[0] != CSV_HEADER:
        raise ConfigError("unexpected CSV header")
    groups = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        eid = parts[0]
        groups.setdefault(eid, []).append(parts)
    out = {}
    for eid, rows in groups.items():
        pts = [
            es.RatioPoint(
                float(np.log2(float(r[1]))), float(r[2]), float(r[3]), float(r[4])
            )
            for r in rows
        ]
        slope = float(rows[0][5])
        residual = float(rows[0][6])
        verdict = rows[0][7] == "True"
        out[eid] = {
            "points": pts,
            "slope": slope,
            "residual": residual,
            "verdict": verdict,
        }
    return out


# ---------------------------------------------------------------------------
# the ten acceptance criteria


def _fit_checks(name, rep):
    """Slope within the report's window and fit residual under its cap."""
    return [
        (f"{name}_slope", abs(rep.slope - rep.predicted_slope), rep.slope_tol),
        (f"{name}_residual", rep.residual, rep.residual_cap),
    ]


def spectral_exactness(seed=101, count=100, grid_size=256,
                       lambdas=(1.0, 2.0, 4.0)):
    """Criterion 1: discrete Plancherel and Parseval identities on random
    fields over several periods.

    Each period draws count // len(lambdas) + 1 pairs (u, v), so the run
    draws 102 pairs at count = 100 (34 per period), and also at count = 99.
    """
    rng = np.random.default_rng(seed)
    worst_pl = worst_pa = 0.0
    for lam in lambdas:
        g = sp.TorusGeometry(lam, grid_size)
        for _ in range(count // len(lambdas) + 1):
            u = sp.random_field(g, rng, band=grid_size // 2 - 2)
            v = sp.random_field(g, rng, band=grid_size // 2 - 2)
            l2 = sp.lebesgue_norm(u.samples(), lam, 2)
            worst_pl = max(worst_pl, abs(l2 - u.l2_norm()) / u.l2_norm())
            pair_x = g.dx * np.sum(u.samples() * np.conj(v.samples()))
            pair_xi = np.sum(u.coeffs * np.conj(v.coeffs)) / (2 * np.pi * lam)
            worst_pa = max(worst_pa, abs(pair_x - pair_xi) / abs(pair_xi))
    return ScenarioResult(
        {"plancherel": worst_pl, "parseval": worst_pa},
        [("plancherel", worst_pl, 1e-12), ("parseval", worst_pa, 1e-12)],
    )


def _conservation_problem(seed, m, s, size):
    rng = np.random.default_rng(seed)
    g = sp.TorusGeometry(1.0, m)
    u0 = sp.random_field(g, rng, band=m // 8, real=True, decay=1.5)
    u0 = u0 * (size / sp.sobolev_norm(u0, s))
    return ev.FlowProblem(ev.BENJAMIN_ONO, +1, u0)


def _conservation_drifts(traj):
    """Largest relative mass and energy drifts at the snapshots 2, 4, 6 and 8
    of a nine-snapshot trajectory: the quarter times of its span."""
    sigma = traj.problem.sigma
    m0 = ev.conserved_mass(traj.field(0))
    e0 = ev.conserved_energy(traj.field(0), sigma)
    quarters = range(2, 9, 2)
    mdrift = max(
        abs(ev.conserved_mass(traj.field(i)) - m0) / m0 for i in quarters
    )
    edrift = max(
        abs(ev.conserved_energy(traj.field(i), sigma) - e0) / abs(e0)
        for i in quarters
    )
    return mdrift, edrift


def convergence_order(seed=0, m=64, t_final=0.5, amp=0.4):
    rng = np.random.default_rng(seed)
    g = sp.TorusGeometry(1.0, m)
    u0 = sp.random_field(g, rng, band=m // 4, real=True, decay=1.0) * amp
    prob = ev.FlowProblem(ev.BENJAMIN_ONO, +1, u0)
    base = ev.default_dt(prob) * 2
    finals = []
    for f in (1, 2, 4, 8):
        traj = ev.evolve(prob, t_final, dt=base / f, n_snapshots=2)
        finals.append(traj.states[-1])
    e1 = np.linalg.norm(finals[0] - finals[3])
    e2 = np.linalg.norm(finals[1] - finals[3])
    e3 = np.linalg.norm(finals[2] - finals[3])
    return float(np.log2(e1 / e2)), float(np.log2(e2 / e3))


def conservation(seed=7, grid_size=256, t_final=1.0):
    """Criterion 2: mass and energy drift of the integrator and its
    fourth-order self-convergence; exports the trajectory invariants.  One
    nine-snapshot integration serves the drifts and the export."""
    prob = _conservation_problem(seed, grid_size, 0.3, 0.05)
    traj = ev.evolve(prob, t_final, n_snapshots=9)
    mdrift, edrift = _conservation_drifts(traj)
    o1, o2 = convergence_order(seed=seed)

    def trajectory(path):
        write_trajectory_csv(traj, 0.3, path)

    return ScenarioResult(
        {"mass_drift": mdrift, "energy_drift": edrift, "orders": [o1, o2]},
        [("mass_drift", mdrift, 1e-8), ("energy_drift", edrift, 1e-6),
         ("order_1", abs(o1 - 4.0), 0.3), ("order_2", abs(o2 - 4.0), 0.3)],
        exports={"trajectory.csv": trajectory},
    )


def symmetrization(seed=103, grid_size=64, fields=50):
    """Criterion 3: the symmetrized quartic form equals dE0/dt, and vanishes
    for the flat symbol."""
    rng = np.random.default_rng(seed)
    g = sp.TorusGeometry(1.0, grid_size)
    band = 5 * grid_size // 16  # 20 at M = 64, inside the M/3 dealiased band
    env_seed = sp.random_field(g, rng, band=band, real=True)
    symbols = [en.DyadicSymbol.from_exponent(s) for s in (0.3, 0.5, 0.75, 1.0)]
    symbols.append(
        en.build_symbol(en.build_envelope(env_seed, 0.3, 0.1), 2, 0.3, 0.1)
    )
    worst = 0.0
    for i in range(fields):
        law = ev.BENJAMIN_ONO if i % 2 == 0 else ev.SCHROEDINGER
        sigma = 1 if i % 4 < 2 else -1
        u = sp.random_field(g, rng, band=band, real=law.odd) * 0.5
        symb = symbols[i % len(symbols)]
        r4 = en.r4_form(symb, u, law, sigma)
        d0 = en.e0_time_derivative(symb, u, law, sigma)
        worst = max(worst, abs(r4 - d0) / max(abs(d0), 1e-300))
    flat = en.DyadicSymbol.from_exponent(0.0)
    u = sp.random_field(g, rng, band=band, real=True)
    null = abs(en.r4_form(flat, u, ev.BENJAMIN_ONO, 1))
    return ScenarioResult(
        {"max_rel": worst, "flat_form": null},
        [("max_rel", worst, 1e-10), ("flat_form", null, 1e-12)],
    )


def cancellation(seed=104, grid_size=32, s=0.3):
    """Criterion 4: finite-difference orders of the energy cancellations
    along trajectories, and the contracted sextic remainder against
    brute-force enumeration on small grids; exports the energy series."""
    rng = np.random.default_rng(seed)
    sym = en.DyadicSymbol.from_exponent(s)
    g = sp.TorusGeometry(1.0, grid_size)
    u0 = sp.random_field(g, rng, band=grid_size // 3, real=True, decay=2.0)
    prob = ev.FlowProblem(ev.BENJAMIN_ONO, +1, u0 * 0.4)
    mids4, mids6 = [], []
    for nsnap in (11, 21, 41):
        traj = ev.evolve(prob, 0.2, dt=(0.2 / (nsnap - 1)) / 10.0,
                         n_snapshots=nsnap)
        rep = en.cancellation_check(traj, sym, band=ev.dealias_band(g))
        mids4.append(rep["residual_r4_mid"])
        mids6.append(rep["residual_r6_mid"])
    o4 = [float(np.log2(mids4[i] / mids4[i + 1])) for i in range(2)]
    o6 = [float(np.log2(mids6[i] / mids6[i + 1])) for i in range(2)]
    worst_enum = 0.0
    for m in (8, 12, 16):
        gs = sp.TorusGeometry(1.0, max(16, next_pow2(m)))
        band = max(2, m // 3)
        for real, law in ((True, ev.BENJAMIN_ONO), (False, ev.SCHROEDINGER)):
            u = sp.random_field(gs, rng, band=band, real=real) * 0.7
            r6e = en.r6_enumerated(sym, u, law)
            worst_enum = max(
                worst_enum, abs(en.r6_form(sym, u, law) - r6e)
                / max(abs(r6e), 1e-300),
            )
    return ScenarioResult(
        {"orders_r4": o4, "orders_r6": o6, "r6_enumerated": worst_enum},
        [("order_e0_r4", float(np.max(np.abs(np.subtract(o4, 4.0)))), 1.0),
         ("order_corrected_r6", float(np.max(np.abs(np.subtract(o6, 4.0)))),
          1.0),
         ("r6_enumerated", worst_enum, 1e-10)],
        exports={"energy_series.csv":
                 lambda path: write_energy_series_csv(rep, path)},
    )


def multiplier_bounds(seed=105, tuples_per_pattern=10000):
    """Criterion 5: size bound of the quartic correction multiplier, and
    agreement of its quotient and extension branches off resonance and at
    the switching band."""
    rng = np.random.default_rng(seed)
    sym = en.DyadicSymbol.from_exponent(0.3)
    n = tuples_per_pattern
    worst_c = worst_agree = worst_band = 0.0
    patterns = [(1, 1, 5), (1, 3, 5), (2, 4, 6), (3, 3, 3), (1, 5, 5),
                (0, 2, 7), (4, 5, 6), (2, 2, 8)]
    for law in (ev.BENJAMIN_ONO, ev.SCHROEDINGER):
        for (la, lb, lm) in patterns:
            x1 = rng.uniform(2.0**la, 2.0 ** (la + 1), n) * rng.choice([-1, 1], n)
            x2 = rng.uniform(2.0**lb, 2.0 ** (lb + 1), n) * rng.choice([-1, 1], n)
            x3 = rng.uniform(2.0**lm, 2.0 ** (lm + 1), n) * rng.choice([-1, 1], n)
            x4 = -(x1 + x2 + x3)
            b4 = en.b4_multiplier(sym, (x1, x2, x3, x4), law)
            mu = np.maximum.reduce([np.abs(x) for x in (x1, x2, x3, x4)])
            worst_c = max(worst_c, float(np.max(np.abs(b4) * mu / sym(mu))))
            quot, ext = en.b4_branch_values(sym, (x1, x2, x3, x4), law)
            om = en.resonance_function(law, x1, x2, x3, x4)
            mu2 = np.maximum(mu, 1.0) ** 2
            rel = np.abs(quot - ext) / np.abs(quot)
            # the defining four-term sum is conditioned to ~|Omega|/mu^2 of
            # machine precision, so the tight agreement is asserted on the
            # well-conditioned region and a guard everywhere else
            off = np.abs(om) > 100.0 * en.RESONANCE_THETA * mu2
            band = (np.abs(om) > en.RESONANCE_THETA * mu2) & ~off
            if np.any(off):
                worst_agree = max(worst_agree, float(np.max(rel[off])))
            if np.any(band):
                worst_band = max(worst_band, float(np.max(rel[band])))
    return ScenarioResult(
        {"size_constant": worst_c, "branch_agreement": worst_agree,
         "switching_band": worst_band},
        [("size_constant", worst_c, 20.0),
         ("branch_agreement", worst_agree, 1e-10),
         ("switching_band", worst_band, 1e-8)],
    )


def boundary_bound(seed=106, count=12):
    """Criterion 6: the quartic boundary correction is bounded by
    ||u||_L2^2 E0, uniformly in the truncation and exactly homogeneous."""
    rng = np.random.default_rng(seed)
    sym = en.DyadicSymbol.from_exponent(0.3)
    law = ev.BENJAMIN_ONO

    def ratio(u):
        return abs(en.e1_correction(sym, u, law)) / (
            u.l2_norm() ** 2 * en.e0_energy(sym, u, law)
        )

    # one continuum function family, evaluated at three truncations: the
    # spread measures discretization dependence, not sampling noise
    base = sp.TorusGeometry(1.0, 256)
    spread = 1.0
    consts = {64: 0.0, 128: 0.0, 256: 0.0}
    for _ in range(count):
        u_full = sp.random_field(base, rng, band=85, real=True, decay=1.5) * 0.2
        per_m = {}
        for m in consts:
            g = sp.TorusGeometry(1.0, m)
            ms = g.mvals[np.abs(g.mvals) <= min(85, m // 2 - 1)]
            tab = np.zeros(m, dtype=complex)
            tab[ms % m] = u_full.coeffs[ms % 256]
            per_m[m] = ratio(sp.SpectralField(g, tab, real=True))
            consts[m] = max(consts[m], per_m[m])
        spread = max(spread, max(per_m.values()) / min(per_m.values()))
    u = sp.random_field(sp.TorusGeometry(1.0, 64), rng, band=5, real=True) * 0.2
    r1 = ratio(u)
    amp_dev = abs(r1 - ratio(u * 3.7)) / r1
    return ScenarioResult(
        {"constants": consts, "spread": spread, "amplitude_deviation": amp_dev},
        [("spread", spread, 1.5), ("amplitude_deviation", amp_dev, 1e-12)],
    )


def envelope(seed=107, count=100):
    """Criterion 7: envelope domination and log-Lipschitz axioms, with
    finite recorded sums."""
    rng = np.random.default_rng(seed)
    g = sp.TorusGeometry(1.0, 256)
    worst_dom = worst_lip = -np.inf
    max_sum = 0.0
    for _ in range(count):
        u0 = sp.random_field(g, rng, band=100, real=True,
                             decay=rng.uniform(0, 2))
        dom, total, lip = en.envelope_axioms(en.build_envelope(u0, 0.3, 0.1), u0)
        worst_dom = max(worst_dom, dom)
        worst_lip = max(worst_lip, lip)
        max_sum = max(max_sum, total)
    return ScenarioResult(
        {"domination": worst_dom, "log_lipschitz": worst_lip,
         "envelope_sum": max_sum},
        [("domination", worst_dom, 1e-12), ("log_lipschitz", worst_lip, 1e-12),
         ("envelope_sum", max_sum, np.inf)],
    )


def estimates(seed=108, count=64,
              ids=("bilinear", "maximal", "smoothing", "smoothing_log", "l4",
                   "gridop")):
    """Criterion 8: slopes of the dispersive estimate families after their
    predicted normalization, and the grid operator norm of the smoothing
    estimate."""
    families = {
        # the bilinear hypothesis needs n - k >= 4, so the sweep starts at 5
        "bilinear": lambda: es.bilinear_ratio([5, 6, 7, 8], 1, seed=seed,
                                              count=count),
        "maximal": lambda: es.maximal_ratio([3, 4, 5, 6, 7, 8], seed=seed,
                                            count=count, slope_tol=0.15),
        "smoothing": lambda: es.smoothing_ratio([3, 4, 5, 6, 7, 8], seed=seed,
                                                count=count),
        "smoothing_log": lambda: es.smoothing_ratio(
            [3, 4, 5, 6, 7, 8], seed=seed, count=16, log_normalized=True),
        "l4": lambda: es.l4_modulation_ratio([0, 1, 2, 3, 4, 5, 6], seed=seed,
                                             count=count),
    }
    reports, checks, measurements = [], [], {}
    for eid in ids:
        if eid == "gridop":
            ns = [4, 8, 16, 32, 64, 128, 256]
            vals = [es.smoothing_grid_operator_norm(n) for n in ns]
            ratio = max(v / np.log2(n) for v, n in zip(vals, ns))
            drop = max(vals[i] - vals[i + 1] for i in range(len(vals) - 1))
            measurements["gridop_values"] = vals
            checks += [("gridop_ratio", ratio, 5.0),
                       ("gridop_monotone", drop, 1e-12)]
            continue
        rep = families[eid]()
        reports.append(rep)
        if eid == "smoothing_log":
            # no growth on the log scale: a one-sided slope check
            checks.append(("smoothing_log_slope", rep.slope, rep.slope_tol))
        else:
            checks += _fit_checks(eid, rep)
    return ScenarioResult(measurements, checks, reports)


# Per-class measurement recipes: the sweep direction along which the class
# constant is uniform, whether the resonance-tuned probe belongs to the
# candidate family, and the slope window.  Classes whose factor in the
# frequency-localized estimate is exact (2^(k1/2), 2^(k4/2), 1) carry the
# two-sided window 0 +- 0.2; classes whose factor has epsilon-slack
# ("2^(0k)+", absorbing logarithms) are checked one-sidedly for growth, with
# desk-scale decay tolerated, per the slack-exponent convention.
TRILINEAR_SWEEPS = {
    "high_low_low_to_high": {
        "sweep": [(k1, 4, 7, 7) for k1 in (0, 1, 2, 3)],
        "tuned": False, "window": (0.0, 0.2),
    },
    "high_high_low_to_high": {
        "sweep": [(k - 4, k, k, k + 1) for k in (4, 5, 6)],
        "tuned": False, "window": (-0.2, 0.4),
    },
    "high_high_high_to_high": {
        "sweep": [(k, k, k, k) for k in (5, 6, 7)],
        "tuned": False, "window": (0.0, 0.2),
    },
    "high_high_low_to_low": {
        "sweep": [(k, k, 2, 2) for k in (5, 6, 7)],
        "tuned": False, "window": (-0.2, 0.4),
    },
    "high_high_high_to_low": {
        "sweep": [(k, k, k, k - 4) for k in (5, 6, 7)],
        "tuned": True, "window": (-0.2, 0.4),
    },
    "low_low_low_to_low": {
        "sweep": [(1, 1, k, k) for k in (3, 4, 5)],
        "tuned": False, "window": (0.0, 0.2),
    },
}


def trilinear(seed=109, count=4, equations=("mbo", "dnls"),
              classes=tuple(TRILINEAR_SWEEPS)):
    """Criterion 9: slope of every trilinear interaction class in its window,
    for the modified Benjamin-Ono flow and the dnls conjugation pattern."""
    reports, checks = [], []
    for eq in equations:
        law, conj = ((ev.BENJAMIN_ONO, False) if eq == "mbo"
                     else (ev.SCHROEDINGER, True))
        for cls in classes:
            recipe = TRILINEAR_SWEEPS[cls]
            center, tol = recipe["window"]
            rep = es.trilinear_sweep(cls, recipe["sweep"], law=law,
                                     conjugate_middle=conj, seed=seed,
                                     count=count, include_tuned=recipe["tuned"])
            rep = replace(rep, predicted_slope=center, slope_tol=tol)
            reports.append(rep)
            checks += _fit_checks(f"{eq}_{cls}", rep)
    return ScenarioResult({}, checks, reports)


def apriori_run(seed, s=0.3, size=0.05, m=256, t_final=1.0, count=10,
                eps_tilde=None):
    """Small-data runs tracking the Sobolev ratio and the energy-propagation
    constant."""
    if eps_tilde is None:
        eps_tilde = min(0.05, (s - 0.25) / 2.0)
    rng = np.random.default_rng(seed)
    g = sp.TorusGeometry(1.0, m)
    law = ev.BENJAMIN_ONO
    kmax = sp.max_block(g)
    ratios, consts = [], []
    for i in range(count):
        u0 = sp.random_field(g, rng, band=m // 8, real=True, decay=1.2)
        u0 = u0 * (size / u0.l2_norm())
        prob = ev.FlowProblem(law, +1, u0)
        # snapshot spacing resolving the finest block window 2^-kmax
        nsnap = int(t_final * 2.0**kmax * 12) + 1
        fwd = ev.evolve(prob, t_final, n_snapshots=nsnap)
        bwd = ev.evolve(prob, -t_final, n_snapshots=nsnap)
        hs0 = sp.sobolev_norm(u0, s)
        hsmax = max(
            sp.sobolev_norm(fwd.field(j), s) for j in range(nsnap)
        )
        hsmax = max(hsmax, max(sp.sobolev_norm(bwd.field(j), s) for j in range(nsnap)))
        ratios.append(hsmax / hs0)
        times = np.concatenate([bwd.times[::-1], fwd.times[1:]])
        states = np.concatenate([bwd.states[::-1], fwd.states[1:]], axis=0)
        traj = ev.Trajectory(prob, times, states)
        field = st.from_trajectory(traj)
        e_norm = st.assembled_norm(field, s, "E", t_final, law=law)
        f_norm = st.assembled_norm(field, s - eps_tilde, "F", t_final, law=law,
                                   tau_bins=16)
        consts.append(e_norm**2 / (hs0**2 + t_final * f_norm**6))
    return ratios, consts


def apriori(seed=110, s=0.3, size=0.05, count=10, t_final=1.0, grid_size=256):
    """Criterion 10: small data stay small in H^s over [-T, T], and the
    energy-propagation constant stays bounded."""
    ratios, consts = apriori_run(seed, s=s, size=size, m=grid_size,
                                 t_final=t_final, count=count)
    return ScenarioResult(
        {"sobolev_ratios": ratios, "energy_constants": consts},
        [("sobolev_ratio", max(ratios), 4.0),
         ("energy_constant", max(consts), 50.0)],
    )


SCENARIOS = {
    "spectral_exactness": spectral_exactness,
    "conservation": conservation,
    "estimates": estimates,
    "trilinear": trilinear,
    "multiplier_bounds": multiplier_bounds,
    "symmetrization": symmetrization,
    "cancellation": cancellation,
    "boundary_bound": boundary_bound,
    "envelope": envelope,
    "apriori": apriori,
}


# ---------------------------------------------------------------------------
# config handling


def load_config(path):
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    return parser


def _parse_value(where, default, raw):
    """Convert ``raw`` to the type of ``default``.  A tuple default is a
    comma- or space-separated list; a tuple of strings lists every allowed
    entry."""
    if not isinstance(default, tuple):
        conv, items = type(default), [raw]
    else:
        conv, items = type(default[0]), raw.replace(",", " ").split()
        if not items:
            raise ConfigError(f"{where} lists no entries")
        if conv is str:
            unknown = [x for x in items if x not in default]
            if unknown:
                raise ConfigError(
                    f"unknown {where} entry {unknown[0]!r}, expected any of: "
                    + " ".join(default)
                )
    try:
        values = tuple(conv(x) for x in items)
    except ValueError as exc:
        raise ConfigError(f"bad value for {where}: {raw!r}") from exc
    return values if isinstance(default, tuple) else values[0]


def _parse_section(cfg, section, defaults):
    out = {}
    for key in cfg.options(section):
        if key not in defaults:
            raise ConfigError(
                f"unknown key {key!r} in [{section}], expected any of: "
                + " ".join(defaults)
            )
        out[key] = _parse_value(f"{section}.{key}", defaults[key],
                                cfg.get(section, key))
    return out


def parse_config(cfg):
    """Return (scenario, seed, output_dir, keyword parameters).  The keys of
    the scenario's section are the keyword parameters of its criterion
    function, typed by their defaults; anything else raises ConfigError
    naming the offending field."""
    if not cfg.has_section("run"):
        raise ConfigError("missing section [run]")
    if not cfg.has_option("run", "scenario"):
        raise ConfigError("missing key 'scenario' in [run]")
    name = cfg.get("run", "scenario")
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}")
    for section in cfg.sections():
        if section not in ("run", name):
            raise ConfigError(f"unknown section [{section}] for scenario {name}")
    run = {"scenario": name, "seed": 0, "output_dir": "out"}
    run.update(_parse_section(cfg, "run", run))
    defaults = {
        key: p.default
        for key, p in inspect.signature(SCENARIOS[name]).parameters.items()
        if key != "seed"
    }
    params = _parse_section(cfg, name, defaults) if cfg.has_section(name) else {}
    if params.get("s", 1.0) <= 0.25:
        raise ConfigError(f"{name}.s must exceed 1/4, got {params['s']}")
    return name, run["seed"], run["output_dir"], params


def validate_config(cfg):
    """Structural validation; raises ConfigError naming the offending field."""
    return parse_config(cfg)[0]


def run_scenario(cfg):
    """Execute the configured scenario; returns (exit status, result)."""
    name, seed, output_dir, params = parse_config(cfg)
    t0 = time.time()
    result = SCENARIOS[name](seed=seed, **params)
    os.makedirs(output_dir, exist_ok=True)
    for fname, write in result.exports.items():
        write(os.path.join(output_dir, fname))
    wall = time.time() - t0
    emit_report(
        result.reports,
        os.path.join(output_dir, f"{name}.csv"),
        os.path.join(output_dir, f"{name}.json"),
        config_echo={sec: dict(cfg.items(sec)) for sec in cfg.sections()},
        seed=seed, wall_times={name: wall},
        measurements=result.measurements, checks=result.checks,
    )
    return (EXIT_OK if result.passed else EXIT_ASSERTION), result
