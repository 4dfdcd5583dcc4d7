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
fixed schema and a JSON manifest echoing the config, seed, library versions
and git revision, wall time, measurements and checks.  Float formatting is
pinned to 17 significant digits so identical runs are byte-identical.
"""

import configparser
import inspect
import json
import os
import platform
import time
from dataclasses import dataclass, field

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


def git_revision():
    """Short git revision of the checkout holding this package, or None
    without git or outside a repository."""
    import subprocess  # only manifests need it: keeps the package import light

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, check=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _write_csv(path, header, rows):
    """Write the header line and one comma-joined line per row of strings."""
    lines = [header] + [",".join(row) for row in rows]
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def emit_report(reports, csv_path, manifest_path=None, config_echo=None,
                seed=None, wall_times=None, measurements=None, checks=()):
    """Write the fixed-schema CSV, one row per report point, and a JSON run
    manifest.  A report's verdict is that every one of its checks passes."""
    verdicts = [all(check_passed(v, b)
                    for _, v, b in rep.checks(rep.estimate_id))
                for rep in reports]
    _write_csv(csv_path, CSV_HEADER, [
        [rep.estimate_id, fmt(2.0**p.sweep), fmt(p.lam), fmt(p.max_ratio),
         fmt(p.mean_ratio), fmt(rep.slope), fmt(rep.residual), str(ok)]
        for rep, ok in zip(reports, verdicts) for p in rep.points])
    if manifest_path is not None:
        manifest = {
            "config": config_echo or {},
            "seed": seed,
            "versions": {"numpy": np.__version__,
                         "python": platform.python_version(),
                         "toruslab": __version__,
                         "git": git_revision()},
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
                    "one_sided": r.one_sided,
                    "verdict": ok,
                    "skipped": r.skipped,
                }
                for r, ok in zip(reports, verdicts)
            ],
        }
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
    return csv_path


def write_trajectory_csv(traj, s, path):
    """Snapshot export: one row (t, L2 norm, energy, Sobolev norm) per
    snapshot."""
    rows = []
    for i in range(len(traj)):
        u = traj.field(i)
        energy = ev.conserved_energy(u, traj.problem.sigma) if u.real else np.nan
        rows.append(map(fmt, (float(traj.times[i]), u.l2_norm(), energy,
                              sp.sobolev_norm(u, s))))
    return _write_csv(path, "t,l2_norm,energy,sobolev_norm", rows)


def write_energy_series_csv(report, path):
    """Energy-diagnostic export (t, E0, E1, R4, R6, dE0/dt,
    d(E0+sigma E1)/dt) of a cancellation report; interior rows carry the
    derivatives."""
    return _write_csv(path, "t,e0,e1,r4,r6,de0_dt,dcorrected_dt",
                      [map(fmt, row) for row in
                       zip(*report["series"], *report["derivatives"])])


# ---------------------------------------------------------------------------
# the ten acceptance criteria


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


def convergence_order(seed):
    """Self-convergence orders of RK4 on M = 64 data of amplitude 0.4 at
    T = 0.5, from steps 2, 1, 1/2 and 1/4 times ``default_dt``."""
    rng = np.random.default_rng(seed)
    g = sp.TorusGeometry(1.0, 64)
    u0 = sp.random_field(g, rng, band=16, real=True, decay=1.0) * 0.4
    prob = ev.FlowProblem(ev.BENJAMIN_ONO, +1, u0)
    base = ev.default_dt(prob) * 2
    finals = []
    for f in (1, 2, 4, 8):
        traj = ev.evolve(prob, 0.5, dt=base / f, n_snapshots=2)
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
    o1, o2 = convergence_order(seed)

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
    agreement of its quotient and extension branches off resonance (also
    on the size scale sym(mu)/mu) and at the switching band."""
    rng = np.random.default_rng(seed)
    sym = en.DyadicSymbol.from_exponent(0.3)
    n = tuples_per_pattern
    worst_c = worst_agree = worst_scaled = worst_band = 0.0
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
                scaled = np.abs(quot - ext)[off] * mu[off] / sym(mu[off])
                worst_scaled = max(worst_scaled, float(np.max(scaled)))
            if np.any(band):
                worst_band = max(worst_band, float(np.max(rel[band])))
    return ScenarioResult(
        {"size_constant": worst_c, "branch_agreement": worst_agree,
         "branch_agreement_scaled": worst_scaled, "switching_band": worst_band},
        [("size_constant", worst_c, 20.0),
         ("branch_agreement", worst_agree, 1e-10),
         ("branch_agreement_scaled", worst_scaled, 1e-12),
         ("switching_band", worst_band, 1e-8)],
    )


def boundary_bound(seed=106, count=12):
    """Criterion 6: the quartic boundary correction is bounded by
    ||u||_L2^2 E0, uniformly in the truncation and exactly homogeneous."""
    rng = np.random.default_rng(seed)
    sym = en.DyadicSymbol.from_exponent(0.3)
    law = ev.BENJAMIN_ONO

    def ratios(fields):
        e1s = en.e1_corrections(sym, fields, law)
        return [abs(e1) / (u.l2_norm() ** 2 * en.e0_energy(sym, u, law))
                for e1, u in zip(e1s, fields)]

    # one continuum function family, evaluated at three truncations: the
    # spread measures discretization dependence, not sampling noise; one b4
    # pass per truncation serves every draw, one chunk at a time
    base = sp.TorusGeometry(1.0, 256)
    draws = [sp.random_field(base, rng, band=85, real=True, decay=1.5) * 0.2
             for _ in range(count)]
    per_m = {}
    for m in (64, 128, 256):
        g = sp.TorusGeometry(1.0, m)
        band = min(85, m // 2 - 1)
        ms = g.mvals[np.abs(g.mvals) <= band]
        fields = []
        for u_full in draws:
            tab = np.zeros(m, dtype=complex)
            tab[ms % m] = u_full.coeffs[ms % 256]
            fields.append(sp.SpectralField(g, tab, real=True))
        per_m[m] = ratios(fields)
    consts = {m: max(r, default=0.0) for m, r in per_m.items()}
    spread = max([1.0] + [max(r) / min(r) for r in zip(*per_m.values())])
    u = sp.random_field(sp.TorusGeometry(1.0, 64), rng, band=5, real=True) * 0.2
    r1, r2 = ratios([u, u * 3.7])
    amp_dev = abs(r1 - r2) / r1
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
        checks += rep.checks(eid)
    return ScenarioResult(measurements, checks, reports)


TRILINEAR_SWEEPS = es.INTERACTION_CLASSES  # criterion 9's recipes, by class


def trilinear(seed=109, count=4, equations=("mbo", "dnls"),
              classes=tuple(es.INTERACTION_CLASSES)):
    """Criterion 9: slope of every trilinear interaction class in its window,
    for the modified Benjamin-Ono flow and the dnls conjugation pattern; the
    sweeps, tuned probes and windows are the classes' recipes in
    estimates.INTERACTION_CLASSES."""
    reports, checks = [], []
    for eq in equations:
        law, conj = ((ev.BENJAMIN_ONO, False) if eq == "mbo"
                     else (ev.SCHROEDINGER, True))
        for cls in classes:
            recipe = es.INTERACTION_CLASSES[cls]
            rep = es.trilinear_sweep(cls, recipe["sweep"], law=law,
                                     conjugate_middle=conj, seed=seed,
                                     count=count, include_tuned=recipe["tuned"])
            reports.append(rep)
            checks += rep.checks(f"{eq}_{cls}")
    return ScenarioResult({}, checks, reports)


def _sobolev_sup(traj, s):
    """sup over the snapshots of the H^s norm, one weighted norm per state
    row (a whole-array reduction would hold several trajectory-sized
    temporaries at criterion 10's memory peak)."""
    g = traj.problem.u0.geometry
    w = (1.0 + g.xi**2) ** s
    return max(float(np.sqrt(np.sum(w * np.abs(row) ** 2) / g.lam))
               for row in traj.states)


def _apriori_trajectories(seed, size, m, t_final, count):
    """Criterion 10's small data over [-T, T], snapshots resolving the finest
    block window 2^-kmax, at four times ``default_dt`` (dt max|omega| <= 3
    after rounding; ``test_apriori_step_budget`` bounds the change)."""
    rng = np.random.default_rng(seed)
    g = sp.TorusGeometry(1.0, m)
    problems = []
    for _ in range(count):
        u0 = sp.random_field(g, rng, band=m // 8, real=True, decay=1.2)
        problems.append(ev.FlowProblem(ev.BENJAMIN_ONO, +1,
                                       u0 * (size / u0.l2_norm())))
    nsnap = int(t_final * 2.0**sp.max_block(g) * 12) + 1
    return ev.evolve_two_sided(problems, t_final, n_snapshots=nsnap,
                               dt=4.0 * ev.default_dt(problems[0]))


def apriori_run(seed, s=0.3, size=0.05, m=256, t_final=1.0, count=10):
    """Criterion 10's per-sample Sobolev ratios and energy constants."""
    meas = apriori(seed, s, size, count, t_final, m).measurements
    return meas["sobolev_ratios"], meas["energy_constants"]


def apriori(seed=110, s=0.3, size=0.05, count=10, t_final=1.0, grid_size=256):
    """Criterion 10: small data stay small in H^s over [-T, T], and the
    energy-propagation constant stays bounded.  Per sample it measures hs0 =
    ||u0||_{H^s}, sup_[-T, T] ||u||_{H^s} / hs0 and the energy constant
    E^2 / (hs0^2 + T F^6), E at s and F at s - eps_tilde with eps_tilde =
    min(0.05, (s - 1/4) / 2) (16 tau bins), each norm from one
    ``assembled_norm`` call over all samples."""
    eps_tilde = min(0.05, (s - 0.25) / 2.0)
    trajs = _apriori_trajectories(seed, size, grid_size, t_final, count)
    hs0 = [sp.sobolev_norm(traj.problem.u0, s) for traj in trajs]
    ratios = [_sobolev_sup(traj, s) / h for traj, h in zip(trajs, hs0)]
    fields = [st.from_trajectory(traj) for traj in trajs]
    del trajs
    e_norms = st.assembled_norm(fields, s, "E", t_final)
    f_norms = st.assembled_norm(fields, s - eps_tilde, "F", t_final,
                                law=ev.BENJAMIN_ONO, tau_bins=16)
    consts = [e**2 / (h**2 + t_final * f**6)
              for e, f, h in zip(e_norms, f_norms, hs0)]
    return ScenarioResult(
        {"sobolev_ratios": ratios, "energy_constants": consts, "hs0": hs0,
         "e_norms": e_norms, "f_norms": f_norms},
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
    comma- or space-separated list without repeated entries; a tuple of
    strings lists every allowed entry."""
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
    repeated = [x for i, x in enumerate(values) if x in values[:i]]
    if repeated:
        raise ConfigError(f"{where} repeats entry {repeated[0]!r}")
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
        # a seed may be zero; every count and size needs at least one
        least = 0 if key == "seed" else 1
        if type(defaults[key]) is int and out[key] < least:
            raise ConfigError(
                f"{section}.{key} must be at least {least}, got {out[key]}")
    return out


def parse_config(cfg):
    """Return (scenario, seed, output_dir, keyword parameters).  The keys of
    the scenario's section are the keyword parameters of its criterion
    function, typed by their defaults.  The output directory must not be
    empty.  A seed must be at least 0, every other integer at least 1, s
    above 1/4 and every t_final and size positive, all finite.  Every grid_size must be a power of two of at
    least 8, for every criterion: M = 4 has no dyadic block 2, which
    criterion 3's symbol needs, and leaves criterion 4 band-1 data, whose
    residuals vanish and leave no order to fit.  Anything else raises
    ConfigError naming the offending field."""
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
    if not run["output_dir"]:
        raise ConfigError("run.output_dir must name a directory, got ''")
    defaults = {
        key: p.default
        for key, p in inspect.signature(SCENARIOS[name]).parameters.items()
        if key != "seed"
    }
    params = _parse_section(cfg, name, defaults) if cfg.has_section(name) else {}
    for key, low in (("s", 0.25), ("t_final", 0.0), ("size", 0.0)):
        if not low < params.get(key, 1.0) < np.inf:  # nan fails too
            raise ConfigError(
                f"{name}.{key} must lie in ({low}, inf), got {params[key]}")
    # every grid size and scale must describe a torus the criterion can build
    tori = [("lambdas", lam, 4) for lam in params.get("lambdas", ())]
    if "grid_size" in params:
        tori.append(("grid_size", 1.0, params["grid_size"]))
    for key, lam, m in tori:
        try:
            sp.TorusGeometry(lam, m)
        except ValueError as exc:
            raise ConfigError(f"bad value for {name}.{key}: {exc}") from exc
    if params.get("grid_size", 8) < 8:
        raise ConfigError(
            f"{name}.grid_size must be at least 8, got {params['grid_size']}")
    return name, run["seed"], run["output_dir"], params


def validate_config(cfg):
    """Structural validation; raises ConfigError naming the offending field."""
    return parse_config(cfg)[0]


def run_scenario(cfg):
    """Execute the configured scenario; returns (exit status, result)."""
    name, seed, output_dir, params = parse_config(cfg)
    t0 = time.perf_counter()
    result = SCENARIOS[name](seed=seed, **params)
    os.makedirs(output_dir, exist_ok=True)
    for fname, write in result.exports.items():
        write(os.path.join(output_dir, fname))
    wall = time.perf_counter() - t0
    emit_report(
        result.reports,
        os.path.join(output_dir, f"{name}.csv"),
        os.path.join(output_dir, f"{name}.json"),
        config_echo={sec: dict(cfg.items(sec)) for sec in cfg.sections()},
        seed=seed, wall_times={name: wall},
        measurements=result.measurements, checks=result.checks,
    )
    return (EXIT_OK if result.passed else EXIT_ASSERTION), result
