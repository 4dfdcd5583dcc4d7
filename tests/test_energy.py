import numpy as np
import pytest

from toruslab import energy as en
from toruslab import evolution as ev
from toruslab import runner
from toruslab import spectral as sp
from toruslab.bumps import next_pow2

from oracles import gamma4_sums_full, r6_scalar_loop, simplex_chunks

BO = ev.BENJAMIN_ONO
NLS = ev.SCHROEDINGER


def check_slowly_varying(sym, rng, xi_max, n=512):
    """Max ratio a(xi)/a(xi') over comparable pairs xi' in [xi/2, 2 xi]."""
    xi = np.exp(rng.uniform(0.0, np.log(xi_max), n))
    fac = 2.0 ** rng.uniform(-1.0, 1.0, n)
    r = sym(xi) / sym(xi * fac)
    return float(np.max(np.maximum(r, 1.0 / r)))


def check_derivative_bounds(sym, rng, xi_max, n=512):
    """Finite-difference constants C_alpha with
    |d^alpha a| <= C a(xi) <xi>^-alpha, alpha = 1, 2."""
    xi = np.exp(rng.uniform(0.0, np.log(xi_max), n))
    br = np.sqrt(1.0 + xi**2)
    h = 1e-3 * br
    d1 = (sym(xi + h) - sym(xi - h)) / (2.0 * h)
    d2 = (sym(xi + h) - 2.0 * sym(xi) + sym(xi - h)) / h**2
    a = sym(xi)
    c1 = float(np.max(np.abs(d1) * br / a))
    c2 = float(np.max(np.abs(d2) * br**2 / a))
    return c1, c2


def check_growth_window(sym, xi_max, n=256):
    """Max deviation of log a / log(1 + xi^2) from [s - eps, s + eps] on
    |xi| >= 4, net of the table's own multiplicative headroom."""
    xi = np.exp(np.linspace(np.log(4.0), np.log(xi_max), n))
    ratio = np.log(sym(xi)) / np.log(1.0 + xi**2)
    headroom = 0.0
    if sym.table is not None:
        k = np.arange(sym.table.size)
        headroom = float(np.max(np.abs(sym.table - 2.0 * sym.s * k)))
    allowance = sym.eps + headroom / np.log2(1.0 + xi**2)
    over = np.maximum(ratio - (sym.s + allowance), (sym.s - allowance) - ratio)
    return float(np.max(over))


@pytest.fixture
def sym():
    return en.DyadicSymbol.from_exponent(0.3)


def rand_field(m=64, band=20, real=True, amp=0.4, seed=0, lam=1.0):
    rng = np.random.default_rng(seed)
    g = sp.TorusGeometry(lam, m)
    return sp.random_field(g, rng, band=band, real=real) * amp


# ---------------------------------------------------------------------------
# envelopes


def test_envelope_single_block():
    g = sp.TorusGeometry(1.0, 256)
    coeffs = np.zeros(256, dtype=complex)
    for m in (9, 10, 12, -9, -10, -12):
        coeffs[m] = 1.0
    u0 = sp.SpectralField(g, coeffs, real=True)
    s, eps = 0.5, 0.2
    env = en.build_envelope(u0, s, eps)
    n0 = 3  # data concentrated in block 3
    gamma = 4.0 ** (n0 * s) * sp.lp_project(u0, n0).l2_norm() ** 2 / sp.sobolev_norm(u0, s) ** 2
    n = np.arange(len(env))
    expected = gamma * 2.0 ** (-(eps / 2.0) * np.abs(n - n0))
    assert np.max(np.abs(env.beta - expected)) < 1e-14
    # geometric-series bound on the recorded sum
    assert env.total <= gamma * (1.0 + 2.0 / (1.0 - 2.0 ** (-eps / 2.0))) + 1e-12


def test_envelope_axioms_random():
    rng = np.random.default_rng(1)
    g = sp.TorusGeometry(1.0, 256)
    for i in range(25):
        u0 = sp.random_field(g, rng, band=100, real=True, decay=rng.uniform(0, 2))
        env = en.build_envelope(u0, 0.3, 0.1)
        dom, total, lip = en.envelope_axioms(env, u0)
        assert dom <= 1e-12
        assert lip <= 1e-12
        assert np.isfinite(total)


def test_envelope_rejects_zero():
    g = sp.TorusGeometry(1.0, 64)
    z = sp.SpectralField(g, np.zeros(64), real=True)
    with pytest.raises(ValueError):
        en.build_envelope(z, 0.3, 0.1)


# ---------------------------------------------------------------------------
# symbols


def test_symbol_class_checks(sym):
    rng = np.random.default_rng(2)
    assert check_slowly_varying(sym, rng, 500.0) < 3.0
    c1, c2 = check_derivative_bounds(sym, rng, 500.0)
    assert c1 < 5.0 and c2 < 10.0
    assert check_growth_window(sym, 500.0) <= 1e-9


def test_symbol_kind_follows_table():
    """A table makes a block symbol whether it is passed by position or by
    keyword, and a bad table is rejected either way."""
    table = [0.0, 0.7, 1.1, 1.9]
    direct = en.DyadicSymbol(0.3, 0.1, table)
    built = en.DyadicSymbol(s=0.3, eps=0.1, table=table)
    xi = np.linspace(-40.0, 40.0, 161)
    for f in ("__call__", "deriv", "g_double_prime"):
        assert np.array_equal(getattr(direct, f)(xi), getattr(built, f)(xi))
    assert check_growth_window(direct, 500.0) == check_growth_window(
        built, 500.0)
    for bad in ([1.0], [[0.0, 1.0]], [0.0, -np.inf]):
        with pytest.raises(ValueError):
            en.DyadicSymbol(0.3, 0.1, bad)
        with pytest.raises(ValueError):
            en.DyadicSymbol(s=0.3, eps=0.1, table=bad)


def test_build_symbol_from_envelope():
    u0 = rand_field(m=256, band=100, seed=3)
    s, eps = 0.3, 0.1
    env = en.build_envelope(u0, s, eps)
    kmax = len(env) - 1
    rng = np.random.default_rng(4)
    for k0 in (0, 2, kmax):
        symb = en.build_symbol(env, k0, s, eps)
        # membership: slowly varying, derivative bounds, windowed growth
        assert check_slowly_varying(symb, rng, 100.0) < 6.0
        c1, c2 = check_derivative_bounds(symb, rng, 100.0)
        assert c1 < 10.0 and c2 < 60.0
        assert check_growth_window(symb, 100.0) <= 1e-9
        # the max attains the second branch at k = k0
        lower = 4.0 ** (k0 * s) / env.beta[k0]
        assert symb(2.0**k0) >= lower / 4.0
    # flat envelope: symbol reduces to the plain bracket power
    flat = en.EnvelopeSequence(np.ones(kmax + 1), s, eps)
    symb = en.build_symbol(flat, 3, s, eps)
    xi = np.array([1.0, 4.0, 17.0, 60.0])
    ratio = symb(xi) / (1.0 + xi**2) ** s
    assert np.all(ratio < 4.0) and np.all(ratio > 0.25)
    # weighted-data bound: sum_k a_k ||P_k u0||^2 <= C ||u0||_{H^s}^2, C
    # independent of k0
    hs2 = sp.sobolev_norm(u0, s) ** 2
    consts = []
    for k0 in range(kmax + 1):
        table = 4.0 ** (np.arange(kmax + 1) * s) * np.maximum(
            1.0, 2.0 ** (-eps * np.abs(np.arange(kmax + 1) - k0)) / env.beta[k0]
        )
        tot = sum(
            table[k] * sp.lp_project(u0, k).l2_norm() ** 2 for k in range(kmax + 1)
        )
        consts.append(tot / hs2)
    assert max(consts) < 3.0 / (1.0 - 2.0 ** (-eps / 2.0))


def test_envelope_with_zero_entry_rejected():
    env = en.EnvelopeSequence(np.array([1.0, 0.0, 1.0]), 0.3, 0.1)
    with pytest.raises(ValueError):
        en.build_symbol(env, 0, 0.3, 0.1)


# ---------------------------------------------------------------------------
# multiplier


def test_q_examples(sym):
    assert abs(en.q_smooth(sym, np.array([1.0]), np.array([1.0]))[0] - sym(1.0)) < 1e-14
    # removable singularity: q(x, -x) -> g'(x)
    val = en.q_smooth(sym, np.array([3.0]), np.array([-3.0 + 1e-9]))[0]
    assert abs(val - sym.g_prime(3.0)) < 1e-6


def test_b4_flat_symbol_vanishes():
    sym0 = en.DyadicSymbol.from_exponent(0.0)
    rng = np.random.default_rng(5)
    x1, x2, x3 = (rng.uniform(-20, 20, 500) for _ in range(3))
    x4 = -(x1 + x2 + x3)
    for law in (BO, NLS):
        assert np.max(np.abs(en.b4_multiplier(sym0, (x1, x2, x3, x4), law))) == 0.0


def test_b4_branch_agreement(sym):
    rng = np.random.default_rng(6)
    x1, x2, x3 = (rng.uniform(-30, 30, 4000) for _ in range(3))
    x4 = -(x1 + x2 + x3)
    for law in (BO, NLS):
        quot, ext = en.b4_branch_values(sym, (x1, x2, x3, x4), law)
        om = en.resonance_function(law, x1, x2, x3, x4)
        mu = np.maximum.reduce([np.abs(x) for x in (x1, x2, x3, x4)])
        off = np.abs(om) > en.RESONANCE_THETA * np.maximum(mu, 1.0) ** 2
        rel = np.abs(quot[off] - ext[off]) / np.abs(quot[off])
        assert np.max(rel) < 1e-10


def test_b4_branch_agreement_near_pairing_set(sym):
    """Near the pairing set xi3 = -xi1, xi4 = -xi2 the sum of the g(xi_i)
    cancels while Omega need not, so b4 itself is near zero.  There the two
    branches agree on the multiplier's size scale a(mu)/mu, although their
    difference relative to |quot| is far above rounding."""
    rng = np.random.default_rng(111)
    n = 4000
    worst_rel = 0.0
    for law in (BO, NLS):
        for a, b in [(0, 0), (1, 3), (3, 3), (2, 6), (5, 5), (4, 8), (8, 2)]:
            x1 = rng.uniform(2.0**a, 2.0 ** (a + 1), n) * rng.choice([-1, 1], n)
            x2 = rng.uniform(2.0**b, 2.0 ** (b + 1), n) * rng.choice([-1, 1], n)
            eps = (np.abs(x1) * 10.0 ** rng.uniform(-8, -1, n)
                   * rng.choice([-1, 1], n))
            xi = (x1, x2, -x1 + eps, -x2 - eps)
            quot, ext = en.b4_branch_values(sym, xi, law)
            mu = np.maximum.reduce([np.abs(x) for x in xi])
            om = en.resonance_function(law, *xi)
            off = (np.abs(om)
                   > 100.0 * en.RESONANCE_THETA * np.maximum(mu, 1.0) ** 2)
            assert np.any(off), (law, a, b)
            gap = np.abs(quot - ext)[off]
            assert np.all(gap <= 1e-12 * sym(mu[off]) / mu[off]), (law, a, b)
            worst_rel = max(worst_rel, float(np.max(gap / np.abs(quot[off]))))
    assert worst_rel > 1e-10


def test_b4_size_bound_and_resonant_values(sym):
    rng = np.random.default_rng(7)
    x1, x2, x3 = (rng.uniform(-100, 100, 5000) for _ in range(3))
    x4 = -(x1 + x2 + x3)
    for law in (BO, NLS):
        b = en.b4_multiplier(sym, (x1, x2, x3, x4), law)
        mu = np.maximum.reduce([np.abs(x) for x in (x1, x2, x3, x4)])
        assert np.max(np.abs(b) * mu / sym(mu)) < 20.0
    # exactly resonant lattice tuples get finite extension values
    pairs = (np.array([3.0, 5.0, 2.0]), np.array([-3.0, -5.0, -2.0]),
             np.array([7.0, 5.0, 2.0]), np.array([-7.0, -5.0, -2.0]))
    for law in (BO, NLS):
        vals = en.b4_multiplier(sym, pairs, law)
        assert np.all(np.isfinite(vals))


def test_b4_rejects_off_simplex(sym):
    with pytest.raises(ValueError):
        en.b4_multiplier(sym, (np.array([1.0]), np.array([1.0]),
                               np.array([1.0]), np.array([1.0])), BO)


def test_b4_derivative_bounds_on_simplex(sym):
    """Finite differences along zero-sum directions respect the dyadic
    scaling of the extension bounds (constant recorded)."""
    rng = np.random.default_rng(8)
    worst = 0.0
    for (sa, sb, smu) in [(1, 2, 5), (2, 3, 6), (0, 4, 7)]:
        n = 400
        x1 = rng.uniform(2.0**sa, 2.0 ** (sa + 1), n) * rng.choice([-1, 1], n)
        x2 = rng.uniform(2.0**sb, 2.0 ** (sb + 1), n) * rng.choice([-1, 1], n)
        x3 = rng.uniform(2.0**smu, 2.0 ** (smu + 1), n)
        x4 = -(x1 + x2 + x3)
        mu = np.maximum.reduce([np.abs(x) for x in (x1, x2, x3, x4)])
        keep = np.abs(x4) >= 2.0**smu / 2.0
        x1, x2, x3, x4, mu = (a[keep] for a in (x1, x2, x3, x4, mu))
        h = 1e-4 * 2.0**sa
        up = en.b4_multiplier(sym, (x1 + h, x2 - h, x3, x4), BO)
        dn = en.b4_multiplier(sym, (x1 - h, x2 + h, x3, x4), BO)
        deriv = np.abs(up - dn) / (2 * h)
        scale = sym(mu) / mu / 2.0**sa
        worst = max(worst, float(np.max(deriv / scale)))
    assert worst < 50.0


# ---------------------------------------------------------------------------
# energies and remainder forms


def test_grid_simplex_counts():
    simplex = en.GridSimplex(4, 3, 1.0)
    brute = 0
    rng = range(-3, 4)
    for a in rng:
        for b in rng:
            for c in rng:
                if abs(a + b + c) <= 3:
                    brute += 1
    assert simplex.count() == brute
    chunked = sum(len(m2) for _, m2, _, _ in simplex_chunks(simplex))
    assert chunked == brute


def test_e0_examples(sym):
    u = rand_field(seed=9)
    sym1 = en.DyadicSymbol.from_exponent(0.0)
    assert abs(en.e0_energy(sym1, u, BO) - 2.0 * np.pi * ev.conserved_mass(u)) < 1e-12
    z = sp.SpectralField(u.geometry, np.zeros_like(u.coeffs), real=True)
    assert en.e0_energy(sym, z, BO) == 0.0
    # bracket-power symbol: comparable to the squared Sobolev norm
    e0 = en.e0_energy(sym, u, BO)
    hs2 = sp.sobolev_norm(u, 0.3) ** 2
    assert 0.2 * hs2 < e0 <= hs2 * 1.0001
    with pytest.raises(ValueError):
        en.e0_energy(sym, rand_field(real=False, seed=10), BO)


def test_r4_identity_both_laws(sym):
    # the last input, on the lam = 2 torus, checks the lam^-3 normalization
    for seed, lam in enumerate([1.0] * 4 + [2.0]):
        u = rand_field(seed=20 + seed, band=18, lam=lam)
        for sigma in (1, -1):
            r4 = en.r4_form(sym, u, BO, sigma)
            d0 = en.e0_time_derivative(sym, u, BO, sigma)
            assert abs(r4 - d0) <= 1e-10 * max(abs(d0), 1e-14)
        uc = rand_field(seed=30 + seed, band=18, real=False, lam=lam)
        r4 = en.r4_form(sym, uc, NLS, 1)
        d0 = en.e0_time_derivative(sym, uc, NLS, 1)
        assert abs(r4 - d0) <= 1e-10 * abs(d0)


def test_r4_single_mode_vanishes(sym):
    g = sp.TorusGeometry(1.0, 32)
    coeffs = np.zeros(32, dtype=complex)
    coeffs[5] = 1.0
    coeffs[-5] = 1.0
    u = sp.SpectralField(g, coeffs, real=True)
    assert abs(en.r4_form(sym, u, BO, 1)) < 1e-16


def test_e1_homogeneity_and_boundary(sym):
    u = rand_field(seed=11, band=12, amp=0.2)
    e1 = en.e1_correction(sym, u, BO)
    e1_scaled = en.e1_correction(sym, u * 2.0, BO)
    assert abs(e1_scaled - 16.0 * e1) < 1e-12 * abs(e1_scaled)
    sym1 = en.DyadicSymbol.from_exponent(0.0)
    assert en.e1_correction(sym1, u, BO) == 0.0
    ratio = abs(e1) / (u.l2_norm() ** 2 * en.e0_energy(sym, u, BO))
    assert ratio < 10.0


def test_r6_contracted_vs_enumerated(sym):
    rng = np.random.default_rng(12)
    # the last input, on the lam = 2 torus, checks the lam^-3 and lam^-5
    # normalizations of the two paths
    for lam, m in ((1.0, 8), (1.0, 12), (1.0, 16), (2.0, 16)):
        g = sp.TorusGeometry(lam, max(16, next_pow2(m)))
        band = max(2, m // 3)
        ur = sp.random_field(g, rng, band=band, real=True) * 0.7
        c = en.r6_form(sym, ur, BO)
        e = en.r6_enumerated(sym, ur, BO)
        assert abs(c - e) <= 1e-10 * max(abs(e), 1e-14)
        uc = sp.random_field(g, rng, band=band, real=False) * 0.7
        c = en.r6_form(sym, uc, NLS)
        e = en.r6_enumerated(sym, uc, NLS)
        assert abs(c - e) <= 1e-10 * max(abs(e), 1e-14)


def test_r6_enumerated_matches_scalar_loop(sym):
    """The one-pass enumeration sums the same Gamma6 terms as a plain loop
    over the six-tuples, up to summation order, on both laws and tori.  The
    flow band 3 cuts the contracted frequencies, which reach 6."""
    rng = np.random.default_rng(18)
    for lam in (1.0, 2.0):
        g = sp.TorusGeometry(lam, 16)
        for real, law in ((True, BO), (False, NLS)):
            u = sp.random_field(g, rng, band=2, real=real) * 0.7
            ref = r6_scalar_loop(sym, u, law, 3)
            got = en.r6_enumerated(sym, u, law, band=3)
            assert abs(got - ref) <= 1e-12 * abs(ref)


def test_r6_flat_symbol_and_homogeneity(sym):
    u = rand_field(seed=13, band=8, m=32, amp=0.5)
    sym1 = en.DyadicSymbol.from_exponent(0.0)
    assert en.r6_form(sym1, u, BO) == 0.0
    a = en.r6_form(sym, u, BO)
    b = en.r6_form(sym, u * 2.0, BO)
    assert abs(b - 64.0 * a) < 1e-10 * abs(b)


def test_cancellation_along_flow(sym):
    rng = np.random.default_rng(14)
    g = sp.TorusGeometry(1.0, 32)
    u0 = sp.random_field(g, rng, band=10, real=True, decay=2.0) * 0.4
    prob = ev.FlowProblem(BO, +1, u0)
    mids4, mids6 = [], []
    for nsnap in (11, 21, 41):
        traj = ev.evolve(prob, 0.2, dt=(0.2 / (nsnap - 1)) / 10.0, n_snapshots=nsnap)
        rep = en.cancellation_check(traj, sym, band=ev.dealias_band(g))
        mids4.append(rep["residual_r4_mid"])
        mids6.append(rep["residual_r6_mid"])
    for mids in (mids4, mids6):
        orders = [np.log2(mids[i] / mids[i + 1]) for i in range(2)]
        assert all(abs(o - 4.0) <= 1.0 for o in orders)


def test_cancellation_free_flow(sym):
    u = rand_field(seed=15, band=10, m=32)
    e0a = en.e0_energy(sym, u, BO)
    e0b = en.e0_energy(sym, ev.free_evolve(u, 0.37, BO), BO)
    assert abs(e0a - e0b) < 1e-12 * e0a


def test_cancellation_check_rejects_short(sym):
    g = sp.TorusGeometry(1.0, 32)
    rng = np.random.default_rng(16)
    u0 = sp.random_field(g, rng, band=8, real=True) * 0.1
    prob = ev.FlowProblem(BO, +1, u0)
    for snapshots in (2, 4):  # the fourth-order stencil needs five
        traj = ev.evolve(prob, 0.01, n_snapshots=snapshots)
        with pytest.raises(ValueError):
            en.cancellation_check(traj, sym)


def test_cancellation_flat_symbol_reduces_to_mass(sym):
    """With the flat symbol the corrected energy is proportional to the mass
    and both algebraic forms vanish, so residuals sit at integrator level."""
    rng = np.random.default_rng(17)
    g = sp.TorusGeometry(1.0, 32)
    u0 = sp.random_field(g, rng, band=10, real=True, decay=1.5) * 0.3
    prob = ev.FlowProblem(BO, +1, u0)
    traj = ev.evolve(prob, 0.1, dt=ev.default_dt(prob), n_snapshots=11)
    flat = en.DyadicSymbol.from_exponent(0.0)
    rep = en.cancellation_check(traj, flat, band=ev.dealias_band(g))
    e0 = en.e0_energy(flat, traj.field(0), BO)
    assert rep["scale_r4"] == 0.0 and rep["scale_r6"] == 0.0
    assert rep["residual_r4"] < 1e-9 * e0
    assert rep["residual_r6"] < 1e-9 * e0


def test_cancellation_check_rejects_nonuniform_times(sym):
    g = sp.TorusGeometry(1.0, 32)
    u0 = sp.random_field(g, np.random.default_rng(19), band=8, real=True) * 0.1
    traj = ev.evolve(ev.FlowProblem(BO, +1, u0), 0.1, n_snapshots=6)
    times = np.array([0.0, 0.004, 0.016, 0.036, 0.064, 0.1])
    with pytest.raises(ValueError, match="uniform"):
        en.cancellation_check(ev.Trajectory(traj.problem, times, traj.states),
                              sym)


# ---------------------------------------------------------------------------
# batched Gamma4 passes


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def test_e1_corrections_batch_equals_single_fields(sym):
    """One b4 pass over a batch gives each field's single-call E1: exactly
    when the fields share a band, and to rounding when a narrower field is
    summed over a wider neighbour's band; on both laws at lam 1 and 2."""
    for lam in (1.0, 2.0):
        for real, law in ((True, BO), (False, NLS)):
            same = [rand_field(m=32, band=5, real=real, amp=0.5, seed=seed,
                               lam=lam) for seed in (40, 41, 42)]
            assert en.e1_corrections(sym, same, law) == [
                en.e1_correction(sym, u, law) for u in same]
            mixed = same + [rand_field(m=32, band=9, real=real, amp=0.5,
                                       seed=43, lam=lam)]
            for u, e1 in zip(mixed, en.e1_corrections(sym, mixed, law)):
                assert _rel(e1, en.e1_correction(sym, u, law)) <= 1e-12


def test_e1_corrections_rejects_mixed_scales(sym):
    fields = [rand_field(m=32, band=5, seed=44, lam=lam) for lam in (1.0, 2.0)]
    with pytest.raises(ValueError, match="one scale"):
        en.e1_corrections(sym, fields, BO)


def test_b4_finite_on_every_gamma4_tuple(sym):
    """b4 is finite on every Gamma4 tuple of a band, including the resonant
    ones and the zero frequency.  A Gamma4 pass evaluates it on one tuple
    per orbit of the law's slot group, and any tuple can be that
    representative."""
    for law in (BO, NLS):
        for band in range(1, 13):
            for lam in (1.0, 2.0):
                simplex = en.GridSimplex(4, band, lam)
                evaluated = 0
                for m1, m2, m3, m4 in simplex_chunks(simplex):
                    vals = en.b4_multiplier(
                        sym, (m1 / lam, m2 / lam, m3 / lam, m4 / lam), law)
                    assert np.all(np.isfinite(vals))
                    evaluated += vals.size
                assert evaluated == simplex.count()


# ---------------------------------------------------------------------------
# the Gamma4 orbit walk


def _gamma4_tuples(band):
    """(4, count) array of every Gamma4 tuple of ``band``."""
    chunks = [np.stack(np.broadcast_arrays(*c))
              for c in simplex_chunks(en.GridSimplex(4, band, 1.0))]
    return np.concatenate(chunks, axis=1)


def _table_symbol():
    u = rand_field(band=20, seed=12)
    return en.build_symbol(en.build_envelope(u, 0.3, 0.1), 2, 0.3, 0.1)


def test_b4_invariant_under_the_slot_group(sym):
    """The orbit walk's premise: on lattice tuples b4 is invariant under
    every slot permutation of the law's group (S4 for the real flow, the
    swaps (1 3) and (2 4) for the complex flow), for the power and the table
    symbol.  Measured per band B <= 20 against max |b4| over the tuples of
    B, since tuples with Q = 0 carry b4 of rounding size."""
    tuples = _gamma4_tuples(20)
    reach = np.max(np.abs(tuples), axis=0)
    for symbol in (sym, _table_symbol()):
        for lam in (1.0, 2.0):
            xi = tuples / lam
            for law in (BO, NLS):
                b4 = en.b4_multiplier(symbol, tuple(xi), law)
                worst = np.zeros_like(b4)
                for p in en._slot_group(law):
                    moved = en.b4_multiplier(symbol, tuple(xi[list(p)]), law)
                    worst = np.maximum(worst, np.abs(moved - b4))
                for band in range(1, 21):
                    inside = reach <= band
                    assert (np.max(worst[inside])
                            <= 1e-12 * np.max(np.abs(b4[inside])))


def test_orbit_representatives_cover_the_simplex_once():
    """Expanding each representative under the law's group gives every
    Gamma4 tuple exactly once, and the orbit sizes |G|/|stabilizer| sum to
    the simplex count."""
    for law in (BO, NLS):
        group = en._slot_group(law)
        for band in range(1, 13):
            rows = np.concatenate(list(en._orbit_chunks(band, law.odd)),
                                  axis=1)
            images = np.stack([rows[list(p)] for p in group])  # (|G|, 4, n)
            orbits = [np.unique(images[:, :, k], axis=0)
                      for k in range(rows.shape[1])]
            sizes = np.array([len(o) for o in orbits])
            assert np.array_equal(sizes * rows[4], np.full_like(sizes,
                                                                len(group)))
            assert sizes.sum() == en.GridSimplex(4, band, 1.0).count()
            expanded = np.concatenate(orbits)
            distinct = np.unique(expanded, axis=0)
            assert len(distinct) == len(expanded)
            assert np.array_equal(distinct,
                                  np.unique(_gamma4_tuples(band).T, axis=0))


def _gamma4_values(sym, law, lam):
    """E1, R4 and R6 of one field, a mixed-band e1_corrections batch, and
    the series of one cancellation check, flattened."""
    real = law.odd
    u = rand_field(band=12, real=real, seed=50, lam=lam)
    mixed = [rand_field(m=32, band=b, real=real, amp=0.5, seed=51 + b,
                        lam=lam) for b in (3, 5, 9)]
    values = [en.e1_correction(sym, u, law), en.r4_form(sym, u, law, -1),
              en.r6_form(sym, u, law)]
    values += en.e1_corrections(sym, mixed, law)
    traj = _cancellation_trajectory(law, lam=lam)
    series = en.cancellation_check(traj, sym)["series"]
    for s in series[2:]:
        values += list(s)
    return np.array(values)


def test_orbit_walk_matches_full_enumeration(sym, monkeypatch):
    """The orbit walk agrees with the per-m1 full enumeration on every
    quartic form and batch, for both laws at lam 1 and 2."""
    for lam in (1.0, 2.0):
        for law in (BO, NLS):
            for symbol in (sym, _table_symbol()):
                fast = _gamma4_values(symbol, law, lam)
                with monkeypatch.context() as m:
                    m.setattr(en, "_gamma4_sums", gamma4_sums_full)
                    full = _gamma4_values(symbol, law, lam)
                assert np.max(np.abs(fast - full) / np.abs(full)) <= 1e-12


def test_e1_correction_evaluates_b4_on_orbit_representatives(monkeypatch):
    """Cost guard: a band-85 E1 evaluates b4 on at most count/20 tuples for
    the real flow (S4 orbits) and count/3 for the complex flow."""
    tuples = []
    original = en.b4_multiplier

    def counted(sym, xi, law):
        tuples.append(np.size(xi[0]))
        return original(sym, xi, law)

    monkeypatch.setattr(en, "b4_multiplier", counted)
    sym = en.DyadicSymbol.from_exponent(0.3)
    count = en.GridSimplex(4, 85, 1.0).count()
    for law, share in ((BO, 20), (NLS, 3)):
        tuples.clear()
        u = rand_field(m=256, band=85, real=law.odd, seed=60)
        en.e1_correction(sym, u, law)
        assert 0 < sum(tuples) <= count / share


def _cancellation_trajectory(law, nsnap=9, lam=1.0):
    g = sp.TorusGeometry(lam, 32)
    u0 = sp.random_field(g, np.random.default_rng(42), band=7, real=law.odd,
                         decay=2.0) * 0.4
    prob = ev.FlowProblem(law, -1, u0)
    return ev.evolve(prob, 0.05, dt=0.05 / (nsnap - 1) / 4, n_snapshots=nsnap)


def test_cancellation_series_match_standalone_forms(sym):
    for law in (BO, NLS):
        traj = _cancellation_trajectory(law)
        band = 9
        times, e0s, e1s, r4s, r6s = en.cancellation_check(
            traj, sym, band=band)["series"]
        for i in range(len(traj)):
            u = traj.field(i)
            assert e0s[i] == en.e0_energy(sym, u, law)
            assert _rel(e1s[i], en.e1_correction(sym, u, law)) <= 1e-12
            assert _rel(r4s[i], en.r4_form(sym, u, law, -1)) <= 1e-12
            assert _rel(r6s[i], en.r6_form(sym, u, law, band=band)) <= 1e-12


def test_cancellation_evaluates_b4_once_per_chunk(sym, monkeypatch):
    """Cost guard: one cancellation check makes at most 2B + 1 b4 calls at
    its band B (one per m1 of a full enumeration), whatever the number of
    snapshots."""
    calls = []
    original = en.b4_multiplier

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(en, "b4_multiplier", counted)
    band = ev.dealias_band(sp.TorusGeometry(1.0, 32))
    for nsnap in (5, 17):
        calls.clear()
        en.cancellation_check(_cancellation_trajectory(BO, nsnap), sym)
        assert 0 < len(calls) <= 2 * band + 1


def test_boundary_bound_evaluates_b4_once_per_chunk(monkeypatch):
    """Cost guard for criterion 6: one b4 pass per truncation serves every
    draw (at most 2B + 1 calls at band B = 31, 63, 85), and one more serves
    the amplitude pair at its support band of at most 5."""
    calls = []
    original = en.b4_multiplier

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(en, "b4_multiplier", counted)
    runner.boundary_bound(count=2)
    assert 0 < len(calls) <= sum(2 * b + 1 for b in (31, 63, 85, 5))


def test_grid_simplex_d6_count():
    simplex = en.GridSimplex(6, 2, 1.0)
    rng = range(-2, 3)
    brute = sum(
        1
        for a in rng for b in rng for c in rng for d in rng for e in rng
        if abs(a + b + c + d + e) <= 2
    )
    assert simplex.count() == brute
