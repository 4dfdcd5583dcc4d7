"""Generalized energies, correction multipliers, and cancellation checks.

For a symbol a and the quadratic energy
    E0 = lam^-1 sum_xi a(xi) uhat(xi) uhat(-xi)
(conjugate pairing for the complex flow), the time derivative along the flow
is a quartic lattice form R4 on the zero-sum set Gamma4.  A quartic
correction E1 with multiplier b4 cancels R4, leaving a sextic remainder R6.

All prefactors below are the honest ones for the discrete flows of
``evolution`` (Fourier convention fhat = integral f exp(-i xi x) dx), so the
identities d/dt E0 = R4 and d/dt (E0 + sigma E1) = R6 hold along integrated
trajectories up to time-discretization error alone.  With Q = sum xi_i a(xi_i)
and Omega the resonance function of the law:

* real flow (omega odd, all slots unconjugated, data real):
    R4 = -sigma/6 * (2 pi)^-2 * lam^-3 * sum_Gamma4 i Q prod uhat
    b4 = (2 pi)^-2 / 6 * Q / Omega,   Omega = sum omega(xi_i)
    R6 = 4/3 * lam^-3 * sum_Gamma4 i b4 xi4 uhat uhat uhat what,
         what = coefficients of u^3 restricted to the flow band
* derivative Schroedinger flow (slots alternate u, conj u):
    R4 = -sigma/2 * (2 pi)^-2 * lam^-3 * sum i Q u1 v2 u3 v4,
         v(xi) = conj(uhat(-xi))
    b4 = -(2 pi)^-2 / 2 * Q / Omega,  Omega = xi1^2 - xi2^2 + xi3^2 - xi4^2
    R6 = 2 lam^-3 * sum i b4 (xi1 F(xi1) v2 u3 v4 + xi2 G(xi2) u1 u3 v4),
         F = coefficients of |u|^2 u, G(xi) = conj(F(-xi))
       = 4 lam^-3 * Re sum i b4 xi1 F(xi1) v2 u3 v4, as the second sum is
         minus the conjugate of the first (reflect xi -> -xi, then swap
         slots (1 2)(3 4): the real b4 is odd under each)

Both cubes (what, F) come from ``spectral.cubic_coeffs`` on the four-fold
padded grid, where every slot is exact.

b4 is sigma-independent (the correction enters as sigma * E1; sigma^2 = 1
drops out of R6).  Q vanishes wherever Omega vanishes on the zero-sum set,
and the quotient extends smoothly across the resonance set; the extension is
evaluated through exact divided-difference factorizations of Q and Omega, so
the quotient branch and the decomposition branch agree to rounding wherever
both are defined.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .evolution import dealias_band
from .spectral import cubic_coeffs, lp_project, max_block, sobolev_norm

TWO_PI_SQ_INV = 1.0 / (2.0 * np.pi) ** 2
RESONANCE_THETA = 1e-6   # quotient branch iff |Omega| > theta * mu^2
Q_CONFLUENT = 1e-5       # q(x, y) switches to the derivative form below this
DEN_CONFLUENT = 1e-8     # deepest-degeneracy switch in the extension branch
ORBIT_CHUNK = 4096       # Gamma4 orbit representatives per multiplier call


# ---------------------------------------------------------------------------
# frequency envelopes


@dataclass(frozen=True)
class EnvelopeSequence:
    """Summable log-Lipschitz majorant of the dyadic energy profile."""

    beta: np.ndarray
    s: float
    eps: float

    @property
    def total(self):
        return float(np.sum(self.beta))

    def __len__(self):
        return len(self.beta)


def build_envelope(u0, s, eps):
    """Envelope beta_n = max_m gamma_m 2^(-eps/2 |n-m|) from the block masses
    gamma_m = 2^(2ms) ||P_m u0||^2 / ||u0||_{H^s}^2."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    hs = sobolev_norm(u0, s)
    if hs == 0.0:
        raise ValueError("zero data has no envelope")
    kmax = max_block(u0.geometry)
    gamma = np.empty(kmax + 1)
    for m in range(kmax + 1):
        gamma[m] = 4.0 ** (m * s) * lp_project(u0, m).l2_norm() ** 2 / hs**2
    n = np.arange(kmax + 1)
    decay = 2.0 ** (-(eps / 2.0) * np.abs(n[:, None] - n[None, :]))
    beta = np.max(gamma[None, :] * decay, axis=1)
    return EnvelopeSequence(beta, s, eps)


def envelope_axioms(env, u0):
    """Measured axiom data: (max violation of the domination axiom,
    recorded sum, max log-Lipschitz excess)."""
    hs2 = sobolev_norm(u0, env.s) ** 2
    kmax = len(env) - 1
    dom = -np.inf
    for m in range(kmax + 1):
        lhs = 4.0 ** (m * env.s) * lp_project(u0, m).l2_norm() ** 2
        dom = max(dom, lhs - env.beta[m] * hs2)
    lb = np.log2(env.beta)
    n = np.arange(kmax + 1)
    lip = np.abs(lb[:, None] - lb[None, :]) - (env.eps / 2.0) * np.abs(
        n[:, None] - n[None, :]
    )
    return dom, env.total, float(np.max(lip))


# ---------------------------------------------------------------------------
# symbol class


@dataclass(frozen=True)
class DyadicSymbol:
    """Slowly varying even weight of approximate growth |xi|^(2s).

    Either an exact bracket power <xi>^(2s) or a table of dyadic block
    values joined by a C^inf monotone step in log2 <xi> (flat at the nodes,
    so the interpolant is globally smooth).
    """

    s: float
    eps: float
    table: np.ndarray = None   # log2 of block values, index = block exponent

    def __post_init__(self):
        if self.table is not None:
            t = np.asarray(self.table, dtype=float)
            if t.ndim != 1 or t.size < 2:
                raise ValueError("need at least two block values")
            if not np.all(np.isfinite(t)):
                raise ValueError(
                    "block value table must be finite (no zero entries)")
            object.__setattr__(self, "table", t)

    @classmethod
    def from_exponent(cls, s, eps=0.05):
        return cls(s=s, eps=eps)

    def _loglog(self, xi):
        """A(t), A'(t) at t = log2 <xi>, by smoothed linear interpolation."""
        from .bumps import smoothstep, smoothstep_prime

        tab = self.table
        kmax = tab.size - 1
        t = 0.5 * np.log2(1.0 + np.asarray(xi, dtype=float) ** 2)
        end_slope = tab[-1] - tab[-2]
        cell = np.clip(np.floor(t).astype(int), 0, kmax - 1)
        frac = t - cell
        inside = t < kmax
        sstep = smoothstep(np.where(inside, frac, 0.0))
        sprime = smoothstep_prime(np.where(inside, frac, 0.0))
        dtab = tab[np.minimum(cell + 1, kmax)] - tab[cell]
        a_in = tab[cell] + dtab * sstep
        ap_in = dtab * sprime
        a_out = tab[-1] + end_slope * (t - kmax)
        val = np.where(inside, a_in, a_out)
        der = np.where(inside, ap_in, end_slope)
        return val, der, t

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        if self.table is None:
            return (1.0 + xi**2) ** self.s
        val, _, _ = self._loglog(xi)
        return 2.0**val

    def deriv(self, xi):
        xi = np.asarray(xi, dtype=float)
        if self.table is None:
            return 2.0 * self.s * xi * (1.0 + xi**2) ** (self.s - 1.0)
        val, der, _ = self._loglog(xi)
        return 2.0**val * der * xi / (1.0 + xi**2)

    def g(self, xi):
        """g(xi) = xi * a(xi), the odd function driving the multiplier."""
        xi = np.asarray(xi, dtype=float)
        return xi * self(xi)

    def g_prime(self, xi):
        return self(xi) + np.asarray(xi, dtype=float) * self.deriv(xi)

    def g_double_prime(self, xi):
        xi = np.asarray(xi, dtype=float)
        h = 1e-4 * np.sqrt(1.0 + xi**2)
        return (self.g_prime(xi + h) - self.g_prime(xi - h)) / (2.0 * h)


def build_symbol(envelope, k0, s, eps):
    """Block table 2^(2ks) * max(1, beta_k0^-1 2^(-eps |k - k0|)), smoothed."""
    kmax = len(envelope) - 1
    if not 0 <= k0 <= kmax:
        raise ValueError("k0 outside the block range")
    if np.any(envelope.beta <= 0.0):
        raise ValueError("envelope has a zero entry")
    k = np.arange(kmax + 1)
    bump = np.maximum(1.0, 2.0 ** (-eps * np.abs(k - k0)) / envelope.beta[k0])
    log2_vals = 2.0 * s * k + np.log2(bump)
    return DyadicSymbol(s=s, eps=eps, table=log2_vals)


# ---------------------------------------------------------------------------
# correction multiplier


def _divided_difference(f, fprime, x, y, tol):
    """(f(x) - f(y)) / (x - y), and f'((x + y)/2) where the nodes are
    confluent, |x - y| <= tol * max(|x|, |y|, 1)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scale = np.maximum(np.maximum(np.abs(x), np.abs(y)), 1.0)
    direct = np.abs(x - y) > tol * scale
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=float)
    xs, ys = np.broadcast_arrays(x, y)
    d = direct
    out[d] = (f(xs[d]) - f(ys[d])) / (xs[d] - ys[d])
    c = ~direct
    if np.any(c):
        out[c] = fprime(0.5 * (xs[c] + ys[c]))
    return out


def q_smooth(sym, x, y):
    """q(x, y) = (x a(x) + y a(y)) / (x + y): the divided difference of the
    odd g(x) = x a(x) at nodes x, -y; confluent limit g'((x - y)/2)."""
    return _divided_difference(sym.g, sym.g_prime, x,
                               -np.asarray(y, dtype=float), Q_CONFLUENT)


def _omega_dd(law, x, y):
    """Divided difference (omega(x) - omega(y)) / (x - y), confluent limit
    omega'((x + y)/2) = -2 |(x + y)/2|; requires an odd dispersion relation."""
    return _divided_difference(law.omega, lambda mid: -2.0 * np.abs(mid), x, y,
                               DEN_CONFLUENT)


def resonance_function(law, xi1, xi2, xi3, xi4):
    """Omega on the zero-sum set: sum of omegas for the odd law, the
    slot-signed quadratic form for the Schroedinger law."""
    if law.odd:
        return law.omega(xi1) + law.omega(xi2) + law.omega(xi3) + law.omega(xi4)
    return xi1**2 - xi2**2 + xi3**2 - xi4**2


def _ratio_extension_odd(sym, law, z1, z2, z3, z4):
    """Q/Omega through exact factorizations for an odd law: with s = z1 + z2,
    Q = s [q(z1,z2) - q(z3,z4)] and Omega = s [dd(z1,-z2) - dd(z3,-z4)]."""
    num = q_smooth(sym, z1, z2) - q_smooth(sym, z3, z4)
    den = _omega_dd(law, z1, -z2) - _omega_dd(law, z3, -z4)
    scale = np.maximum.reduce([np.abs(z1), np.abs(z2), np.abs(z3), np.abs(z4)])
    scale = np.maximum(scale, 1.0)
    deep = np.abs(den) <= DEN_CONFLUENT * scale
    out = np.empty_like(num)
    ok = ~deep
    out[ok] = num[ok] / den[ok]
    if np.any(deep):
        mu = 0.5 * (np.abs(z1) + np.abs(z3))
        out[deep] = -0.5 * sym.g_double_prime(mu[deep])
    return out


def _ratio_extension_schroedinger(sym, z1, z2, z3, z4):
    """Q/Omega for the slot-signed quadratic law: Omega = -2 s12 s23 with
    s12 = z1 + z2, s23 = z2 + z3; divide by the larger factor, with
    Q = s12 [q(z1,z2) - q(z3,z4)] = s23 [q(z2,z3) - q(z1,z4)]."""
    s12 = z1 + z2
    s23 = z2 + z3
    scale = np.maximum.reduce([np.abs(z1), np.abs(z2), np.abs(z3), np.abs(z4)])
    scale = np.maximum(scale, 1.0)
    by12 = np.abs(s23) < np.abs(s12)
    den = np.where(by12, s12, s23)
    a, b, c = (np.where(by12, x, y) for x, y in ((z2, z1), (z3, z2), (z1, z3)))
    out = np.empty_like(s12)
    ok = np.abs(den) > DEN_CONFLUENT * scale
    if np.any(ok):
        out[ok] = -(q_smooth(sym, a[ok], b[ok]) - q_smooth(sym, c[ok], z4[ok])
                    ) / (2.0 * den[ok])
    deep = ~ok
    if np.any(deep):
        mu = 0.25 * (np.abs(z1) + np.abs(z2) + np.abs(z3) + np.abs(z4))
        out[deep] = 0.5 * sym.g_double_prime(mu[deep])
    return out


def _best_pairing(xi1, xi2, xi3, xi4):
    """Relabel each tuple so the near-cancelling pair sits in slots (1, 2)."""
    s12 = np.abs(xi1 + xi2)
    s13 = np.abs(xi1 + xi3)
    s14 = np.abs(xi1 + xi4)
    choice = np.argmin(np.stack([s12, s13, s14]), axis=0)
    z1 = xi1
    z2 = np.choose(choice, [xi2, xi3, xi4])
    z3 = np.choose(choice, [xi3, xi2, xi2])
    z4 = np.choose(choice, [xi4, xi4, xi3])
    return z1, z2, z3, z4


def _extension(sym, law, xi):
    """Smooth extension of Q/Omega across the resonance set for either law."""
    if law.odd:
        return _ratio_extension_odd(sym, law, *_best_pairing(*xi))
    return _ratio_extension_schroedinger(sym, *xi)


def _q_sum(sym, xi):
    """Q = g(xi1) + g(xi2) + g(xi3) + g(xi4), summed left to right."""
    return sym.g(xi[0]) + sym.g(xi[1]) + sym.g(xi[2]) + sym.g(xi[3])


def _b4_prefactor(law):
    """The law's normalization of b4 = prefactor * Q / Omega."""
    return TWO_PI_SQ_INV / 6.0 if law.odd else -TWO_PI_SQ_INV / 2.0


def b4_multiplier(sym, xi, law):
    """Correction multiplier on the zero-sum set (+1-sign normalization).

    ``xi`` is a tuple of four equal-shape arrays summing to zero.  Where
    |Omega| > RESONANCE_THETA * mu^2 the defining quotient is returned,
    elsewhere the smooth extension through the divided-difference
    decompositions; both branches agree to rounding in the overlap.
    """
    xi1, xi2, xi3, xi4 = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in xi))
    mu = np.maximum.reduce([np.abs(xi1), np.abs(xi2), np.abs(xi3), np.abs(xi4)])
    if np.any(np.abs(xi1 + xi2 + xi3 + xi4) > 1e-9 * np.maximum(mu, 1.0)):
        raise ValueError("tuple is not on the zero-sum set")
    omega = resonance_function(law, xi1, xi2, xi3, xi4)
    quot = np.abs(omega) > RESONANCE_THETA * np.maximum(mu, 1.0) ** 2
    ratio = np.empty(xi1.shape, dtype=float)
    if np.any(quot):
        ratio[quot] = _q_sum(sym, (xi1, xi2, xi3, xi4))[quot] / omega[quot]
    near = ~quot
    if np.any(near):
        ratio[near] = _extension(sym, law,
                                 [x[near] for x in (xi1, xi2, xi3, xi4)])
    if not np.all(np.isfinite(ratio)):
        raise AssertionError("uncovered tuple in the multiplier dispatch")
    return _b4_prefactor(law) * ratio


def b4_branch_values(sym, xi, law):
    """(quotient value, extension value) for cross-checking both formulas;
    the quotient entry is nan on the exact resonance set."""
    xi1, xi2, xi3, xi4 = (np.asarray(x, dtype=float) for x in xi)
    omega = resonance_function(law, xi1, xi2, xi3, xi4)
    qq = _q_sum(sym, (xi1, xi2, xi3, xi4))
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = np.where(omega != 0.0, qq / omega, np.nan)
    pref = _b4_prefactor(law)
    return pref * quot, pref * _extension(sym, law, (xi1, xi2, xi3, xi4))


# ---------------------------------------------------------------------------
# lattice simplex enumeration


@dataclass(frozen=True)
class GridSimplex:
    """Zero-sum lattice tuples xi_1 + ... + xi_d = 0 with |m_i| <= band,
    carrying the measure normalization lam^-(d-1)."""

    dimension: int
    band: int
    lam: float

    def __post_init__(self):
        if self.dimension not in (2, 4, 6):
            raise ValueError("dimension must be 2, 4 or 6")

    @property
    def weight(self):
        return self.lam ** (-(self.dimension - 1))

    def count(self):
        """Number of zero-sum tuples, by convolution power counting."""
        width = 2 * self.band + 1
        ind = np.ones(width)
        conv = ind.copy()
        for _ in range(self.dimension - 1):
            conv = np.convolve(conv, ind)
        mid = len(conv) // 2
        return int(round(conv[mid]))


def _coeff_lookup(u, band):
    """Coefficient table c[m + band] for |m| <= band (zero beyond support)."""
    g = u.geometry
    mv = g.mvals
    tab = np.zeros(2 * band + 1, dtype=complex)
    sel = np.abs(mv) <= band
    tab[mv[sel] + band] = u.coeffs[sel]
    return tab


def _support_band(u):
    nz = np.abs(u.coeffs) > 0.0
    if not np.any(nz):
        return 1
    return int(np.max(np.abs(u.geometry.mvals[nz])))


def _check_energy_data(u, law):
    if law.odd and not u.real:
        raise ValueError("the real flow's energies require real data")


def e0_energy(sym, u, law):
    """Quadratic generalized energy lam^-1 sum a(xi) uhat(xi) uhat(-xi)
    (equivalently a-weighted |uhat|^2 in both slot conventions)."""
    _check_energy_data(u, law)
    a = sym(u.geometry.xi)
    return float(np.sum(a * np.abs(u.coeffs) ** 2) / u.lam)


def _slot_group(law):
    """Slot permutations p that leave the law's b4 and Q unchanged on
    Gamma4, b4(xi_p(1), ..., xi_p(4)) = b4(xi_1, ..., xi_4): all of S4 for
    the real flow, and {e, (1 3), (2 4), (1 3)(2 4)} for the complex flow,
    whose Omega = xi1^2 - xi2^2 + xi3^2 - xi4^2."""
    if law.odd:
        return list(itertools.permutations(range(4)))
    return [(0, 1, 2, 3), (2, 1, 0, 3), (0, 3, 2, 1), (2, 3, 0, 1)]


def _orbit_chunks(band, odd):
    """Yield (5, n) arrays, n <= ORBIT_CHUNK: orbit representatives
    (m1, m2, m3, m4) of the Gamma4 tuples of ``band`` under the law's slot
    group, and their stabilizer orders.  The representatives are the sorted
    tuples m1 <= m2 <= m3 <= m4 for the real flow and the tuples with
    m1 <= m3, m2 <= m4 for the complex flow; each pair (m1, m2) leaves one
    run lo <= m3 <= hi of them."""
    m2 = np.arange(-band, band + 1)
    m1 = m2[:, None]      # pairs broadcast over the (m1, m2) grid
    if odd:
        lo = np.maximum(m2, -(m1 + m2) - band)         # m3 >= m2, m4 <= band
        hi = np.where(m1 <= m2, -(m1 + m2) // 2, lo - 1)   # m4 >= m3
    else:
        lo = np.maximum(m1, -(m1 + m2) - band)         # m3 >= m1, m4 <= band
        hi = np.minimum(np.minimum(band, -m1 - 2 * m2),    # m4 >= m2
                        band - m1 - m2)                    # m4 >= -band
    keep = hi >= lo
    lo = lo[keep]
    runs = hi[keep] - lo + 1
    m1, m2 = (k - band for k in np.nonzero(keep))
    del hi, keep  # no full grid is held while the chunks are consumed
    ends = np.cumsum(runs)
    start = 0
    while start < ends.size:
        base = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, base + ORBIT_CHUNK, "right")),
                   start + 1)
        n = runs[start:stop]
        first = ends[start:stop] - n - base   # offset of each run in the chunk
        yield _orbit_rows(m1[start:stop], m2[start:stop],
                          lo[start:stop] - first, n, odd)
        start = stop


def _orbit_rows(m1, m2, m3, n, odd):
    """One chunk of ``_orbit_chunks``; its temporaries die on return."""
    r1, r2 = np.repeat(m1, n), np.repeat(m2, n)
    r3 = np.repeat(m3, n) + np.arange(n.sum())
    r4 = -(r1 + r2 + r3)
    if odd:
        # the sorted tuple's stabilizer is the product of its runs'
        # factorials: each entry contributes its position within its run
        run2 = 1 + (r1 == r2)
        run3 = 1 + (r2 == r3) * run2
        stab = run2 * run3 * (1 + (r3 == r4) * run3)
    else:
        stab = (1 + (r1 == r3)) * (1 + (r2 == r4))
    return np.stack([r1, r2, r3, r4, stab])


def _gamma4_sums(kind, sym, law, band, lam, batch):
    """For each entry of ``batch``, lam^-3 sum over the Gamma4 tuples of
    ``band`` of mult * sum_t weight_t * prod_i slots_t[i](m_i).

    mult is b4 for kind "b4" and Q = g(xi1) + ... + g(xi4) for kind "q".
    Both are invariant under the law's slot group G (``_slot_group``), so
    the pass walks one representative r per G-orbit of the tuples and
    evaluates mult once there, weighted by 1/|stabilizer of r|, against the
    sum over p in G of prod_j slots_t[p(j)](r_j), which adds up the slot
    products of every tuple of the orbit.  Permutations that give the same
    slot arrays (by identity) are merged, so a product of four identical
    real-flow tables is formed once.  The representatives come in chunks of
    at most ORBIT_CHUNK, each contracted against every entry before the
    next.  Each entry is a list of (weight, four coefficient tables), each
    table over |m| <= its own band <= band and zero beyond.
    """
    group = _slot_group(law)
    tables = {id(t): t for terms in batch for _, slots in terms for t in slots}
    padded = {k: np.pad(t, band - t.size // 2) for k, t in tables.items()}
    products = []
    for terms in batch:
        merged = {}
        for w, slots in terms:
            for p in group:
                key = tuple(id(slots[j]) for j in p)
                merged[key] = merged.get(key, 0.0) + w
        products.append([(w, [padded[k] for k in key])
                         for key, w in merged.items()])
    totals = [0.0 + 0.0j] * len(batch)
    for rows in _orbit_chunks(band, law.odd):
        idx = rows[:4] + band
        xi = tuple(rows[:4] / lam)
        if kind == "b4":
            mult = b4_multiplier(sym, xi, law)
        else:
            mult = _q_sum(sym, xi)
        mult = mult / rows[4]
        for i, terms in enumerate(products):
            c = sum(w * s[0][idx[0]] * s[1][idx[1]] * s[2][idx[2]]
                    * s[3][idx[3]] for w, s in terms)
            totals[i] += np.sum(mult * c)
    return [GridSimplex(4, band, lam).weight * total for total in totals]


def _quartic_terms(u, law):
    """(band, terms) of the quartic slot product of u over its support band:
    uhat in every slot for the real flow, uhat and conj(uhat(-xi))
    alternating for the complex flow."""
    _check_energy_data(u, law)
    band = max(_support_band(u), 1)
    tab = _coeff_lookup(u, band)
    bar = tab if law.odd else np.conj(tab[::-1])
    return band, [(1.0, [tab, bar, tab, bar])]


def e1_corrections(sym, fields, law):
    """``e1_correction`` of every field of one scale lam, from one b4 pass
    (one evaluation per slot-group orbit of Gamma4, see ``_gamma4_sums``)
    over the widest of their support bands.  Fields sharing a band get the
    values of single calls exactly; a field summed over a wider band than
    its own agrees to rounding."""
    lams = {u.lam for u in fields}
    if len(lams) != 1:
        raise ValueError(f"a batch needs fields on one scale, got lam {lams}")
    bands, batch = zip(*(_quartic_terms(u, law) for u in fields))
    sums = _gamma4_sums("b4", sym, law, max(bands), lams.pop(), batch)
    return [float(total.real) for total in sums]


def e1_correction(sym, u, law):
    """Quartic correction energy with the +1-normalized multiplier; the
    corrected quantity along the sign-sigma flow is E0 + sigma * E1.  b4 is
    evaluated once per orbit of the law's slot group on Gamma4 (about 1/23
    of the tuples for the real flow and 1/4 for the complex flow), one chunk
    of orbit representatives at a time, and never held for the whole
    band."""
    return e1_corrections(sym, [u], law)[0]


def _r4_value(total, law, sigma):
    pref = -sigma * TWO_PI_SQ_INV / (6.0 if law.odd else 2.0)
    return float((pref * (1j * total)).real)


def r4_form(sym, u, law, sigma):
    """Symmetrized quartic form: the exact value of d/dt E0 along the flow."""
    band, terms = _quartic_terms(u, law)
    return _r4_value(_gamma4_sums("q", sym, law, band, u.lam, [terms])[0],
                     law, sigma)


def e0_time_derivative(sym, u, law, sigma):
    """Direct pairing d/dt E0 = 2 Re <a uhat, Nhat> under the lattice
    measure, with the flow's pseudospectral nonlinearity (independent
    evaluation path from the symmetrized form) over its full cubic range.
    The pairing localizes to the support of uhat, so no truncation of the
    nonlinearity to a band containing that support would change it.
    """
    _check_energy_data(u, law)
    g = u.geometry
    mv = g.mvals
    npad = 4 * g.grid_size
    cube = cubic_coeffs(u.coeffs, mv % npad, npad, g.period, not law.odd)
    nhat = np.zeros(g.grid_size, dtype=complex)
    sel = np.abs(mv) <= 3 * _support_band(u)  # < 3M/2: exact on the 4M grid
    xi = g.xi
    factor = sigma * (1j * xi) / (3.0 if law.odd else 1.0)
    nhat[sel] = factor[sel] * cube[mv[sel] % npad]
    a = sym(xi)
    return float(2.0 * np.sum(a * (np.conj(u.coeffs) * nhat).real) / g.lam)


def _r6_terms(u, law, band):
    """(lattice band, terms) of r6_form for the flow truncated to ``band``:
    the lattice is the support band, widened to the cube modes that flow
    keeps."""
    _check_energy_data(u, law)
    g = u.geometry
    npad = 4 * g.grid_size
    cube = cubic_coeffs(u.coeffs, g.mvals % npad, npad, g.period, not law.odd)
    support = _support_band(u)
    top = min(band, 3 * support)  # cube modes the flow keeps
    w_band = max(support, 1, top)
    wtab = np.zeros(2 * w_band + 1, dtype=complex)
    m = np.arange(-top, top + 1)
    wtab[m + w_band] = cube[m % npad]
    utab = _coeff_lookup(u, w_band)
    xi = np.arange(-w_band, w_band + 1) / u.lam
    if law.odd:
        return w_band, [(4.0 / 3.0, [utab, utab, utab, xi * wtab])]
    bar = np.conj(utab[::-1])
    return w_band, [(4.0, [xi * wtab, bar, utab, bar])]


def r6_form(sym, u, law, band=None):
    """Sextic remainder: the exact value of d/dt (E0 + sigma E1) along the
    flow whose nonlinearity is truncated to ``band`` (default: the
    integrator's dealiased band).  Computed by contracting three slots
    through the exact cubic convolution: weight * i * b4 * xi_s times the
    slot product, with the cube and its frequency xi_s in slot s.  The
    complex flow's second term is minus the conjugate of the first (reflect
    xi -> -xi, then swap slots (1 2)(3 4): the real b4 is odd under each),
    so one term of weight 4 carries both.  R6 and b4 do not depend on sigma
    (sigma^2 = 1), so neither does this form."""
    if band is None:
        band = dealias_band(u.geometry)
    lattice, terms = _r6_terms(u, law, band)
    total = _gamma4_sums("b4", sym, law, lattice, u.lam, [terms])[0]
    return float((1j * total).real)


def r6_enumerated(sym, u, law, band=None):
    """Brute-force six-fold zero-sum enumeration of the remainder (oracle
    path, independent of the contracted evaluation; small grids only).  Like
    R6 and b4, it does not depend on sigma.

    One pass over every (m1, ..., m5) of the support band, m6 = -(m1 + ...
    + m5) kept inside it.  Real flow: (4/3) i b4(x1, x2, x3, x456) x456 prod
    uhat.  Complex flow, alternating conjugation: 2 i b4(x123, x4, x5, x6)
    x123 and 2 i b4(x1, x234, x5, x6) x234 times the slot product.  Each
    contracted frequency is kept where it lies inside ``band``.
    """
    _check_energy_data(u, law)
    g = u.geometry
    if band is None:
        band = dealias_band(g)
    b = max(_support_band(u), 1)
    lam = g.lam
    utab = _coeff_lookup(u, b)
    slot = [utab] * 6 if law.odd else [utab, np.conj(utab[::-1])] * 3
    rng = np.arange(-b, b + 1)
    ms = [a.ravel() for a in np.meshgrid(*[rng] * 5, indexing="ij")]
    ms.append(-np.sum(ms, axis=0))
    keep = np.abs(ms[5]) <= b
    ms = [a[keep] for a in ms]
    c = slot[0][ms[0] + b]
    for tab, m in zip(slot[1:], ms[1:]):
        c = c * tab[m + b]
    terms = [(4.0 / 3.0, 3)] if law.odd else [(2.0, 0), (2.0, 1)]
    total = 0.0 + 0.0j
    for weight, s in terms:
        mc = ms[s] + ms[s + 1] + ms[s + 2]
        ok = np.abs(mc) <= band
        x = [m[ok] / lam for m in ms[:s] + [mc] + ms[s + 3:]]
        b4v = b4_multiplier(sym, x, law)
        total += np.sum(weight * 1j * b4v * x[s] * c[ok])
    return float((lam ** (-5) * TWO_PI_SQ_INV * total).real)


# ---------------------------------------------------------------------------
# cancellation along trajectories


def _fd_derivative(series, dt):
    """Fourth-order central difference of a uniformly sampled series of at
    least five points; returns (interior indices, derivative values)."""
    f = np.asarray(series, dtype=float)
    idx = np.arange(2, f.size - 2)
    d = (-f[idx + 2] + 8.0 * f[idx + 1] - 8.0 * f[idx - 1] + f[idx - 2]) / (
        12.0 * dt
    )
    return idx, d


def cancellation_check(traj, sym, band=None):
    """Compare fourth-order finite-difference d/dt of E0 and of
    E0 + sigma E1 against the algebraic forms R4 and R6 along one trajectory
    of at least five uniform snapshot times; R6 is taken for the flow
    truncated to ``band`` (default: the dealiased band).

    One b4 pass gives every snapshot's E1 and R6 and one Q pass every R4,
    both over the widest R6 lattice band of the snapshots (at least every
    support band).  A pass evaluates its multiplier once per orbit of the
    law's slot group on Gamma4 and contracts it against every form of every
    snapshot (``_gamma4_sums``).

    Returns a dict with the two max absolute discrepancies and the scales
    (max |R4|, max |R6|) for relative reporting, the series (t, E0, E1, R4,
    R6) and the derivatives (dE0/dt, d(E0 + sigma E1)/dt), nan at the
    snapshots outside the stencil's interior.
    """
    law = traj.problem.law
    sigma = traj.problem.sigma
    n = len(traj)
    if n < 5:
        raise ValueError("need at least five snapshots")
    dts = np.diff(traj.times)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
        raise ValueError("snapshot times must be uniform")
    dt = float(dts[0])
    fields = [traj.field(i) for i in range(n)]
    lam = fields[0].lam
    if band is None:
        band = dealias_band(fields[0].geometry)
    quartic = [_quartic_terms(u, law)[1] for u in fields]
    sextic = [_r6_terms(u, law, band) for u in fields]
    lattice = max(w_band for w_band, _ in sextic)
    b4 = _gamma4_sums("b4", sym, law, lattice, lam,
                      quartic + [terms for _, terms in sextic])
    q = _gamma4_sums("q", sym, law, lattice, lam, quartic)
    e0s = np.array([e0_energy(sym, u, law) for u in fields])
    e1s = np.array([float(total.real) for total in b4[:n]])
    r4s = np.array([_r4_value(total, law, sigma) for total in q])
    r6s = np.array([float((1j * total).real) for total in b4[n:]])
    idx, d0 = _fd_derivative(e0s, dt)
    _, dc = _fd_derivative(e0s + sigma * e1s, dt)
    derivs = np.full((2, n), np.nan)
    derivs[:, idx] = d0, dc
    res4 = np.abs(d0 - r4s[idx])
    res6 = np.abs(dc - r6s[idx])
    # residual at the interior time closest to the window midpoint: a fixed
    # evaluation point gives clean convergence orders under refinement
    tmid = 0.5 * (traj.times[0] + traj.times[-1])
    imid = int(np.argmin(np.abs(traj.times[idx] - tmid)))
    return {
        "residual_r4": float(np.max(res4)),
        "residual_r6": float(np.max(res6)),
        "residual_r4_mid": float(res4[imid]),
        "residual_r6_mid": float(res6[imid]),
        "scale_r4": float(np.max(np.abs(r4s))),
        "scale_r6": float(np.max(np.abs(r6s))),
        "series": (traj.times, e0s, e1s, r4s, r6s),
        "derivatives": tuple(derivs),
    }
