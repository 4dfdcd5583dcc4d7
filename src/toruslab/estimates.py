"""Ensemble measurements of the shorttime linear, bilinear and trilinear
estimates, with exponent fitting over dyadic sweeps.

Every measurement returns an EstimateReport holding per-configuration max and
mean left/right ratios, the least-squares slope of log2(max ratio) against
the sweep coordinate, and the fit's two checks (EstimateReport.checks): the
slope against its prediction and the fit residual against its cap.
Reports are pure functions of (seed, configuration): samples are drawn from
per-index generators, so enlarging an ensemble extends it.  Each member
evaluation returns an (lhs, rhs) pair, and _ensemble_ratios alone divides:
it skips a member exactly when its rhs is zero or its ratio is not finite
and positive.  The four dispersive families share one loop, _family_report,
which counts each skip once, as trilinear_ratio does.

A block-data family reads each member onto block n's lattice once
(_block_members).  Its time grid takes sixteen points per 2 pi of the
intra-block phase spread, and its spatial grid of nx = next_pow2(4 mmax + 8)
points, one per block with mmax the top mode of block n's lattice (on which
every member is nonzero), has at least 4x headroom over the data band; for
block data at dyadic lam, nx = 8 (mmax + 1).
No family forms the whole space-time grid of the two.  The bilinear,
maximal and local smoothing families build block n's lattice and its phase
table exp(i t omega_m) once and share them among the block's members.  The
bands of |u|^2 and uv lie below nx/2, so their spatial values and sums are
exact finite sums over the coefficient lattice (discrete Parseval).
Smoothing contracts each member's coefficient pairs with a per-block Gram
table of the time quadrature and synthesizes one nx-point row; bilinear
and maximal stream blocks of time rows of at most CHUNK_BYTES, bilinear
summing the squared product coefficients at each time, maximal keeping the
running sup over t of |u(t, x)|.  The L4 family sums exactly on grids of
its own (see l4_modulation_ratio).

The trilinear nonlinearity norm uses the fact that a product of windowed
free solutions is a finite sum of modulated copies of one smooth profile:
its modulation spectrum is the interaction spikes convolved with the window
profile transform of each of thirteen fixed window centers.  The classes
(INTERACTION_CLASSES, each with criterion 9's recipe) are measured on the
unit torus (lam = 1).  Each output mode's spikes are transformed over their
occupied stretches of the tau grid only, at a 5-smooth length shared by all
rows: a gap between spikes wider than the window kernel is collapsed to the
kernel width, which leaves the convolution unchanged (the conjugated
three-highs-to-low rows span almost the whole grid, in two clusters).  The
binning, the collapsed layout, the kernel spectra and the annulus weights on
the covered bins do not depend on the profiles and are tabulated when a
TrilinearConfig is built; a tuned candidate displaces every spike and the
tau grid alike, so it only re-weighs the annuli.  The factor F-norms factor
into the lattice L2 of the profile times a window constant per block; a
TrilinearConfig evaluates the unmodulated constants when it is built and a
modulated one when asked, and no state is shared between configurations.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import bumps
from .evolution import BENJAMIN_ONO, SCHROEDINGER, free_rows
from .spacetime import CHUNK_BYTES
from .spectral import (SpectralField, TorusGeometry, block_indicator,
                       lebesgue_norm, random_field, synthesize)


def sample_rng(seed, index):
    return np.random.default_rng([int(seed), int(index)])


def fit_exponent(points):
    """Ordinary least squares through (x, log2 y)-style pairs.

    Returns (slope, intercept, rms residual); rejects fewer than 3 points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 3 or pts.shape[1] != 2:
        raise ValueError("need at least three (x, y) points")
    x, y = pts[:, 0], pts[:, 1]
    a = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    return float(coef[0]), float(coef[1]), float(np.sqrt(np.mean(resid**2)))


@dataclass(frozen=True)
class RatioPoint:
    sweep: float
    lam: float
    max_ratio: float
    mean_ratio: float


@dataclass(frozen=True)
class EstimateReport:
    """One fitted sweep.  Its checks ``(name, value, bound)``, each passing
    iff value is finite and at most bound, are the slope check and the
    residual check: the slope value is |slope - predicted_slope|, or
    slope - predicted_slope for a one-sided fit, which fails only on growth
    past the window."""

    estimate_id: str
    points: tuple
    predicted_slope: float
    slope_tol: float
    residual_cap: float
    slope: float
    intercept: float
    residual: float
    skipped: int = 0
    one_sided: bool = False

    def checks(self, name):
        gap = self.slope - self.predicted_slope
        return [(f"{name}_slope", gap if self.one_sided else abs(gap),
                 self.slope_tol),
                (f"{name}_residual", self.residual, self.residual_cap)]


def make_report(estimate_id, points, predicted_slope, slope_tol, skipped=0):
    slope, intercept, residual = fit_exponent(
        [(p.sweep, np.log2(p.max_ratio)) for p in points]
    )
    return EstimateReport(
        estimate_id=estimate_id,
        points=tuple(points),
        predicted_slope=predicted_slope,
        slope_tol=slope_tol,
        residual_cap=0.5,
        slope=slope,
        intercept=intercept,
        residual=residual,
        skipped=skipped,
    )


def _block_geometry(n, lam):
    """Power-of-two grid (at least 16) with 4x headroom over block n."""
    m = bumps.next_pow2(int(8 * 2 ** (n + 1) * lam))
    return TorusGeometry(lam, max(m, 16))


def _block_lattice(k, lam):
    """Sorted lattice modes m with m / lam in block k."""
    mmax = int(np.ceil(2.0 ** (k + 1) * lam)) - 1
    m = np.arange(-mmax, mmax + 1)
    keep = block_indicator(m / lam, k)
    return m[keep]


def block_sample(seed, i, n, lam):
    """Member i of the deterministic unit-L2 Gaussian family on block n."""
    return random_field(_block_geometry(n, lam), sample_rng(seed, i), block=n)


def flat_block_data(n, lam=1.0):
    """Unit-L2 data with constant coefficients on the block: the coherent
    (Dirichlet-kernel) candidate that saturates sup-type constants which
    Gaussian bulk samples systematically underestimate."""
    g = _block_geometry(n, lam)
    u = SpectralField(g, np.where(block_indicator(g.xi, n), 1.0 + 0.0j, 0.0))
    return u * (1.0 / u.l2_norm())


def _block_members(seed, count, n, lam, coherent):
    """Block n's lattice modes and, for members 0..count-1 of the Gaussian
    family on block n and then (if ``coherent``) the flat candidate, each
    member's (coefficients on that lattice, L2 norm)."""
    modes = _block_lattice(n, lam)

    def read(u):
        return u.coeffs[modes % u.geometry.grid_size], u.l2_norm()

    members = [read(block_sample(seed, i, n, lam)) for i in range(count)]
    if coherent:
        members.append(read(flat_block_data(n, lam)))
    return modes, members


# ---------------------------------------------------------------------------
# free-solution grids


def free_solution_grid(u0, law, times, nx):
    """Physical samples of exp(i t omega) u0 on an nx-point spatial grid:
    the whole space-time grid, which no family forms.  The tests use it as
    the grid oracle of the lattice and streamed routes."""
    g = u0.geometry
    nz = np.abs(u0.coeffs) > 0.0
    mv = g.mvals[nz]
    if nx <= 2 * int(np.max(np.abs(mv), initial=0)):
        raise ValueError("spatial grid too coarse for the data bandwidth")
    rows = free_rows(u0.coeffs[nz], mv / g.lam, times, law)
    return synthesize(rows, mv % nx, nx, g.period)


def _product_rows(amodes, arows, bmodes, brows):
    """Lattice coefficients of the product of two fields given by their rows
    on sorted modes, one row per time, on the modes amodes[0] + bmodes[0]
    through amodes[-1] + bmodes[-1]: a sum of shifted copies of the rows of
    the first factor, which has more modes, one per mode of the other.  Each
    run of consecutive modes of the first factor is shifted as one slice,
    formed in a buffer one run wide."""
    out = np.zeros((arows.shape[0], amodes[-1] - amodes[0] + bmodes[-1]
                    - bmodes[0] + 1), dtype=complex)
    edges = np.r_[0, np.flatnonzero(np.diff(amodes) > 1) + 1, amodes.size]
    term = np.empty((arows.shape[0], np.diff(edges).max()), arows.dtype)
    for lo, hi in zip(edges[:-1], edges[1:]):
        first = amodes[lo] - amodes[0] - bmodes[0]
        for m, col in zip(bmodes, brows.T):
            np.multiply(arows[:, lo:hi], col[:, None], out=term[:, :hi - lo])
            out[:, first + m:first + m + hi - lo] += term[:, :hi - lo]
    return out


def _time_grid(n):
    """Grid over [0, 2^-n]: at least 65 points, and sixteen per 2 pi of
    block n's intra-block phase spread 3 * 4^n (Schroedinger scale)."""
    delta = 2.0**-n
    spread = 3.0 * 4.0 ** (n + 1)
    nt = max(65, int(4 * spread * delta / (2.0 * np.pi)) + 2)
    return np.linspace(0.0, delta, nt)


def _ensemble_ratios(pairs):
    """Max and mean of lhs / rhs over the (lhs, rhs) pairs of an ensemble,
    and the number of members kept: a member is skipped when its rhs is zero
    or its ratio is not finite and positive."""
    lhs, rhs = np.array(pairs, dtype=float).reshape(-1, 2).T
    live = rhs != 0.0
    vals = lhs[live] / rhs[live]
    vals = vals[np.isfinite(vals) & (vals > 0.0)]
    if vals.size == 0:
        return np.nan, np.nan, 0
    return float(np.max(vals)), float(np.mean(vals)), int(vals.size)


def _family_report(name, sweep, lam, block, slope_tol):
    """The loop of every dispersive family: ``block(x)`` returns the
    (lhs, rhs) pair of each member at sweep value x.  The report counts each
    member that _ensemble_ratios skips once."""
    points = []
    skipped = 0
    for x in sweep:
        pairs = block(x)
        mx, mean, kept = _ensemble_ratios(pairs)
        skipped += len(pairs) - kept
        points.append(RatioPoint(float(x), lam, mx, mean))
    return make_report(name, points, 0.0, slope_tol, skipped=skipped)


# ---------------------------------------------------------------------------
# linear estimates


def l4_modulation_ratio(j_values, seed=0, count=32, law=SCHROEDINGER,
                        slope_tol=0.1, include_coherent=True):
    """L4 space-time bound for fields on block 3 with modulation support
    below 2^j: ratio ||u||_L4 / (2^(3j/8) ||u||_L2) over one 2 pi period in
    t and x, for Gaussian modulation profiles plus (by default) a
    curvature-matched box sample of frequency width 2^(j/2), which realizes
    the 3j/8 growth.

    u has integer frequencies, omega(m) + r in t and m in x, and an N-point
    sum of exp(i k t) over a period vanishes for 0 < |k| < N.  So the sums of
    |u|^2 and |u|^4 are exact on fast_len(D + 1) points per axis, D the top
    frequency of |u|^4 there: 2 W in t, W = max omega - min omega + 2^(j+1)
    the width of the tau support, and 4 max|m| = 60 in x.
    """
    modes = _block_lattice(3, 1.0)
    om = law.omega(modes)
    nx = bumps.fast_len(4 * int(np.max(np.abs(modes))) + 1)

    def pairs_at(j):
        shape = (modes.size, 2 ** (j + 1) + 1)
        members = []
        for i in range(count):
            rng = sample_rng(seed, 97 * j + i)
            members.append(rng.standard_normal(shape)
                           + 1j * rng.standard_normal(shape))
        if include_coherent:  # ones on the lowest positive modes, tau >= omega
            box = np.zeros(shape, dtype=complex)
            width = max(1, int(round(2.0 ** (j / 2.0))))
            box[np.flatnonzero(modes > 0)[:width], 2**j:] = 1.0
            members.append(box)
        nt = bumps.fast_len(2 * (int(np.ptp(om)) + 2 ** (j + 1)) + 1)
        t = 2.0 * np.pi * np.arange(nt) / nt
        profile = np.exp(1j * np.outer(t, np.arange(-2**j, 2**j + 1)))
        phases = free_rows(1.0, modes, t, law)
        cell = (2.0 * np.pi) ** 2 / (nt * nx)

        def pair(c):
            vals = synthesize((profile @ c.T) * phases, modes % nx, nx,
                              2.0 * np.pi)
            power = vals.real**2 + vals.imag**2
            l4 = (cell * np.sum(power**2)) ** 0.25
            return l4, 2.0 ** (3.0 * j / 8.0) * np.sqrt(cell * np.sum(power))

        return [pair(c) for c in members]

    return _family_report("l4_modulation", j_values, 1.0, pairs_at,
                          slope_tol)


def bilinear_ratio(n_values, k, lam=1.0, seed=0, count=32, law=SCHROEDINGER,
                   slope_tol=0.15, include_coherent=True):
    """Bilinear shorttime bound: ||e^{itd_xx}u0 e^{itd_xx}v0||_{L2 L2} over
    [0, 2^-n] against 2^(-n/2) ||u0|| ||v0||, for u0 on block n and v0 on
    block k with n - k >= 4; predicted slope -1/2.

    No space-time grid is formed: at each time the squared L2_x norm of the
    product is the lattice sum of its squared coefficients over period^3
    (discrete Parseval: the band of uv lies below nx/2 on any grid of at
    least 4x headroom, so its quadrature gives the same value).  The product
    coefficients are shifted rows of u0's, which has at least 8x the modes
    of v0 as n - k >= 4, one shift per mode of v0; they are formed in blocks
    of time rows of at most CHUNK_BYTES, and only each row's sum is kept.
    """
    if any(n - k < 4 for n in n_values):
        raise ValueError("blocks must satisfy n - k >= 4")
    period = 2.0 * np.pi * lam

    def pairs_at(n):
        times = _time_grid(n)
        umodes, us = _block_members(seed, count, n, lam, include_coherent)
        vmodes, vs = _block_members(seed + 104729, count, k, lam,
                                    include_coherent)
        uphase = free_rows(1.0, umodes / lam, times, law)
        vphase = free_rows(1.0, vmodes / lam, times, law)
        width = umodes[-1] - umodes[0] + vmodes[-1] - vmodes[0] + 1
        per = max(1, CHUNK_BYTES // (16 * width))

        def pair(u, v):
            (uc, ul2), (vc, vl2) = u, v
            l2sq = np.empty(times.size)  # sum_p |(uv)^_p|^2 at each time
            for lo in range(0, times.size, per):
                rows = slice(lo, lo + per)
                parts = _product_rows(umodes, uc * uphase[rows], vmodes,
                                      vc * vphase[rows]).view(float)
                l2sq[rows] = np.einsum("tp,tp->t", parts, parts)
            return (np.sqrt(np.trapezoid(l2sq, times) / period**3),
                    2.0 ** (-n / 2.0) * ul2 * vl2)

        return [pair(u, v) for u, v in zip(us, vs)]

    # after dividing by 2^(-n/2) the predicted residual slope is zero
    return _family_report("bilinear", n_values, lam, pairs_at, slope_tol)


def maximal_ratio(n_values, lam=1.0, seed=0, count=32, law=SCHROEDINGER,
                  slope_tol=0.15, include_coherent=True):
    """Maximal function bound ||u||_{L4_x Linf_t([0, 2^-n])} against
    N^(1/4) ||u0||; predicted residual slope 0 after normalization (the raw
    ratio then grows at the predicted quarter power).

    The phase table of block n is built once and shared by its members.
    Each member's free solution is synthesized on block n's nx-point grid in
    blocks of time rows of at most CHUNK_BYTES, and only the running sup
    over t of |u(t, x)| is kept; no whole space-time grid is formed.
    """
    period = 2.0 * np.pi * lam

    def pairs_at(n):
        modes, members = _block_members(seed, count, n, lam, include_coherent)
        phases = free_rows(1.0, modes / lam, _time_grid(n), law)
        nx = bumps.next_pow2(4 * int(modes[-1]) + 8)
        slots = modes % nx
        per = max(1, CHUNK_BYTES // (16 * nx))

        def pair(c, l2):
            rows = c * phases
            sup = np.zeros(nx)
            for lo in range(0, rows.shape[0], per):
                vals = synthesize(rows[lo:lo + per], slots, nx, period)
                np.maximum(sup, np.max(np.abs(vals), axis=0), out=sup)
            return float(lebesgue_norm(sup, lam, 4)), 2.0 ** (n / 4.0) * l2

        return [pair(c, l2) for c, l2 in members]

    return _family_report("maximal", n_values, lam, pairs_at, slope_tol)


def smoothing_ratio(n_values, lam=1.0, seed=0, count=32, law=SCHROEDINGER,
                    slope_tol=0.1, log_normalized=False, include_coherent=True):
    """Local smoothing bound ||u||_{Linf_x L2_t([0, 2^-n])}.

    With log_normalized=False the ratio is taken against the sharp scale
    N^(-1/2) ||u0|| and the predicted slope is 0 (two-sided).  With
    log_normalized=True the proof-side weight log2(N) N^(-1/2) is used; no
    tested data saturates that logarithm, so those ratios decay slowly and
    only the no-growth direction is meaningful: the report is one-sided.

    No space-time grid is formed: with trapezoid weights w_t and the phase
    table P[t, m] = exp(i t omega_m), H = P^T diag(w) conj(P) is built once
    per block, and each member's T(x) = sum_t w_t |u(t, x)|^2, which is
    sum_{m, m'} c_m conj(c_m') H[m, m'] exp(i (m - m') x / lam) / period^2,
    is one bincount over m - m' mod nx and one inverse transform on block
    n's nx grid points; exact, as the band of |u|^2 lies below nx/2.
    """
    period = 2.0 * np.pi * lam

    def pairs_at(n):
        times = _time_grid(n)
        norm = 2.0 ** (-n / 2.0)
        if log_normalized:
            norm *= max(float(n), 1.0)
        modes, members = _block_members(seed, count, n, lam, include_coherent)
        phases = free_rows(1.0, modes / lam, times, law)
        half = 0.5 * np.diff(times)  # trapezoid weights w_t
        weights = np.r_[half, 0.0] + np.r_[0.0, half]
        gram = (phases.T * weights) @ np.conj(phases)
        nx = bumps.next_pow2(4 * int(modes[-1]) + 8)
        slot = (modes[:, None] - modes[None, :]).ravel() % nx

        def pair(c, l2):
            prod = (c[:, None] * gram * np.conj(c)).ravel()
            band = (np.bincount(slot, prod.real, nx)
                    + 1j * np.bincount(slot, prod.imag, nx))
            energy = np.fft.ifft(band).real * (nx / period**2)  # T(x)
            return float(np.sqrt(np.max(energy))), norm * l2

        return [pair(c, l2) for c, l2 in members]

    name = "smoothing_log" if log_normalized else "smoothing"
    return replace(_family_report(name, n_values, lam, pairs_at, slope_tol),
                   one_sided=log_normalized)


def smoothing_grid_operator_norm(n):
    """Exact l2 x l2 norm of the triangular interaction form
    T(a, b) = sum_{k > l} a_k b_l / (k - l) on indices {N+1, ..., 2N}:
    the top singular value of the Toeplitz matrix 1/(i - j), i > j."""
    if n < 2:
        raise ValueError("N must be at least 2")
    i = np.arange(n)
    diff = i[:, None] - i[None, :]
    with np.errstate(divide="ignore"):
        mat = np.where(diff > 0, 1.0 / np.where(diff > 0, diff, 1), 0.0)
    return float(np.linalg.svd(mat, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# trilinear interaction classes


# name -> one frequency-interaction class of the trilinear estimate: its
# block condition on (k1, k2, k3, k4), that condition's statement, its
# factor alpha(k), and criterion 9's recipe: the sweep along which the class
# constant is uniform, whether the resonance-tuned probe is a candidate, and
# the slope window (center, tolerance).  Exact factors (2^(k1/2), 2^(k4/2),
# 1) get 0 +- 0.2; factors with epsilon-slack ("2^(0k)+", absorbing
# logarithms) get the two-sided -0.2 +- 0.4, slopes in [-0.6, 0.2], shifted
# toward decay.
INTERACTION_CLASSES = {
    "high_low_low_to_high": dict(
        holds=lambda k1, k2, k3, k4: (k1 <= k2 <= k3 - 3 and abs(k3 - k4) <= 1
                                      and max(k1, k2, k3, k4) >= 5),
        needs="k1 <= k2 <= k3 - 3, |k3 - k4| <= 1, max k >= 5",
        alpha=lambda k1, k2, k3, k4: 2.0 ** (k1 / 2.0),
        sweep=[(k1, 4, 7, 7) for k1 in (0, 1, 2, 3)],
        tuned=False, window=(0.0, 0.2)),
    "high_high_low_to_high": dict(
        holds=lambda k1, k2, k3, k4: (abs(k2 - k3) <= 1 and k1 <= k3 - 3
                                      and abs(k3 - k4) <= 1
                                      and max(k1, k2, k3, k4) >= 5),
        needs="|k2 - k3| <= 1, k1 <= k3 - 3, |k3 - k4| <= 1, max k >= 5",
        alpha=lambda k1, k2, k3, k4: 1.0,
        sweep=[(k - 4, k, k, k + 1) for k in (4, 5, 6)],
        tuned=False, window=(-0.2, 0.4)),
    "high_high_high_to_high": dict(
        holds=lambda *ks: max(ks) - min(ks) <= 1 and max(ks) >= 5,
        needs="all blocks within 1, max k >= 5",
        alpha=lambda k1, k2, k3, k4: 2.0 ** (k4 / 2.0),
        sweep=[(k, k, k, k) for k in (5, 6, 7)],
        tuned=False, window=(0.0, 0.2)),
    "high_high_low_to_low": dict(
        holds=lambda k1, k2, k3, k4: (abs(k1 - k2) <= 1 and k3 <= k1 - 3
                                      and k4 <= k1 - 3
                                      and max(k1, k2, k3, k4) >= 5),
        needs="|k1 - k2| <= 1, k3 <= k1 - 3, k4 <= k1 - 3, max k >= 5",
        alpha=lambda k1, k2, k3, k4: 1.0,
        sweep=[(k, k, 2, 2) for k in (5, 6, 7)],
        tuned=False, window=(-0.2, 0.4)),
    "high_high_high_to_low": dict(
        holds=lambda k1, k2, k3, k4: (abs(k1 - k3) <= 1 and abs(k2 - k3) <= 1
                                      and k4 <= k1 - 3
                                      and max(k1, k2, k3, k4) >= 5),
        needs="|k1 - k3| <= 1, |k2 - k3| <= 1, k4 <= k1 - 3, max k >= 5",
        alpha=lambda k1, k2, k3, k4: 1.0,
        sweep=[(k, k, k, k - 4) for k in (5, 6, 7)],
        tuned=True, window=(-0.2, 0.4)),
    "low_low_low_to_low": dict(
        holds=lambda *ks: max(ks) <= 5,
        needs="max k <= 5",
        alpha=lambda k1, k2, k3, k4: 1.0,
        sweep=[(1, 1, k, k) for k in (3, 4, 5)],
        tuned=False, window=(0.0, 0.2)),
}


TRILINEAR_TAU_BINS = 8  # spike-grid delta-tau = 2^k4 / this


class TrilinearConfig:
    """Precomputed interaction spikes for one block tuple.

    Factors are free solutions on the unit torus shaped by a common temporal
    bump at the output window scale; the middle factor is conjugated for the
    Schroedinger (derivative NLS) nonlinearity.  The output functional is the
    windowed resolvent norm of P_k4 d_x (u1 u2 u3), the sup over 13 window
    centers across the envelope.  The outermost center is 2.6 2^-k4, the
    window half-width and the envelope support 1.6 2^-k4, so every window
    overlaps the envelope.
    """

    def __init__(self, cls_name, ks, law=BENJAMIN_ONO, conjugate_middle=False):
        cls = INTERACTION_CLASSES[cls_name]
        if not cls["holds"](*ks):
            raise ValueError(
                f"blocks {ks} violate class {cls_name}: needs {cls['needs']}")
        self.alpha = cls["alpha"](*ks)
        self.ks = tuple(ks)
        self.law = law
        k1, k2, k3, k4 = ks
        self.lattices = [_block_lattice(k, 1.0) for k in (k1, k2, k3)]
        self.out_lattice = _block_lattice(k4, 1.0)
        self.env_scale = 2.0**-k4
        half = bumps.OUTER * self.env_scale
        self.centers = np.linspace(-half - 2.0**-k4, half + 2.0**-k4, 13)
        # choose the two smallest factor lattices as free enumeration axes
        sizes = [len(l) for l in self.lattices]
        order = np.argsort(sizes)
        self.free_a, self.free_b = int(order[0]), int(order[1])
        self.dep = int(order[2])
        self.slot_sign = [1, -1 if conjugate_middle else 1, 1]
        self._build_spikes()
        self._build_layout()
        # unmodulated window constants, one evaluation per distinct block
        unit = {k: self.factor_window_constant(self.ks.index(k))
                for k in set(self.ks[:3])}
        self.unit_window_constants = [unit[k] for k in self.ks[:3]]

    def _build_spikes(self):
        """Every interaction spike, concatenated output row by output row:
        its modulation offset and each slot's lattice position, plus each
        row's first spike and output mode, the spike-grid scale and the
        modulation range and mode.

        The two free lattices are enumerated; the dependent slot's index
        follows from the output index m4.  A slot of sign +1 contributes its
        own index m and phase +omega(m); a conjugated slot contributes -m and
        -omega(m).
        """
        law, k4 = self.law, self.ks[3]
        a, b, d = self.free_a, self.free_b, self.dep
        sa, sb, sd = self.slot_sign[a], self.slot_sign[b], self.slot_sign[d]
        ldep = self.lattices[d]
        dep_min, dep_max = ldep.min(), ldep.max()
        dep_ok = np.zeros(dep_max - dep_min + 1, dtype=bool)
        dep_ok[ldep - dep_min] = True
        ma, mb = np.meshgrid(self.lattices[a], self.lattices[b], indexing="ij")
        ma = ma.ravel()
        mb = mb.ravel()
        live, picks = [], []
        for m4 in self.out_lattice:
            md = sd * (m4 - sa * ma - sb * mb)
            ok = (md >= dep_min) & (md <= dep_max)
            ok[ok] &= dep_ok[md[ok] - dep_min]
            if np.any(ok):
                live.append(m4)
                picks.append(np.flatnonzero(ok))
        if not live:
            raise ValueError("empty interaction set for this block tuple")
        sizes = [p.size for p in picks]
        self.row_starts = np.cumsum([0] + sizes[:-1])
        self.row_modes = np.array(live)
        pick = np.concatenate(picks)
        m4 = np.repeat(live, sizes)
        m = {a: ma[pick], b: mb[pick]}
        m[d] = sd * (m4 - sa * m[a] - sb * m[b])
        self.spike_om = (sa * law.omega(m[a]) + sb * law.omega(m[b])
                         + sd * law.omega(m[d]) - law.omega(m4))
        # positions at the narrowest integer type (uint8 for k <= 7), each
        # slot cast and its modes dropped in turn, to bound peak memory
        self.spike_pos = [
            np.searchsorted(latt, m.pop(s)).astype(
                np.min_scalar_type(latt.size - 1))
            for s, latt in enumerate(self.lattices)]
        self.dtau = 2.0**k4 / TRILINEAR_TAU_BINS
        omin, omax = float(np.min(self.spike_om)), float(np.max(self.spike_om))
        self.omega_range = (omin, omax)
        # histogram resolution tied to the output window scale, so the tuned
        # candidate recenters the populated cluster to within one window width
        span = max(omax - omin, 2.0**k4)
        nbins = int(min(max(np.ceil(span / 2.0**k4), 16), 65536))
        hist, edges = np.histogram(self.spike_om, bins=nbins)
        imax = int(np.argmax(hist))
        self.omega_mode = float(0.5 * (edges[imax] + edges[imax + 1]))
        self.reach = 120.0 * 2.0**k4

    def _build_layout(self):
        """Profile-independent part of lhs_norm at the config's window
        centers.  Spikes displaced by a shift keep all of it but the annulus
        weights (see lhs_norm).

        Spikes sit on the bins of tau0 + dtau * arange(ngrid).  A window
        profile is a kernel of 2 nk + 1 bins, so a spike on bin b reaches
        bins b - nk..b + nk.  Each row's occupied bins split into clusters
        wherever two consecutive ones lie more than 2 nk bins apart; such
        gaps are collapsed to exactly 2 nk + 1 bins in the row's transform,
        so the outputs of different clusters stay disjoint and the linear
        convolution is unchanged.  A cluster on bins F..L with collapsed
        offset ``off`` (bin = position + off) convolves to bins
        F - nk..L + nk, clipped to the grid.  Every row and center shares
        one 5-smooth transform length n above the widest collapsed row.
        Stored: tau0 and ngrid; ``scatter``, the flat (row, collapsed
        position) of each spike; ``spans``, per cluster its row, first and
        end weights column and the transform bin of its first column;
        ``covered``, the grid bin of each weights column; ``kernel_spectra``
        (centers, n); and the undisplaced ``weights`` (annuli, covered bins).
        """
        self.tau0 = self.omega_range[0] - self.reach
        tau_hi = self.omega_range[1] + self.reach
        self.ngrid = ngrid = int(np.ceil((tau_hi - self.tau0) / self.dtau)) + 1
        bins = np.rint((self.spike_om - self.tau0) / self.dtau).astype(int)
        # every center's kernel has the same 2 nk + 1 bins (dt dtau = 1/512),
        # and it is centered on bin nk of its zero-padded row
        kernels = np.stack([self.window_profile(c) for c in self.centers])
        nk = (kernels.shape[1] - 1) // 2
        # the occupied bins of every row, row after row, on one flat mask;
        # a row's bins differ from their mask indices by one constant
        lo = np.minimum.reduceat(bins, self.row_starts)
        width = np.maximum.reduceat(bins, self.row_starts) - lo + 1
        base = np.cumsum(width) - width  # mask index of each row's bin lo
        flat = bins  # in place: the mask index of each spike
        sizes = np.diff(np.r_[self.row_starts, bins.size])
        flat += np.repeat(base - lo, sizes)
        occupied = np.zeros(int(np.sum(width)), dtype=bool)
        occupied[flat] = True
        occ = np.flatnonzero(occupied)
        # a cluster starts at each row's bin lo and after each wide gap
        first = np.r_[True, np.diff(occ) > 2 * nk]
        first[np.searchsorted(occ, base)] = True
        start, end = occ[first], occ[np.r_[first[1:], True]]
        crow = np.searchsorted(base, start, side="right") - 1
        # collapsed start of each cluster: 2 nk + 1 bins past the end of the
        # previous cluster of its row, 0 for a row's first cluster
        extent = end - start + 2 * nk + 1
        before = np.cumsum(extent) - extent
        cstart = before - before[np.searchsorted(start, base)][crow]
        cfirst = start - base[crow] + lo[crow]
        clast = cfirst + end - start
        offset = cfirst - cstart  # bin = collapsed position + offset
        n = bumps.fast_len(int(np.max(cstart + end - start + 1)) + 2 * nk + 1)
        # flat (row, collapsed position) of each mask index: one shift per
        # cluster, from its first mask index to the next cluster's
        place = np.repeat(crow * n + cstart - start,
                          np.diff(np.r_[start, occupied.size]))
        place += np.arange(occupied.size)
        self.scatter = place[flat]
        self.kernel_spectra = np.fft.fft(kernels, n, axis=1)
        dst_lo = np.maximum(cfirst - nk, 0)
        dst_hi = np.minimum(clast + nk + 1, ngrid)
        cover = np.cumsum(np.bincount(dst_lo, minlength=ngrid + 1)
                          - np.bincount(dst_hi, minlength=ngrid + 1))[:-1] > 0
        self.covered = np.flatnonzero(cover)
        column = (np.cumsum(cover) - 1)[dst_lo]  # first column of each span
        self.spans = list(zip(crow.tolist(), column.tolist(),
                              (column + dst_hi - dst_lo).tolist(),
                              (dst_lo + nk - offset).tolist()))
        self.weights = self._annulus_weights(0.0)

    def _annulus_weights(self, shift):
        """eta_j(tau)^2 dtau / (tau^2 + 4^k4) on the covered bins of the
        tau grid displaced by ``shift``: the annulus weights fold the tau-bin
        measure and the resolvent into the partition."""
        tau0 = self.tau0 + shift
        taus = tau0 + self.dtau * self.covered
        tau_max = max(abs(tau0), abs(tau0 + self.dtau * (self.ngrid - 1)))
        weights = bumps.eta_stack(taus, bumps.max_resolved_j(tau_max))
        weights *= weights
        weights *= self.dtau / (taus**2 + 4.0**self.ks[3])
        return weights

    def envelope(self, t):
        return bumps.eta0(t / self.env_scale)

    def window_profile(self, center):
        """Transform of envelope^3 * eta0(2^k4 (t - center)) on multiples of
        dtau across the whole band of its padded FFT: 2 nk + 1 bins centered
        on zero, nk = ceil(pi / (dt dtau)) = ceil(512 pi) = 1609 at every
        center and k4."""
        k4 = self.ks[3]
        half = bumps.OUTER * 2.0**-k4
        dt = 2.0**-k4 / 64.0
        t = np.arange(center - half, center + half + dt / 2, dt)
        s = self.envelope(t) ** 3 * bumps.eta0(2.0**k4 * (t - center))
        npad = bumps.next_pow2(int(2.0 * np.pi / (self.dtau * dt)) + t.size)
        ft = np.fft.fft(s, npad) * dt
        taus = 2.0 * np.pi * np.fft.fftfreq(npad, dt)
        ft = ft * np.exp(-1j * taus * t[0])
        order = np.argsort(taus)
        taus, ft = taus[order], ft[order]
        # resample onto multiples of dtau centered at zero
        nk = int(np.ceil(max(abs(taus[0]), abs(taus[-1])) / self.dtau))
        kgrid = self.dtau * np.arange(-nk, nk + 1)
        kr = np.interp(kgrid, taus, ft.real)
        ki = np.interp(kgrid, taus, ft.imag)
        return kr + 1j * ki

    def _unit_l2(self, c):
        return c / np.sqrt(np.sum(np.abs(c) ** 2) / (2.0 * np.pi))

    def profiles(self, rng):
        """Unit-L2 Gaussian coefficient tables, one per factor lattice."""
        return [self._unit_l2(rng.standard_normal(latt.size)
                              + 1j * rng.standard_normal(latt.size))
                for latt in self.lattices]

    def coherent_profiles(self):
        """Flat-modulus factor triple: the coherent candidate saturating the
        interaction constants that Gaussian samples underestimate."""
        return [self._unit_l2(np.ones(latt.size, dtype=complex))
                for latt in self.lattices]

    def lhs_norm(self, profiles, shift=0.0):
        """Windowed resolvent norm of P_k4 d_x of the factor product.

        ``shift`` displaces every interaction spike: the dependent slot
        carries an extra phase exp(i theta t), theta = slot_sign[dep] shift
        (see rhs_factor_norms).  That moves every spike and the tau grid
        alike, so the layout built with the config serves every call, and a
        displacement only re-weighs the annuli.  The spike amplitudes are
        scattered into one row per output mode, its clusters laid out with
        their gaps collapsed, each row scaled by i m4 / (2 pi)^2, and
        transformed once; each of the config's window centers then costs one
        batched inverse transform against its kernel spectrum, whose power is
        added, span by span, into the covered tau bins and weighed by the
        annuli in one matrix product.
        """
        weights = (self.weights if shift == 0.0
                   else self._annulus_weights(shift))
        amp = 1.0
        for s in (self.free_a, self.free_b, self.dep):
            val = profiles[s][self.spike_pos[s]]
            amp = amp * (np.conj(val) if self.slot_sign[s] == -1 else val)
        spikes = np.zeros((self.row_starts.size, self.kernel_spectra.shape[1]),
                          dtype=complex)
        np.add.at(spikes.reshape(-1), self.scatter, amp)
        spikes *= (1j / (2.0 * np.pi) ** 2 * self.row_modes)[:, None]
        if not np.any(spikes):
            return 0.0
        spec = np.fft.fft(spikes, axis=1)
        jscale = 2.0 ** (np.arange(weights.shape[0]) * 0.5)
        nut, rowpower, imag2 = spikes, np.empty(spec.shape), np.empty(spec.shape)
        best = 0.0
        for kspec in self.kernel_spectra:  # buffers reused across centers
            np.fft.ifft(np.multiply(spec, kspec, out=nut), axis=1, out=nut)
            np.square(nut.real, out=rowpower)
            rowpower += np.square(nut.imag, out=imag2)
            power = np.zeros(self.covered.size)
            for row, lo, hi, src in self.spans:
                power[lo:hi] += rowpower[row, src:src + hi - lo]
            blocks = weights @ power
            total = np.sum(jscale * np.sqrt(np.maximum(blocks, 0.0)))
            best = max(best, float(total))
        return best

    def rhs_factor_norms(self, profiles, shift=0.0):
        """F-norms of the separable factors: coefficient-lattice L2 times a
        per-block scalar window constant (see factor_window_constant).  A
        nonzero ``shift`` modulates the dependent slot alone, at theta =
        slot_sign[dep] shift, so that its slot-signed theta is the shift."""
        consts = list(self.unit_window_constants)
        if shift != 0.0:
            consts[self.dep] = self.factor_window_constant(
                self.dep, self.slot_sign[self.dep] * shift)
        return [np.sqrt(np.sum(np.abs(phi) ** 2)) * const
                for phi, const in zip(profiles, consts)]

    def factor_window_constant(self, s, theta=0.0):
        """Shorttime norm of a single unit mode of block ks[s] under this
        envelope, with an optional extra modulation exp(i theta t).

        The factors are free solutions times a common envelope (and slot
        modulation), so their windowed norm factorizes as the lattice L2 of
        the profile times this scalar.  The demodulated content of such a
        mode is the envelope spectrum displaced to theta, so the partition
        weights are evaluated at shifted positions on the windows' own
        spectral grid, which need not resolve theta (at theta = 0 this is
        the generic windowed norm, as the tests check).  Every window is
        sampled at the same lags t - c from its center, so the windows are
        built in one broadcast and transformed in batches of at most
        CHUNK_BYTES of real spectra, and each annulus weighs their power by
        eta_j(sig + theta)^2 over its own support.
        """
        k = self.ks[s]
        half_env = bumps.OUTER * self.env_scale
        half_win = bumps.OUTER * 2.0**-k
        dt = min(2.0**-k, self.env_scale) / 32.0
        step = 2.0**-k / 4.0
        ncent = int(np.ceil(2.0 * (half_env + 2.0**-k) / step)) + 1
        centers = -half_env - 2.0**-k + step * np.arange(ncent)
        lags = np.arange(-half_win, half_win + dt / 2, dt)
        windows = (self.envelope(centers[:, None] + lags)
                   * bumps.eta0(2.0**k * lags))
        npad = bumps.next_pow2(
            max(4 * lags.size, int(2.0 * np.pi * 32.0 / (2.0**k * dt)))
        )
        sig = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(npad, dt))
        dsig = 2.0 * np.pi / (npad * dt)
        jmax = bumps.max_resolved_j(float(np.max(np.abs(sig))) + abs(theta))
        # eta_j vanishes outside INNER 2^(j-1) <= |tau| <= OUTER 2^j (eta_0
        # outside |tau| <= OUTER), so each annulus is weighed only over the
        # two runs of the ascending grid sig + theta inside it
        tau = sig + theta
        pieces = []
        for j in range(jmax + 1):
            hi = bumps.OUTER * 2.0**j
            lo = bumps.INNER * 2.0 ** (j - 1) if j else 0.0
            for a, b in ((-hi, -lo), (lo, hi)):
                i0, i1 = np.searchsorted(tau, [a, b])
                w = bumps.eta0(tau[i0:i1] / 2.0**j)
                if j:
                    w -= bumps.eta0(tau[i0:i1] / 2.0 ** (j - 1))
                pieces.append((j, i0, i1, w * w))
        per = max(1, CHUNK_BYTES // (8 * npad))
        blocks = np.zeros((ncent, jmax + 1))
        for first in range(0, ncent, per):
            spec = np.fft.rfft(windows[first:first + per], npad, axis=1) * dt
            p = dsig * np.abs(spec) ** 2
            # real windows: the power is even, so mirror the one-sided
            # spectrum onto the ascending grid -npad/2 .. npad/2 - 1
            power = np.concatenate([p[:, :0:-1], p[:, :-1]], axis=1)
            for j, i0, i1, w in pieces:
                blocks[first:first + per, j] += power[:, i0:i1] @ w
        jscale = 2.0 ** (0.5 * np.arange(jmax + 1))
        return float(np.max(np.sqrt(blocks) @ jscale))


def trilinear_ratio(cls_name, ks, law=BENJAMIN_ONO,
                    conjugate_middle=False, seed=0, count=12,
                    include_coherent=True, include_tuned=False):
    """Ensemble ratio ||P_k4 d_x(u1 u2 u3)||_window-resolvent divided by
    alpha(k) * prod F-norms, for one block tuple.

    Candidates: Gaussian triples, optionally the coherent flat triple, and
    optionally a resonance-tuned triple (the dependent slot modulated so the
    most populated interaction spikes recenter at zero modulation).  The tuned
    probe is part of the fixed measurement recipe of classes whose
    interactions are never near-resonant for free data.
    """
    cfg = TrilinearConfig(cls_name, ks, law=law,
                          conjugate_middle=conjugate_middle)
    triples = [(cfg.profiles(sample_rng(seed, i)), 0.0) for i in range(count)]
    flat = cfg.coherent_profiles()
    if include_coherent:
        triples.append((flat, 0.0))
    if include_tuned:
        triples.append((flat, -cfg.omega_mode))

    mx, mean, kept = _ensemble_ratios(
        [(cfg.lhs_norm(profiles, shift),
          cfg.alpha * np.prod(cfg.rhs_factor_norms(profiles, shift)))
         for profiles, shift in triples])
    return RatioPoint(float(ks[0]), 1.0, mx, mean), len(triples) - kept


def trilinear_sweep(cls_name, sweeps, law=BENJAMIN_ONO,
                    conjugate_middle=False, seed=0, count=12,
                    include_tuned=False):
    """Report over a list of block tuples, swept along the first entry that
    varies across the tuples, in the class's window (INTERACTION_CLASSES)."""
    points, skipped = [], 0
    arr = np.asarray(sweeps)
    varying = [j for j in range(4) if len(set(arr[:, j])) > 1]
    sweep_coord = varying[0] if varying else 0
    for ks in sweeps:
        pt, sk = trilinear_ratio(cls_name, tuple(ks), law=law,
                                 conjugate_middle=conjugate_middle, seed=seed,
                                 count=count, include_tuned=include_tuned)
        points.append(replace(pt, sweep=float(ks[sweep_coord])))
        skipped += sk
    tag = "dnls" if conjugate_middle else "real"
    center, tol = INTERACTION_CLASSES[cls_name]["window"]
    return make_report(f"trilinear_{cls_name}_{tag}", points, center, tol,
                       skipped=skipped)
