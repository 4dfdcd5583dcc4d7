"""Ensemble measurements of the shorttime linear, bilinear and trilinear
estimates, with exponent fitting over dyadic sweeps.

Every measurement returns an EstimateReport holding per-configuration max and
mean left/right ratios, the least-squares slope of log2(max ratio) against
the sweep coordinate, and a verdict comparing the slope to its prediction.
Reports are pure functions of (seed, configuration): samples are drawn from
per-index generators, so enlarging an ensemble extends it and parallel or
serial evaluation orders agree bit for bit.

Free solutions are evaluated on exactly sufficient space-time grids: the
spatial grid resolves the highest product bandwidth (quadratures of |u|^p are
then exact up to rounding), the time grid oversamples the intra-block phase
spread.  The trilinear nonlinearity norm uses the fact that a product of
windowed free solutions is a finite sum of modulated copies of one smooth
profile: its modulation spectrum is assembled by binning interaction spikes
once per sample and convolving them with the window profile transform of
each window center.  The factor F-norms factor into the lattice L2 of the
profile times a window constant per block; a TrilinearConfig evaluates the
unmodulated constants when it is built and a modulated one when asked, and
no state is shared between configurations.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import bumps
from .evolution import BENJAMIN_ONO, SCHROEDINGER
from .spacetime import CHUNK_BYTES
from .spectral import SpectralField, TorusGeometry, block_indicator, random_field


def worker_count():
    """Thread override for embarrassingly parallel loops (reduction order is
    fixed by sample index either way)."""
    try:
        return max(1, int(os.environ.get("TORUSLAB_THREADS", "1")))
    except ValueError:
        return 1


def parallel_map(fn, items):
    """Map over ensemble items, threaded when TORUSLAB_THREADS > 1; results
    are returned in input order so reductions agree bit for bit with the
    serial run."""
    n = worker_count()
    items = list(items)
    if n <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


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
    estimate_id: str
    points: tuple
    predicted_slope: float
    slope_tol: float
    residual_cap: float
    slope: float
    intercept: float
    residual: float
    skipped: int = 0

    @property
    def verdict(self):
        return bool(
            abs(self.slope - self.predicted_slope) <= self.slope_tol
            and self.residual <= self.residual_cap
        )


def make_report(estimate_id, points, predicted_slope, slope_tol,
                residual_cap=0.5, skipped=0):
    slope, intercept, residual = fit_exponent(
        [(p.sweep, np.log2(p.max_ratio)) for p in points]
    )
    return EstimateReport(
        estimate_id=estimate_id,
        points=tuple(points),
        predicted_slope=predicted_slope,
        slope_tol=slope_tol,
        residual_cap=residual_cap,
        slope=slope,
        intercept=intercept,
        residual=residual,
        skipped=skipped,
    )


@dataclass(frozen=True)
class Ensemble:
    """Deterministic family of unit-L2 Gaussian block data."""

    seed: int
    count: int
    block: int
    lam: float = 1.0
    grid_size: int = 0  # 0: smallest power of two with 4x block headroom
    real: bool = False

    def geometry(self):
        m = self.grid_size
        if m == 0:
            m = bumps.next_pow2(int(8 * 2 ** (self.block + 1) * self.lam))
            m = max(m, 16)
        return TorusGeometry(self.lam, m)

    def sample(self, i):
        rng = sample_rng(self.seed, i)
        return random_field(
            self.geometry(), rng, block=self.block, real=self.real, unit_l2=True
        )


def flat_block_data(n, lam=1.0, positive_only=False):
    """Unit-L2 data with constant coefficients on the block: the coherent
    (Dirichlet-kernel) candidate that saturates sup-type constants which
    Gaussian bulk samples systematically underestimate."""
    g = Ensemble(seed=0, count=1, block=n, lam=lam).geometry()
    mask = block_indicator(g.xi, n)
    if positive_only:
        mask &= g.mvals > 0
    u = SpectralField(g, np.where(mask, 1.0 + 0.0j, 0.0))
    return u * (1.0 / u.l2_norm())


# ---------------------------------------------------------------------------
# free-solution grids


def _coeff_rows(u0, law, times):
    """(n_times, n_active) coefficients of the free solution, plus mvals."""
    g = u0.geometry
    nz = np.abs(u0.coeffs) > 0.0
    mv = g.mvals[nz]
    c = u0.coeffs[nz]
    om = law.omega(mv / g.lam)
    return c[None, :] * np.exp(1j * np.outer(times, om)), mv


def free_solution_grid(u0, law, times, nx):
    """Physical samples of exp(i t omega) u0 on an nx-point spatial grid."""
    g = u0.geometry
    rows, mv = _coeff_rows(u0, law, times)
    if nx <= 2 * int(np.max(np.abs(mv), initial=0)):
        raise ValueError("spatial grid too coarse for the data bandwidth")
    a = np.zeros((len(times), nx), dtype=complex)
    a[:, mv % nx] = rows
    return np.fft.ifft(a, axis=1) * nx / g.period


def _lp_x(vals, lam, p):
    nx = vals.shape[-1]
    dx = 2.0 * np.pi * lam / nx
    if p == np.inf:
        return np.max(np.abs(vals), axis=-1)
    return (dx * np.sum(np.abs(vals) ** p, axis=-1)) ** (1.0 / p)


def _lq_t(series, times, q):
    if q == np.inf:
        return float(np.max(series))
    return float(np.trapezoid(np.asarray(series) ** q, times) ** (1.0 / q))


def _time_grid(n, lam, interval_factor=1.0, floor=65, oversample=4):
    """Grid over [0, interval_factor * 2^-n] resolving the intra-block phase
    spread of block n data (Schroedinger law scale)."""
    delta = interval_factor * 2.0**-n
    spread = 3.0 * 4.0 ** (n + 1)
    nt = max(floor, int(oversample * spread * delta / (2.0 * np.pi)) + 2)
    return np.linspace(0.0, delta, nt)


def _block_nx(*u0s):
    mmax = 0
    for u in u0s:
        nz = np.abs(u.coeffs) > 0.0
        if np.any(nz):
            mmax += int(np.max(np.abs(u.geometry.mvals[nz])))
    return bumps.next_pow2(4 * mmax + 8)


def _ensemble_ratios(values):
    vals = np.asarray(values, dtype=float)
    vals = vals[np.isfinite(vals) & (vals > 0.0)]
    if vals.size == 0:
        return np.nan, np.nan, 0
    return float(np.max(vals)), float(np.mean(vals)), int(vals.size)


# ---------------------------------------------------------------------------
# linear estimates


def l4_modulation_ratio(j_values, block=3, lam=1.0, seed=0, count=32,
                        law=SCHROEDINGER, slope_tol=0.1, include_coherent=True):
    """L4 space-time bound for fields with modulation support below 2^j:
    ratio ||u||_L4 / (2^(3j/8) ||u||_L2) on the 2 pi time-periodized grid.

    Gaussian modulation profiles plus (by default) a curvature-matched box
    sample of frequency width 2^(j/2), which realizes the 3j/8 growth.
    """
    g = TorusGeometry(lam, bumps.next_pow2(int(16 * 2 ** (block + 1) * lam)))
    mv = g.mvals
    sel = block_indicator(g.xi, block) & (np.abs(mv) > 0)
    msel = np.sort(mv[sel])
    om = law.omega(msel / lam)
    points = []
    skipped = 0
    for j in j_values:
        nmod = 2**j
        rmod = np.arange(-nmod, nmod + 1)
        spread = float(np.max(np.abs(om))) + nmod
        nt = bumps.next_pow2(int(16 * spread) + 16)
        nx = bumps.next_pow2(8 * int(np.max(np.abs(msel))) + 8)
        t = 2.0 * np.pi * np.arange(nt) / nt
        coeff_sets = []
        for i in range(count):
            rng = sample_rng(seed, 97 * j + i)
            coeff_sets.append(
                rng.standard_normal((msel.size, rmod.size))
                + 1j * rng.standard_normal((msel.size, rmod.size))
            )
        if include_coherent:
            box = np.zeros((msel.size, rmod.size), dtype=complex)
            width = max(1, int(round(2.0 ** (j / 2.0) * lam)))
            pos = np.where(msel > 0)[0][:width]
            box[np.ix_(pos, np.where(rmod >= 0)[0])] = 1.0
            coeff_sets.append(box)
        ratios = []
        for c in coeff_sets:
            # temporal profile per mode: |tau - omega| <= 2^j exactly
            prof = np.exp(1j * np.outer(t, rmod)) @ (c.T)  # (nt, nm)
            rows = prof * np.exp(1j * np.outer(t, om))
            a = np.zeros((nt, nx), dtype=complex)
            a[:, msel % nx] = rows
            vals = np.fft.ifft(a, axis=1) * nx / g.period
            dx = g.period / nx
            dt = 2.0 * np.pi / nt
            l2 = np.sqrt(dt * dx * np.sum(np.abs(vals) ** 2))
            l4 = (dt * dx * np.sum(np.abs(vals) ** 4)) ** 0.25
            if l2 == 0.0:
                skipped += 1
                continue
            ratios.append(l4 / (2.0 ** (3.0 * j / 8.0) * l2))
        mx, mean, kept = _ensemble_ratios(ratios)
        skipped += len(coeff_sets) - kept
        points.append(RatioPoint(float(j), lam, mx, mean))
    return make_report("l4_modulation", points, 0.0, slope_tol, skipped=skipped)


def admissible(q, p):
    return (
        2.0 <= q <= np.inf
        and 2.0 <= p < np.inf
        and abs(2.0 / q + 1.0 / p - 0.5) < 1e-12
    )


def strichartz_ratio(q, p, n_values, lam=1.0, seed=0, count=32,
                     law=SCHROEDINGER, slope_tol=0.1, include_coherent=True):
    """Shorttime Strichartz ratio ||e^{it d_xx} u0||_{L^q([0,2^-n], L^p)}
    divided by ||u0||_L2, for admissible (q, p); predicted slope 0.

    The ensemble is Gaussian block data plus (by default) the coherent
    flat-coefficient candidate, which carries the sup-type behaviour."""
    if not admissible(q, p):
        raise ValueError(f"({q}, {p}) is not an admissible shorttime pair")
    points = []
    skipped = 0
    for n in n_values:
        ens = Ensemble(seed=seed, count=count, block=n, lam=lam)
        times = _time_grid(n, lam)
        samples = [ens.sample(i) for i in range(count)]
        if include_coherent:
            samples.append(flat_block_data(n, lam))

        def one(u0):
            nx = _block_nx(u0)
            vals = free_solution_grid(u0, law, times, nx)
            return _lq_t(_lp_x(vals, lam, p), times, q) / u0.l2_norm()

        ratios = parallel_map(one, samples)
        mx, mean, kept = _ensemble_ratios(ratios)
        skipped += len(samples) - kept
        points.append(RatioPoint(float(n), lam, mx, mean))
    return make_report(f"strichartz_q{q}_p{p}", points, 0.0, slope_tol,
                       skipped=skipped)


def bilinear_ratio(n_values, k, lam=1.0, seed=0, count=32, conjugated=False,
                   separated=False, law=SCHROEDINGER, slope_tol=0.15,
                   include_coherent=True):
    """Bilinear shorttime bound: ||e^{itd_xx}u0 e^{itd_xx}v0||_{L2 L2} over
    [0, 2^-n] against 2^(-n/2) ||u0|| ||v0||; predicted slope -1/2.

    Requires n - k >= 4, or ``separated`` data (both factors at scale 2^n
    with opposite-sign supports, separation >= 2^n).
    """
    points = []
    skipped = 0
    for n in n_values:
        if not separated and n - k < 4:
            raise ValueError("blocks must satisfy n - k >= 4 (or use separation)")
        ens_u = Ensemble(seed=seed, count=count, block=n, lam=lam)
        kv = n if separated else k
        ens_v = Ensemble(seed=seed + 104729, count=count, block=kv, lam=lam)
        times = _time_grid(n, lam)
        pairs = [(ens_u.sample(i), ens_v.sample(i)) for i in range(count)]
        if include_coherent:
            pairs.append((flat_block_data(n, lam), flat_block_data(kv, lam)))
        ratios = []
        for u0, v0 in pairs:
            if separated:
                # one-sided supports with distance >= 2 * 2^n
                gu = u0.geometry
                cu = np.where(gu.mvals > 0, u0.coeffs, 0.0)
                cv = np.where(v0.geometry.mvals < 0, v0.coeffs, 0.0)
                u0 = SpectralField(gu, cu)
                v0 = SpectralField(v0.geometry, cv)
                if u0.l2_norm() == 0.0 or v0.l2_norm() == 0.0:
                    skipped += 1
                    continue
                u0 = u0 * (1.0 / u0.l2_norm())
                v0 = v0 * (1.0 / v0.l2_norm())
            nx = _block_nx(u0, v0)
            uu = free_solution_grid(u0, law, times, nx)
            vv = free_solution_grid(v0, law, times, nx)
            if conjugated:
                vv = np.conj(vv)
            prod = uu * vv
            lhs = _lq_t(_lp_x(prod, lam, 2), times, 2)
            denom = 2.0 ** (-n / 2.0) * u0.l2_norm() * v0.l2_norm()
            if denom == 0.0:
                skipped += 1
                continue
            ratios.append(lhs / denom)
        mx, mean, kept = _ensemble_ratios(ratios)
        skipped += len(pairs) - kept
        points.append(RatioPoint(float(n), lam, mx, mean))
    # after dividing by 2^(-n/2) the predicted residual slope is zero
    name = "bilinear_conj" if conjugated else "bilinear"
    if separated:
        name += "_separated"
    return make_report(name, points, 0.0, slope_tol, skipped=skipped)


def _maximal_smoothing_values(u0, law, n, lam, interval_factor=1.0):
    times = _time_grid(n, lam, interval_factor=interval_factor)
    nx = _block_nx(u0)
    vals = free_solution_grid(u0, law, times, nx)
    sup_t = np.max(np.abs(vals), axis=0)
    dx = 2.0 * np.pi * lam / nx
    l4_linf = float((dx * np.sum(sup_t**4)) ** 0.25)
    l2_t = np.sqrt(np.trapezoid(np.abs(vals) ** 2, times, axis=0))
    linf_l2 = float(np.max(l2_t))
    return l4_linf, linf_l2


def maximal_ratio(n_values, lam=1.0, seed=0, count=32, law=SCHROEDINGER,
                  slope_tol=0.15, interval_factor=1.0, include_coherent=True):
    """Maximal function bound ||u||_{L4_x Linf_t([0, 2^-n])} against
    N^(1/4) ||u0||; predicted residual slope 0 after normalization (the raw
    ratio then grows at the predicted quarter power)."""
    points = []
    skipped = 0
    for n in n_values:
        ens = Ensemble(seed=seed, count=count, block=n, lam=lam)
        samples = [ens.sample(i) for i in range(count)]
        if include_coherent:
            samples.append(flat_block_data(n, lam))

        def one(u0):
            l4_linf, _ = _maximal_smoothing_values(
                u0, law, n, lam, interval_factor=interval_factor
            )
            return l4_linf / (2.0 ** (n / 4.0) * u0.l2_norm())

        ratios = parallel_map(one, samples)
        mx, mean, kept = _ensemble_ratios(ratios)
        skipped += len(samples) - kept
        points.append(RatioPoint(float(n), lam, mx, mean))
    return make_report("maximal", points, 0.0, slope_tol, skipped=skipped)


def smoothing_ratio(n_values, lam=1.0, seed=0, count=32, law=SCHROEDINGER,
                    slope_tol=0.1, positive_only=False, log_normalized=False,
                    include_coherent=True):
    """Local smoothing bound ||u||_{Linf_x L2_t([0, 2^-n])}.

    With log_normalized=False the ratio is taken against the sharp scale
    N^(-1/2) ||u0|| and the predicted slope is 0 (two-sided).  With
    log_normalized=True the proof-side weight log2(N) N^(-1/2) is used; no
    tested data saturates that logarithm, so those ratios decay slowly and
    only the no-growth direction is meaningful.
    """
    points = []
    skipped = 0
    for n in n_values:
        ens = Ensemble(seed=seed, count=count, block=n, lam=lam)
        samples = [ens.sample(i) for i in range(count)]
        if include_coherent:
            samples.append(flat_block_data(n, lam, positive_only=positive_only))
        ratios = []
        for u0 in samples:
            if positive_only:
                c = np.where(u0.geometry.mvals > 0, u0.coeffs, 0.0)
                u0 = SpectralField(u0.geometry, c)
                if u0.l2_norm() == 0.0:
                    skipped += 1
                    continue
                u0 = u0 * (1.0 / u0.l2_norm())
            _, linf_l2 = _maximal_smoothing_values(u0, law, n, lam)
            norm = 2.0 ** (-n / 2.0)
            if log_normalized:
                norm *= max(float(n), 1.0)
            ratios.append(linf_l2 / (norm * u0.l2_norm()))
        mx, mean, kept = _ensemble_ratios(ratios)
        skipped += len(samples) - kept
        points.append(RatioPoint(float(n), lam, mx, mean))
    name = "smoothing_pos" if positive_only else "smoothing"
    if log_normalized:
        name += "_log"
    return make_report(name, points, 0.0, slope_tol, skipped=skipped)


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


@dataclass(frozen=True)
class TrilinearClass:
    name: str
    description: str

    def validate(self, ks):
        k1, k2, k3, k4 = ks
        ks_sorted = sorted(ks, reverse=True)
        kstar = ks_sorted[0]
        ok, why = True, ""
        if self.name == "high_low_low_to_high":
            ok = k1 <= k2 <= k3 - 3 and abs(k3 - k4) <= 1 and kstar >= 5
            why = "needs k1 <= k2 <= k3 - 3, |k3 - k4| <= 1, max k >= 5"
        elif self.name == "high_high_low_to_high":
            ok = abs(k2 - k3) <= 1 and k1 <= k3 - 3 and abs(k3 - k4) <= 1 and kstar >= 5
            why = "needs |k2 - k3| <= 1, k1 <= k3 - 3, |k3 - k4| <= 1, max k >= 5"
        elif self.name == "high_high_high_to_high":
            ok = max(ks) - min(ks) <= 1 and kstar >= 5
            why = "needs all blocks within 1, max k >= 5"
        elif self.name == "high_high_low_to_low":
            ok = abs(k1 - k2) <= 1 and k3 <= k1 - 3 and k4 <= k1 - 3 and kstar >= 5
            why = "needs |k1 - k2| <= 1, k3 <= k1 - 3, k4 <= k1 - 3, max k >= 5"
        elif self.name == "high_high_high_to_low":
            ok = abs(k1 - k3) <= 1 and abs(k2 - k3) <= 1 and k4 <= k1 - 3 and kstar >= 5
            why = "needs |k1 - k3| <= 1, |k2 - k3| <= 1, k4 <= k1 - 3, max k >= 5"
        elif self.name == "low_low_low_to_low":
            ok = kstar <= 5
            why = "needs max k <= 5"
        else:
            raise ValueError(f"unknown interaction class {self.name!r}")
        if not ok:
            raise ValueError(
                f"blocks {ks} violate class {self.name}: {why}"
            )

    def alpha(self, ks):
        k1, k2, k3, k4 = ks
        if self.name == "high_low_low_to_high":
            return 2.0 ** (k1 / 2.0)
        if self.name == "high_high_high_to_high":
            return 2.0 ** (k4 / 2.0)
        return 1.0


TRILINEAR_CLASSES = {
    c.name: c
    for c in [
        TrilinearClass("high_low_low_to_high", "one low pair feeding a high output"),
        TrilinearClass("high_high_low_to_high", "two comparable highs and a low"),
        TrilinearClass("high_high_high_to_high", "all four blocks comparable"),
        TrilinearClass("high_high_low_to_low", "high pair cancelling to low output"),
        TrilinearClass("high_high_high_to_low", "three highs cancelling to low"),
        TrilinearClass("low_low_low_to_low", "everything at unit scale"),
    ]
}


TRILINEAR_TAU_BINS = 8  # spike-grid delta-tau = 2^k4 / this
KERNEL_TOL = 1e-9  # window-profile transform trimmed below this share of its peak


def _block_lattice(k, lam):
    mmax = int(np.ceil(2.0 ** (k + 1) * lam)) - 1
    m = np.arange(-mmax, mmax + 1)
    keep = block_indicator(m / lam, k)
    return m[keep]


class TrilinearConfig:
    """Precomputed interaction tables for one block tuple.

    Factors are free solutions shaped by a common temporal bump at the output
    window scale; the middle factor is conjugated for the Schroedinger
    (derivative NLS) nonlinearity.  The output functional is the windowed
    resolvent norm of P_k4 d_x (u1 u2 u3).
    """

    def __init__(self, cls_name, ks, lam=1.0, law=BENJAMIN_ONO,
                 conjugate_middle=False):
        self.cls = TRILINEAR_CLASSES[cls_name]
        self.cls.validate(ks)
        self.ks = tuple(ks)
        self.lam = lam
        self.law = law
        self.conj_mid = conjugate_middle
        k1, k2, k3, k4 = ks
        self.lattices = [_block_lattice(k, lam) for k in (k1, k2, k3)]
        self.out_lattice = _block_lattice(k4, lam)
        self.env_scale = 2.0**-k4
        # choose the two smallest factor lattices as free enumeration axes
        sizes = [len(l) for l in self.lattices]
        order = np.argsort(sizes)
        self.free_a, self.free_b = int(order[0]), int(order[1])
        self.dep = int(order[2])
        self.slot_sign = [1, -1 if conjugate_middle else 1, 1]
        self._build_tables()
        # unmodulated window constants, one evaluation per distinct block
        unit = {k: self.factor_window_constant(self.ks.index(k))
                for k in set(self.ks[:3])}
        self.unit_window_constants = [unit[k] for k in self.ks[:3]]

    def _build_tables(self):
        """Interaction tables: per output index m4, the free-axis lattice
        positions, the dependent slot's index, and the modulation offset.

        A slot of sign +1 contributes its own index m and phase +omega(m);
        a conjugated slot contributes -m and -omega(m).
        """
        lam, law = self.lam, self.law
        la = self.lattices[self.free_a]
        lb = self.lattices[self.free_b]
        ldep_set = self.lattices[self.dep]
        dep_min, dep_max = ldep_set.min(), ldep_set.max()
        dep_ok = np.zeros(dep_max - dep_min + 1, dtype=bool)
        dep_ok[ldep_set - dep_min] = True
        sa = self.slot_sign[self.free_a]
        sb = self.slot_sign[self.free_b]
        sd = self.slot_sign[self.dep]
        ma, mb = np.meshgrid(la, lb, indexing="ij")
        ma = ma.ravel()
        mb = mb.ravel()
        self.tables = []
        for m4 in self.out_lattice:
            md = sd * (m4 - sa * ma - sb * mb)
            ok = (md >= dep_min) & (md <= dep_max)
            ok[ok] &= dep_ok[md[ok] - dep_min]
            if not np.any(ok):
                self.tables.append(None)
                continue
            mak, mbk, mdk = ma[ok], mb[ok], md[ok]
            om = (
                sa * law.omega(mak / lam)
                + sb * law.omega(mbk / lam)
                + sd * law.omega(mdk / lam)
                - law.omega(m4 / lam)
            )
            self.tables.append(((mak, mbk, mdk), om))
        self._tau_setup()

    def _tau_setup(self):
        k4 = self.ks[3]
        self.dtau = 2.0**k4 / TRILINEAR_TAU_BINS
        oms = [tab[1] for tab in self.tables if tab is not None]
        if not oms:
            raise ValueError("empty interaction set for this block tuple")
        allom = np.concatenate(oms)
        omin, omax = float(np.min(allom)), float(np.max(allom))
        self.omega_range = (omin, omax)
        # histogram resolution tied to the output window scale, so the tuned
        # candidate recenters the populated cluster to within one window width
        span = max(omax - omin, 2.0**k4)
        nbins = int(min(max(np.ceil(span / 2.0**k4), 16), 65536))
        hist, edges = np.histogram(allom, bins=nbins)
        imax = int(np.argmax(hist))
        self.omega_mode = float(0.5 * (edges[imax] + edges[imax + 1]))
        self.reach = 120.0 * 2.0**k4

    def envelope(self, t):
        return bumps.eta0(t / self.env_scale)

    def window_profile(self, center):
        """Transform of envelope^3 * eta0(2^k4 (t - center)), trimmed."""
        k4 = self.ks[3]
        half = bumps.OUTER * 2.0**-k4
        dt = 2.0**-k4 / 64.0
        t = np.arange(center - half, center + half + dt / 2, dt)
        s = self.envelope(t) ** 3 * bumps.eta0(2.0**k4 * (t - center))
        if not np.any(s):
            return None, 0
        npad = bumps.next_pow2(int(2.0 * np.pi / (self.dtau * dt)) + t.size)
        ft = np.fft.fft(s, npad) * dt
        taus = 2.0 * np.pi * np.fft.fftfreq(npad, dt)
        ft = ft * np.exp(-1j * taus * t[0])
        order = np.argsort(taus)
        taus, ft = taus[order], ft[order]
        keep = np.abs(ft) > KERNEL_TOL * np.max(np.abs(ft))
        lo, hi = np.argmax(keep), len(keep) - np.argmax(keep[::-1])
        # resample onto multiples of dtau centered at zero
        nk = int(np.ceil(max(abs(taus[lo]), abs(taus[hi - 1])) / self.dtau))
        kgrid = self.dtau * np.arange(-nk, nk + 1)
        kr = np.interp(kgrid, taus, ft.real)
        ki = np.interp(kgrid, taus, ft.imag)
        return kr + 1j * ki, nk

    def profiles(self, rng):
        """Unit-L2 Gaussian coefficient tables, one per factor lattice."""
        out = []
        for latt in self.lattices:
            c = rng.standard_normal(latt.size) + 1j * rng.standard_normal(latt.size)
            c /= np.sqrt(np.sum(np.abs(c) ** 2) / (2.0 * np.pi * self.lam))
            out.append(c)
        return out

    def coherent_profiles(self):
        """Flat-modulus factor triple: the coherent candidate saturating the
        interaction constants that Gaussian samples underestimate."""
        out = []
        for latt in self.lattices:
            c = np.ones(latt.size, dtype=complex)
            c /= np.sqrt(np.sum(np.abs(c) ** 2) / (2.0 * np.pi * self.lam))
            out.append(c)
        return out

    def _slot_amp(self, slot, profiles, m):
        """Amplitude carried by one slot at its own lattice index m:
        the profile value, conjugated for a conjugated slot."""
        latt = self.lattices[slot]
        idx = np.searchsorted(latt, m)
        val = profiles[slot][idx]
        return np.conj(val) if self.slot_sign[slot] == -1 else val

    def lhs_norm(self, profiles, centers=None, b=0.5, thetas=(0.0, 0.0, 0.0)):
        """Windowed resolvent norm of P_k4 d_x of the factor product.

        ``thetas`` are per-slot modulation shifts: slot s carries an extra
        phase exp(i theta_s t), displacing every interaction spike by the
        slot-signed sum of shifts.  Spikes are binned once per sample; each
        window center costs one batched convolution with its window profile.
        """
        lam = self.lam
        k4 = self.ks[3]
        pref = 1.0 / (2.0 * np.pi * lam) ** 2
        if centers is None:
            half = bumps.OUTER * self.env_scale
            centers = np.linspace(-half - 2.0**-k4, half + 2.0**-k4, 13)
        shift = 0.0
        for s in range(3):
            shift += self.slot_sign[s] * float(thetas[s])
        tau0 = self.omega_range[0] + shift - self.reach
        tau_hi = self.omega_range[1] + shift + self.reach
        ngrid = int(np.ceil((tau_hi - tau0) / self.dtau)) + 1
        taugrid = tau0 + self.dtau * np.arange(ngrid)
        rows = []
        for m4_idx, tab in enumerate(self.tables):
            if tab is None:
                continue
            (ma, mb, md), om = tab
            amp = (
                self._slot_amp(self.free_a, profiles, ma)
                * self._slot_amp(self.free_b, profiles, mb)
                * self._slot_amp(self.dep, profiles, md)
            )
            xi4 = self.out_lattice[m4_idx] / lam
            spikes = np.zeros(ngrid, dtype=complex)
            bins = np.rint((om + shift - tau0) / self.dtau).astype(int)
            np.add.at(spikes, bins, amp * (1j * xi4) * pref)
            if np.any(spikes):
                rows.append(spikes)
        if not rows:
            return 0.0
        spike_mat = np.stack(rows)
        kernels = []
        max_nk = 0
        for c in centers:
            kern, nk = self.window_profile(c)
            if kern is not None:
                kernels.append(kern)
                max_nk = max(max_nk, nk)
        if not kernels:
            return 0.0
        nfft = bumps.next_pow2(ngrid + 2 * max_nk + 1)
        spike_fft = np.fft.fft(spike_mat, nfft, axis=1)
        resolvent = 1.0 / (taugrid**2 + 4.0**k4)
        tau_max = float(np.max(np.abs(taugrid)))
        jmax = bumps.max_resolved_j(tau_max)
        weights = np.stack(
            [bumps.eta_j(taugrid, j) ** 2 for j in range(jmax + 1)]
        )
        best = 0.0
        for kern in kernels:
            nk = (kern.size - 1) // 2
            kfft = np.fft.fft(kern, nfft)
            conv = np.fft.ifft(spike_fft * kfft[None, :], axis=1)
            nut = conv[:, nk : nk + ngrid]
            power = (self.dtau / lam) * np.sum(np.abs(nut) ** 2, axis=0)
            power *= resolvent
            blocks = weights @ power
            total = float(
                np.sum(2.0 ** (np.arange(jmax + 1) * b) * np.sqrt(np.maximum(blocks, 0.0)))
            )
            best = max(best, total)
        return best

    def rhs_factor_norms(self, profiles, thetas=(0.0, 0.0, 0.0)):
        """F-norms of the separable factors: coefficient-lattice L2 times a
        per-block scalar window constant (see factor_window_constant)."""
        out = []
        for s in range(3):
            phi = profiles[s]
            lnorm = np.sqrt(np.sum(np.abs(phi) ** 2) / self.lam)
            const = (self.unit_window_constants[s] if thetas[s] == 0.0
                     else self.factor_window_constant(s, thetas[s]))
            out.append(lnorm * const)
        return out

    def factor_window_constant(self, s, theta=0.0):
        """Shorttime norm of a single unit mode of block ks[s] under this
        envelope, with an optional extra modulation exp(i theta t).

        The factors are free solutions times a common envelope (and slot
        modulation), so their windowed norm factorizes as the lattice L2 of
        the profile times this scalar.  The demodulated content of such a
        mode is the envelope spectrum displaced to theta, so the partition
        weights are evaluated at shifted positions on the windows' own
        spectral grid, which need not resolve theta (at theta = 0 this is
        the generic windowed norm, as the tests check).  Every window center
        shares dt and the zero-padded length, so the windows are transformed
        in batches of at most CHUNK_BYTES of spectra and all annuli take one
        matrix product with the weights eta_j(sig + theta)^2.
        """
        k = self.ks[s]
        half_env = bumps.OUTER * self.env_scale
        half_win = bumps.OUTER * 2.0**-k
        dt = min(2.0**-k, self.env_scale) / 32.0
        step = 2.0**-k / 4.0
        ncent = int(np.ceil(2.0 * (half_env + 2.0**-k) / step)) + 1
        centers = -half_env - 2.0**-k + step * np.arange(ncent)
        grids = [np.arange(c - half_win, c + half_win + dt / 2, dt)
                 for c in centers]
        nmax = max(t.size for t in grids)
        windows = np.zeros((ncent, nmax), dtype=complex)
        for i, (c, t) in enumerate(zip(centers, grids)):
            windows[i, :t.size] = (self.envelope(t)
                                   * bumps.eta0(2.0**k * (t - c)))
        npad = bumps.next_pow2(
            max(4 * nmax, int(2.0 * np.pi * 32.0 / (2.0**k * dt)))
        )
        sig = 2.0 * np.pi * np.fft.fftfreq(npad, dt)
        dsig = 2.0 * np.pi / (npad * dt)
        jmax = bumps.max_resolved_j(float(np.max(np.abs(sig))) + abs(theta))
        weights = np.empty((jmax + 1, npad))  # filled in place: no stack copy
        for j in range(jmax + 1):
            weights[j] = bumps.eta_j(sig + theta, j) ** 2
        per = max(1, CHUNK_BYTES // (16 * npad))
        blocks = []
        for first in range(0, ncent, per):
            spec = np.fft.fft(windows[first:first + per], npad, axis=1) * dt
            blocks.append(dsig * np.abs(spec) ** 2 @ weights.T)
        jscale = 2.0 ** (0.5 * np.arange(jmax + 1))
        return float(np.max(np.sqrt(np.concatenate(blocks)) @ jscale))


def trilinear_ratio(cls_name, ks, lam=1.0, law=BENJAMIN_ONO,
                    conjugate_middle=False, seed=0, count=12,
                    include_coherent=True, include_tuned=False):
    """Ensemble ratio ||P_k4 d_x(u1 u2 u3)||_window-resolvent divided by
    alpha(k) * prod F-norms, for one block tuple.

    Candidates: Gaussian triples, optionally the coherent flat triple, and
    optionally a resonance-tuned triple (one slot modulated so the most
    populated interaction spikes recenter at zero modulation).  The tuned
    probe is part of the fixed measurement recipe of classes whose
    interactions are never near-resonant for free data.
    """
    cfg = TrilinearConfig(cls_name, ks, lam=lam, law=law,
                          conjugate_middle=conjugate_middle)
    alpha = cfg.cls.alpha(ks)
    zero = (0.0, 0.0, 0.0)
    triples = [(cfg.profiles(sample_rng(seed, i)), zero) for i in range(count)]
    if include_coherent:
        flat = cfg.coherent_profiles()
        triples.append((flat, zero))
    if include_tuned:
        flat = cfg.coherent_profiles()
        tuned = [0.0, 0.0, 0.0]
        tuned[cfg.dep] = -cfg.slot_sign[cfg.dep] * cfg.omega_mode
        triples.append((flat, tuple(tuned)))
    ratios = []
    skipped = 0
    for profiles, thetas in triples:
        lhs = cfg.lhs_norm(profiles, thetas=thetas)
        rhs = np.prod(cfg.rhs_factor_norms(profiles, thetas=thetas))
        if lhs == 0.0 or rhs == 0.0:
            skipped += 1
            continue
        ratios.append(lhs / (alpha * rhs))
    mx, mean, kept = _ensemble_ratios(ratios)
    return RatioPoint(float(ks[0]), lam, mx, mean), skipped


def trilinear_sweep(cls_name, sweeps, lam=1.0, law=BENJAMIN_ONO,
                    conjugate_middle=False, seed=0, count=12, slope_tol=0.2,
                    sweep_coord=None, include_tuned=False):
    """Report over a list of block tuples; the sweep coordinate defaults to
    the varying entry of the tuples."""
    points = []
    skipped = 0
    arr = np.asarray(sweeps)
    if sweep_coord is None:
        varying = [j for j in range(4) if len(set(arr[:, j])) > 1]
        sweep_coord = varying[0] if varying else 0
    for ks in sweeps:
        pt, sk = trilinear_ratio(cls_name, tuple(ks), lam=lam, law=law,
                                 conjugate_middle=conjugate_middle, seed=seed,
                                 count=count, include_tuned=include_tuned)
        points.append(
            RatioPoint(float(ks[sweep_coord]), lam, pt.max_ratio, pt.mean_ratio)
        )
        skipped += sk
    tag = "dnls" if conjugate_middle else "real"
    return make_report(f"trilinear_{cls_name}_{tag}", points, 0.0, slope_tol,
                       skipped=skipped)
