"""Discrete shorttime Fourier-restriction norms.

A SpaceTimeField stores spatial Fourier coefficients on a uniform time grid.
All modulation-weighted norms first pass to the interaction picture,
nu(t, xi) = exp(-i t omega(xi)) * v(t, xi), which shifts the modulation
variable to tautilde = tau - omega(xi).  The demodulation is pointwise exact
at the sample times, so the time grid only has to resolve the *modulation*
content of the field, never the raw dispersive phases.

Norm conventions:

* block norm at modulation exponent b:
    sum_j 2^(j b) || eta_j(tau - omega(xi)) vtilde ||_{L2 lattice x L2 tau}
* windowed norm: sup over window centers t_c (grid spacing 2^-k / 4) of the
  block norm of eta0(2^k (t - t_c)) * v
* nonlinearity norm: same with the resolvent weight (tau - omega + i 2^k)^-1
  applied multiplicatively before the modulation sum.

Each windowed, demodulated segment g of n rows is weighed on the tau grid of
its FFT zero-padded to npad >= 4n, bins at most 2^k / tau_bins wide (finer bins
change window-localized norms by a few percent at most): the annulus mass is
sum_l W_j(tau_l) |ghat(tau_l)|^2, W_j = eta_j^2 (over tau^2 + 4^k for the
nonlinearity norm).  That equals the lag sum over |d| < n of K_j[d] A[d], with
the lag kernel K_j = Re fft(W_j) and the mode-summed autocorrelation
A[d] = sum_modes sum_i g_(i+d) conj(g_i), exact from an FFT of length
L = min(next_pow2(2n + 8), npad): 256 against npad = 4096 at k = 6.  A block
weighs all its windows and fields on the npad of its longest window (with
tau_bins >= 3 and dt <= 2^-k the bin floor 2 pi tau_bins / (2^k dt) exceeds
four window lengths, so every window would pick that npad anyway), and
reduces the windows in batches of segments and lag sums within CHUNK_BYTES.
Under an odd law a real field's demodulated column at -m is the conjugate of
the one at m, its power the m one's reversed in tau; the weights are even, so
the pair's masses agree: m > 0 columns weigh twice, m < 0 not at all.
Each npad is a power of two on one dt, so an F assembly transforms each
weight row once, at its largest npad, and folds the result onto every
block's grid; the resolvent weight of N depends on k, so N builds per block.
The lag sum cancels down from the window's power, so an annulus holding a
tiny share of it loses accuracy; the m-th difference of g (m < 4) tilts that
power, (4 sin^2(tau dt / 2))^m |ghat|^2, to high tau, and each annulus takes
the form with the smallest rounding bound A_m[0] |K_j,m|_1.  A near-empty
annulus can still sum to a tiny negative, clamped to zero.
"""

from dataclasses import dataclass

import numpy as np

from . import bumps
from .evolution import free_rows
from .spectral import block_indicator, max_block

TAU_BINS_PER_WINDOW_SCALE = 32  # delta-tau = 2^k / this
CHUNK_BYTES = 4 << 20  # bound on one batch of segments or of lag sums
DIFFERENCE_FORMS = 4  # lag sums of the 0th to 3rd differences of a segment


class SupportError(ValueError):
    pass


@dataclass(frozen=True)
class SpaceTimeField:
    """Spatial Fourier coefficients sampled on a uniform time grid."""

    geometry: object
    mvals: np.ndarray       # sorted integer lattice indices, one per column
    tgrid: np.ndarray       # uniform, increasing
    values: np.ndarray      # (n_times, n_modes) complex
    support: tuple          # declared time support (t0, t1)

    def __post_init__(self):
        t = np.asarray(self.tgrid, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        m = np.asarray(self.mvals, dtype=int)
        if v.shape != (t.size, m.size):
            raise ValueError("values must be (n_times, n_modes)")
        if t.size < 2:
            raise ValueError("need at least two time samples")
        dt = np.diff(t)
        if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
            raise ValueError("time grid must be uniform")
        if not (self.support[0] >= t[0] - 1e-12 and self.support[1] <= t[-1] + 1e-12):
            raise ValueError("declared support must lie inside the time grid")
        object.__setattr__(self, "tgrid", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "mvals", m)

    @property
    def dt(self):
        return float(self.tgrid[1] - self.tgrid[0])

    @property
    def xi(self):
        return self.mvals / self.geometry.lam

    def restrict_block(self, k):
        mask = block_indicator(self.xi, k)
        return SpaceTimeField(
            self.geometry,
            self.mvals[mask],
            self.tgrid,
            self.values[:, mask],
            self.support,
        )

    def active_columns(self):
        return np.any(self.values != 0.0, axis=0)


def from_trajectory(traj):
    """Wrap an evolution trajectory (states in fft coefficient order)."""
    g = traj.problem.u0.geometry
    mv = g.mvals
    order = np.argsort(mv)
    t = np.asarray(traj.times)
    asc = np.argsort(t)
    vals = traj.states[asc][:, order]
    t = t[asc]
    return SpaceTimeField(g, mv[order], t, vals, (float(t[0]), float(t[-1])))


def modulated_profile_field(geometry, mvals, tgrid, profile, envelope, law):
    """Field exp(i t omega(xi)) * profile(xi) * envelope(t): a free solution
    shaped by a slow temporal envelope."""
    mvals = np.asarray(mvals, dtype=int)
    t = np.asarray(tgrid, dtype=float)
    env = np.asarray(envelope, dtype=complex)
    vals = free_rows(profile, mvals / geometry.lam, t, law) * env[:, None]
    return SpaceTimeField(geometry, mvals, t, vals, (float(t[0]), float(t[-1])))


def _kernel_target(longest, k, dt, tau_bins):
    """(npad, lags) of block-k windows whose longest has `longest` rows."""
    floor = int(np.ceil(2.0 * np.pi / (2.0**k / tau_bins * dt)))
    npad = bumps.next_pow2(max(4 * longest, floor))
    nlag = min(bumps.next_pow2(2 * (longest + DIFFERENCE_FORMS)), npad)
    return npad, np.fft.fftfreq(nlag, 1.0 / nlag).astype(int) % npad


def _lag_kernels(targets, dt, resolvent_k=None):
    """Lag kernels (forms, lags, nj) of the weights W_j, with their l1 norms,
    at each (npad, lags) target; form m is for the m-th difference of the
    segment (W_j over (4 sin^2(tau dt / 2))^m, j >= 1 when m > 0).  Every
    tau grid subsamples the one at the largest npad (powers of two on one
    dt), so each nonzero row is transformed once there and its aliases are
    folded in halves, x[:n] + x[n:], onto every target.  The resolvent
    1 / (tau^2 + 4^k) depends on k, so its kernels serve one block."""
    top = max(npad for npad, _ in targets)
    taut = 2.0 * np.pi * np.fft.rfftfreq(top, dt)
    weight = 1.0 if resolvent_k is None else 1.0 / (taut**2 + 4.0**resolvent_k)
    diff = 4.0 * np.sin(0.5 * dt * taut) ** 2
    nj = bumps.max_resolved_j(np.pi / dt) + 1
    kerns = [np.zeros((DIFFERENCE_FORMS, lags.size, nj)) for _, lags in targets]
    plan = sorted(zip(targets, kerns), key=lambda p: -p[0][0])
    for j, eta in enumerate(bumps.eta_rows(taut, nj - 1)):
        w = eta**2 * weight
        if not np.any(w):  # an annulus beyond the Nyquist frequency
            continue
        for m in range(DIFFERENCE_FORMS if j else 1):
            if m:  # W_j (j >= 1) vanishes near tau = 0, where diff does
                w = np.divide(w, diff, out=np.zeros_like(w), where=w > 0)
            x = np.fft.irfft(w, top)
            for (npad, lags), kern in plan:
                while x.size > npad:
                    x = x[:x.size // 2] + x[x.size // 2:]
                if np.any(w[::top // npad]):  # else only rounding survives
                    kern[m, :, j] = x[lags]
    return [(kern, np.sum(np.abs(kern), axis=1)) for kern in kerns]


def _mode_weights(field, cols, law):
    """Columns to transform and their power weights: the m >= 0 half of the
    active `cols`, m > 0 twice, if the law is odd and every active column's
    mirror -m is active and holds exactly its conjugate; else all, once."""
    m, v = field.mvals, field.values
    pos = np.flatnonzero(cols)  # mirrors pos[::-1] on a symmetric lattice
    if (law.odd and np.array_equal(m[pos], -m[pos[::-1]])
            and all(np.array_equal(v[:, b], np.conj(v[:, a]))
                    for a, b in zip(pos, pos[::-1]) if m[a] >= 0)):
        half = cols & (m >= 0)
        return half, np.where(m[half] > 0, 2.0, 1.0)
    return cols, np.ones(pos.size)


def _modulation_sup(fields, rows, k, b, law, resolvent, tau_bins, kernels=None):
    """Largest block norm of each field over the windowed segments
    w * nu[lo:lo + w.size], (lo, w) in rows, of its demodulated active
    columns nu (`_mode_weights`); the fields share one time grid and the lag
    kernels (this block's `_lag_kernels` entry, built here unless given)."""
    f0, dt = fields[0], fields[0].dt
    picks = [_mode_weights(f, f.active_columns(), law) for f in fields]
    if any(np.any(c & ~block_indicator(f0.xi, k)) for c, _ in picks):
        raise SupportError(f"field has active frequencies outside block {k}")
    need = np.logical_or.reduce([c for c, _ in picks])
    demod = np.exp(-1j * np.outer(f0.tgrid, law.omega(f0.xi[need])))
    nus = {i: (f.values[:, c] * demod[:, c[need]], weight)
           for i, (f, (c, weight)) in enumerate(zip(fields, picks)) if np.any(c)}
    best = [0.0] * len(fields)
    if not nus or not rows:
        return best
    if kernels is None:
        target = _kernel_target(max(w.size for _, w in rows), k, dt, tau_bins)
        kernels = _lag_kernels([target], dt, k if resolvent else None)[0]
    kern, norm1 = kernels
    nlag = kern.shape[1]
    jweights = 2.0 ** (b * np.arange(kern.shape[2]))
    kern *= 2.0 * np.pi * dt / f0.geometry.lam
    diff = 4.0 * np.sin(np.pi * np.arange(nlag) / nlag) ** 2
    tilt = diff ** np.arange(DIFFERENCE_FORMS)[:, None]
    for i, (nu, weight) in nus.items():
        per = max(1, CHUNK_BYTES // (
            16 * nlag * max(nu.shape[1], DIFFERENCE_FORMS)))
        for first in range(0, len(rows), per):
            chunk = rows[first:first + per]
            seg = np.zeros((len(chunk), nlag, nu.shape[1]), dtype=complex)
            for n, (lo, w) in enumerate(chunk):
                seg[n, :w.size] = nu[lo:lo + w.size] * w[:, None]
            np.fft.fft(seg, axis=1, out=seg)
            power = (seg.real**2 + seg.imag**2) @ weight
            acf = np.zeros((DIFFERENCE_FORMS, len(chunk), nlag), dtype=complex)
            np.multiply(power, tilt[:, None, :], out=acf.real)
            acf = np.fft.ifft(acf, axis=-1, out=acf).real
            err = acf[..., :1] * norm1[:, None, :]
            err[1:, :, 0] = np.inf  # eta_0 has no difference form
            form = np.argmin(err, axis=0)[None]
            blocks = np.take_along_axis(acf @ kern, form, axis=0)[0]
            norms = np.sqrt(np.maximum(blocks, 0.0)) @ jweights
            best[i] = max(best[i], float(np.max(norms)))
    return best


def xk_norm(field, k, law, b=0.5, tau_bins=TAU_BINS_PER_WINDOW_SCALE):
    """Modulation-sum norm of the whole field (no time window applied)."""
    rows = [(0, np.ones(field.tgrid.size))]
    return _modulation_sup([field], rows, k, b, law, False, tau_bins)[0]


def window_centers(support, k):
    """Window-center grid: spacing 2^-k / 4, covering the support plus twice
    the window scale 2^-k on each side.  That margin exceeds the half-width
    OUTER 2^-k = 1.6 2^-k of a window (which spans 3.2 2^-k), so every
    window that meets the support is centered within the grid's span."""
    scale = 2.0**-k
    margin = 2.0 * scale
    step = scale * 0.25
    lo, hi = support[0] - margin, support[1] + margin
    n = int(np.ceil((hi - lo) / step)) + 1
    return lo + step * np.arange(n)


def _window_spans(t, support, k, centers=None):
    """(first rows, end rows, centers) of the windows with two or more rows."""
    centers = np.asarray(window_centers(support, k) if centers is None
                         else centers)
    halfwidth = bumps.OUTER * 2.0**-k
    lo = np.searchsorted(t, centers - halfwidth)
    hi = np.searchsorted(t, centers + halfwidth, side="right")
    keep = hi - lo >= 2
    return lo[keep], hi[keep], centers[keep]


def _window_rows(field, k, centers=None):
    """(first row, weights eta0(2^k (t - c))) of each window span, from one
    eta0 call on the spans' rows masked out of a (windows, longest) array."""
    lo, hi, c = _window_spans(field.tgrid, field.support, k, centers)
    inside = np.arange(np.max(hi - lo, initial=0)) < (hi - lo)[:, None]
    rows = (lo[:, None] + np.arange(inside.shape[1]))[inside]
    w = bumps.eta0(2.0**k * (field.tgrid[rows] - np.repeat(c, hi - lo)))
    return list(zip(lo.tolist(), np.split(w, np.cumsum(hi - lo)[:-1])))


def fk_norm(field, k, law, b=0.5, centers=None,
            tau_bins=TAU_BINS_PER_WINDOW_SCALE):
    """Shorttime norm: sup over window centers of the windowed block norm."""
    rows = _window_rows(field, k, centers)
    return _modulation_sup([field], rows, k, b, law, False, tau_bins)[0]


def nk_norm(field, k, law, b=0.5, centers=None,
            tau_bins=TAU_BINS_PER_WINDOW_SCALE):
    """Nonlinearity norm: windowed block norm with the resolvent weight."""
    rows = _window_rows(field, k, centers)
    return _modulation_sup([field], rows, k, b, law, True, tau_bins)[0]


def _cut_support(support, t_lim, width):
    return max(support[0], -t_lim - width), min(support[1], t_lim + width)


def time_cutoff(field, t_lim, width):
    """Multiply by a smooth plateau, one on [-t_lim, t_lim], vanishing beyond
    [-t_lim - width, t_lim + width]."""
    chi = bumps.plateau(field.tgrid, -t_lim, t_lim, width)
    return SpaceTimeField(field.geometry, field.mvals, field.tgrid,
                          field.values * chi[:, None],
                          _cut_support(field.support, t_lim, width))


def assembled_norm(fields, s, kind, t_lim, law=None,
                   tau_bins=TAU_BINS_PER_WINDOW_SCALE):
    """Dyadically assembled norms at regularity s on the window [-T, T], one
    per field; the fields share a geometry, lattice, time grid and support.

    kind "E": ell2 over blocks of 2^(2ks) * sup_t ||P_k u(t)||_L2^2;
    kind "F"/"N": same assembly from the windowed block norms of the field
    smoothly cut off at scale max(2^-k-10, 4 dt) outside [-T, T], with one
    window-row build per block for all fields.  F sizes every block's tau
    grid from its window extents first and folds all blocks' lag kernels
    from one `_lag_kernels` call; N, whose resolvent weight depends on k,
    builds them per block.  Evaluating the concrete cut-off field
    over-estimates the extension infimum, the safe direction for upper-bound
    checks.
    """
    if kind not in ("E", "F", "N"):
        raise ValueError(f"unknown norm kind {kind!r}")
    if kind in ("F", "N") and law is None:
        raise ValueError("a dispersion law is required")
    if len({(f.geometry, f.support, f.mvals.tobytes(), f.tgrid.tobytes())
            for f in fields}) > 1:
        raise ValueError("fields must share geometry, lattice and time grid")
    first = fields[0]
    g, dt = first.geometry, first.dt
    blocks = [k for k in range(max_block(g) + 1)
              if np.any(block_indicator(first.xi, k))]
    widths = {k: max(2.0 ** (-k - 10), 4.0 * dt) for k in blocks}
    targets, kernels = {}, {}
    for k in blocks if kind == "F" else ():
        lo, hi, _ = _window_spans(first.tgrid, _cut_support(
            first.support, t_lim, widths[k]), k)
        if lo.size:
            targets[k] = _kernel_target(np.max(hi - lo), k, dt, tau_bins)
    if targets:
        kernels = dict(zip(targets, _lag_kernels(list(targets.values()), dt)))
    totals = [0.0] * len(fields)
    tsel = (first.tgrid >= -t_lim - 1e-12) & (first.tgrid <= t_lim + 1e-12)
    for k in blocks:
        if kind == "E":
            mask = block_indicator(first.xi, k)
            sq = [np.sum(np.abs(f.values[:, mask][tsel]) ** 2, axis=1)
                  / (2.0 * np.pi * g.lam) for f in fields]
            vals2 = [float(np.max(q)) if np.any(tsel) else 0.0 for q in sq]
        else:
            cuts = [time_cutoff(f.restrict_block(k), t_lim, widths[k])
                    for f in fields]
            vals2 = [v**2 for v in _modulation_sup(
                cuts, _window_rows(cuts[0], k), k, 0.5, law, kind == "N",
                tau_bins, kernels.pop(k, None))]
        totals = [t + 4.0 ** (k * s) * v for t, v in zip(totals, vals2)]
    return [float(np.sqrt(t)) for t in totals]
