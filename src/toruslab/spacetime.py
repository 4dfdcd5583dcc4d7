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

The tau quadrature resolution is a convergence knob: bins below the grid
resolution contribute a few percent at most for window-localized fields (the
default resolves bins down to eight octaves below the window scale).
"""

from dataclasses import dataclass

import numpy as np

from . import bumps
from .spectral import SpectralField, block_indicator, max_block

TAU_BINS_PER_WINDOW_SCALE = 32  # delta-tau = 2^k / this


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

    def scaled(self, c):
        return SpaceTimeField(
            self.geometry, self.mvals, self.tgrid, c * self.values, self.support
        )

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

    def snapshot_l2(self, i):
        """L2(torus) norm of the spatial trace at time index i."""
        return float(
            np.sqrt(
                np.sum(np.abs(self.values[i]) ** 2)
                / (2.0 * np.pi * self.geometry.lam)
            )
        )


def from_trajectory(traj, support=None):
    """Wrap an evolution trajectory (states in fft coefficient order)."""
    g = traj.problem.u0.geometry
    mv = g.mvals
    order = np.argsort(mv)
    t = np.asarray(traj.times)
    asc = np.argsort(t)
    vals = traj.states[asc][:, order]
    t = t[asc]
    if support is None:
        support = (float(t[0]), float(t[-1]))
    return SpaceTimeField(g, mv[order], t, vals, support)


def modulated_profile_field(geometry, mvals, tgrid, profile, envelope, law,
                            support=None):
    """Field exp(i t omega(xi)) * profile(xi) * envelope(t): a free solution
    shaped by a slow temporal envelope."""
    mvals = np.asarray(mvals, dtype=int)
    t = np.asarray(tgrid, dtype=float)
    xi = mvals / geometry.lam
    phases = np.exp(1j * np.outer(t, law.omega(xi)))
    env = np.asarray(envelope, dtype=complex)
    vals = phases * profile[None, :] * env[:, None]
    if support is None:
        support = (float(t[0]), float(t[-1]))
    return SpaceTimeField(geometry, mvals, t, vals, support)


def _check_block_support(field, k):
    active = field.active_columns()
    if not np.any(active):
        return
    inside = block_indicator(field.xi, k)
    if np.any(active & ~inside):
        raise SupportError(f"field has active frequencies outside block {k}")


def _segment_norm(times, vals, xi, k, b, law, lam, resolvent,
                  tau_bins=TAU_BINS_PER_WINDOW_SCALE):
    """Modulation-weighted norm of one (already windowed) time segment."""
    nt = times.size
    if nt < 2 or not np.any(vals):
        return 0.0
    dt = float(times[1] - times[0])
    nu = vals * np.exp(-1j * np.outer(times, law.omega(xi)))
    dtau_target = 2.0**k / tau_bins
    npad = bumps.next_pow2(
        max(4 * nt, int(np.ceil(2.0 * np.pi / (dtau_target * dt))))
    )
    nutilde = np.fft.fft(nu, n=npad, axis=0) * dt
    taut = 2.0 * np.pi * np.fft.fftfreq(npad, dt)
    dtau = 2.0 * np.pi / (npad * dt)
    power = dtau * np.sum(np.abs(nutilde) ** 2, axis=1) / lam
    if resolvent:
        power = power / (taut**2 + 4.0**k)
    tau_max = np.pi / dt
    total = 0.0
    for j in range(bumps.max_resolved_j(tau_max) + 1):
        w = bumps.eta_j(taut, j)
        block = float(np.sum(w * w * power))
        if block > 0.0:
            total += 2.0 ** (j * b) * np.sqrt(block)
    return total


def xk_norm(field, k, b=0.5, law=None, tau_bins=TAU_BINS_PER_WINDOW_SCALE):
    """Modulation-sum norm of the whole field (no time window applied)."""
    if law is None:
        raise ValueError("a dispersion law is required")
    _check_block_support(field, k)
    cols = field.active_columns()
    if not np.any(cols):
        return 0.0
    return _segment_norm(
        field.tgrid,
        field.values[:, cols],
        field.xi[cols],
        k,
        b,
        law,
        field.geometry.lam,
        resolvent=False,
        tau_bins=tau_bins,
    )


def window_centers(support, k, step_fraction=0.25):
    """Window-center grid: spacing 2^-k * step_fraction, covering the support
    plus one full window width on each side."""
    scale = 2.0**-k
    margin = 2.0 * scale
    step = scale * step_fraction
    lo, hi = support[0] - margin, support[1] + margin
    n = int(np.ceil((hi - lo) / step)) + 1
    return lo + step * np.arange(n)


def _windowed_norm(field, k, b, law, resolvent, centers=None,
                   tau_bins=TAU_BINS_PER_WINDOW_SCALE):
    _check_block_support(field, k)
    cols = field.active_columns()
    if not np.any(cols):
        return 0.0
    xi = field.xi[cols]
    vals = field.values[:, cols]
    t = field.tgrid
    lam = field.geometry.lam
    if centers is None:
        centers = window_centers(field.support, k)
    halfwidth = bumps.OUTER * 2.0**-k
    best = 0.0
    scale = 2.0**k
    for c in centers:
        lo = np.searchsorted(t, c - halfwidth)
        hi = np.searchsorted(t, c + halfwidth, side="right")
        if hi - lo < 2:
            continue
        seg_t = t[lo:hi]
        w = bumps.eta0(scale * (seg_t - c))
        seg = vals[lo:hi] * w[:, None]
        if not np.any(seg):
            continue
        val = _segment_norm(
            seg_t, seg, xi, k, b, law, lam, resolvent, tau_bins=tau_bins
        )
        best = max(best, val)
    return best


def fk_norm(field, k, law=None, b=0.5, centers=None,
            tau_bins=TAU_BINS_PER_WINDOW_SCALE):
    """Shorttime norm: sup over window centers of the windowed block norm."""
    if law is None:
        raise ValueError("a dispersion law is required")
    return _windowed_norm(field, k, b, law, resolvent=False, centers=centers,
                          tau_bins=tau_bins)


def nk_norm(field, k, law=None, b=0.5, centers=None,
            tau_bins=TAU_BINS_PER_WINDOW_SCALE):
    """Nonlinearity norm: windowed block norm with the resolvent weight."""
    if law is None:
        raise ValueError("a dispersion law is required")
    return _windowed_norm(field, k, b, law, resolvent=True, centers=centers,
                          tau_bins=tau_bins)


def time_cutoff(field, t_lim, width):
    """Multiply by a smooth plateau, one on [-t_lim, t_lim], vanishing beyond
    [-t_lim - width, t_lim + width]."""
    chi = bumps.plateau(field.tgrid, -t_lim, t_lim, width)
    return SpaceTimeField(
        field.geometry,
        field.mvals,
        field.tgrid,
        field.values * chi[:, None],
        (max(field.support[0], -t_lim - width), min(field.support[1], t_lim + width)),
    )


def assembled_norm(field, s, kind, t_lim, law=None,
                   tau_bins=TAU_BINS_PER_WINDOW_SCALE):
    """Dyadically assembled norms at regularity s on the window [-T, T].

    kind "E": ell2 over blocks of 2^(2ks) * sup_t ||P_k u(t)||_L2^2;
    kind "F"/"N": same assembly from the windowed block norms of the field
    smoothly cut off at scale max(2^-k-10, 4 dt) outside [-T, T].  Evaluating
    the concrete cut-off field over-estimates the extension infimum, which is
    the safe direction for upper-bound checks.
    """
    if kind not in ("E", "F", "N"):
        raise ValueError(f"unknown norm kind {kind!r}")
    if kind in ("F", "N") and law is None:
        raise ValueError("a dispersion law is required")
    g = field.geometry
    kmax = max_block(g)
    total = 0.0
    tsel = (field.tgrid >= -t_lim - 1e-12) & (field.tgrid <= t_lim + 1e-12)
    for k in range(kmax + 1):
        mask = block_indicator(field.xi, k)
        if not np.any(mask):
            continue
        blockvals = field.values[:, mask]
        if not np.any(blockvals):
            continue
        if kind == "E":
            sq = np.sum(np.abs(blockvals[tsel]) ** 2, axis=1) / (2.0 * np.pi * g.lam)
            val2 = float(np.max(sq)) if np.any(tsel) else 0.0
        else:
            width = max(2.0 ** (-k - 10), 4.0 * field.dt)
            cut = time_cutoff(field.restrict_block(k), t_lim, width)
            fn = fk_norm if kind == "F" else nk_norm
            val2 = fn(cut, k, law=law, tau_bins=tau_bins) ** 2
        total += 4.0 ** (k * s) * val2
    return float(np.sqrt(total))
