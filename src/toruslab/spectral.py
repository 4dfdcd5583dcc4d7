"""Fourier analysis on the rescaled torus of circumference 2*pi*lambda.

Conventions (fixed once, used everywhere):

* spatial grid       x_i = 2*pi*lam * i / M, i = 0..M-1
* frequency lattice  xi = m / lam with integer m, |m| <= M/2
* forward transform  fhat(xi) = integral over the torus of f(x) exp(-i xi x) dx,
  realized as the trapezoidal sum dx * DFT, which is exact for band-limited data
* inversion          f(x) = (2*pi)^-1 * lam^-1 * sum_m fhat(m/lam) exp(i xi x)
* counting measure   integral a(xi) (dxi) = lam^-1 * sum over the lattice

With these choices a constant c has fhat(0) = 2*pi*lam*c, and the squared L2
norm of f equals (2*pi*lam)^-1 * sum |fhat|^2 (Plancherel / Parseval pair).

Coefficients are stored in numpy fft order.  The Nyquist slot m = -M/2 is kept
identically zero so the retained lattice is symmetric: |m| <= M/2 with the
band edge annihilated.

Every lattice-to-grid synthesis in the package goes through ``synthesize``
(coefficients scattered onto a zero-padded n-point grid, one inverse FFT),
and every cubic product through ``cubic_coeffs`` (the cube of that synthesis,
transformed back): the flow's nonlinearity on n >= 4 band + 1 points (a
real FFT of the half spectrum for the real flow), the energies' cubic
contractions on the 4M grid, and the free-solution grids.
"""

from dataclasses import dataclass

import numpy as np


class SizeMismatchError(ValueError):
    pass


class NonFiniteDataError(ValueError):
    pass


@dataclass(frozen=True)
class TorusGeometry:
    """Spatial scale and grid resolution of the rescaled torus."""

    lam: float
    grid_size: int

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 1.0):
            raise ValueError(
                f"scale lambda must be finite and >= 1, got {self.lam}")
        m = self.grid_size
        if m < 4 or (m & (m - 1)) != 0:
            raise ValueError(f"grid_size must be a power of two >= 4, got {m}")

    @property
    def period(self):
        return 2.0 * np.pi * self.lam

    @property
    def dx(self):
        return self.period / self.grid_size

    @property
    def mvals(self):
        """Integer lattice indices in fft order; frequencies are mvals/lam."""
        return np.fft.fftfreq(self.grid_size, 1.0 / self.grid_size).astype(int)

    @property
    def xi(self):
        return self.mvals / self.lam

    @property
    def cutoff(self):
        """Largest retained |xi| (band edge M/2 carries a zero coefficient)."""
        return (self.grid_size // 2) / self.lam

    def xgrid(self):
        return self.dx * np.arange(self.grid_size)


@dataclass(frozen=True)
class SpectralField:
    """Truncated Fourier coefficients of a function on the rescaled torus.

    Immutable; all operations return new fields.  ``real`` records that the
    underlying function is real-valued, i.e. coeff(-xi) == conj(coeff(xi)).
    """

    geometry: TorusGeometry
    coeffs: np.ndarray
    real: bool = False

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex).copy()
        if c.shape != (self.geometry.grid_size,):
            raise SizeMismatchError(
                f"expected {self.geometry.grid_size} coefficients, got {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise NonFiniteDataError("non-finite coefficient")
        c[self.geometry.grid_size // 2] = 0.0  # annihilate the Nyquist slot
        if self.real:
            c = 0.5 * (c + np.conj(c[_negation_index(self.geometry.grid_size)]))
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def lam(self):
        return self.geometry.lam

    def coeff(self, m):
        return self.coeffs[int(m) % self.geometry.grid_size]

    def samples(self, oversample=1):
        """Physical-space samples on the (optionally refined) uniform grid."""
        return inverse_transform(self, oversample=oversample)

    def l2_norm(self):
        return float(
            np.sqrt(np.sum(np.abs(self.coeffs) ** 2) / (2.0 * np.pi * self.lam))
        )

    def __mul__(self, c):
        return SpectralField(
            self.geometry, self.coeffs * c, self.real and np.isreal(c)
        )

    __rmul__ = __mul__


def _negation_index(n):
    idx = np.zeros(n, dtype=int)
    idx[0] = 0
    idx[1:] = np.arange(n - 1, 0, -1)
    return idx


def block_indicator(xi, k):
    a = np.abs(np.asarray(xi, dtype=float))
    if k == 0:
        return a < 2.0
    return (a >= 2.0**k) & (a < 2.0 ** (k + 1))


def block_of(xi):
    """Index k with xi in I_k (vectorized)."""
    a = np.abs(np.asarray(xi, dtype=float))
    out = np.zeros(a.shape, dtype=int)
    big = a >= 2.0
    out[big] = np.floor(np.log2(a[big])).astype(int)
    return out


def max_block(geometry):
    """Largest k with I_k intersecting the retained lattice."""
    return int(block_of(np.array([geometry.cutoff]))[0])


def forward_transform(samples, geometry):
    """Trapezoidal quadrature of the torus Fourier integral; exact on the grid."""
    s = np.asarray(samples)
    if s.shape != (geometry.grid_size,):
        raise SizeMismatchError(
            f"expected {geometry.grid_size} samples, got {s.shape}"
        )
    if not np.all(np.isfinite(s)):
        raise NonFiniteDataError("non-finite sample")
    is_real = bool(np.isrealobj(s) or np.allclose(s.imag, 0.0, atol=0.0))
    coeffs = geometry.dx * np.fft.fft(s.astype(complex))
    return SpectralField(geometry, coeffs, real=is_real)


def synthesize(coeffs, slots, n, period, real=False):
    """Samples on the n-point grid of the torus of circumference ``period``
    of the field whose coefficients (last axis; leading axes batch) sit at
    grid slots ``slots`` (an index array or a slice).  With ``real`` the
    coefficients are the half spectrum (slots 0..n/2) of a real field, whose
    samples are real."""
    a = np.zeros(coeffs.shape[:-1] + (n // 2 + 1 if real else n,), dtype=complex)
    a.T[slots] = coeffs.T  # a[..., slots] = coeffs, minus its slow 1-D path
    if real:
        return np.fft.irfft(a, n, axis=-1) * (n / period)
    return np.fft.ifft(a, axis=-1) * n / period


def cubic_coeffs(coeffs, slots, n, period, conjugate_middle=False, real=False):
    """All n grid coefficients of u^3 (or u conj(u) u) for the field
    synthesized by ``synthesize``; with ``real`` the half spectrum 0..n/2 of
    the real cube.  With the data in |m| <= band, the slot of mode m is
    alias-free, hence exact, when |m| < n - 3 * band."""
    u = synthesize(coeffs, slots, n, period, real)
    mid = np.conj(u) if conjugate_middle else u
    forward = np.fft.rfft if real else np.fft.fft
    return forward(u * mid * u) * (period / n)


def inverse_transform(f, oversample=1):
    """Invert the transform; ``oversample`` refines the grid by zero padding."""
    g = f.geometry
    n = g.grid_size * int(oversample)
    vals = synthesize(f.coeffs, g.mvals % n, n, g.period)
    if f.real:
        return vals.real
    return vals


def hilbert_transform(f):
    """Fourier multiplier -i sgn(xi), with sgn(0) = 0."""
    mult = -1j * np.sign(f.geometry.mvals)
    return SpectralField(f.geometry, f.coeffs * mult, real=f.real)


def lp_project(f, k):
    """Sharp Littlewood-Paley projection onto the dyadic annulus I_k."""
    mask = block_indicator(f.geometry.xi, k)
    return SpectralField(f.geometry, np.where(mask, f.coeffs, 0.0), real=f.real)


def sobolev_norm(f, s):
    """H^s norm: lattice-measure L2 norm of <xi>^s * fhat (no 2*pi factor)."""
    xi = f.geometry.xi
    w = (1.0 + xi**2) ** s
    return float(np.sqrt(np.sum(w * np.abs(f.coeffs) ** 2) / f.lam))


def lebesgue_norm(samples, lam, p):
    """L^p norm of grid samples by trapezoidal quadrature; p = inf allowed.
    Reduces over the last axis (leading axes batch), so one row of samples
    gives a numpy scalar and a stack of rows one norm per row."""
    if p != np.inf and p < 1:
        raise ValueError(f"Lebesgue exponent must be >= 1, got {p}")
    s = np.abs(samples)
    if p == np.inf:
        return np.max(s, axis=-1)
    dx = 2.0 * np.pi * lam / s.shape[-1]
    return (dx * np.sum(s**p, axis=-1)) ** (1.0 / p)


def field_lebesgue_norm(f, p, oversample=4):
    """L^p norm of a spectral field; |f|^p is not band-limited, so the field
    is synthesized on an oversampled grid before quadrature."""
    return lebesgue_norm(f.samples(oversample=oversample), f.lam, p)


def random_field(geometry, rng, band=None, real=False, block=None, decay=0.0):
    """Unit-L2 Gaussian random field, optionally confined to |m| <= band or
    to one dyadic block, optionally conjugate-symmetrized."""
    g = geometry
    mv = g.mvals
    if block is not None:
        mask = block_indicator(g.xi, block)
    else:
        if band is None:
            band = g.grid_size // 2 - 1
        mask = np.abs(mv) <= band
    c = rng.standard_normal(g.grid_size) + 1j * rng.standard_normal(g.grid_size)
    if decay > 0.0:
        c = c / (1.0 + np.abs(g.xi)) ** decay
    c = np.where(mask, c, 0.0)
    out = SpectralField(g, c, real=real)
    n = out.l2_norm()
    if n == 0.0:
        raise ValueError("degenerate random field (empty band)")
    return out * (1.0 / n)
