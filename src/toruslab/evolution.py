"""Free propagators and a conservative nonlinear integrator for the two flows.

The two model equations, with sign sigma = +1 (focusing) or -1 (defocusing):

* real dispersive flow:    d_t u + H d_xx u = sigma * d_x(u^3) / 3
* derivative Schroedinger: i d_t u + d_xx u = i * sigma * d_x(|u|^2 u)

On the Fourier side both read d_t uhat = i*omega(xi)*uhat + Nhat(uhat) with
omega(xi) = -xi|xi| resp. -xi^2, and a cubic Nhat evaluated pseudospectrally.

Time stepping is integrating-factor RK4: the stiff diagonal phase is handled
exactly, classical RK4 acts on the slow interaction-picture variable.  Cubic
products come from ``spectral.cubic_coeffs`` on a twice-padded grid (exact for
every retained mode) and the result is truncated to the band |m| <= M/3, so
the semi-discrete system is an exact Galerkin truncation and conserves mass
and energy in continuous time; the only drift is the RK4 time error.  The
free solution's (times, modes) coefficient table is built by ``free_rows``.

Stability note: the linear part imposes no step restriction.  The default
step dt = 0.5 / max|omega| keeps the phase of the nonlinear interaction
accurate; steps with dt * max|omega| > 4 are rejected as out of the scheme's
documented regime.
"""

from dataclasses import dataclass

import numpy as np

from .spectral import (SpectralField, TorusGeometry, _negation_index,
                       cubic_coeffs)


class IntegrationBlowupError(RuntimeError):
    def __init__(self, step):
        super().__init__(f"non-finite state at step {step}")
        self.step = step


@dataclass(frozen=True)
class DispersionLaw:
    """Dispersion relation omega(xi) selected by tag."""

    tag: str

    def __post_init__(self):
        if self.tag not in ("benjamin_ono", "schroedinger"):
            raise ValueError(f"unknown dispersion law {self.tag!r}")

    def omega(self, xi):
        xi = np.asarray(xi, dtype=float)
        if self.tag == "benjamin_ono":
            return -xi * np.abs(xi)
        return -(xi**2)

    @property
    def odd(self):
        return self.tag == "benjamin_ono"


BENJAMIN_ONO = DispersionLaw("benjamin_ono")
SCHROEDINGER = DispersionLaw("schroedinger")


@dataclass(frozen=True)
class FlowProblem:
    """Dispersion law + nonlinearity sign + initial data."""

    law: DispersionLaw
    sigma: int
    u0: SpectralField

    def __post_init__(self):
        if self.sigma not in (+1, -1):
            raise ValueError("sigma must be +1 or -1")
        if self.law.tag == "benjamin_ono" and not self.u0.real:
            raise ValueError("the real flow requires real-valued initial data")


def free_evolve(f, t, law):
    """Multiply each mode by exp(i t omega(xi)); unitary on L2.  An odd
    dispersion relation preserves conjugate symmetry, so reality survives."""
    phase = np.exp(1j * t * law.omega(f.geometry.xi))
    keeps_reality = law.odd or t == 0.0
    return SpectralField(f.geometry, f.coeffs * phase, real=f.real and keeps_reality)


def free_rows(coeffs, xi, times, law):
    """Coefficients exp(i t omega(xi)) * coeffs of the free solution, one row
    per time; coeffs may also be a (times, modes) table."""
    return coeffs * np.exp(1j * np.outer(times, law.omega(xi)))


def dealias_band(geometry):
    """Retained band |m| <= M/3 (cubic products computed exactly, then cut)."""
    return geometry.grid_size // 3


def project_band(f, band):
    mask = np.abs(f.geometry.mvals) <= band
    return SpectralField(f.geometry, np.where(mask, f.coeffs, 0.0), real=f.real)


class FlowIntegrator:
    """Integrating-factor RK4 stepper for one FlowProblem at fixed dt."""

    def __init__(self, problem, dt):
        self.problem = problem
        g = problem.u0.geometry
        self.geometry = g
        self.band = dealias_band(g)
        self.band_mask = np.abs(g.mvals) <= self.band
        self._npad = 2 * g.grid_size
        self._slots = g.mvals % self._npad  # the M modes on the padded grid
        xi = g.xi
        omega = problem.law.omega(xi)
        omega_max = float(np.max(np.abs(omega[self.band_mask])))
        if abs(dt) * omega_max > 4.0:
            raise ValueError(
                f"dt * max|omega| = {abs(dt) * omega_max:.3g} exceeds the "
                "documented accuracy regime (<= 4)"
            )
        self.dt = float(dt)
        self.e_full = np.exp(1j * self.dt * omega)
        self.e_half = np.exp(1j * 0.5 * self.dt * omega)
        if problem.law.tag == "benjamin_ono":
            self._mult = problem.sigma * (1j * xi) / 3.0
            self._conj_mid = False
        else:
            self._mult = problem.sigma * (1j * xi)
            self._conj_mid = True

    def nonlinearity(self, coeffs):
        chat = cubic_coeffs(coeffs, self._slots, self._npad,
                            self.geometry.period, self._conj_mid)[self._slots]
        return np.where(self.band_mask, self._mult * chat, 0.0)

    def step(self, coeffs):
        h = self.dt
        eh, ef = self.e_half, self.e_full
        k1 = self.nonlinearity(coeffs)
        k2 = self.nonlinearity(eh * (coeffs + 0.5 * h * k1))
        k3 = self.nonlinearity(eh * coeffs + 0.5 * h * k2)
        k4 = self.nonlinearity(ef * coeffs + h * eh * k3)
        return ef * coeffs + (h / 6.0) * (ef * k1 + 2.0 * eh * (k2 + k3) + k4)


def default_dt(problem):
    g = problem.u0.geometry
    band = dealias_band(g)
    mask = np.abs(g.mvals) <= band
    omega_max = float(np.max(np.abs(problem.law.omega(g.xi[mask]))))
    return 0.5 / omega_max


def step_nonlinear(state, dt, problem):
    """One integrator step from an arbitrary in-band state."""
    stepper = FlowIntegrator(problem, dt)
    out = stepper.step(project_band(state, stepper.band).coeffs)
    if not np.all(np.isfinite(out)):
        raise IntegrationBlowupError(0)
    return SpectralField(state.geometry, out, real=state.real)


@dataclass(frozen=True)
class Trajectory:
    problem: FlowProblem
    times: np.ndarray
    states: np.ndarray  # (n_times, M) complex coefficient rows

    def field(self, i):
        return SpectralField(
            self.problem.u0.geometry, self.states[i], real=self.problem.u0.real
        )

    def __len__(self):
        return len(self.times)


def evolve(problem, t_final, dt=None, n_snapshots=2):
    """Integrate from t=0 to t_final (either sign), storing uniform snapshots.

    The initial data is projected to the dealiased band once; the band is
    invariant under the discrete flow.
    """
    if dt is None:
        dt = default_dt(problem)
    dt = abs(float(dt)) * (1 if t_final >= 0 else -1)
    n_snapshots = max(2, int(n_snapshots))
    span = t_final / (n_snapshots - 1)
    steps_per = max(1, int(round(abs(span) / abs(dt))))
    dt = span / steps_per
    stepper = FlowIntegrator(problem, dt)
    u = project_band(problem.u0, stepper.band).coeffs
    times = np.empty(n_snapshots)
    states = np.empty((n_snapshots, u.shape[0]), dtype=complex)
    times[0] = 0.0
    states[0] = u
    count = 0
    for i in range(1, n_snapshots):
        for _ in range(steps_per):
            u = stepper.step(u)
            count += 1
            if not np.all(np.isfinite(u)):
                raise IntegrationBlowupError(count)
        times[i] = i * span
        states[i] = u
    return Trajectory(problem, times, states)


def conserved_mass(u):
    """Integral of u^2 over the torus, evaluated by Plancherel."""
    if not u.real:
        raise ValueError("mass integral of u^2 is defined for real fields")
    return float(np.sum(np.abs(u.coeffs) ** 2) / (2.0 * np.pi * u.lam))


def conserved_energy(u, sigma):
    """Hamiltonian: half the squared half-derivative L2 norm minus
    sigma/12 times the quartic integral (oversampled quadrature)."""
    if not u.real:
        raise ValueError("energy is defined for real fields")
    g = u.geometry
    quad = 0.5 * float(
        np.sum(np.abs(g.xi) * np.abs(u.coeffs) ** 2) / (2.0 * np.pi * u.lam)
    )
    s = u.samples(oversample=4)
    dx = g.period / s.shape[0]
    quart = float(dx * np.sum(s**4))
    return quad - sigma * quart / 12.0


def reflect(u):
    """Spatial reflection x -> -x (coefficient index negation)."""
    return SpectralField(
        u.geometry, u.coeffs[_negation_index(u.geometry.grid_size)], real=u.real
    )


def rescale(u, lam_new):
    """Scaling map u(x) -> r^(-1/2) u(x/r) onto the torus of scale lam_new.

    Pushing the substitution through the transform: the coefficient at
    integer lattice slot m is multiplied by r^(1/2) while the slot is
    reinterpreted as frequency m/lam_new, so the mode xi moves to xi/r.
    The L2 norm is preserved exactly.  Dyadic ratios keep lattices nested.
    """
    g = u.geometry
    r = lam_new / g.lam
    p = np.log2(r)
    if abs(p - round(p)) > 1e-12:
        raise ValueError(f"scale ratio {r} is not a power of two")
    if lam_new < 1.0:
        raise ValueError("target scale must be >= 1")
    if r == 1.0:
        return u
    g_new = TorusGeometry(lam_new, g.grid_size)
    return SpectralField(g_new, np.sqrt(r) * u.coeffs, real=u.real)
