"""Free propagators and a conservative nonlinear integrator for the two flows.

The two model equations, with sign sigma = +1 (focusing) or -1 (defocusing):

* real dispersive flow:    d_t u + H d_xx u = sigma * d_x(u^3) / 3
* derivative Schroedinger: i d_t u + d_xx u = i * sigma * d_x(|u|^2 u)

On the Fourier side both read d_t uhat = i*omega(xi)*uhat + Nhat(uhat) with
omega(xi) = -xi|xi| resp. -xi^2, and a cubic Nhat evaluated pseudospectrally.

Time stepping is integrating-factor RK4 (Kassam-Trefethen): the stiff
diagonal phase is handled exactly, classical RK4 acts on the slow
interaction-picture variable.  The state holds only the band |m| <= M/3; for
the real flow only its half 0 <= m <= M/3, the rest following by conjugate
symmetry.  Cubic products come from ``spectral.cubic_coeffs`` on n >= 4 band
+ 1 points (exact for every retained mode): a real FFT of the half spectrum
for the real flow, a complex FFT for the Schroedinger flow.  The
semi-discrete system is thus an exact Galerkin truncation and conserves mass
and energy in continuous time; the only drift is the RK4 time error.

``evolve_many`` advances a batch of problems that share a geometry, law and
sigma as one (batch, modes) state, each row in its own time direction;
``evolve`` is its one-problem case and ``evolve_two_sided`` joins backward
and forward runs into trajectories over [-T, T].  The free solution's
(times, modes) coefficient table is built by ``free_rows``.

Stability note: the linear part imposes no step restriction.  The default
step dt = 0.5 / max|omega| (criterion 2's) keeps the phase of the nonlinear
interaction accurate; criterion 10 pins 4x it, within a tested 1e-9 of the
default step's states on its small data.  Steps with dt * max|omega| > 4 are
rejected as out of the scheme's documented regime.
"""

from dataclasses import dataclass

import numpy as np

from .bumps import fast_len
from .spectral import SpectralField, TorusGeometry, cubic_coeffs


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


class FlowIntegrator:
    """Integrating-factor RK4 stepper for states that share the geometry,
    law and sigma of ``problem``.  ``dt`` is one signed step, or one per row
    of a (rows, modes) state.  States hold the modes ``self.modes``;
    ``pack`` and ``unpack`` convert from and to full coefficient rows."""

    def __init__(self, problem, dt):
        g = problem.u0.geometry
        self.geometry = g
        self.real = problem.law.odd
        band = dealias_band(g)
        self.modes = np.arange(0 if self.real else -band, band + 1)
        self.n = fast_len(4 * band + 1)
        # the half spectrum fills slots 0..band of the real transform
        self._slots = slice(0, band + 1) if self.real else self.modes % self.n
        xi = self.modes / g.lam
        omega = problem.law.omega(xi)
        h = np.reshape(np.asarray(dt, dtype=float), (-1, 1))
        dt_omega = float(np.max(np.abs(h)) * np.max(np.abs(omega)))
        if dt_omega > 4.0:
            raise ValueError(
                f"dt * max|omega| = {dt_omega:.3g} exceeds the "
                "documented accuracy regime (<= 4)"
            )
        self.e_full = np.exp(1j * h * omega)
        self.e_half = np.exp(1j * 0.5 * h * omega)
        # the RK4 weights, formed once
        self._h2, self._h6 = 0.5 * h, h / 6.0
        self._h_eh, self._eh2 = h * self.e_half, 2.0 * self.e_half
        self._mult = problem.sigma * (1j * xi) / (3.0 if self.real else 1.0)

    def pack(self, rows):
        """The retained modes of full (..., M) coefficient rows."""
        return rows[..., self.modes % self.geometry.grid_size]

    def unpack(self, state):
        """Full (..., M) coefficient rows of a state, zero outside the band."""
        m = self.geometry.grid_size
        rows = np.zeros(state.shape[:-1] + (m,), dtype=complex)
        if self.real:
            rows[..., -self.modes % m] = np.conj(state)
        rows[..., self.modes % m] = state
        return rows

    def nonlinearity(self, state):
        """Nhat on the retained modes; leading axes of the state batch."""
        cube = cubic_coeffs(state, self._slots, self.n, self.geometry.period,
                            conjugate_middle=not self.real, real=self.real)
        return self._mult * cube[..., self._slots]

    def step(self, coeffs):
        eh, ef = self.e_half, self.e_full
        k1 = self.nonlinearity(coeffs)
        k2 = self.nonlinearity(eh * (coeffs + self._h2 * k1))
        k3 = self.nonlinearity(eh * coeffs + self._h2 * k2)
        k4 = self.nonlinearity(ef * coeffs + self._h_eh * k3)
        return ef * coeffs + self._h6 * (ef * k1 + self._eh2 * (k2 + k3) + k4)


def default_dt(problem):
    g = problem.u0.geometry
    band = dealias_band(g)
    mask = np.abs(g.mvals) <= band
    omega_max = float(np.max(np.abs(problem.law.omega(g.xi[mask]))))
    return 0.5 / omega_max


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


def evolve_many(problems, t_finals, dt=None, n_snapshots=2):
    """Integrate each problem from t=0 to its t_final, storing uniform
    snapshots; returns one Trajectory per problem.

    The problems share a geometry, law and sigma, and the t_finals one
    magnitude with either sign, so every row takes the same number of steps
    of the same |dt|; the rows advance together as one batched state.  The
    initial data is projected to the dealiased band once; the band is
    invariant under the discrete flow.
    """
    first = problems[0]
    shared = (first.law, first.sigma, first.u0.geometry)
    if any((p.law, p.sigma, p.u0.geometry) != shared for p in problems):
        raise ValueError("batched problems must share geometry, law and sigma")
    t_finals = np.asarray(t_finals, dtype=float)
    if t_finals.shape != (len(problems),) or np.any(
            np.abs(t_finals) != abs(t_finals[0])):
        raise ValueError("expected one t_final per problem, of one magnitude")
    if dt is None:
        dt = default_dt(first)
    n_snapshots = max(2, int(n_snapshots))
    spans = t_finals / (n_snapshots - 1)
    steps_per = max(1, int(round(abs(spans[0]) / abs(float(dt)))))
    stepper = FlowIntegrator(first, spans / steps_per)
    u = stepper.pack(np.stack([p.u0.coeffs for p in problems]))
    snaps = np.empty((len(problems), n_snapshots, u.shape[1]), dtype=complex)
    snaps[:, 0] = u
    count = 0
    for i in range(1, n_snapshots):
        for _ in range(steps_per):
            u = stepper.step(u)
            count += 1
            if not np.isfinite(u).all():
                raise IntegrationBlowupError(count)
        snaps[:, i] = u
    times = np.outer(spans, np.arange(n_snapshots))
    times[:, 0] = 0.0  # not -0.0 on backward rows
    return [Trajectory(p, t, stepper.unpack(rows))
            for p, t, rows in zip(problems, times, snaps)]


def evolve(problem, t_final, dt=None, n_snapshots=2):
    """Integrate from t=0 to t_final (either sign), storing uniform snapshots
    (``evolve_many`` for one problem)."""
    return evolve_many([problem], [t_final], dt, n_snapshots)[0]


def evolve_two_sided(problems, t_final, dt=None, n_snapshots=2):
    """Trajectories over [-t_final, t_final] with n_snapshots per side: one
    ``evolve_many`` batch runs each problem backward and forward, and each
    pair is joined at t = 0."""
    runs = evolve_many([p for p in problems for _ in (0, 1)],
                       [-t_final, t_final] * len(problems), dt, n_snapshots)
    return [Trajectory(bwd.problem,
                       np.concatenate([bwd.times[::-1], fwd.times[1:]]),
                       np.concatenate([bwd.states[::-1], fwd.states[1:]]))
            for bwd, fwd in zip(runs[::2], runs[1::2])]


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
