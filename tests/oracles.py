"""Reference implementations shared by the test modules."""

import itertools

import numpy as np

from toruslab import bumps, energy, evolution


def eta_j(tau, j):
    """Dyadic annulus cutoff eta_j = eta0(tau/2^j) - eta0(tau/2^(j-1)), j >= 1,
    evaluated on its own (the reference for bumps.eta_stack)."""
    if j == 0:
        return bumps.eta0(tau)
    return bumps.eta0(np.asarray(tau, dtype=float) / 2.0**j) - bumps.eta0(
        np.asarray(tau, dtype=float) / 2.0 ** (j - 1)
    )


def lag_kernels_direct(npad, lags, dt, nj):
    """Lag kernels (forms, lags, nj) of W_j = eta_j^2, over
    (4 sin^2(tau dt / 2))^m for form m (j >= 1 when m > 0), each from its
    own inverse transform on the npad-point tau grid (the reference for the
    folded kernels of spacetime._lag_kernels)."""
    taut = 2.0 * np.pi * np.fft.rfftfreq(npad, dt)
    diff = 4.0 * np.sin(0.5 * dt * taut) ** 2
    kern = np.zeros((4, lags.size, nj))
    for j in range(nj):
        w = eta_j(taut, j) ** 2
        for m in range(4 if j else 1):
            if m:
                w = np.divide(w, diff, out=np.zeros_like(w), where=w > 0)
            kern[m, :, j] = np.fft.irfft(w, npad)[lags]
    return kern


def r6_scalar_loop(sym, u, law, band):
    """Sextic remainder by a plain loop over every zero-sum six-tuple of the
    support band (the reference for the vectorised enumeration of
    energy.r6_enumerated; small bands only).  The loop collects each term's
    b4 arguments and factor, and b4 is evaluated once at the end."""
    b = max(energy._support_band(u), 1)
    lam = u.lam
    tab = energy._coeff_lookup(u, b)
    slots = [tab] * 6 if law.odd else [tab, np.conj(tab[::-1])] * 3
    terms = [(4.0 / 3.0, 3)] if law.odd else [(2.0, 0), (2.0, 1)]
    xis, factors = [], []
    for head in itertools.product(range(-b, b + 1), repeat=5):
        ms = head + (-sum(head),)
        if abs(ms[5]) > b:
            continue
        c = 1.0 + 0.0j
        for slot, m in zip(slots, ms):
            c *= slot[m + b]
        for weight, s in terms:
            mc = sum(ms[s:s + 3])
            if abs(mc) <= band:
                xi = [m / lam for m in ms[:s] + (mc,) + ms[s + 3:]]
                xis.append(xi)
                factors.append(weight * 1j * xi[s] * c)
    b4 = energy.b4_multiplier(sym, np.array(xis).T, law)
    total = np.sum(b4 * np.array(factors))
    return float((lam ** (-5) * energy.TWO_PI_SQ_INV * total).real)


def simplex_chunks(simplex):
    """Yield (m1, M2, M3, M4) with m4 = -(m1+m2+m3) in band (d = 4): every
    Gamma4 tuple of a GridSimplex once, one chunk per m1 (the reference for
    the orbit enumeration of energy._gamma4_sums)."""
    if simplex.dimension != 4:
        raise ValueError("chunked iteration is for d = 4")
    b = simplex.band
    rng = np.arange(-b, b + 1)
    m2, m3 = np.meshgrid(rng, rng, indexing="ij")
    m2 = m2.ravel()
    m3 = m3.ravel()
    for m1 in rng:
        keep = np.abs(m1 + m2 + m3) <= b
        k2, k3 = m2[keep], m3[keep]
        yield m1, k2, k3, -(m1 + k2 + k3)


def gamma4_sums_full(kind, sym, law, band, lam, batch):
    """energy._gamma4_sums by full enumeration: the multiplier is evaluated
    on every Gamma4 tuple, one m1 chunk at a time, and contracted against
    every entry's slot products as they stand (the reference for the orbit
    walk)."""
    simplex = energy.GridSimplex(4, band, lam)
    batch = [[(w, [np.pad(t, band - t.size // 2) for t in slots])
              for w, slots in terms] for terms in batch]
    totals = [0.0 + 0.0j] * len(batch)
    for m1, m2, m3, m4 in simplex_chunks(simplex):
        xi = (m1 / lam, m2 / lam, m3 / lam, m4 / lam)
        if kind == "b4":
            mult = energy.b4_multiplier(sym, xi, law)
        else:
            mult = sym.g(xi[0]) + sym.g(xi[1]) + sym.g(xi[2]) + sym.g(xi[3])
        for i, terms in enumerate(batch):
            c = sum(w * s[0][m1 + band] * s[1][m2 + band] * s[2][m3 + band]
                    * s[3][m4 + band] for w, s in terms)
            totals[i] += np.sum(mult * c)
        del xi, mult, m2, m3, m4, c  # hold one chunk while the next is evaluated
    return [simplex.weight * total for total in totals]


def _padded_cube(coeffs, slots, n, period, conjugate_middle):
    """All n grid coefficients of u^3 (or u conj(u) u) on the complex n-point
    grid (the cubic product the serial stepper was built on)."""
    a = np.zeros(coeffs.shape[:-1] + (n,), dtype=complex)
    a.T[slots] = coeffs.T
    u = np.fft.ifft(a, axis=-1) * n / period
    cube = (u * np.conj(u) * u) if conjugate_middle else u**3
    return np.fft.fft(cube) * (period / n)


class SerialFlowIntegrator:
    """Integrating-factor RK4 stepper for one FlowProblem at fixed dt, on full
    coefficient rows with the cube on the complex 2M grid (the reference for
    the batched evolution.FlowIntegrator)."""

    def __init__(self, problem, dt):
        self.problem = problem
        g = problem.u0.geometry
        self.geometry = g
        self.band = evolution.dealias_band(g)
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
        chat = _padded_cube(coeffs, self._slots, self._npad,
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


def serial_evolve(problem, t_final, dt=None, n_snapshots=2):
    """Snapshot times and (n_times, M) coefficient rows of one problem,
    integrated step by step with SerialFlowIntegrator."""
    if dt is None:
        dt = evolution.default_dt(problem)
    dt = abs(float(dt)) * (1 if t_final >= 0 else -1)
    n_snapshots = max(2, int(n_snapshots))
    span = t_final / (n_snapshots - 1)
    steps_per = max(1, int(round(abs(span) / abs(dt))))
    dt = span / steps_per
    stepper = SerialFlowIntegrator(problem, dt)
    mask = stepper.band_mask
    u = np.where(mask, problem.u0.coeffs, 0.0)
    times = np.empty(n_snapshots)
    states = np.empty((n_snapshots, u.shape[0]), dtype=complex)
    times[0] = 0.0
    states[0] = u
    for i in range(1, n_snapshots):
        for _ in range(steps_per):
            u = stepper.step(u)
        times[i] = i * span
        states[i] = u
    return times, states
