"""Reference implementations shared by the test modules."""

import itertools

import numpy as np

from toruslab import bumps, energy


def eta_j(tau, j):
    """Dyadic annulus cutoff eta_j = eta0(tau/2^j) - eta0(tau/2^(j-1)), j >= 1,
    evaluated on its own (the reference for bumps.eta_stack)."""
    if j == 0:
        return bumps.eta0(tau)
    return bumps.eta0(np.asarray(tau, dtype=float) / 2.0**j) - bumps.eta0(
        np.asarray(tau, dtype=float) / 2.0 ** (j - 1)
    )


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
