"""Closed-form C^inf bump machinery shared by the modulation partition and symbols.

Everything here is built from the standard mollifier phi(x) = exp(-1/x) on x > 0,
so all cutoffs are genuinely smooth with analytic first derivatives.
"""

import numpy as np

# Support constants of the base time/modulation cutoff: identically one on
# [-INNER, INNER], supported in [-OUTER, OUTER].
INNER = 5.0 / 4.0
OUTER = 8.0 / 5.0


def _phi(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def _phi_prime(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos]) / x[pos] ** 2
    return out


def smoothstep(x):
    """C^inf monotone step: 0 for x <= 0, 1 for x >= 1."""
    x = np.asarray(x, dtype=float)
    a = _phi(x)
    b = _phi(1.0 - x)
    return a / (a + b + np.finfo(float).tiny)


def smoothstep_prime(x):
    x = np.asarray(x, dtype=float)
    a = _phi(x)
    b = _phi(1.0 - x)
    ap = _phi_prime(x)
    bp = _phi_prime(1.0 - x)
    den = (a + b) ** 2 + np.finfo(float).tiny
    return (ap * b + a * bp) / den


def eta0(tau):
    """Even smooth cutoff: 1 on [-5/4, 5/4], supported in [-8/5, 8/5]."""
    x = (OUTER - np.abs(np.asarray(tau, dtype=float))) / (OUTER - INNER)
    return smoothstep(x)


def eta_rows(tau, jmax):
    """Yield eta_0 .. eta_jmax of the dyadic modulation partition at tau, with
    eta_j = eta0(tau/2^j) - eta0(tau/2^(j-1)) for j >= 1: each eta0(tau/2^j)
    is evaluated once and at most two rows are held."""
    tau = np.asarray(tau, dtype=float)
    prev = 0.0
    for j in range(jmax + 1):
        cur = eta0(tau / 2.0**j)
        yield cur - prev
        prev = cur


def eta_stack(tau, jmax):
    """Rows eta_0 .. eta_jmax of eta_rows as one (jmax + 1, ...) array."""
    row = np.dtype((float, np.shape(tau)))
    return np.fromiter(eta_rows(tau, jmax), dtype=row, count=jmax + 1)


def max_resolved_j(tau_max):
    """Largest j whose annulus eta_j intersects |tau| <= tau_max."""
    j = 0
    while INNER * 2.0 ** (j - 1) <= tau_max:
        j += 1
    return j


def plateau(t, lo, hi, width):
    """Smooth plateau: 1 on [lo, hi], 0 outside [lo - width, hi + width]."""
    t = np.asarray(t, dtype=float)
    left = smoothstep((t - (lo - width)) / width)
    right = smoothstep(((hi + width) - t) / width)
    return left * right


def next_pow2(n):
    n = int(n)
    p = 1
    while p < n:
        p *= 2
    return p


def fast_len(n):
    """Smallest 5-smooth length 2^a 3^b 5^c >= n, on which an FFT runs at
    full speed; never above next_pow2(n)."""
    n = max(int(n), 1)
    best = next_pow2(n)
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # 3^b 5^c, doubled until it reaches n
            q = p35
            while q < n:
                q *= 2
            best = min(best, q)
            p35 *= 3
        p5 *= 5
    return best
