"""Reference implementations shared by the test modules."""

import numpy as np

from toruslab import bumps


def eta_j(tau, j):
    """Dyadic annulus cutoff eta_j = eta0(tau/2^j) - eta0(tau/2^(j-1)), j >= 1,
    evaluated on its own (the reference for bumps.eta_stack)."""
    if j == 0:
        return bumps.eta0(tau)
    return bumps.eta0(np.asarray(tau, dtype=float) / 2.0**j) - bumps.eta0(
        np.asarray(tau, dtype=float) / 2.0 ** (j - 1)
    )
