"""The shorttime restriction norms in action.

A free solution windowed at its own block scale has block norm comparable to
the data's L2 norm (the transfer principle at work); modulating the field
pushes content to higher dyadic annuli where the nonlinearity norm's
resolvent weight suppresses it.
"""

import numpy as np

from toruslab import bumps
from toruslab.evolution import BENJAMIN_ONO
from toruslab.spacetime import fk_norm, modulated_profile_field, nk_norm, xk_norm
from toruslab.spectral import TorusGeometry, random_field

rng = np.random.default_rng(1)
law = BENJAMIN_ONO

print("windowed free solutions: block norm vs data L2")
for k in (3, 4, 5, 6):
    g = TorusGeometry(1.0, bumps.next_pow2(int(8 * 2 ** (k + 1))))
    phi = random_field(g, rng, block=k)
    nz = np.abs(phi.coeffs) > 0
    order = np.argsort(g.mvals[nz])
    mv = np.sort(g.mvals[nz])
    prof = phi.coeffs[nz][order]
    dt = 2.0**-k / 32
    tg = np.arange(-(2.0 ** (1 - k)), 2.0 ** (1 - k) + dt / 2, dt)
    env = bumps.eta0(tg * 2.0**k)
    f = modulated_profile_field(g, mv, tg, prof, env, law)
    print(f"  k={k}:  xk/L2 = {xk_norm(f, k, law=law) / phi.l2_norm():.3f}")

print("\nmodulated fields: the resolvent weight suppresses high annuli")
k = 3
g = TorusGeometry(1.0, 256)
phi = random_field(g, rng, block=k)
nz = np.abs(phi.coeffs) > 0
mv = np.sort(g.mvals[nz])
prof = phi.coeffs[nz][np.argsort(g.mvals[nz])]
for j in (4, 6, 8):
    theta = 2.0**j
    dt = min(2.0**-k / 32, np.pi / (8 * theta))
    tg = np.arange(-(2.0 ** (1 - k)), 2.0 ** (1 - k) + dt / 2, dt)
    env = bumps.eta0(tg * 2.0**k) * np.exp(1j * theta * tg)
    f = modulated_profile_field(g, mv, tg, prof, env, law)
    print(
        f"  content at 2^{j}:  windowed norm {fk_norm(f, k, law=law):8.3f}"
        f"   resolvent norm {nk_norm(f, k, law=law):8.5f}"
    )
