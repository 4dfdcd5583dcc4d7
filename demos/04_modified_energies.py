"""The generalized-energy hierarchy and its cancellations.

The quadratic energy with a slowly varying symbol is not conserved by the
cubic flow; its derivative is a quartic lattice form.  Adding the quartic
correction with the right multiplier cancels that form, leaving a sextic
remainder several orders smaller.  Everything is checked along an actual
integrated trajectory.
"""

import numpy as np

from toruslab.energy import (
    DyadicSymbol,
    b4_multiplier,
    build_envelope,
    build_symbol,
    cancellation_check,
    e0_energy,
    e1_correction,
    envelope_axioms,
    r4_form,
    r6_form,
)
from toruslab.evolution import BENJAMIN_ONO, FlowProblem, dealias_band, evolve
from toruslab.spectral import TorusGeometry, random_field

rng = np.random.default_rng(2)
g = TorusGeometry(1.0, 32)
law = BENJAMIN_ONO
sym = DyadicSymbol.from_exponent(0.3)

u0 = random_field(g, rng, band=10, real=True, decay=2.0) * 0.4
prob = FlowProblem(law, +1, u0)

print("energies of the initial data:")
print(f"  E0 = {e0_energy(sym, u0, law):.6f}")
print(f"  E1 = {e1_correction(sym, u0, law):.3e}")
print(f"  dE0/dt = R4 = {r4_form(sym, u0, law, +1):.3e}")
print(f"  d(E0+E1)/dt = R6 = {r6_form(sym, u0, law):.3e}")

print("\ncancellation along the flow (residuals of the two identities):")
for nsnap in (11, 21, 41):
    traj = evolve(prob, 0.2, dt=(0.2 / (nsnap - 1)) / 10.0, n_snapshots=nsnap)
    rep = cancellation_check(traj, sym, band=dealias_band(g))
    print(
        f"  spacing {0.2/(nsnap-1):.4f}:  |dE0/dt - R4| = "
        f"{rep['residual_r4_mid']:.2e}   |d(E0+E1)/dt - R6| = "
        f"{rep['residual_r6_mid']:.2e}"
    )

print("\nfrequency envelope of rough data and the symbol built from it:")
u = random_field(TorusGeometry(1.0, 256), rng, band=100, real=True, decay=0.5)
env = build_envelope(u, 0.3, 0.1)
dom, total, lip = envelope_axioms(env, u)
print(f"  sum(beta) = {total:.3f}, axiom slacks {dom:.1e}, {lip:.1e}")
symb = build_symbol(env, 4, 0.3, 0.1)
xi = 2.0 ** np.arange(7)
print("  symbol at dyadic points:", np.array2string(symb(xi), precision=3))

print("\nthe correction multiplier is tiny off-resonance and finite on it:")
tuples = (np.array([3.0, 10.0]), np.array([-3.0, 7.0]),
          np.array([5.0, -20.0]), np.array([-5.0, 3.0]))
print("  b4 =", b4_multiplier(sym, tuples, law))
