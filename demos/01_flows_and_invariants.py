"""Tour of the two flows: free propagation, the conservative integrator,
and how well mass and energy survive a unit of time.

Run from the repository root:  python demos/01_flows_and_invariants.py
"""

import numpy as np

from toruslab.evolution import (
    BENJAMIN_ONO,
    SCHROEDINGER,
    FlowProblem,
    conserved_energy,
    conserved_mass,
    evolve,
    free_evolve,
    rescale,
)
from toruslab.spectral import SpectralField, TorusGeometry, random_field, sobolev_norm

rng = np.random.default_rng(0)
g = TorusGeometry(1.0, 256)

# --- free propagation is a pure phase: a single mode just rotates ---------
coeffs = np.zeros(256, dtype=complex)
coeffs[2] = 2.0 * np.pi
mode = SpectralField(g, coeffs)
out = free_evolve(mode, 0.25, BENJAMIN_ONO)
print("single mode xi=2, t=0.25:")
print("  phase picked up:", out.coeff(2) / mode.coeff(2))
print("  expected       :", np.exp(-4j * 0.25))

# --- a small real field under the real flow -------------------------------
u0 = random_field(g, rng, band=32, real=True, decay=1.5)
u0 = u0 * (0.05 / sobolev_norm(u0, 0.3))
prob = FlowProblem(BENJAMIN_ONO, +1, u0)
traj = evolve(prob, 1.0, n_snapshots=5)
m0 = conserved_mass(traj.field(0))
e0 = conserved_energy(traj.field(0), +1)
print("\nreal flow, T = 1, M = 256:")
for i in range(len(traj)):
    u = traj.field(i)
    print(
        f"  t={traj.times[i]:.2f}  mass drift {abs(conserved_mass(u)-m0)/m0:.2e}"
        f"  energy drift {abs(conserved_energy(u, +1)-e0)/abs(e0):.2e}"
    )

# --- the derivative Schroedinger flow for complex data --------------------
v0 = random_field(g, rng, band=32, real=False, decay=1.5) * 0.05
probS = FlowProblem(SCHROEDINGER, +1, v0)
trajS = evolve(probS, 0.5, n_snapshots=3)
print("\ncomplex flow, T = 0.5:")
print("  L2 drift:", abs(trajS.field(2).l2_norm() - v0.l2_norm()))

# --- the scaling map preserves L2 exactly ---------------------------------
w = rescale(u0, 4.0)
print("\nrescale lambda 1 -> 4:")
print("  L2 before:", u0.l2_norm(), " after:", w.l2_norm())
