"""Spectral laboratory for periodic dispersive flows on the rescaled torus.

Layers (each name is imported from its module, e.g.
``from toruslab.evolution import evolve``):

* ``spectral``   Fourier analysis on the torus of circumference 2 pi lambda
* ``evolution``  free propagators and the conservative nonlinear integrator
* ``spacetime``  shorttime Fourier-restriction norms
* ``estimates``  ensemble measurements of the dispersive estimate families
* ``energy``     generalized energies, correction multipliers, cancellations
* ``runner``     configuration-driven scenarios, CSV/JSON report emission
"""

__version__ = "0.1.0"
