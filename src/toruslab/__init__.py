"""Spectral laboratory for periodic dispersive flows on the rescaled torus.

Layers:

* ``spectral``   Fourier analysis on the torus of circumference 2 pi lambda
* ``evolution``  free propagators and the conservative nonlinear integrator
* ``spacetime``  shorttime Fourier-restriction norms
* ``estimates``  ensemble measurements of the dispersive estimate families
* ``energy``     generalized energies, correction multipliers, cancellations
* ``runner``     configuration-driven scenarios, CSV/JSON report emission
"""

__version__ = "0.1.0"  # set before the imports: runner reads it

from .spectral import (
    SpectralField,
    TorusGeometry,
    block_indicator,
    block_of,
    field_lebesgue_norm,
    forward_transform,
    hilbert_transform,
    inverse_transform,
    lebesgue_norm,
    lp_project,
    max_block,
    random_field,
    sobolev_norm,
)
from .evolution import (
    BENJAMIN_ONO,
    SCHROEDINGER,
    DispersionLaw,
    FlowIntegrator,
    FlowProblem,
    IntegrationBlowupError,
    Trajectory,
    conserved_energy,
    conserved_mass,
    dealias_band,
    default_dt,
    evolve,
    free_evolve,
    reflect,
    rescale,
    step_nonlinear,
)
from .spacetime import (
    SpaceTimeField,
    SupportError,
    assembled_norm,
    fk_norm,
    from_trajectory,
    modulated_profile_field,
    nk_norm,
    time_cutoff,
    xk_norm,
)
from .energy import (
    DyadicSymbol,
    EnvelopeSequence,
    GridSimplex,
    b4_multiplier,
    b4_branch_values,
    build_envelope,
    build_symbol,
    cancellation_check,
    e0_energy,
    e0_time_derivative,
    e1_correction,
    envelope_axioms,
    q_smooth,
    r4_form,
    r6_enumerated,
    r6_form,
    resonance_function,
)
from .estimates import (
    Ensemble,
    EstimateReport,
    RatioPoint,
    TrilinearConfig,
    bilinear_ratio,
    fit_exponent,
    flat_block_data,
    l4_modulation_ratio,
    make_report,
    maximal_ratio,
    smoothing_grid_operator_norm,
    smoothing_ratio,
    strichartz_ratio,
    trilinear_ratio,
    trilinear_sweep,
)
from .runner import (
    emit_report,
    load_config,
    read_reports_csv,
    run_scenario,
    validate_config,
    write_energy_series_csv,
    write_trajectory_csv,
)

