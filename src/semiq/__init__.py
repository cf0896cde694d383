"""Semiclassical quantization of dissipative dynamical systems without memory.

Classical equations of motion in FAQ form (a Hamiltonian function plus
dissipation channels) are mapped onto Lindblad generators and back.  The
package covers the phase-space side (drift fields, characteristics, density
weights), the operator side (Fock and spin quantization, Lindblad evolution
and stationary states) and three worked models with closed-form baselines.
"""

from .errors import (
    DegenerateStationaryState,
    FlowDiverged,
    NumericalFailure,
    PositivityViolation,
    SeriesDivergence,
    TailNotNegligible,
)
from .faq import (
    FaqCheck,
    FaqSystem,
    Trajectory,
    classical_flow,
    drift,
    ensemble_weights,
    export_trajectory_csv,
    phase_divergence,
    sample_phase_points,
    verify_faq,
)
from .lindblad import (
    DensityMatrix,
    EvolveResult,
    LindbladModel,
    adjoint_generator,
    adjoint_rate,
    evolve,
    expectation,
    lindblad_rhs,
    liouvillian_matrix,
    stationary,
)
from .models import (
    ClosureComparison,
    ConformanceReport,
    LimitCycleParams,
    MomentState,
    OscillatorParams,
    PhaseFlowResult,
    RotatorParams,
    SpinPolynomial,
    SpinTrajectory,
    classical_spin_flow,
    closure_stationary,
    closure_vs_exact_report,
    generating_function,
    kummer_phi,
    limit_cycle_faq,
    limit_cycle_field,
    limit_cycle_lindblad,
    ly2_analytic,
    mandel_q,
    mean_n,
    moment_equations_conformance,
    oscillator_faq,
    oscillator_field,
    oscillator_lindblad,
    phase_model_flow,
    recurrence_stationary,
    rotator_faq,
    rotator_field,
    rotator_spin_channel,
    rotator_spin_hamiltonian,
    rotator_spin_model,
    rotator_spin_operators,
    second_factorial_moment,
    spin_components,
)
from .observables import (
    PhasePoint,
    Polynomial,
    format_polynomial,
    poisson_bracket,
)
from .quantize import (
    FockSpace,
    OperatorMatrix,
    SpinRep,
    annihilation,
    commutator,
    creation,
    export_operator_csv,
    normal_quantize,
    number,
    spin_operators,
    symmetrize_product,
    weyl_quantize,
)

__version__ = "0.1.0"
