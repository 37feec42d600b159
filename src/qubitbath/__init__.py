"""Exact dynamics and Markovianity witnesses for a qubit coupled to a
continuously cooled single-qubit bath.

The reduced system dynamics is solvable in closed form and switches
abruptly from non-Markovian to Markovian at the cooling rate 8|xi|.  The
package provides the vectorized joint generator, exact and Runge-Kutta
propagation, the closed-form solution, and both Markovianity criteria
(CP divisibility via Choi eigenvalues, and the trace-distance measure),
each cross-validated against the other.
"""

from .analytic import (
    IncreaseInterval,
    Regime,
    abs_coherence_derivative,
    bath_correlation,
    blp_analytic,
    blp_tail_bound,
    classify_regime,
    coherence_factor,
    coherence_factor_derivative,
    coherence_log_derivative,
    default_blp_horizon,
    dephasing_rate,
    has_information_backflow,
    increase_intervals,
)
from .errors import (
    DegenerateModelError,
    NumericsError,
    PoleError,
    RegimeError,
    SingularMapError,
    ValidationError,
)
from .lindblad import (
    GeneratorMatrix,
    ModelParams,
    TimeGrid,
    bath_dissipator_matrix,
    bath_propagator,
    build_generator,
    evolve_expm,
    evolve_ode,
    expm_trajectory,
)
from .markovianity import (
    BlpResult,
    DivisibilityVerdict,
    DivisibilityWitness,
    QubitState,
    StatePair,
    blp_numeric,
    choi_matrix,
    choi_min_eigenvalue,
    cp_divisibility_witness,
    density_trace_distance,
    evolved_trace_distance,
    intermediate_map,
    system_map,
    threshold_scan,
    trace_distance,
)
from .operator_space import (
    PauliLabel,
    coherence4,
    devectorize2q,
    from_coherence4,
    initial_joint_vector,
    sandwich_superop_rep,
    vectorize2q,
)

__version__ = "0.1.0"
