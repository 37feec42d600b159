"""Exact dynamics and Markovianity witnesses for a qubit coupled to a
continuously cooled single-qubit bath.

The reduced system dynamics is solvable in closed form and switches
abruptly from non-Markovian to Markovian at the cooling rate 8|xi|.  The
package provides the vectorized joint generator, exact propagation by the
matrix exponential, the closed-form solution, and both Markovianity
criteria: CP divisibility from the closed-form Choi spectrum of the
intermediate maps, and the trace-distance measure.

Only production routes are exported here.  The independent second routes
that cross-check them (Runge-Kutta integration, the generic Choi operator,
the eigenvalue trace distance, c'/c, the bath propagator) live in
:mod:`qubitbath.oracles`.
"""

from .analytic import (
    Regime,
    abs_coherence_derivative,
    bath_correlation,
    blp_analytic,
    blp_tail_bound,
    classify_regime,
    coherence_factor,
    default_blp_horizon,
    has_information_backflow,
    increase_intervals,
)
from .errors import (
    DegenerateModelError,
    NumericsError,
    RegimeError,
    ValidationError,
)
from .lindblad import (
    ModelParams,
    TimeGrid,
    build_generator,
    expm_trajectory,
)
from .markovianity import (
    BlpResult,
    DivisibilityVerdict,
    DivisibilityWitness,
    QubitState,
    blp_numeric,
    cp_divisibility_witness,
    evolved_trace_distance,
    threshold_scan,
)
from .operator_space import (
    PauliLabel,
    coherence4,
    initial_joint_vector,
    sandwich_superop_rep,
)

__version__ = "0.1.0"
