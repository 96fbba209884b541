"""lgw: a desk-scale workbench for dissipation-driven ground states.

Builds vectorized Lindblad generators and their squared (Hermitian)
forms, analyzes steady states and spectra, simulates the substitute-
operator measurement protocol at shot level, and inverts structured
target Hamiltonians back to generators with an XL-style solver.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    CapacityError,
    DegenerateObservableError,
    DimensionError,
    IllConditionedRatioError,
    InstabilityError,
    NormalizationError,
    NoSteadyStateError,
    StructuralRejectionError,
    UnsolvableError,
    ValidationError,
    WorkbenchError,
)
from .pauli import (
    PauliSum,
    pauli_decompose,
    parse_pauli_sum,
    format_pauli_sum,
    to_matrix,
)
from .lindblad import (
    DensityMatrix,
    DmVector,
    JumpChannel,
    LmeSpec,
    SuperOp,
    build_ldl,
    build_liouvillian,
    evolve,
    runtime_bound,
    spectral_diagnostics,
    steady_state,
    vectorize,
    verify_ldl_properties,
)
from .measure import (
    MeasurementPlan,
    bell_amplitude,
    build_table,
    estimate_expectation,
    exact_expectation,
    hadamard_sample,
    shot_budget,
    substitute,
    swap_sample,
)
from .xl import (
    LiouvillianAnsatz,
    QuadraticSystem,
    asymptotic_ratio,
    build_mq_system,
    count_terms,
    verify_solution,
    xl_round,
    xl_solve,
)
from .encodings import (
    CircuitSpec,
    circuit_to_lme,
    feynman_steady_state,
    p1_from_steady,
)
