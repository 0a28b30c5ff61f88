"""Holonomy-based solubility testing for 3-SAT on bordered diagonal Hamiltonians.

The package turns a 3-SAT instance into a diagonal of clause-violation
counts, borders it with a uniform coupling to one extra state, and decides
solubility from the sign picked up by the ground eigenvector when it is
transported around a closed loop in the two control parameters.  On top of
that sit second-order gap predictions, time-dependent loop traversal, and
a bisection search that extracts a satisfying assignment with one
solubility call per variable.
"""

from __future__ import annotations

from .adiabatic import (
    EvolutionResult,
    EvolutionStep,
    Schedule,
    evolution_csv,
    evolve,
    fidelity_vs_time,
)
from .eigensolver import (
    LowestLevels,
    Spectrum,
    eigen_arrowhead,
    eigen_dense,
    lowest_levels,
    min_gap_on_segment,
)
from .errors import (
    ClauseArityError,
    ClauseCountMismatch,
    ConvergenceFailure,
    DegenerateOnLoop,
    DegenerateUnperturbed,
    DiaboliError,
    DimensionTooLarge,
    DuplicateVariableInClause,
    EmptyMask,
    IndexOutOfRange,
    InternalContradiction,
    MalformedHeader,
    NormDrift,
    OpenLoop,
    OracleFailure,
    RefinementExhausted,
    ScheduleInvalid,
    UnknownVariant,
    VariableOutOfRange,
)
from .hamiltonian import (
    VARIANTS,
    ArrowheadHamiltonian,
    ParameterPoint,
    SubspaceMask,
    build,
    restrict,
)
from .holonomy import (
    BerryResult,
    LoopPath,
    TransportStep,
    berry_phase,
    solubility,
    transport_csv,
)
from .instance import (
    CnfInstance,
    ViolationDiagonal,
    brute_force_solubility,
    diagonal_csv,
    parse_dimacs,
    random_instance,
    render_dimacs,
    violation_diagonal,
    worst_case_diagonal,
)
from .perturbation import (
    GapComparison,
    GapPrediction,
    even_polynomial_fit,
    fitted_level_coefficient,
    prediction_error,
    prediction_report,
    second_order,
)
from .search import SearchStep, SearchTrace, brute_force_oracle, solve

__version__ = "0.1.0"

__all__ = [
    "ArrowheadHamiltonian",
    "BerryResult",
    "ClauseArityError",
    "ClauseCountMismatch",
    "CnfInstance",
    "ConvergenceFailure",
    "DegenerateOnLoop",
    "DegenerateUnperturbed",
    "DiaboliError",
    "DimensionTooLarge",
    "DuplicateVariableInClause",
    "EmptyMask",
    "EvolutionResult",
    "EvolutionStep",
    "GapComparison",
    "GapPrediction",
    "IndexOutOfRange",
    "InternalContradiction",
    "LoopPath",
    "LowestLevels",
    "MalformedHeader",
    "NormDrift",
    "OpenLoop",
    "OracleFailure",
    "ParameterPoint",
    "RefinementExhausted",
    "ScheduleInvalid",
    "SearchStep",
    "SearchTrace",
    "Schedule",
    "Spectrum",
    "SubspaceMask",
    "TransportStep",
    "UnknownVariant",
    "VARIANTS",
    "VariableOutOfRange",
    "ViolationDiagonal",
    "berry_phase",
    "brute_force_oracle",
    "brute_force_solubility",
    "build",
    "diagonal_csv",
    "eigen_arrowhead",
    "eigen_dense",
    "even_polynomial_fit",
    "evolution_csv",
    "evolve",
    "fidelity_vs_time",
    "fitted_level_coefficient",
    "lowest_levels",
    "min_gap_on_segment",
    "parse_dimacs",
    "prediction_error",
    "prediction_report",
    "random_instance",
    "render_dimacs",
    "restrict",
    "second_order",
    "solubility",
    "solve",
    "transport_csv",
    "violation_diagonal",
    "worst_case_diagonal",
]
