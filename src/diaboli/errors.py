"""Exception types shared across the package.

Bad input and numerical failures raise a :class:`DiaboliError`, so callers
(and the CLI) can catch one base class.  Bad arguments to library calls
raise ``ValueError`` (``ArrowheadHamiltonian``, ``ParameterPoint``,
``sector``, ``LoopPath``, ``lowest_levels``, ``min_gap_on_segment``,
``solve``, the logs) or ``IndexError`` (``Levels.level``); no CLI path
reaches them.
"""

from __future__ import annotations


class DiaboliError(Exception):
    """Base class for all errors raised by this package."""


# DIMACS parsing and instance validation


class MalformedHeader(DiaboliError):
    """The ``p cnf <vars> <clauses>`` line is missing or unreadable."""


class ClauseArityError(DiaboliError):
    """A clause does not contain exactly three literals."""


class DuplicateVariableInClause(DiaboliError):
    """A clause mentions the same variable twice (any polarity)."""


class VariableOutOfRange(DiaboliError):
    """A literal references a variable index outside 1..n_vars."""


class ClauseCountMismatch(DiaboliError):
    """The clause count in the header disagrees with the body."""


class IndexOutOfRange(DiaboliError):
    """An assignment or mask index falls outside the addressable range."""


# Hamiltonian construction


class UnknownVariant(DiaboliError):
    """Scaling variant is not one of unscaled / z_scaled / x_scaled."""


class EmptyMask(DiaboliError):
    """A subspace mask selects no basis states."""


# Eigensolver


class ConvergenceFailure(DiaboliError):
    """A root search or minimizer exhausted its iteration budget."""


class DimensionTooLarge(DiaboliError):
    """Dense matrix path requested beyond its size limit."""


# Holonomy transport


class DegenerateOnLoop(DiaboliError):
    """Ground-state gap fell below the floor at a loop sample point."""


class RefinementExhausted(DiaboliError):
    """Segment bisection hit its depth cap with overlap still too low."""


class OpenLoop(DiaboliError):
    """A parameter path meant to be closed does not end where it starts."""


# Perturbation theory


class DegenerateUnperturbed(DiaboliError):
    """Unperturbed levels coincide; second-order coefficients undefined."""


# Adiabatic evolution


class NormDrift(DiaboliError):
    """State norm drifted beyond tolerance during propagation."""


class ScheduleInvalid(DiaboliError):
    """Evolution schedule parameters are unusable."""


# Bisection search


class OracleFailure(DiaboliError):
    """The solubility oracle raised while testing a subspace."""


class InternalContradiction(DiaboliError):
    """Search narrowed to an assignment that does not satisfy the formula."""
