"""Second-order level shifts and the predicted gap location.

Near ``x = 0`` the border coupling is a perturbation on a diagonal
operator.  Each body state couples only to the head, so second order
gives one closed form per level.  Writing ``E_a`` for the lowest body
level (multiplicity ``k``), ``E_b = -z/4`` for the head level and
``beta`` for the border scale (1, or ``1/sqrt(N)`` for ``x_scaled``):

    shift of the coupled combination of the lowest body states:
        delta_a2 = k * beta**2 / (E_a - E_b)        (times x**2)
    shift of the head level, summed over every body group:
        delta_b2 = beta**2 * sum_j k_j / (E_b - E_j)  (times x**2)

The two quadratics ``E_a + delta_a2 x**2`` and ``E_b + delta_b2 x**2``
intersect where the true spectrum develops its avoided crossing, which
predicts the location of the minimum gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateUnperturbed
from .eigensolver import lowest_levels, min_gap_on_segment
from .eigensolver import eigen_arrowhead  # noqa: F401 - perfbench/tracer.py wraps this module-level name
from .hamiltonian import ParameterPoint, sector
from .hamiltonian import build  # noqa: F401 - perfbench/tracer.py wraps this module-level name
from .instance import ViolationDiagonal

_DEGENERACY_ATOL = 1e-12
_SWEEP_SAMPLES = 201  # coarse samples of the numeric gap sweep
_FIT_HALF_WIDTH = 0.01  # level fits use x in [-_FIT_HALF_WIDTH, _FIT_HALF_WIDTH]
_FIT_POINTS = 21


@dataclass(frozen=True)
class GapPrediction:
    """Quadratic coefficients of the two crossing levels at fixed z."""

    z: float
    variant: str
    e_a0: float
    e_b0: float
    delta_a2_coeff: float
    delta_b2_coeff: float
    x_gap_predicted: float | None


@dataclass(frozen=True)
class GapComparison:
    """Predicted crossing location against the numerically found minimum."""

    x_gap_predicted: float | None
    x_gap_numeric: float
    gap_numeric: float
    abs_error: float | None


def _group_body(diag: ViolationDiagonal, point: ParameterPoint, variant: str) -> tuple[np.ndarray, np.ndarray]:
    """Distinct body levels, ascending, with their multiplicities: the very floats ``build`` puts on the diagonal."""

    poles, counts, quarter, _ = sector(diag, variant, point.x, point.z)
    return quarter + poles, counts


def second_order(diag: ViolationDiagonal, z: float, variant: str = "unscaled") -> GapPrediction:
    """Second-order shift coefficients for the two lowest unperturbed levels."""

    point = ParameterPoint(x=0.0, z=z)
    values, counts = _group_body(diag, point, variant)
    e_b0 = -(point.z / 4.0)
    e_a0 = float(values[0])

    beta2 = 1.0 / diag.dimension if variant == "x_scaled" else 1.0
    energy_scale = max(1.0, float(np.max(np.abs(values))), abs(e_b0))
    denominators = e_b0 - values
    if np.any(np.abs(denominators) < _DEGENERACY_ATOL * energy_scale):
        raise DegenerateUnperturbed(
            f"a body level coincides with the head level at z={z}; shift coefficients diverge"
        )
    delta_a2 = float(counts[0]) * beta2 / (e_a0 - e_b0)
    delta_b2 = beta2 * float(np.sum(counts / denominators))

    x_gap: float | None = None
    slope_difference = delta_a2 - delta_b2
    if slope_difference != 0.0:
        x_squared = (e_b0 - e_a0) / slope_difference
        if x_squared > 0.0:
            x_gap = math.sqrt(x_squared)
    return GapPrediction(
        z=float(z),
        variant=variant,
        e_a0=e_a0,
        e_b0=e_b0,
        delta_a2_coeff=delta_a2,
        delta_b2_coeff=delta_b2,
        x_gap_predicted=x_gap,
    )


def prediction_error(diag: ViolationDiagonal, z: float, variant: str = "unscaled") -> GapComparison:
    """Compare the predicted crossing location with a numerical gap sweep.

    The sweep covers [0, max(0.2, 2.5 * prediction)] when a crossing is
    predicted and the symmetric window [-0.5, 0.5] otherwise.
    """

    return _compared(diag, z, variant, second_order(diag, z, variant))


def _compared(diag: ViolationDiagonal, z: float, variant: str, prediction: GapPrediction) -> GapComparison:
    """``prediction_error`` with ``second_order`` already taken."""

    if prediction.x_gap_predicted is not None:
        sweep_lo, sweep_hi = 0.0, max(0.2, 2.5 * prediction.x_gap_predicted)
    else:
        sweep_lo, sweep_hi = -0.5, 0.5
    point, gap = min_gap_on_segment(diag, variant, "x", z, sweep_lo, sweep_hi, samples=_SWEEP_SAMPLES)
    error = None
    if prediction.x_gap_predicted is not None:
        error = abs(prediction.x_gap_predicted - abs(point.x))
    return GapComparison(
        x_gap_predicted=prediction.x_gap_predicted,
        x_gap_numeric=float(point.x),
        gap_numeric=float(gap),
        abs_error=error,
    )


def prediction_report(diag: ViolationDiagonal, z: float, variant: str = "unscaled") -> dict:
    """JSON-ready report combining the coefficients and the numeric check."""

    prediction = second_order(diag, z, variant)
    comparison = _compared(diag, z, variant, prediction)
    return {
        "z": prediction.z,
        "variant": prediction.variant,
        "delta_a2_coeff": prediction.delta_a2_coeff,
        "delta_b2_coeff": prediction.delta_b2_coeff,
        "x_gap_predicted": prediction.x_gap_predicted,
        "x_gap_numeric": comparison.x_gap_numeric,
        "gap_numeric": comparison.gap_numeric,
    }


def even_polynomial_fit(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Least-squares fit of an even quartic; returns [c0, c2, c4].

    Levels of these operators are even in x, and near an avoided crossing
    the quartic term is far from negligible, so extracting a trustworthy
    x**2 coefficient over a finite window needs the x**4 term in the basis.
    """

    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    design = xs[:, None] ** np.array([0, 2, 4])[None, :]
    coeffs, _, _, _ = np.linalg.lstsq(design, ys, rcond=None)
    return coeffs


def fitted_level_coefficient(diag: ViolationDiagonal, z: float, variant: str, level: int) -> float:
    """Fit one exact eigenlevel over a small symmetric x window; return the x**2 term."""

    xs = np.linspace(-_FIT_HALF_WIDTH, _FIT_HALF_WIDTH, _FIT_POINTS)
    ys = lowest_levels(diag, variant, xs, z).level(level)
    return float(even_polynomial_fit(xs, ys)[1])
