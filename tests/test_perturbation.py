"""Second-order level shifts and the predicted crossing location."""

import math

import numpy as np
import pytest

from diaboli import (
    DegenerateUnperturbed,
    ParameterPoint,
    build,
    eigen_arrowhead,
    even_polynomial_fit,
    fitted_level_coefficient,
    prediction_error,
    prediction_report,
    random_instance,
    second_order,
    violation_diagonal,
    worst_case_diagonal,
)


def closed_form_coefficients(n: int, z: float) -> tuple[float, float]:
    """Oracle: hand-derived x^2 coefficients for the worst-case diagonal.

    The lone solution level sits at z/4, the other N-1 body levels at
    z/4 + 1, and the head at -z/4.  Summing |coupling|^2 / (energy
    difference) over the head's neighbours and the solution's single
    neighbour gives the two shifts.
    """

    big_n = 2**n
    delta_a = 2.0 / z
    delta_b = -2.0 * (big_n - 1) / (2.0 + z) - 2.0 / z
    return delta_a, delta_b


def test_worst_case_seven_variables_closed_form():
    pred = second_order(worst_case_diagonal(7, solution_index=0), z=-1.0)
    assert pred.delta_a2_coeff == pytest.approx(-2.0, abs=1e-12)
    assert pred.delta_b2_coeff == pytest.approx(-252.0, abs=1e-12)
    assert pred.e_a0 == pytest.approx(-0.25)
    assert pred.e_b0 == pytest.approx(0.25)
    assert pred.x_gap_predicted == pytest.approx(math.sqrt(1.0 / 500.0), abs=1e-12)


def test_matches_closed_form_for_all_sizes():
    for n in (3, 4, 5, 6, 7, 8, 9):
        for z in (-1.0, -0.5, 0.7):
            want_a, want_b = closed_form_coefficients(n, z)
            pred = second_order(worst_case_diagonal(n, solution_index=1), z=z)
            assert pred.delta_a2_coeff == pytest.approx(want_a, rel=1e-12)
            assert pred.delta_b2_coeff == pytest.approx(want_b, rel=1e-12)


def test_shift_residual_is_fourth_order():
    # halving x must shrink |exact - quadratic model| by about 16x
    diag = worst_case_diagonal(5, solution_index=0)
    pred = second_order(diag, z=-1.0)

    def residual(x: float) -> float:
        ham = build(diag, ParameterPoint(x=x, z=-1.0))
        exact = eigen_arrowhead(ham).eigenvalues[0]
        return abs(exact - (pred.e_a0 + pred.delta_a2_coeff * x * x))

    r1, r2 = residual(0.008), residual(0.004)
    assert r1 / r2 == pytest.approx(16.0, rel=0.25)


def test_z_scaled_head_coefficient_is_order_one():
    pred = second_order(worst_case_diagonal(7, solution_index=0), z=-1.0, variant="z_scaled")
    assert pred.delta_a2_coeff == pytest.approx(-2.0, rel=1e-12)
    assert pred.delta_b2_coeff == pytest.approx(-127.0 / 127.5 + 2.0, rel=1e-12)
    assert pred.x_gap_predicted is None  # parabolas never meet


def test_z_scaled_coefficient_approaches_one_from_above():
    last = None
    for n in (3, 4, 5, 6, 7, 8, 9):
        pred = second_order(worst_case_diagonal(n, solution_index=0), z=-1.0, variant="z_scaled")
        value = pred.delta_b2_coeff
        assert value > 1.0
        if last is not None:
            assert value < last
        last = value


def test_x_scaled_coefficient_is_nearly_size_free():
    coeffs = []
    for n in (3, 5, 7, 9):
        pred = second_order(worst_case_diagonal(n, solution_index=0), z=-1.0, variant="x_scaled")
        big_n = 2**n
        assert pred.delta_b2_coeff == pytest.approx(-2.0 + 4.0 / big_n, rel=1e-12)
        coeffs.append(pred.delta_b2_coeff)
    assert max(coeffs) - min(coeffs) < 0.5


# predict-gap's three coefficients, to the last bit, as the float-grouping
# implementation printed them; grouping by exact histogram must not move them
_PINNED = {
    ("wc7", "unscaled"): (-2.0, -252.0, 0.044721359549995794),
    ("wc7", "z_scaled"): (-2.0, 1.003921568627451, None),
    ("wc7", "x_scaled"): (-0.015625, -1.96875, 0.5059644256269407),
    ("random", "unscaled"): (-14.0, -45.40952380952382, 0.12616948374893353),
    ("random", "z_scaled"): (-14.0, 13.4420560038689, None),
    ("random", "x_scaled"): (-0.21875, -0.7095238095238097, 1.0093558699914682),
}


@pytest.mark.parametrize("source,variant", sorted(_PINNED))
def test_coefficients_are_pinned_bit_for_bit(source, variant):
    if source == "wc7":
        diag = worst_case_diagonal(7, solution_index=0)
    else:
        diag = violation_diagonal(random_instance(6, 14, 2468))
    pred = second_order(diag, z=-1.0, variant=variant)
    assert (pred.delta_a2_coeff, pred.delta_b2_coeff, pred.x_gap_predicted) == _PINNED[source, variant]


def test_degenerate_unperturbed_cases_raise():
    diag = worst_case_diagonal(4, solution_index=0)
    with pytest.raises(DegenerateUnperturbed):
        second_order(diag, z=0.0)
    with pytest.raises(DegenerateUnperturbed):
        second_order(diag, z=-2.0)


def test_prediction_error_reports_numeric_location():
    comparison = prediction_error(worst_case_diagonal(5, solution_index=0), z=-1.0)
    assert comparison.x_gap_predicted is not None
    assert comparison.gap_numeric > 0.0
    assert comparison.abs_error == pytest.approx(
        abs(comparison.x_gap_predicted - comparison.x_gap_numeric)
    )


def test_prediction_error_on_scaled_variant_sits_at_zero():
    comparison = prediction_error(
        worst_case_diagonal(7, solution_index=0), z=-1.0, variant="z_scaled"
    )
    assert abs(comparison.x_gap_numeric) <= 0.01
    assert comparison.gap_numeric == pytest.approx(0.5, abs=0.05)


def test_prediction_report_keys():
    report = prediction_report(worst_case_diagonal(3, solution_index=0), z=-1.0)
    assert set(report) == {
        "z",
        "variant",
        "delta_a2_coeff",
        "delta_b2_coeff",
        "x_gap_predicted",
        "x_gap_numeric",
        "gap_numeric",
    }


def test_even_polynomial_fit_recovers_coefficients():
    xs = np.linspace(-0.5, 0.5, 41)
    ys = 1.5 - 3.0 * xs**2 + 0.25 * xs**4
    c0, c2, c4 = even_polynomial_fit(xs, ys)
    assert c0 == pytest.approx(1.5, abs=1e-12)
    assert c2 == pytest.approx(-3.0, abs=1e-12)
    assert c4 == pytest.approx(0.25, abs=1e-10)


def test_fitted_coefficients_match_perturbation_theory():
    diag = worst_case_diagonal(7, solution_index=0)
    ground = fitted_level_coefficient(diag, z=-1.0, variant="unscaled", level=0)
    first = fitted_level_coefficient(diag, z=-1.0, variant="unscaled", level=1)
    assert ground == pytest.approx(-2.0, rel=0.02)
    assert first == pytest.approx(-252.0, rel=0.02)


@pytest.mark.parametrize("variant", ["unscaled", "z_scaled", "x_scaled"])
def test_batched_fit_matches_a_per_point_fit(variant):
    rng = np.random.default_rng(1357)
    xs = np.linspace(-0.01, 0.01, 21)
    for n in range(3, 10):
        drawn = violation_diagonal(random_instance(n, int(rng.integers(1, 5 * n)), rng))
        for diag in (worst_case_diagonal(n, int(rng.integers(2**n))), drawn):
            spectra = [
                eigen_arrowhead(build(diag, ParameterPoint(x=float(x), z=-1.0), variant)).eigenvalues
                for x in xs
            ]
            for level in (0, 1, 2):
                want = even_polynomial_fit(xs, np.array([e[level] for e in spectra]))[1]
                got = fitted_level_coefficient(diag, z=-1.0, variant=variant, level=level)
                assert got == pytest.approx(want, rel=1e-9)
