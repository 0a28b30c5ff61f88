"""Secular-equation eigensolver against dense diagonalization."""

import numpy as np
import pytest

import diaboli.eigensolver as eigensolver
from diaboli import (
    VARIANTS,
    ArrowheadHamiltonian,
    ConvergenceFailure,
    ParameterPoint,
    ViolationDiagonal,
    build,
    eigen_arrowhead,
    eigen_dense,
    lowest_levels,
    min_gap_on_segment,
    worst_case_diagonal,
)


def dense_reference(ham: ArrowheadHamiltonian) -> np.ndarray:
    """Oracle: eigenvalues of the materialized matrix, ascending."""

    return np.linalg.eigvalsh(ham.to_dense())


def random_arrowhead(rng: np.random.Generator, dim: int) -> ArrowheadHamiltonian:
    body = rng.normal(size=dim - 1)
    # inject repeats so the deflation path is exercised
    if dim > 4:
        body[: dim // 3] = rng.choice(body[dim // 3 :], size=dim // 3)
    return ArrowheadHamiltonian(
        body_diag=body,
        border=float(rng.normal() or 0.1),
        head_diag=float(rng.normal()),
    )


def test_two_by_two_off_diagonal():
    ham = ArrowheadHamiltonian(body_diag=np.array([0.0]), border=0.7, head_diag=0.0)
    spec = eigen_arrowhead(ham)
    np.testing.assert_allclose(spec.eigenvalues, [-0.7, 0.7], atol=1e-15)


def test_diagonal_limit_worst_case():
    ham = build(worst_case_diagonal(7, solution_index=0), ParameterPoint(x=0.0, z=-1.0))
    spec = eigen_arrowhead(ham)
    values, counts = np.unique(np.round(spec.eigenvalues, 12), return_counts=True)
    np.testing.assert_allclose(values, [-0.25, 0.25, 0.75])
    assert counts.tolist() == [1, 1, 127]


def test_matches_dense_on_random_matrices():
    rng = np.random.default_rng(1984)
    for dim in (2, 3, 9, 65, 129):
        for _ in range(8):
            ham = random_arrowhead(rng, dim)
            got = eigen_arrowhead(ham).eigenvalues
            want = dense_reference(ham)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_deflation_keeps_repeated_body_values_exactly():
    ham = ArrowheadHamiltonian(
        body_diag=np.array([0.5, 0.5, 0.5, -1.0]), border=0.3, head_diag=0.2
    )
    spec = eigen_arrowhead(ham)
    # a 3-fold body value survives twice, bit-for-bit
    assert np.count_nonzero(spec.eigenvalues == 0.5) == 2
    np.testing.assert_allclose(spec.eigenvalues, dense_reference(ham), atol=1e-12)


def test_zero_border_returns_sorted_diagonal():
    ham = ArrowheadHamiltonian(body_diag=np.array([2.0, -1.0, 0.5]), border=0.0, head_diag=1.5)
    spec = eigen_arrowhead(ham, want_ground_vector=True)
    np.testing.assert_allclose(spec.eigenvalues, [-1.0, 0.5, 1.5, 2.0])
    assert spec.ground_vector is not None
    np.testing.assert_allclose(np.abs(spec.ground_vector), [0.0, 1.0, 0.0, 0.0], atol=1e-15)


def test_interlacing_and_trace():
    rng = np.random.default_rng(55)
    for _ in range(20):
        ham = random_arrowhead(rng, 33)
        spec = eigen_arrowhead(ham)
        eigs = spec.eigenvalues
        assert np.all(np.diff(eigs) >= -1e-12)
        trace = float(np.sum(ham.body_diag) + ham.head_diag)
        assert np.sum(eigs) == pytest.approx(trace, rel=1e-9)
        # Cauchy interlacing: between consecutive distinct body values
        # there is at least one eigenvalue
        distinct = np.unique(ham.body_diag)
        for lo, hi in zip(distinct[:-1], distinct[1:]):
            assert np.any((eigs >= lo - 1e-12) & (eigs <= hi + 1e-12))


def test_ground_vector_residual_and_dense_agreement():
    rng = np.random.default_rng(99)
    for dim in (5, 33, 129):
        ham = random_arrowhead(rng, dim)
        spec = eigen_arrowhead(ham, want_ground_vector=True)
        dense = ham.to_dense()
        v = spec.ground_vector
        lam = spec.ground_energy
        assert np.linalg.norm(dense @ v - lam * v) <= 1e-10 * (1.0 + abs(lam))
        ref = eigen_dense(ham, want_ground_vector=True)
        assert abs(float(np.dot(v, ref.ground_vector))) == pytest.approx(1.0, abs=1e-9)


def test_exhausted_newton_budget_raises(monkeypatch):
    ham = random_arrowhead(np.random.default_rng(5), 65)
    diag = worst_case_diagonal(5, solution_index=3)
    monkeypatch.setattr(eigensolver, "_NEWTON_ITER", 1)
    with pytest.raises(ConvergenceFailure, match="missed tolerance"):
        eigen_arrowhead(ham)
    with pytest.raises(ConvergenceFailure, match="missed tolerance"):
        lowest_levels(diag, "unscaled", np.array([0.3, -0.7]), np.array([-1.0, 0.5]))


@pytest.mark.parametrize("variant", VARIANTS)
def test_lowest_levels_match_dense_at_random_points(variant):
    rng = np.random.default_rng(606)
    for n in (1, 3, 6, 8):
        entries = rng.integers(0, 4, size=2**n)
        if n > 1:
            entries[rng.integers(2**n)] = 0
        diag = ViolationDiagonal(entries)
        xs = rng.uniform(-1.5, 1.5, size=12)
        zs = rng.uniform(-1.5, 1.5, size=12)
        xs[:3] = 0.0  # the diagonal branch
        levels = lowest_levels(diag, variant, xs, zs)
        for p, (x, z) in enumerate(zip(xs, zs)):
            ref = eigen_dense(build(diag, ParameterPoint(float(x), float(z)), variant))
            scale = max(1.0, float(np.max(np.abs(ref.eigenvalues))))
            assert levels.e0[p] == pytest.approx(ref.eigenvalues[0], abs=1e-13 * scale)
            assert levels.e1[p] == pytest.approx(ref.eigenvalues[1], abs=1e-13 * scale)
            assert levels.gap[p] == pytest.approx(ref.gap01, abs=1e-13 * scale)
            if ref.gap01 < 1e-6:
                continue  # the ground vector is not unique
            vector = np.append(levels.amplitudes[p, diag.histogram.inverse], levels.head[p])
            assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-14)
            sign = 1.0 if float(vector @ ref.ground_vector) > 0.0 else -1.0
            np.testing.assert_allclose(vector, sign * ref.ground_vector, rtol=0, atol=1e-11)


def test_eigen_dense_matches_arrowhead_solver():
    ham = build(worst_case_diagonal(5, solution_index=3), ParameterPoint(0.2, -1.0))
    np.testing.assert_allclose(
        eigen_dense(ham).eigenvalues, eigen_arrowhead(ham).eigenvalues, atol=1e-10
    )


def test_gap_is_open_off_origin():
    ham = build(worst_case_diagonal(3, solution_index=0), ParameterPoint(0.1, -1.0))
    assert eigen_dense(ham).gap01 > 0.0


def test_min_gap_finds_interior_minimum_of_toy_matrix():
    # single-entry diagonal at z=-0.8: H = [[-0.2, x], [x, 0.2]], so
    # gap(x) = 2*sqrt(0.04 + x^2) with its minimum 0.4 at x = 0
    diag = ViolationDiagonal(np.array([0]), n_vars=0)
    point, gap = min_gap_on_segment(diag, "unscaled", "x", fixed=-0.8, lo=-0.1, hi=0.1)
    assert abs(point.x) <= 1e-6
    assert gap == pytest.approx(0.4, abs=1e-9)


def test_min_gap_sweep_over_z():
    diag = worst_case_diagonal(3, solution_index=0)
    point, gap = min_gap_on_segment(diag, "unscaled", "z", fixed=0.0, lo=-0.5, hi=0.5)
    # at x=0 the solution and head levels cross linearly at z=0
    assert abs(point.z) <= 1e-6
    assert gap == pytest.approx(0.0, abs=1e-6)


def test_min_gap_respects_endpoints():
    diag = worst_case_diagonal(3, solution_index=0)
    point, gap = min_gap_on_segment(diag, "unscaled", "x", fixed=-1.0, lo=0.3, hi=0.5)
    # gap grows with |x| out here, so the left endpoint wins
    assert point.x == pytest.approx(0.3, abs=1e-6)
