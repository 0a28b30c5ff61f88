"""Matrix assembly for the three coupling variants."""

import math

import numpy as np
import pytest

from diaboli import (
    ArrowheadHamiltonian,
    DimensionTooLarge,
    EmptyMask,
    IndexOutOfRange,
    ParameterPoint,
    SubspaceMask,
    UnknownVariant,
    ViolationDiagonal,
    build,
    eigen_dense,
    lowest_levels,
    restrict,
    worst_case_diagonal,
)


def test_unscaled_matrix_entries_by_hand():
    diag = ViolationDiagonal(np.array([0, 1, 2, 1]))
    ham = build(diag, ParameterPoint(x=0.3, z=-1.0), "unscaled")
    dense = ham.to_dense()
    want = np.array(
        [
            [-0.25, 0.0, 0.0, 0.0, 0.3],
            [0.0, 0.75, 0.0, 0.0, 0.3],
            [0.0, 0.0, 1.75, 0.0, 0.3],
            [0.0, 0.0, 0.0, 0.75, 0.3],
            [0.3, 0.3, 0.3, 0.3, 0.25],
        ]
    )
    np.testing.assert_allclose(dense, want, rtol=0, atol=0)


def test_z_scaled_multiplies_violations_by_dimension():
    diag = ViolationDiagonal(np.array([0, 1, 2, 1]))
    ham = build(diag, ParameterPoint(x=0.3, z=-1.0), "z_scaled")
    np.testing.assert_allclose(ham.body_diag, -0.25 + 4.0 * diag.entries)
    assert ham.border == pytest.approx(0.3)
    assert ham.head_diag == pytest.approx(0.25)


def test_x_scaled_divides_coupling_by_sqrt_dimension():
    diag = worst_case_diagonal(4, solution_index=3)
    ham = build(diag, ParameterPoint(x=0.8, z=0.5), "x_scaled")
    assert ham.border == pytest.approx(0.8 / 4.0)
    np.testing.assert_allclose(ham.body_diag, 0.125 + diag.entries)
    assert ham.head_diag == pytest.approx(-0.125)


def test_unknown_variant_is_rejected():
    diag = worst_case_diagonal(2, solution_index=0)
    with pytest.raises(UnknownVariant):
        build(diag, ParameterPoint(0.1, 0.1), "scaled")


def test_parameter_point_must_be_finite():
    with pytest.raises(ValueError):
        ParameterPoint(x=float("nan"), z=0.0)
    with pytest.raises(ValueError):
        ParameterPoint(x=0.0, z=float("inf"))
    for x, z in (("1", 2.0), (True, 0.0), (0.0, False), (None, 0.0), (1j, 0.0)):
        with pytest.raises(ValueError, match="finite real number"):
            ParameterPoint(x, z)
    point = ParameterPoint(np.float32(0.5), np.int64(2))
    assert (type(point.x), type(point.z), point.x, point.z) == (float, float, 0.5, 2.0)
    with pytest.raises(ValueError, match="parameter points must be finite"):
        lowest_levels(worst_case_diagonal(3, solution_index=0), "unscaled", np.array([0.1, np.nan]), -1.0)


def test_dense_is_symmetric_arrowhead():
    diag = worst_case_diagonal(3, solution_index=2)
    dense = build(diag, ParameterPoint(0.17, 0.9), "unscaled").to_dense()
    np.testing.assert_allclose(dense, dense.T)
    interior = dense[:-1, :-1]
    np.testing.assert_allclose(interior - np.diag(np.diag(interior)), 0.0)


def test_dense_materialization_has_a_size_limit():
    ham = build(worst_case_diagonal(13, solution_index=0), ParameterPoint(0.1, -1.0))
    with pytest.raises(DimensionTooLarge):
        ham.to_dense()
    with pytest.raises(DimensionTooLarge):
        eigen_dense(ham)


def test_restrict_picks_selected_entries():
    diag = ViolationDiagonal(np.array([0, 1, 2, 3]))
    sub = restrict(diag, SubspaceMask((1, 3)))
    assert sub.entries.tolist() == [1, 3]
    assert sub.n_vars == 1  # size 2 is again a power of two
    assert restrict(diag, slice(1, 3)).entries.tolist() == [1, 2]


def test_restrict_commutes_with_build_for_unscaled_and_x_scaled():
    # z_scaled is excluded on purpose: its body term scales with the
    # current space size, so restriction changes the matrix entries.
    diag = worst_case_diagonal(3, solution_index=4)
    mask = SubspaceMask((0, 2, 4, 6))
    point = ParameterPoint(0.21, -0.7)
    for variant in ("unscaled", "x_scaled"):
        whole = build(diag, point, variant).to_dense()
        part = build(restrict(diag, mask), point, variant).to_dense()
        keep = list(mask.selected) + [diag.dimension]
        np.testing.assert_allclose(part[:-1, :-1], whole[np.ix_(keep, keep)][:-1, :-1])


def test_mask_validation():
    with pytest.raises(EmptyMask):
        SubspaceMask(())
    with pytest.raises(IndexOutOfRange):
        SubspaceMask((2, 1))
    with pytest.raises(IndexOutOfRange):
        SubspaceMask((-1, 0))
    diag = ViolationDiagonal(np.array([0, 1]))
    with pytest.raises(IndexOutOfRange):
        restrict(diag, SubspaceMask((0, 5)))
    for bad in (slice(1, 1), slice(0, 3), slice(-1, 2), slice(0, 2, 2), slice(None, 1)):
        with pytest.raises(IndexOutOfRange):
            restrict(diag, bad)


def test_direct_construction_validates_body_shape():
    with pytest.raises(IndexOutOfRange):
        ArrowheadHamiltonian(
            body_diag=np.array([[1.0, 2.0]]), border=0.1, head_diag=0.0
        )
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            ArrowheadHamiltonian(body_diag=np.array([1.0, bad]), border=0.1, head_diag=0.0)


def test_x_scaled_uses_current_dimension_after_restriction():
    diag = worst_case_diagonal(3, solution_index=0)
    sub = restrict(diag, SubspaceMask((0, 1, 2, 3)))
    ham = build(sub, ParameterPoint(x=1.0, z=0.0), "x_scaled")
    assert ham.border == pytest.approx(1.0 / math.sqrt(4))
