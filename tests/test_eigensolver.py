"""Secular-equation eigensolver against dense diagonalization."""

import itertools
import math

import numpy as np
import pytest

import diaboli.eigensolver as eigensolver
from diaboli import (
    VARIANTS,
    ArrowheadHamiltonian,
    ConvergenceFailure,
    LoopPath,
    ParameterPoint,
    ViolationDiagonal,
    build,
    eigen_arrowhead,
    eigen_dense,
    lowest_levels,
    min_gap_on_segment,
    prediction_error,
    random_instance,
    violation_diagonal,
    worst_case_diagonal,
)
from diaboli.hamiltonian import Sector, variant_scales


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
    spec = eigen_arrowhead(ham)
    np.testing.assert_allclose(spec.eigenvalues, [-1.0, 0.5, 1.5, 2.0])


def bits(values) -> bytes:
    """Oracle key: the exact float64 bit patterns, so -0.0 and 0.0 differ."""

    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("x", [0.0, 1e-160], ids=["x=0", "x-squared-subnormal"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_flat_points_give_the_sorted_diagonal_bit_for_bit(variant, x):
    # z = 0 ties the head -0.0 with a zero count's +0.0, and z = -2 ties it
    # with the count-1 level under the unit scales; the body comes first.
    zs = np.array([-2.0, -0.7, 0.0, 1.0])
    for diag in (
        worst_case_diagonal(3, 5),
        worst_case_diagonal(3, None),
        ViolationDiagonal(np.array([0, 2, 0, 1, 3, 0, 1, 2])),
        violation_diagonal(random_instance(6, 25, 2)),  # G + 1 = 9
    ):
        low = lowest_levels(diag, variant, x, zs, 2)
        e0, e1, gap = low.level(0), low.level(1), low.gap()
        amplitudes, head = low.ground()
        values, repeats = lowest_levels(diag, variant, x, zs).runs()
        k0 = diag.histogram.counts[0]
        for p, z in enumerate(zs.tolist()):
            ham = build(diag, ParameterPoint(x, z), variant)
            full = np.append(ham.body_diag, ham.head_diag)
            order = np.argsort(full, kind="stable")
            exact = full[order]
            assert bits(eigen_arrowhead(ham).eigenvalues) == bits(exact)
            assert bits(np.repeat(values[p], repeats)) == bits(exact)
            assert bits([e0[p], e1[p], gap[p]]) == bits([exact[0], exact[1], exact[1] - exact[0]])
            body_first = order[0] < diag.dimension
            want = np.zeros(diag.histogram.values.size)
            want[0] = 1.0 / np.sqrt(k0) if body_first else 0.0
            assert bits(amplitudes[p]) == bits(want)
            assert bits([head[p]]) == bits([0.0 if body_first else 1.0])


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


def test_exhausted_newton_budget_raises(monkeypatch):
    # Roots at G > 2 start at roots of models that lump or hold the far groups,
    # so one evaluation cannot end them.
    ham = random_arrowhead(np.random.default_rng(5), 65)
    diag = ViolationDiagonal(np.array([0, 1, 2, 3, 1, 2, 3, 3]))  # G = 4 and k_0 = 1: two roots
    monkeypatch.setattr(eigensolver, "_STEP_BUDGET", 1)
    with pytest.raises(ConvergenceFailure, match="missed tolerance"):
        eigen_arrowhead(ham)
    with pytest.raises(ConvergenceFailure, match="missed tolerance"):
        lowest_levels(diag, "unscaled", np.array([0.3, -0.7]), np.array([-1.0, 0.5]), 2)
    # A border whose square overflows raises before any evaluation, and names its point.
    with pytest.raises(ConvergenceFailure, match=r"border 1e\+155 at z = 0.5 squares to inf"):
        lowest_levels(worst_case_diagonal(3, 5), "unscaled", 1e155, 0.5)
    # One whose square times the 8 states overflows puts the ground root's bracket end at -inf.
    with pytest.raises(ConvergenceFailure, match="non-finite values"):
        lowest_levels(worst_case_diagonal(3, 5), "unscaled", 1e154, 0.5, 1)
    # Over the default loop the two lowest roots at G = 4 end within three
    # evaluations under every variant: root 0 starts from the lumped model, and
    # root 1 from the one that holds groups 2.. at their sum mid-bracket, and
    # each step fits the far poles to the curvature, so it triples the digits.
    monkeypatch.setattr(eigensolver, "_STEP_BUDGET", 3)
    xs, zs = LoopPath.default_rectangle().sample_coordinates()
    for variant in VARIANTS:
        assert lowest_levels(diag, variant, xs, zs, 2).roots.shape[1] == 2


def cnf_diagonals_by_groups(seed=2121):
    """Seeded random CNF diagonals with G = 3..12 distinct counts, one with k_0 = 1 and one with k_0 > 1 for each."""

    rng = np.random.default_rng(seed)
    found = {}
    while len(found) < 20:
        n = int(rng.integers(4, 11))
        diag = violation_diagonal(random_instance(n, int(rng.integers(n, 6 * n)), rng))
        groups, k0 = diag.histogram.values.size, int(diag.histogram.counts[0])
        if 3 <= groups <= 12:
            found.setdefault((groups, k0 == 1), diag)
    return [found[key] for key in sorted(found)]


def test_roots_above_two_groups_end_within_three_evaluations(monkeypatch):
    # The one-root (count 1, or count 2 with k_0 > 1) and two-root (count 2
    # with k_0 = 1) solves that transport makes, over the default loop, at
    # G = 3..12 and under every variant: a model start good to about 1e-2 and
    # two steps that each triple the digits, then the evaluation that ends it.
    xs, zs = LoopPath.default_rectangle().sample_coordinates()
    diags = cnf_diagonals_by_groups() + [ViolationDiagonal(np.array([1, 2, 3, 4, 2, 2, 3, 4]))]
    monkeypatch.setattr(eigensolver, "_STEP_BUDGET", 3)
    for diag, variant, count in itertools.product(diags, VARIANTS, (1, 2)):
        lowest_levels(diag, variant, xs, zs, count)


@pytest.mark.parametrize("variant, budget", [("unscaled", 4), ("z_scaled", 3), ("x_scaled", 3)])
def test_whole_spectra_above_two_groups_end_within_a_few_evaluations(variant, budget, monkeypatch):
    # Every root of the whole spectrum, over the default loop at G = 3..12:
    # root 0 from the lumped model, the top root from its mirror image, and
    # root j from the one that keeps groups j - 1 and j.
    xs, zs = LoopPath.default_rectangle().sample_coordinates()
    monkeypatch.setattr(eigensolver, "_STEP_BUDGET", budget)
    for diag in cnf_diagonals_by_groups():
        assert lowest_levels(diag, variant, xs, zs).roots.shape[1] == diag.histogram.values.size + 1


@pytest.mark.parametrize("variant", VARIANTS)
def test_lowest_levels_above_two_groups_match_eigvalsh_of_the_sector(variant):
    # Count 1 and 2, and the whole spectrum.
    rng = np.random.default_rng(3131)
    for diag in cnf_diagonals_by_groups():
        xs = rng.uniform(-1.5, 1.5, size=8) * 10.0 ** rng.integers(-6, 1, size=8)
        zs = rng.uniform(-1.5, 1.5, size=8)
        solves = [lowest_levels(diag, variant, xs, zs, count) for count in (1, 2, None)]
        for p, (x, z) in enumerate(zip(xs.tolist(), zs.tolist())):
            mat = projected_sector(diag, variant, x, z)
            want = np.linalg.eigvalsh(mat)
            scale = max(1.0, float(np.max(np.abs(mat))))
            for levels in solves:
                solved = levels.roots.shape[1]
                np.testing.assert_allclose(levels.roots[p], want[:solved], rtol=0, atol=1e-13 * scale)


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
        levels = lowest_levels(diag, variant, xs, zs, 2)
        e0, e1, gap = levels.level(0), levels.level(1), levels.gap()
        amplitudes, head = levels.ground()
        groups = np.searchsorted(diag.histogram.values, diag.entries)
        for p, (x, z) in enumerate(zip(xs, zs)):
            ref = eigen_dense(build(diag, ParameterPoint(float(x), float(z)), variant))
            scale = max(1.0, float(np.max(np.abs(ref.eigenvalues))))
            assert e0[p] == pytest.approx(ref.eigenvalues[0], abs=1e-13 * scale)
            assert e1[p] == pytest.approx(ref.eigenvalues[1], abs=1e-13 * scale)
            assert gap[p] == pytest.approx(ref.gap01, abs=1e-13 * scale)
            if ref.gap01 < 1e-6:
                continue  # the ground vector is not unique
            vector = np.append(amplitudes[p, groups], head[p])
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
    diag = ViolationDiagonal(np.array([0]))
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


def test_min_gap_raises_when_the_bracket_cannot_shrink_to_tol(monkeypatch):
    diag = worst_case_diagonal(3, solution_index=0)
    for samples in (3, 65.0):
        with pytest.raises(ValueError, match="at least 4 samples"):
            min_gap_on_segment(diag, "unscaled", "x", fixed=-1.0, lo=0.0, hi=0.2, samples=samples)
    with pytest.raises(ValueError, match="sweep must be 'x' or 'z'"):
        min_gap_on_segment(diag, "unscaled", "y", fixed=-1.0, lo=0.0, hi=0.2)
    for lo, hi in ((0.2, 0.2), (0.2, 0.0), (0.0, math.inf), (math.nan, 0.2)):
        with pytest.raises(ValueError, match="bad sweep range"):
            min_gap_on_segment(diag, "unscaled", "x", fixed=-1.0, lo=lo, hi=hi)
    for bad in (dict(lo="0"), dict(hi=True), dict(fixed="-1"), dict(fixed=None)):
        with pytest.raises(ValueError, match="must be real numbers"):
            min_gap_on_segment(diag, "unscaled", "x", **{"fixed": -1.0, "lo": 0.0, "hi": 0.2, **bad})
    point, gap = min_gap_on_segment(diag, "unscaled", "z", fixed=np.float32(0.5), lo=np.int64(-1), hi=1)
    assert type(point.x) is float and point.x == 0.5 and type(gap) is float
    monkeypatch.setattr(eigensolver, "_ZOOM_ROUNDS", 1)
    with pytest.raises(ConvergenceFailure, match="bracket still .* wide after 1 rounds"):
        min_gap_on_segment(diag, "unscaled", "x", fixed=-1.0, lo=0.0, hi=0.2)


def test_min_gap_takes_a_few_batched_solves(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return lowest_levels(*args)

    monkeypatch.setattr(eigensolver, "lowest_levels", counted)
    runs = (
        lambda: min_gap_on_segment(worst_case_diagonal(7, 0), "unscaled", "x", fixed=-1.0, lo=0.0, hi=0.2),
        lambda: min_gap_on_segment(worst_case_diagonal(16, 5), "unscaled", "x", fixed=-1.0, lo=0.0, hi=0.2),
        lambda: prediction_error(worst_case_diagonal(16, 5), -1.0),  # 201 samples over [0, 2.5 x_pred]
        lambda: prediction_error(worst_case_diagonal(10), 0.5, "x_scaled"),  # 201 samples over [-0.5, 0.5]
    )
    for run in runs:
        calls.clear()
        run()
        assert 1 <= len(calls) <= 6


@pytest.mark.parametrize("variant", VARIANTS)
def test_min_gap_matches_a_dense_scan(variant):
    rng = np.random.default_rng(808)
    diags = [worst_case_diagonal(n, sol) for n, sol in ((1, 0), (2, 1), (4, None), (5, 0))]
    diags += [violation_diagonal(random_instance(n, 4 * n, rng)) for n in (3, 5)]
    lo, hi = -0.1, 0.7
    xs = np.linspace(lo, hi, 4001)
    for diag, z in itertools.product(diags, (-1.0, -0.6)):
        point, gap = min_gap_on_segment(diag, variant, "x", fixed=z, lo=lo, hi=hi)
        assert lo <= point.x <= hi and point.z == z
        assert gap == pytest.approx(eigen_dense(build(diag, point, variant)).gap01, rel=1e-12)
        # The dense operator is affine in x: base + x * unit.
        base = build(diag, ParameterPoint(0.0, z), variant).to_dense()
        unit = build(diag, ParameterPoint(1.0, z), variant).to_dense() - base
        levels = np.linalg.eigvalsh(base + xs[:, None, None] * unit)
        floor = float(np.min(levels[:, 1] - levels[:, 0]))
        assert gap <= floor * (1.0 + 1e-9)



@pytest.mark.parametrize("variant", VARIANTS)
def test_an_empty_batch_gives_empty_levels(variant):
    # Each array has a one-point batch's shape with no points, for every count, at G = 2 and G = 6.
    for diag in (worst_case_diagonal(3, 0), ViolationDiagonal(np.array([0, 1, 2, 3, 3, 5, 1, 7]))):
        for count in [*range(1, diag.dimension + 2), None]:
            empty, one = (lowest_levels(diag, variant, x, x, count) for x in ([], [0.5]))
            pairs = [(empty.roots, one.roots), (empty.level(0), one.level(0)), *zip(empty.ground(), one.ground()),
                     (empty.vectors(), one.vectors()), (empty.runs()[0], one.runs()[0])]
            if count != 1:  # level 1 is an unsolved root
                pairs.append((empty.gap(), one.gap()))
            for got, want in pairs:
                assert got.shape == (0, *want.shape[1:])
            assert np.array_equal(empty.runs()[1], one.runs()[1])

@pytest.mark.parametrize("variant", VARIANTS)
def test_all_levels_match_dense_at_random_points(variant):
    rng = np.random.default_rng(717)
    for n in (1, 2, 4, 7):
        diag = ViolationDiagonal(rng.integers(0, 4, size=2**n))
        xs = rng.uniform(-1.5, 1.5, size=10)
        zs = rng.uniform(-1.5, 1.5, size=10)
        xs[:3] = 0.0  # the diagonal branch
        levels = lowest_levels(diag, variant, xs, zs)
        spectra = np.repeat(*levels.runs(), axis=1)
        assert spectra.shape == (10, 2**n + 1)
        for p, (x, z) in enumerate(zip(xs, zs)):
            want = eigen_dense(build(diag, ParameterPoint(float(x), float(z)), variant)).eigenvalues
            np.testing.assert_allclose(spectra[p], want, rtol=0, atol=1e-13 * max(1.0, np.max(np.abs(want))))
        for index in (0, 1, 2**n, -1, -(2**n + 1)):
            assert np.array_equal(levels.level(index), spectra[:, index])
        for count in (1, 2):  # the spectrum up to the last body level below an unsolved root
            lowest = np.repeat(*lowest_levels(diag, variant, xs, zs, count).runs(), axis=1)
            assert count <= lowest.shape[1]
            scale = np.max(np.abs(spectra))
            np.testing.assert_allclose(lowest, spectra[:, : lowest.shape[1]], rtol=0, atol=1e-13 * scale)
        with pytest.raises(IndexError):
            levels.level(2**n + 1)
        with pytest.raises(ValueError, match="count must be at least 1"):
            lowest_levels(diag, variant, xs, zs, 0)


def test_lowest_levels_takes_only_integer_counts():
    diag = worst_case_diagonal(3, None)  # k_0 = 8: level 1 is a body level, so count 2 solves one root
    xs, zs = np.array([0.0, 0.5]), np.array([-1.0, 0.5])
    for count in (1.5, 2.0, True, False, "2", np.int64(0)):
        with pytest.raises(ValueError, match="count must be at least 1 and a non-bool integer"):
            lowest_levels(diag, "unscaled", xs, zs, count)
    for count in (np.int64(2), np.int32(1), np.uint8(3)):
        levels = lowest_levels(diag, "unscaled", xs, zs, count)
        assert np.array_equal(levels.roots, lowest_levels(diag, "unscaled", xs, zs, int(count)).roots)


def test_levels_take_only_integer_indices():
    levels = lowest_levels(worst_case_diagonal(3, 2), "unscaled", [0.1], [1.0])
    for index in (1.5, True, False, np.float64(1.0), "1"):
        with pytest.raises(IndexError, match="non-bool integer"):
            levels.level(index)
    for index in (np.int64(1), np.int32(-1), np.uint8(3)):
        assert np.array_equal(levels.level(index), levels.level(int(index)))


def projected_sector(diag, variant, x, z):
    """Oracle: ``build`` projected onto the normalized uniform state of each count group and the head."""

    ham = build(diag, ParameterPoint(x, z), variant)
    hist = diag.histogram
    groups = np.arange(hist.values.size)
    mat = np.zeros((groups.size + 1, groups.size + 1))
    members = np.searchsorted(hist.values, diag.entries)
    mat[members, members] = ham.body_diag  # equal within a group
    mat[groups, -1] = mat[-1, groups] = ham.border * np.sqrt(hist.counts)
    mat[-1, -1] = ham.head_diag
    return mat


def test_sector_eigenpairs_match_eigh_of_the_projected_sector():
    rng = np.random.default_rng(2718)
    diagonals = (
        worst_case_diagonal(3, 5),  # k_0 = 1
        ViolationDiagonal(np.array([0, 2, 0, 1, 3, 0, 1, 2])),  # k_0 = 3
        violation_diagonal(random_instance(6, 40, 0)),  # G = 11
        violation_diagonal(random_instance(16, 300, np.random.default_rng(5))),  # G = 43; z_scaled poles at 2**16 u_g
    )
    for diag in diagonals:
        groups = diag.histogram.values.size
        for variant in VARIANTS:
            xs = np.concatenate((rng.uniform(-1.5, 1.5, size=6), [0.0, -0.0, 1e-12, -1e-12, 1e-8]))
            zs = rng.uniform(-1.5, 1.5, size=xs.size)
            levels = lowest_levels(diag, variant, xs, zs)
            vectors = levels.vectors()
            for p, (x, z) in enumerate(zip(xs.tolist(), zs.tolist())):
                mat = projected_sector(diag, variant, x, z)
                w, v = np.linalg.eigh(mat)
                scale = max(1.0, float(np.max(np.abs(mat))))
                np.testing.assert_allclose(levels.roots[p], w, rtol=0, atol=1e-13 * scale)
                residual = mat @ vectors[p] - vectors[p] * levels.roots[p]
                np.testing.assert_allclose(residual, 0.0, rtol=0, atol=1e-13 * scale)
                np.testing.assert_allclose(vectors[p].T @ vectors[p], np.eye(groups + 1), rtol=0, atol=1e-13)
                # eigh's own vectors are good to about its backward error over the level spacing
                # (1.2e-13 at G = 43, unscaled, against mpmath); the closed form's are within 1e-15.
                spread = (groups + 1) * np.finfo(np.float64).eps * scale / np.min(np.diff(w))
                signs = np.sign(np.sum(v * vectors[p], axis=0))
                np.testing.assert_allclose(vectors[p] * signs, v, rtol=0, atol=1e-13 + spread)


def mp_secular_root(mp, poles, k, b, head, j, start):
    """Root j of head - mu - sum(b^2 k / (poles - mu)) by safeguarded Newton in mpmath.

    The bracket is root j's interlacing interval, where the root is unique,
    so ``start`` (the float answer) only speeds the search up.
    """

    w = [b * b * kk for kk in k]
    total = mp.sqrt(sum(k)) * abs(b) + 1
    lo = min(poles[0], head) - total if j == 0 else poles[j - 1]
    hi = max(poles[-1], head) + total if j == len(poles) else poles[j]
    origin = min(poles, key=lambda p: abs(p - start))  # work relative to the nearest pole
    lo, hi, tau = lo - origin, hi - origin, mp.mpf(start) - origin
    shifted = [p - origin for p in poles]
    tiny = mp.mpf(10) ** (5 - mp.mp.dps)
    for _ in range(500):
        if not lo < tau < hi:
            tau = (lo + hi) / 2
        terms = [wi / (d - tau) for wi, d in zip(w, shifted)]
        value = head - origin - tau - sum(terms)
        if value > 0:
            lo = tau
        else:
            hi = tau
        step = value / (1 + sum(t / (d - tau) for t, d in zip(terms, shifted)))
        if lo <= tau + step <= hi and abs(step) <= tiny * abs(tau + step):
            return origin + tau + step
        tau += step
    raise AssertionError("mpmath reference did not converge")


@pytest.fixture
def mp():
    """mpmath at 50 digits, restored afterwards."""

    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        yield mpmath


def test_levels_match_mpmath_at_50_digits(mp):
    """Gap, e0, ground vector and every root to 1e-13 relative, down to x = 1e-12.

    Roots then sit within ~1e-24 of a pole, and z = 0 or +-1 puts the head
    level on or next to a body level.
    """

    def close(got, want, scale=None):
        return abs(got - want) <= 1e-13 * (abs(want) if scale is None else scale)

    rng = np.random.default_rng(4242)
    checked = 0
    for n in range(1, 17):
        entries = rng.integers(0, 5, size=2**n)
        entries[entries == 0] = rng.integers(0, 2)  # soluble or not
        planted = worst_case_diagonal(n, int(rng.integers(2**n)))
        for diag, variant in itertools.product(
            (planted, worst_case_diagonal(n, None), ViolationDiagonal(entries)), VARIANTS
        ):
            factor, divisor = variant_scales(variant, diag.dimension)
            poles = [mp.mpf(factor * float(u)) for u in diag.histogram.values]
            k = [int(c) for c in diag.histogram.counts]
            xs = rng.choice([-1.0, 1.0], 3) * 10.0 ** rng.uniform(-12.0, 0.3, 3)
            zs = rng.choice([0.0, 1e-9, -1.0, 1.0, -1.0 + 1e-9, 1.0 - 1e-9], 3)
            zs += rng.choice([0.0, 1.0], 3) * rng.normal(0.0, 0.3, 3)
            low = lowest_levels(diag, variant, xs, zs, 2)
            e0, gap = low.level(0), low.gap()
            ground, head = low.ground()
            every = lowest_levels(diag, variant, xs, zs)
            for p, (x, z) in enumerate(zip(xs.tolist(), zs.tolist())):
                b, q = mp.mpf(x / divisor), mp.mpf(z / 4.0)
                mus = [
                    mp_secular_root(mp, poles, k, b, -2 * q, j, every.roots[p, j] - z / 4.0)
                    for j in range(len(poles) + 1)
                ]
                mu1 = poles[0] if k[0] > 1 else mus[1]
                amplitudes = [b / (mus[0] - pole) for pole in poles]
                norm = mp.sqrt(sum(kk * a * a for kk, a in zip(k, amplitudes)) + 1)
                # e0 and the roots add z/4 to a secular root: held to the larger of |z/4| and themselves
                assert close(e0[p], q + mus[0], max(abs(q + mus[0]), abs(q)))
                assert close(gap[p], mu1 - mus[0])
                assert close(head[p], 1 / norm)
                for got, a in zip(ground[p].tolist(), amplitudes):
                    assert close(got, a / norm)
                for got, mu in zip(every.roots[p].tolist(), mus):
                    assert close(got, q + mu, max(abs(q + mu), abs(q)))
                checked += 1
    assert checked == 16 * 3 * 3 * 3


def mp_bisected_root(mp, poles, k, b, head, j):
    """Root j of head - lam - sum(b^2 k / (poles - lam)) by bisection of its interlacing interval."""

    w = [b * b * kk for kk in k]
    total = mp.sqrt(sum(k)) * abs(b) + 1
    lo = min(poles[0], head) - total if j == 0 else poles[j - 1]
    hi = max(poles[-1], head) + total if j == len(poles) else poles[j]
    for _ in range(600):
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        if head - mid - sum(wi / (d - mid) for wi, d in zip(w, poles)) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_extreme_couplings_converge_and_match_mpmath_at_80_digits(mp):
    """|x| = 1e15..1e79 on an insoluble G = 4 diagonal: the leftmost root lies about |x| sqrt(8)
    below poles[0] = 1, at origin 0, and must still end; every level within 1e-13 of the level scale."""

    diag = ViolationDiagonal(np.array([1, 2, 3, 4, 2, 2, 3, 4]))
    xs = 10.0 ** np.arange(15, 80)
    for variant, count in itertools.product(VARIANTS, (1, 2, None)):
        lowest_levels(diag, variant, xs, 0.5, count)
        lowest_levels(diag, variant, -xs, -0.5, count)
    poles, k = diag.histogram.values.tolist(), diag.histogram.counts.tolist()
    picked = np.random.default_rng(1515).choice(xs.size, 8, replace=False)
    with mp.workdps(80):
        for count in (1, 2, None):
            roots = lowest_levels(diag, "unscaled", xs[picked], 0.5, count).roots
            for p, x in enumerate(xs[picked].tolist()):
                q = mp.mpf(0.5) / 4
                levels = [q + u for u in poles]
                want = [mp_bisected_root(mp, levels, k, mp.mpf(x), -q, j) for j in range(roots.shape[1])]
                scale = max(abs(v) for v in want)
                for got, level in zip(roots[p].tolist(), want):
                    assert abs(got - level) <= 1e-13 * scale, (count, x)


def test_stop_rule_bound_stays_finite_at_huge_couplings(mp):
    """The stop rule bounds the far terms by sqrt(size b2) sqrt(curve), which stays finite where
    sqrt(size b2 curve) overflows and let a root end wherever it stood.  Every call, at |x| = 1e60..1e150,
    either raises ConvergenceFailure or matches an 80-digit bisection (on a seeded subsample) to 1e-13
    of the level scale: the larger of the level and the operator's largest diagonal entry."""

    e0 = lowest_levels(worst_case_diagonal(3), "unscaled", [3e153], [0.5], 1).roots[0, 0]
    assert e0 == pytest.approx(-8.4852813742385e153, rel=1e-13)
    g9 = ViolationDiagonal(np.arange(16) % 9 + 1)
    assert lowest_levels(g9, "unscaled", [-1e110], [-1.0], 3).roots[0, 1] == pytest.approx(1.0610157878628685, rel=1e-13)
    solved, xs = [], 10.0 ** np.arange(60, 151, 10)
    for diag, variant, count in itertools.product((worst_case_diagonal(3), worst_case_diagonal(3, 5), g9), VARIANTS, (1, 2, None)):
        for x, z in ((xs, 0.5), (-xs, -1.0)):
            try:
                roots = lowest_levels(diag, variant, x, z, count).roots
            except ConvergenceFailure:
                continue
            solved += [(diag, variant, x[p], z, j, level) for p, row in enumerate(roots.tolist()) for j, level in enumerate(row)]
    with mp.workdps(80):
        for i in np.random.default_rng(6015).choice(len(solved), 40, replace=False):
            diag, variant, x, z, j, got = solved[i]
            factor, divisor = variant_scales(variant, diag.dimension)
            q = mp.mpf(z) / 4
            levels = [q + factor * u for u in diag.histogram.values.tolist()]
            want = mp_bisected_root(mp, levels, diag.histogram.counts.tolist(), mp.mpf(x / divisor), -q, j)
            scale = max(abs(want), abs(q), *(abs(v) for v in levels))
            assert abs(got - want) <= 1e-13 * scale, (diag.histogram.values.size, variant, x, j)


def test_off_bracket_model_starts_take_the_bracket_middle(mp, monkeypatch):
    """At x = 1e-12..1e-9 root 1's model puts it a rounding error below poles[0], its origin,
    outside its bracket; it starts mid-bracket instead, and every level still matches an
    80-digit bisection to 1e-13 of itself."""

    diag = ViolationDiagonal(np.array([0, 1, 2, 3, 1, 2, 3, 3]))  # G = 4
    xs, z = 10.0 ** np.arange(-12, -8), 0.5
    starts, model_start = [], eigensolver._model_start

    def spy(*args):
        starts.append(model_start(*args))
        return starts[-1]

    monkeypatch.setattr(eigensolver, "_model_start", spy)
    poles, k = diag.histogram.values.tolist(), diag.histogram.counts.tolist()
    with mp.workdps(80):
        for variant in VARIANTS:
            roots = lowest_levels(diag, variant, xs, z).roots
            right, tau = starts.pop()
            assert not np.any(right[1]) and np.all(tau[1] < 0.0)  # the bracket is (0, width) from the origin
            factor, divisor = variant_scales(variant, diag.dimension)
            q = mp.mpf(z / 4.0)
            levels = [q + mp.mpf(factor * u) for u in poles]
            for p, x in enumerate(xs.tolist()):
                for j, got in enumerate(roots[p].tolist()):
                    want = mp_bisected_root(mp, levels, k, mp.mpf(x / divisor), -q, j)
                    assert abs(got - want) <= 1e-13 * abs(want), (variant, x, j)


def test_ground_vector_next_to_a_pole_stays_normalized(mp):
    """x = 1e-140 at z = -1e15: the root sits ~2e-295 below the solution's level, and the
    amplitude there is ~h/b = 5e154 before normalization, whose square overflows."""

    x, z = 1e-140, -1e15
    ground, head = lowest_levels(worst_case_diagonal(3, solution_index=0), "unscaled", [x], [z], 2).ground()
    poles, k = [mp.mpf(0), mp.mpf(1)], [1, 7]
    b, q = mp.mpf(x), mp.mpf(z / 4.0)
    mu0 = mp_secular_root(mp, poles, k, b, -2 * q, 0, b * b / (2 * q))  # first order in b
    amplitudes = [b / (mu0 - pole) for pole in poles]
    norm = mp.sqrt(sum(kk * a * a for kk, a in zip(k, amplitudes)) + 1)
    assert abs(head[0] - 1 / norm) <= 1e-13 / norm  # about 2e-155
    for got, a in zip(ground[0].tolist(), amplitudes):
        assert abs(got - a / norm) <= 1e-13 * abs(a / norm)


def test_a_point_solves_alike_alone_or_in_any_batch():
    # Sums over the poles and the vector norm must not change order with the
    # number of rows in the call: a point solved alone, within a permuted
    # subset or within the whole batch gives the same bits.  Asking for fewer
    # levels solves only the roots among them, which are the whole spectrum's
    # bit for bit at every G: each root starts at its own model root, the
    # same whatever the count.
    rng = np.random.default_rng(1414)
    for g in range(1, 44):
        variant = VARIANTS[g % len(VARIANTS)]
        counts = rng.integers(1, 4, size=g)
        counts[0] = 1 + g % 2  # a repeated lowest count leaves one root for the two lowest levels
        entries = rng.permutation(np.repeat(np.arange(g) + g % 3, counts))
        diag = ViolationDiagonal(entries)
        assert diag.histogram.values.size == g
        xs = rng.uniform(-1.5, 1.5, size=11) * 10.0 ** rng.integers(-6, 1, size=11)
        zs = rng.uniform(-1.5, 1.5, size=11)
        xs[0] = 0.0  # the diagonal branch
        subset = rng.permutation(11)[:5]

        def solves(pick):
            low = lowest_levels(diag, variant, xs[pick], zs[pick], 2)
            full = lowest_levels(diag, variant, xs[pick], zs[pick])
            return (low.level(0), low.level(1), low.gap(), *low.ground()), full.roots, full.vectors()

        whole = solves(slice(None))
        for pick in [np.array([p]) for p in range(11)] + [subset]:
            low, roots, vectors = solves(pick)
            for name, got, want in zip(("e0", "e1", "gap", "amplitudes", "head"), low, whole[0]):
                assert bits(got) == bits(want[pick]), (g, name, pick)
            assert bits(roots) == bits(whole[1][pick]), (g, pick)
            assert bits(vectors) == bits(whole[2][pick]), (g, pick)

        full = lowest_levels(diag, variant, xs, zs)
        assert full.roots.shape[1] == g + 1
        roots_of_the_spectrum = np.concatenate(([0], np.cumsum(counts))).tolist()
        for count, solved in ((1, 1), (2, 2 if counts[0] == 1 else 1)):
            part = lowest_levels(diag, variant, xs, zs, count)
            assert part.roots.shape[1] == solved, (g, count)
            got = [part.level(i) for i in range(count)] + list(part.ground()) + [part.vectors()]
            want = [full.level(i) for i in range(count)] + list(full.ground()) + [full.vectors()[..., :solved]]
            for a, b in zip(got, want):
                assert bits(a) == bits(b), (g, count)
            if count in roots_of_the_spectrum:
                with pytest.raises(IndexError, match="root"):
                    part.level(count)
                if count == 1:
                    with pytest.raises(IndexError, match="root 1"):
                        part.gap()
            else:
                assert bits(part.level(count)) == bits(full.level(count))


def evolution_midpoints(steps=2000):
    """The step midpoints an ``evolve`` of ``steps`` steps solves on the default loop."""

    edges = np.linspace(0.0, 1.0, steps + 1)
    return LoopPath.default_rectangle().points_at(0.5 * (edges[:-1] + edges[1:]))


@pytest.mark.parametrize("n", [3, 8, 16])
def test_small_sectors_solve_in_a_step_and_a_check(n, monkeypatch):
    # At G <= 2 each root starts at the closed-form root of its sector (a
    # quadratic at G = 1 with no solution, the 3x3 at G = 2), where f is
    # already within its rounding-error bound: that one evaluation and the
    # step it gives end the root, over the default loop and the evolution
    # midpoints, under every variant.
    xs, zs = LoopPath.default_rectangle().sample_coordinates()
    xm, zm = evolution_midpoints()
    monkeypatch.setattr(eigensolver, "_STEP_BUDGET", 1)
    for diag, groups in ((worst_case_diagonal(n, 5 % 2**n), 2), (worst_case_diagonal(n), 1)):
        assert diag.histogram.values.size == groups
        for variant in VARIANTS:
            lowest_levels(diag, variant, xs, zs, 2)
            lowest_levels(diag, variant, xm, zm)


def test_levels_near_the_gap_minimum_match_mpmath(mp, monkeypatch):
    """The zoom of ``predict-gap`` at z = -1, n = 8..16: the sampled points
    next to each round's smallest gap, where the two lowest roots nearly
    meet, held to 1e-13 relative as in ``test_levels_match_mpmath_at_50_digits``."""

    def close(got, want, scale=None):
        return abs(got - want) <= 1e-13 * (abs(want) if scale is None else scale)

    real = eigensolver.lowest_levels
    rounds = []

    def spy(diag, variant, x, z, count):
        levels = real(diag, variant, x, z, count)
        gap = levels.gap()
        best = int(np.argmin(gap))
        low = levels.level(0), levels.level(1), gap, *levels.ground()
        rounds.append((x, np.broadcast_to(z, x.shape), low, range(max(best - 1, 0), min(best + 2, x.size))))
        return levels

    monkeypatch.setattr(eigensolver, "lowest_levels", spy)
    checked = 0
    for n, variant in itertools.product(range(8, 17), VARIANTS):
        for diag in (worst_case_diagonal(n, (1 << n) // 3), worst_case_diagonal(n)):
            rounds.clear()
            prediction_error(diag, -1.0, variant)
            factor, divisor = variant_scales(variant, diag.dimension)
            poles = [mp.mpf(factor * float(u)) for u in diag.histogram.values]
            k = [int(c) for c in diag.histogram.counts]
            for xs, zs, (e0, e1, gap, ground, head), near in rounds:
                for p in near:
                    if xs[p] == 0.0:
                        continue  # flat: the sorted diagonal, checked bit for bit elsewhere
                    quarter = float(zs[p]) / 4.0
                    b, q = mp.mpf(float(xs[p]) / divisor), mp.mpf(quarter)
                    mu0 = mp_secular_root(mp, poles, k, b, -2 * q, 0, e0[p] - quarter)
                    mu1 = poles[0] if k[0] > 1 else mp_secular_root(mp, poles, k, b, -2 * q, 1, e1[p] - quarter)
                    amplitudes = [b / (mu0 - pole) for pole in poles]
                    norm = mp.sqrt(sum(kk * a * a for kk, a in zip(k, amplitudes)) + 1)
                    assert close(e0[p], q + mu0, max(abs(q + mu0), abs(q)))
                    assert close(gap[p], mu1 - mu0)
                    assert close(head[p], 1 / norm)
                    for got, a in zip(ground[p].tolist(), amplitudes):
                        assert close(got, a / norm)
                    checked += 1
    assert checked > 9 * 3 * 2 * 3


def closed_form_worst_case(n, variant, x, z):
    """The sector of a worst case with one solution at ``2**n`` states, built from its histogram in closed form."""

    factor, divisor = variant_scales(variant, 2**n)
    x, z = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(z, dtype=np.float64))
    return Sector(factor * np.array([0.0, 1.0]), np.array([1, 2**n - 1]), z / 4.0, x / divisor)


# Next to the x_scaled avoided crossing at z = -1: a loop sample, and the bisection midpoints of the walk.
CROSSING_XS = (-0.71875, -0.707122802734375, 0.707122802734375, 0.71875)


@pytest.mark.parametrize("variant", VARIANTS)
def test_worst_cases_up_to_60_variables_solve_in_two_evaluations(variant, monkeypatch):
    # Next to the x_scaled crossing f cancels to rounding noise before a step
    # settles, and more so as n grows: a stop test on the step never ends
    # those roots, the rounding-error bound ends them at their model start.
    # Every variant's roots, z_scaled's included, end at their first
    # evaluation here; two is this test's bound.
    xs, zs = LoopPath.default_rectangle().sample_coordinates()
    grid = np.concatenate((np.linspace(-1.0, 1.0, 65), CROSSING_XS))
    xs, zs = np.concatenate((xs, grid)), np.concatenate((zs, np.full(grid.size, -1.0)))
    monkeypatch.setattr(eigensolver, "_STEP_BUDGET", 2)
    for n in range(16, 61, 4):
        sec = closed_form_worst_case(n, variant, xs, zs)
        for count in (2, 3):
            eigensolver._sector_roots(sec, -sec.quarter, count)


def test_levels_next_to_the_x_scaled_crossing_match_mpmath(mp):
    """e0 and the gap at ``CROSSING_XS``, z = -1, n = 16..60 and every variant, to 1e-13 of the levels.

    There f's far terms cancel its head level to noise of eps times that
    level, which places each root only to about 5e-17, so a gap as small as
    the x_scaled one (1.5e-5 at n = 40) is held, like e0, to 1e-13 of
    ``max(|e0|, |z/4|)`` rather than of itself.
    """

    for n, variant in itertools.product(range(16, 61, 4), VARIANTS):
        sec = closed_form_worst_case(n, variant, CROSSING_XS, -1.0)
        roots, origin, offset, *_ = eigensolver._sector_roots(sec, -sec.quarter, 2)
        gap = (origin[:, 1] - origin[:, 0]) + (offset[:, 1] - offset[:, 0])  # as Levels.gap takes it
        poles, k = [mp.mpf(0), mp.mpf(float(sec.poles[1]))], [1, 2**n - 1]
        q = mp.mpf(-0.25)
        for p, b in enumerate(sec.border.tolist()):
            mu0, mu1 = (mp_secular_root(mp, poles, k, mp.mpf(b), -2 * q, j, roots[p, j] + 0.25) for j in (0, 1))
            scale = max(abs(q + mu0), abs(q))
            assert abs(roots[p, 0] - (q + mu0)) <= 1e-13 * scale, (n, variant, p)
            assert abs(gap[p] - (mu1 - mu0)) <= 1e-13 * max(abs(mu1 - mu0), scale), (n, variant, p)


def test_roots_end_on_a_bracket_with_no_float_inside(monkeypatch):
    # With the rounding-error bound taken to 0 only f = 0 ends a root by the
    # stop test; every other root must end on its collapsed bracket, next to
    # where the stop test ends it.
    xs, zs = LoopPath.default_rectangle().sample_coordinates()
    diags = (worst_case_diagonal(3, 5), violation_diagonal(random_instance(6, 40, 0)))
    for diag, variant in itertools.product(diags, VARIANTS):
        want = lowest_levels(diag, variant, xs, zs).roots
        with monkeypatch.context() as patch:
            patch.setattr(eigensolver, "_EPS", 0.0)
            got = lowest_levels(diag, variant, xs, zs).roots
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))
