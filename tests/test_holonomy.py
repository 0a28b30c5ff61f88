"""Loop transport: phase pi exactly when a zero-violation entry exists."""

import dataclasses
import math

import numpy as np
import pytest

import diaboli.holonomy as holonomy
from diaboli import (
    VARIANTS,
    DegenerateOnLoop,
    LoopPath,
    OpenLoop,
    ParameterPoint,
    RefinementExhausted,
    ViolationDiagonal,
    berry_phase,
    build,
    eigen_dense,
    random_instance,
    solubility,
    transport_csv,
    violation_diagonal,
    worst_case_diagonal,
)


def test_soluble_single_variable_instance_gives_pi():
    result = berry_phase(ViolationDiagonal(np.array([0, 1])))
    assert result.holonomy_sign == -1
    assert result.phase == pytest.approx(np.pi)
    assert result.phase_label == "pi"


def test_insoluble_instance_gives_zero():
    result = berry_phase(ViolationDiagonal(np.array([1, 2])))
    assert result.holonomy_sign == 1
    assert result.phase == 0.0
    assert result.phase_label == "0"


def test_worst_case_both_ways():
    assert solubility(worst_case_diagonal(5, solution_index=17))
    assert not solubility(worst_case_diagonal(5))


def test_agrees_with_brute_force_on_random_instances():
    rng = np.random.default_rng(2024)
    seen_soluble = seen_insoluble = 0
    for n in (3, 4, 5):
        for _ in range(12):
            inst = random_instance(n, int(rng.integers(2, 6 * n)), rng)
            diag = violation_diagonal(inst)
            assert solubility(diag) == diag.soluble
            seen_soluble += int(diag.soluble)
            seen_insoluble += int(not diag.soluble)
    # the draw must exercise both outcomes or the test proves nothing
    assert seen_soluble > 0 and seen_insoluble > 0


def test_orientation_does_not_matter():
    diag = worst_case_diagonal(3, solution_index=6)
    forward = LoopPath.default_rectangle()
    backward = LoopPath(waypoints=tuple(reversed(forward.waypoints)))
    assert berry_phase(diag, path=forward).holonomy_sign == -1
    assert berry_phase(diag, path=backward).holonomy_sign == -1


def test_sampling_density_does_not_matter():
    diag = worst_case_diagonal(4, solution_index=9)
    coarse = berry_phase(diag, path=LoopPath.default_rectangle(samples_per_edge=16))
    fine = berry_phase(diag, path=LoopPath.default_rectangle(samples_per_edge=128))
    assert coarse.holonomy_sign == fine.holonomy_sign == -1


def test_gauge_flips_do_not_change_the_phase(monkeypatch):
    # an eigensolver is free to hand back v or -v at every point; the
    # transported sign must not depend on that choice
    real = holonomy.lowest_levels
    flip = np.random.default_rng(7)
    flipped = 0

    def noisy(diag, variant, x, z):
        nonlocal flipped
        levels = real(diag, variant, x, z)
        signs = np.where(flip.integers(0, 2, size=levels.head.size) == 1, -1.0, 1.0)
        flipped += int(np.count_nonzero(signs < 0))
        return dataclasses.replace(
            levels, amplitudes=levels.amplitudes * signs[:, None], head=levels.head * signs
        )

    monkeypatch.setattr(holonomy, "lowest_levels", noisy)
    for n in (3, 7):
        assert berry_phase(worst_case_diagonal(n, solution_index=2)).holonomy_sign == -1
        assert berry_phase(worst_case_diagonal(n)).holonomy_sign == 1
    assert flipped > 100


def test_loop_not_enclosing_origin_sees_no_phase():
    diag = worst_case_diagonal(3, solution_index=0)  # soluble
    off_center = LoopPath(
        waypoints=((0.5, 1.0), (1.5, 1.0), (1.5, -1.0), (0.5, -1.0), (0.5, 1.0))
    )
    assert berry_phase(diag, path=off_center).holonomy_sign == 1


def test_open_waypoint_list_is_rejected():
    with pytest.raises(OpenLoop):
        LoopPath(waypoints=((0.0, 1.0), (1.0, 1.0), (1.0, -1.0)))
    with pytest.raises(OpenLoop):
        LoopPath(waypoints=((0.0, 1.0), (1.0, 1.0), (0.0, 1.0)))


def test_loop_through_origin_is_rejected():
    with pytest.raises(ValueError):
        LoopPath(waypoints=((-1.0, -1.0), (1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)))


def test_degenerate_corner_raises(monkeypatch):
    # two solutions make the ground level twofold degenerate on the
    # negative-z axis; a waypoint pinned there cannot be transported
    diag = ViolationDiagonal(np.array([0, 0, 1, 1]))
    bad = LoopPath(waypoints=((1.0, 1.0), (0.0, -1.0), (1.0, -1.0), (1.0, 1.0)))
    with pytest.raises(DegenerateOnLoop):
        berry_phase(diag, path=bad)

    # and the weak steps next to it are not refined first
    real = holonomy.lowest_levels
    solved = []

    def counting(diag, variant, x, z):
        solved.append(x.size)
        return real(diag, variant, x, z)

    monkeypatch.setattr(holonomy, "lowest_levels", counting)
    with pytest.raises(DegenerateOnLoop):
        berry_phase(diag, path=LoopPath(waypoints=bad.waypoints, samples_per_edge=1))
    assert solved == [4]


def test_axis_crossings_are_nudged_for_multi_solution_instances():
    # the default rectangle crosses x = 0 at z = -1, where this diagonal
    # would be exactly degenerate; the half-step shift avoids the point
    diag = ViolationDiagonal(np.array([0, 0, 1, 1]))
    result = berry_phase(diag)
    assert result.holonomy_sign == -1


def test_depth_cap_below_the_overlap_floor_raises(monkeypatch):
    diag = worst_case_diagonal(7, solution_index=0)
    coarse = LoopPath.default_rectangle(samples_per_edge=4)
    monkeypatch.setattr(holonomy, "MAX_REFINE_DEPTH", 0)
    with pytest.raises(RefinementExhausted, match="depth 0"):
        berry_phase(diag, path=coarse)


def test_the_failure_met_first_along_the_loop_wins(monkeypatch):
    # (0, -1) is degenerate for a doubly soluble diagonal; without
    # refinement the single step across the top, from x = -1 to x = 1,
    # is too weak
    diag = ViolationDiagonal(np.array([0, 0, 1, 1]))
    monkeypatch.setattr(holonomy, "MAX_REFINE_DEPTH", 0)
    weak_first = LoopPath(
        waypoints=((-1.0, 1.0), (1.0, 1.0), (1.0, -1.0), (0.0, -1.0), (-1.0, 1.0)), samples_per_edge=1
    )
    with pytest.raises(RefinementExhausted, match=r"x=1, z=1\)"):
        berry_phase(diag, path=weak_first)
    degenerate_first = LoopPath(waypoints=tuple(reversed(weak_first.waypoints)), samples_per_edge=1)
    with pytest.raises(DegenerateOnLoop, match=r"x=0, z=-1"):
        berry_phase(diag, path=degenerate_first)


def test_coarse_sampling_triggers_refinement():
    diag = worst_case_diagonal(7, solution_index=0)
    result = berry_phase(diag, path=LoopPath.default_rectangle(samples_per_edge=4))
    assert result.refined_points > 0
    assert result.points_solved == 4 * 5 + 1 + result.refined_points
    assert result.holonomy_sign == -1
    assert result.min_transport_overlap >= holonomy.OVERLAP_FLOOR


def test_result_bookkeeping_fields():
    result = berry_phase(worst_case_diagonal(3, solution_index=1))
    assert 0.0 < result.min_gap_on_loop < 1.0
    assert 0.5 <= result.min_transport_overlap <= 1.0
    d = result.to_dict()
    assert d["phase"] == "pi" and d["holonomy_sign"] == -1
    assert set(d) == {"phase", "holonomy_sign", "min_transport_overlap", "min_gap_on_loop", "refined_points"}


def test_transport_csv_needs_a_log():
    diag = worst_case_diagonal(3, solution_index=1)
    with pytest.raises(ValueError):
        transport_csv(berry_phase(diag))
    logged = berry_phase(diag, collect_log=True)
    lines = transport_csv(logged).strip().splitlines()
    assert lines[0] == "step,x,z,e0,e1,overlap,cumulative_sign"
    # one row per retained sample: 5 edges, waypoints shared
    assert len(lines) - 1 >= 5 * 64
    assert lines[-1].split(",")[-1] in {"-1", "1"}


def dense_walk(diag, variant, path):
    """Oracle: walk the loop over eigen_dense, bisecting each weak step as it is met."""

    tally = {"gap": math.inf, "overlap": 1.0, "refined": 0, "flips": 1}
    log = []

    def solve(point):
        spec = eigen_dense(build(diag, point, variant))
        if spec.gap01 <= holonomy.GAP_FLOOR:
            raise DegenerateOnLoop("reference walk met a degenerate point")
        tally["gap"] = min(tally["gap"], spec.gap01)
        return spec.ground_vector

    def advance(start, vector, target, depth):
        found = solve(target)
        overlap = float(vector @ found)
        if abs(overlap) >= holonomy.REFINE_TRIGGER or depth >= holonomy.MAX_REFINE_DEPTH:
            if abs(overlap) < holonomy.OVERLAP_FLOOR:
                raise RefinementExhausted("reference walk ran out of depth")
            tally["overlap"] = min(tally["overlap"], abs(overlap))
            tally["flips"] *= -1 if overlap < 0.0 else 1
            log.append((target.x, target.z, overlap, tally["flips"]))
            return -found if overlap < 0.0 else found
        mid = ParameterPoint(0.5 * (start.x + target.x), 0.5 * (start.z + target.z))
        tally["refined"] += 1
        return advance(mid, advance(start, vector, mid, depth + 1), target, depth + 1)

    points = path.sample_points()
    first = vector = solve(points[0])
    for start, target in zip(points, points[1:]):
        vector = advance(start, vector, target, 0)
    sign = 1 if float(vector @ first) > 0.0 else -1
    return sign, tally["refined"], tally["gap"], tally["overlap"], log


def _draws(n, rng):
    """A single-solution, a multi-solution and an insoluble diagonal of 2**n entries."""

    size = 2**n
    base = rng.integers(1, 5, size=size)
    single = base.copy()
    single[rng.integers(size)] = 0
    multi = base.copy()
    multi[rng.choice(size, size=min(size, 3), replace=False)] = 0
    return {"single": single, "multi": multi, "insoluble": base}


_COARSE = LoopPath.default_rectangle(samples_per_edge=2)
_FROM_BELOW = LoopPath(
    waypoints=((0.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (0.0, -1.0)),
    samples_per_edge=24,
)


@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_transport_matches_a_dense_walk(variant):
    rng = np.random.default_rng(4242)
    for n in range(1, 9):
        for kind, entries in _draws(n, rng).items():
            diag = ViolationDiagonal(entries)
            # every loop starts on the x = 0 axis; the coarse one needs refinement
            paths = [_COARSE] + ([LoopPath.default_rectangle(), _FROM_BELOW] if n <= 6 else [])
            for path in paths:
                try:
                    want = dense_walk(diag, variant, path)
                except (DegenerateOnLoop, RefinementExhausted) as exc:
                    with pytest.raises(type(exc)):
                        berry_phase(diag, variant, path)
                    continue
                got = berry_phase(diag, variant, path, collect_log=True)
                where = f"n={n} {kind} {variant} start={path.waypoints[0]}"
                assert (got.holonomy_sign, got.refined_points) == want[:2], where
                assert got.holonomy_sign == (-1 if kind != "insoluble" else 1), where
                assert got.min_gap_on_loop == pytest.approx(want[2], rel=0, abs=1e-12), where
                assert got.min_transport_overlap == pytest.approx(want[3], rel=0, abs=1e-12), where
                steps = [(row.x, row.z, row.cumulative_sign) for row in got.log[1:]]
                assert steps == [(x, z, flips) for x, z, _, flips in want[4]], where
                overlaps = [row.overlap for row in got.log[1:]]
                want_overlaps = [ov for _, _, ov, _ in want[4]]
                np.testing.assert_allclose(overlaps, want_overlaps, rtol=0, atol=1e-12)
