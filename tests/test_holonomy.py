"""Loop transport: phase pi exactly when a zero-violation entry exists."""

import dataclasses
import math
import re

import numpy as np
import pytest

import diaboli.holonomy as holonomy
from diaboli import (
    VARIANTS,
    ConvergenceFailure,
    DegenerateOnLoop,
    Levels,
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

    def noisy(diag, variant, x, z, count):
        nonlocal flipped
        levels = real(diag, variant, x, z, count)
        signs = np.where(flip.integers(0, 2, size=len(levels.roots)) == 1, -1.0, 1.0)
        flipped += int(np.count_nonzero(signs < 0))

        class Flipped(Levels):
            def ground(self):
                amplitudes, head = super().ground()
                return amplitudes * signs[:, None], head * signs

        return Flipped(**vars(levels))

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


def test_waypoints_must_be_real_numbers():
    with pytest.raises(ValueError, match="finite real number"):
        LoopPath(waypoints=(("0", "1"), (1.0, 1.0), (1.0, -1.0), ("0", "1")))
    path = LoopPath(waypoints=((np.int64(0), 1), (1, 1), (1, np.float32(-1.0)), (0, 1)))
    assert all(type(p.x) is float and type(p.z) is float for p in path.waypoints)


def test_loop_through_origin_is_rejected():
    with pytest.raises(ValueError):
        LoopPath(waypoints=((-1.0, -1.0), (1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)))


def test_samples_per_edge_must_be_an_integer():
    # 1.5 samples per edge would sample past each edge's end, off the loop
    for bad in (1.5, 2.0, "4", True):
        with pytest.raises(ValueError):
            LoopPath.default_rectangle(samples_per_edge=bad)
    path = LoopPath.default_rectangle(samples_per_edge=np.int64(4))
    assert path.sample_coordinates()[0].size == 21 and type(path.samples_per_edge) is int


def test_default_loop_is_sampled_once(monkeypatch):
    # path=None reuses one loop whose samples were computed when it was built
    real = holonomy.lowest_levels
    batches = []

    def recording(diag, variant, x, z, count):
        batches.append(x)
        return real(diag, variant, x, z, count)

    monkeypatch.setattr(holonomy, "lowest_levels", recording)
    diag = worst_case_diagonal(3, solution_index=1)
    berry_phase(diag)
    calls = len(batches)
    berry_phase(diag)
    assert batches[calls] is batches[0]
    assert not batches[0].flags.writeable


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

    def counting(diag, variant, x, z, count):
        solved.append(x.size)
        return real(diag, variant, x, z, count)

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


@pytest.mark.parametrize("variant", VARIANTS)
def test_midpoints_on_the_axis_are_moved_off_it(variant):
    # With an odd number of samples per edge, the step across x = 0 at z = -1
    # is bisected; its midpoint rounds to x = -5.6e-17 at 7 samples and is
    # exactly 0 at 9, where a repeated zero count's ground level is degenerate.
    for args in ((6, 25, 2), (4, 6, 1), (12, 51, 3)):
        diag = violation_diagonal(random_instance(*args))
        assert diag.histogram.values[0] == 0 and diag.histogram.counts[0] > 1
        for samples in (7, 9):
            assert berry_phase(diag, variant, LoopPath.default_rectangle(samples)).holonomy_sign == -1


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


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_logged_transport_re_solves_its_walked_points_in_one_more_call(variant, monkeypatch):
    real = holonomy.lowest_levels
    batches = []

    def counting(diag, variant, x, z, count):
        batches.append(x.size)
        return real(diag, variant, x, z, count)

    monkeypatch.setattr(holonomy, "lowest_levels", counting)
    coarse = LoopPath.default_rectangle(samples_per_edge=4)  # refines next to the crossing
    for diag, path in ((worst_case_diagonal(7, 0), coarse), (violation_diagonal(random_instance(6, 25, 2)), None)):
        batches.clear()
        bare = berry_phase(diag, variant, path)
        calls = len(batches)
        logged = berry_phase(diag, variant, path, collect_log=True)
        assert len(batches) == 2 * calls + 1 and batches[-1] == len(logged.log) == logged.points_solved
        assert dataclasses.replace(logged, log=None) == bare
        # Each row's levels are its point's, solved alone, to the bit.
        for row in logged.log:
            alone = real(diag, variant, np.array([row.x]), np.array([row.z]), 2)
            assert np.array([row.e0, row.e1]).tobytes() == np.concatenate((alone.level(0), alone.level(1))).tobytes()


class FloorTie(Exception):
    """The dense walk met a step whose overlap is ``OVERLAP_FLOOR`` up to rounding."""


def dense_walk(diag, variant, path):
    """Oracle: walk the loop over eigen_dense, bisecting each weak step as it is met."""

    tally = {"gap": math.inf, "overlap": 1.0, "refined": 0, "flips": 1}
    log = []

    def solve(point):
        spec = eigen_dense(build(diag, point, variant))
        if spec.gap01 <= holonomy.GAP_FLOOR:
            raise DegenerateOnLoop(f"at (x={point.x:.6g}, z={point.z:.6g}) is below the floor")
        tally["gap"] = min(tally["gap"], spec.gap01)
        return spec.ground_vector

    def advance(start, vector, target, depth):
        found = solve(target)
        overlap = float(vector @ found)
        if abs(overlap) >= holonomy.REFINE_TRIGGER or depth >= holonomy.MAX_REFINE_DEPTH:
            if abs(abs(overlap) - holonomy.OVERLAP_FLOOR) <= 1e-12:
                raise FloorTie(f"near (x={target.x:.6g}, z={target.z:.6g})")
            if abs(overlap) < holonomy.OVERLAP_FLOOR:
                raise RefinementExhausted(
                    f"near (x={target.x:.6g}, z={target.z:.6g}) "
                    f"still below {holonomy.OVERLAP_FLOOR} at refinement depth {depth}"
                )
            tally["overlap"] = min(tally["overlap"], abs(overlap))
            tally["flips"] *= -1 if overlap < 0.0 else 1
            log.append((target.x, target.z, overlap, tally["flips"]))
            return -found if overlap < 0.0 else found
        mid = ParameterPoint(0.5 * (start.x + target.x), 0.5 * (start.z + target.z))
        if abs(mid.x) <= axis_tol and start.x != target.x:  # on x = 0 up to rounding: half a step on
            mid = ParameterPoint(0.5 * (mid.x + target.x), 0.5 * (mid.z + target.z))
        tally["refined"] += 1
        return advance(mid, advance(start, vector, mid, depth + 1), target, depth + 1)

    points = path.sample_points()
    axis_tol = np.finfo(np.float64).eps * max(abs(point.x) for point in points)
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
_ONE_STEP = LoopPath.default_rectangle(samples_per_edge=1)


@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_transport_matches_a_dense_walk(variant, monkeypatch):
    rng = np.random.default_rng(4242)
    for n in range(1, 9):
        # every loop starts on the x = 0 axis; the coarse ones need refinement
        paths = [_COARSE] + ([LoopPath.default_rectangle(), _FROM_BELOW, _ONE_STEP] if n <= 6 else [])
        _compare_with_dense_walks(variant, n, rng, paths)
    # Depth caps of 1 and 2 leave segments below the overlap floor deeper
    # than depth 0; one sample per edge puts a midpoint on the half-axis
    # x = 0, z < 0, degenerate for a multi-solution diagonal, and moves it off.
    for cap in (1, 2):
        monkeypatch.setattr(holonomy, "MAX_REFINE_DEPTH", cap)
        for n in range(1, 7):
            _compare_with_dense_walks(variant, n, rng, [_COARSE, _ONE_STEP])


def _compare_with_dense_walks(variant, n, rng, paths):
    for kind, entries in _draws(n, rng).items():
        diag = ViolationDiagonal(entries)
        for path in paths:
            where = f"n={n} {kind} {variant} start={path.waypoints[0]} cap={holonomy.MAX_REFINE_DEPTH}"
            try:
                want = dense_walk(diag, variant, path)
            except (DegenerateOnLoop, RefinementExhausted) as exc:
                # the message names the point where the walk fails, and the depth
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    berry_phase(diag, variant, path)
                continue
            except FloorTie as tie:
                # Either side of the floor is right: the walk fails there or keeps the step.
                try:
                    got = berry_phase(diag, variant, path)
                except RefinementExhausted as exc:
                    assert f"0.500 {tie}" in str(exc), where
                else:
                    assert got.min_transport_overlap == pytest.approx(holonomy.OVERLAP_FLOOR, rel=0, abs=1e-12), where
                continue
            got = berry_phase(diag, variant, path, collect_log=True)
            assert (got.holonomy_sign, got.refined_points) == want[:2], where
            assert got.holonomy_sign == (-1 if kind != "insoluble" else 1), where
            assert got.min_gap_on_loop == pytest.approx(want[2], rel=0, abs=1e-12), where
            assert got.min_transport_overlap == pytest.approx(want[3], rel=0, abs=1e-12), where
            steps = [(row.x, row.z, row.cumulative_sign) for row in got.log[1:]]
            assert steps == [(x, z, flips) for x, z, _, flips in want[4]], where
            overlaps = [row.overlap for row in got.log[1:]]
            want_overlaps = [ov for _, _, ov, _ in want[4]]
            np.testing.assert_allclose(overlaps, want_overlaps, rtol=0, atol=1e-12)


def _walk_inputs(monkeypatch):
    """The diagonals and loops of ``test_batched_transport_matches_a_dense_walk``, under the same depth caps."""

    rng = np.random.default_rng(4242)
    for n in range(1, 9):
        paths = [_COARSE] + ([LoopPath.default_rectangle(), _FROM_BELOW, _ONE_STEP] if n <= 6 else [])
        for entries in _draws(n, rng).values():
            yield ViolationDiagonal(entries), paths
    for cap in (1, 2):
        monkeypatch.setattr(holonomy, "MAX_REFINE_DEPTH", cap)
        for n in range(1, 7):
            for entries in _draws(n, rng).values():
                yield ViolationDiagonal(entries), [_COARSE, _ONE_STEP]


def _outcome(diag, variant, path):
    """Every field and log row of a transport, or the failure it raised, in exact reprs."""

    try:
        return repr(dataclasses.astuple(berry_phase(diag, variant, path, collect_log=True)))
    except (DegenerateOnLoop, RefinementExhausted) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("variant", VARIANTS)
def test_prefetched_subtrees_leave_the_walk_bit_identical(variant, monkeypatch):
    # Depth 0 solves each level's midpoints alone, as a walk without prefetch does.
    default = holonomy._PREFETCH_DEPTH
    walks = failures = 0
    for diag, paths in _walk_inputs(monkeypatch):
        for path in paths:
            monkeypatch.setattr(holonomy, "_PREFETCH_DEPTH", 0)
            alone = _outcome(diag, variant, path)
            monkeypatch.setattr(holonomy, "_PREFETCH_DEPTH", default)
            assert _outcome(diag, variant, path) == alone, (diag.entries, path.waypoints[0], holonomy.MAX_REFINE_DEPTH)
            walks += 1
            failures += alone.startswith(("DegenerateOnLoop", "RefinementExhausted"))
    assert walks > failures > 0


def test_a_prefetch_that_fails_off_the_walk_falls_back(monkeypatch):
    diag = worst_case_diagonal(16, 5)
    result = berry_phase(diag, collect_log=True)
    walked = {(row.x, row.z) for row in result.log}
    real = holonomy.lowest_levels
    batches, raised = [], []

    def solve(diag, variant, x, z, count):
        # fails every batch holding a point outside the walk
        batches.append(set(zip(x.tolist(), z.tolist())))
        if not batches[-1] <= walked:
            raised.append(x.size)
            raise ConvergenceFailure("1 secular root(s) missed tolerance after 64 steps")
        return real(diag, variant, x, z, count)

    monkeypatch.setattr(holonomy, "lowest_levels", solve)
    assert repr(dataclasses.astuple(berry_phase(diag, collect_log=True))) == repr(dataclasses.astuple(result))
    assert raised

    # A midpoint of the walk's last level still fails it, in that level's own solve.
    default = holonomy._PREFETCH_DEPTH
    monkeypatch.setattr(holonomy, "_PREFETCH_DEPTH", 0)
    batches.clear()
    berry_phase(diag)
    walked -= batches[-1]
    failing = []
    for depth in (0, default):
        monkeypatch.setattr(holonomy, "_PREFETCH_DEPTH", depth)
        raised.clear()
        with pytest.raises(ConvergenceFailure, match="1 secular root"):
            berry_phase(diag)
        failing.append(list(raised))
    assert len(failing[0]) == 1 and failing[1][-1] == failing[0][0] and len(failing[1]) > 1


def test_points_prefetched_off_the_walk_do_not_reach_the_result(monkeypatch):
    diag = worst_case_diagonal(16, 5)
    result = berry_phase(diag, collect_log=True)
    walked = {(row.x, row.z) for row in result.log}
    real = holonomy.lowest_levels
    hidden = []

    def solve(diag, variant, x, z, count):
        # a zero gap anywhere off the walk would show in min_gap_on_loop
        levels = real(diag, variant, x, z, count)
        off = np.array([point not in walked for point in zip(x.tolist(), z.tolist())], dtype=bool)
        hidden.append(int(np.count_nonzero(off)))

        class Hidden(Levels):
            def gap(self):
                return np.where(off, 0.0, super().gap())

        return Hidden(**vars(levels))

    monkeypatch.setattr(holonomy, "lowest_levels", solve)
    assert repr(dataclasses.astuple(berry_phase(diag, collect_log=True))) == repr(dataclasses.astuple(result))
    assert sum(hidden) > 0


def test_a_decide_at_n16_takes_a_few_batched_solves(monkeypatch):
    # Each split segment without a prefetched midpoint has its subtree solved
    # in one call; the walk it takes is the level-by-level one.
    real = holonomy.lowest_levels
    calls = []

    def counted(diag, variant, x, z, count):
        calls.append(x.size)
        return real(diag, variant, x, z, count)

    monkeypatch.setattr(holonomy, "lowest_levels", counted)
    for solution, refined in ((12345, 20), (None, 7)):
        calls.clear()
        result = berry_phase(worst_case_diagonal(16, solution))
        assert result.refined_points == refined
        assert len(calls) <= (4 if solution is not None else 3), calls


# Transport calls to lowest_levels and points solved, per pool entry: 16 A4-style
# draws at each n, then two n = 16 worst cases.  A change that moves an entry
# updates it and says why in CHANGES.md.
_TRANSPORT_SOLVES = {
    **{(f"cnf n={n}", variant): (16, 5136) for n in range(3, 7) for variant in VARIANTS},
    ("cnf n=7", "unscaled"): (17, 5199), ("cnf n=7", "z_scaled"): (17, 5199), ("cnf n=7", "x_scaled"): (16, 5136),
    ("cnf n=8", "unscaled"): (24, 5766), ("cnf n=8", "z_scaled"): (18, 5262), ("cnf n=8", "x_scaled"): (16, 5136),
    ("wc n=16 sol=12345", "unscaled"): (3, 540), ("wc n=16 sol=12345", "x_scaled"): (2, 447),
    ("wc n=16 sol=None", "unscaled"): (2, 414), ("wc n=16 sol=None", "x_scaled"): (1, 321),
}


def test_transport_solves_stay_pinned(monkeypatch):
    real = holonomy.lowest_levels
    tally = [0, 0]

    def counted(diag, variant, x, z, count):
        tally[0] += 1
        tally[1] += x.size
        return real(diag, variant, x, z, count)

    def solves(diags, variant):
        tally[:] = [0, 0]
        for diag in diags:
            try:
                berry_phase(diag, variant)
            except DegenerateOnLoop:
                pass
        return tuple(tally)

    monkeypatch.setattr(holonomy, "lowest_levels", counted)
    got = {}
    for n in range(3, 9):
        rng = np.random.default_rng(1000 + n)
        diags = [violation_diagonal(random_instance(n, int(rng.integers(1, 5 * n + 1)), rng)) for _ in range(16)]
        for variant in VARIANTS:
            got[f"cnf n={n}", variant] = solves(diags, variant)
    for solution in (12345, None):
        for variant in ("unscaled", "x_scaled"):
            got[f"wc n=16 sol={solution}", variant] = solves([worst_case_diagonal(16, solution)], variant)
    assert got == _TRANSPORT_SOLVES
