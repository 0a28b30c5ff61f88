"""Time evolution around the loop: unitarity, fidelity, extracted phase."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import diaboli.adiabatic as adiabatic
from diaboli import (
    VARIANTS,
    Levels,
    LoopPath,
    NormDrift,
    ParameterPoint,
    Schedule,
    ScheduleInvalid,
    ViolationDiagonal,
    build,
    evolution_csv,
    evolve,
    lowest_levels,
    random_instance,
    violation_diagonal,
    worst_case_diagonal,
)

RECT = LoopPath.default_rectangle()


def circular_distance(a: float, b: float) -> float:
    """Oracle for phase comparisons: distance on the circle, in radians."""

    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


def test_schedule_validation():
    with pytest.raises(ScheduleInvalid):
        Schedule(total_time=0.0)
    with pytest.raises(ScheduleInvalid):
        Schedule(total_time=10.0, steps=50)
    with pytest.raises(ScheduleInvalid):
        Schedule(total_time=10.0, speed_profile="linear")
    with pytest.raises(ScheduleInvalid):
        Schedule(total_time=10.0, steps=np.int64(99))
    for total_time in ("1e3", None, True, 1j):
        with pytest.raises(ScheduleInvalid):
            Schedule(total_time=total_time)
    steps = Schedule(total_time=1.0, steps=np.int64(200)).steps
    assert steps == 200 and type(steps) is int
    for total_time in (np.float32(10.0), np.int64(10), 10):
        schedule = Schedule(total_time=total_time)
        assert type(schedule.total_time) is float and schedule.total_time == 10.0
        json.dumps(schedule.total_time)


def test_slow_soluble_run_lands_in_the_ground_state_with_phase_pi():
    diag = ViolationDiagonal(np.array([0, 1]))
    result = evolve(diag, "unscaled", RECT, Schedule(2000.0, "gap_adaptive", steps=1000))
    assert result.ground_fidelity >= 0.99
    assert circular_distance(result.geometric_phase_estimate, math.pi) <= 0.15
    assert result.max_norm_drift < 1e-9
    assert abs(np.linalg.norm(result.final_state) - 1.0) < 1e-9


def test_slow_insoluble_run_accrues_no_geometric_phase():
    diag = ViolationDiagonal(np.array([1, 2]))
    result = evolve(diag, "unscaled", RECT, Schedule(2000.0, "gap_adaptive", steps=1000))
    assert result.ground_fidelity >= 0.99
    assert circular_distance(result.geometric_phase_estimate, 0.0) <= 0.1


def test_fast_run_leaks_population():
    diag = ViolationDiagonal(np.array([0, 1]))
    slow = evolve(diag, "unscaled", RECT, Schedule(2000.0, "gap_adaptive", steps=1000))
    fast = evolve(diag, "unscaled", RECT, Schedule(10.0, "uniform", steps=1000))
    assert fast.ground_fidelity < slow.ground_fidelity


def test_adaptive_profile_beats_uniform_at_equal_time():
    diag = worst_case_diagonal(3, solution_index=0)
    uniform = evolve(diag, "unscaled", RECT, Schedule(100.0, "uniform", steps=1000))
    adaptive = evolve(diag, "unscaled", RECT, Schedule(100.0, "gap_adaptive", steps=1000))
    assert adaptive.ground_fidelity >= uniform.ground_fidelity


def test_step_halving_no_longer_moves_a_converged_run():
    diag = ViolationDiagonal(np.array([0, 1]))
    coarse = evolve(diag, "unscaled", RECT, Schedule(1000.0, "gap_adaptive", steps=1000))
    fine = evolve(diag, "unscaled", RECT, Schedule(1000.0, "gap_adaptive", steps=2000))
    assert abs(coarse.ground_fidelity - fine.ground_fidelity) < 1e-4


def test_phase_bookkeeping_closes():
    diag = ViolationDiagonal(np.array([0, 1]))
    result = evolve(diag, "unscaled", RECT, Schedule(500.0, "gap_adaptive", steps=800))
    recomputed = math.remainder(result.total_phase - result.dynamical_phase, 2.0 * math.pi)
    if recomputed <= -math.pi:
        recomputed += 2.0 * math.pi
    assert circular_distance(result.geometric_phase_estimate, recomputed) < 1e-12
    assert -math.pi < result.geometric_phase_estimate <= math.pi
    assert result.dynamical_phase != 0.0


def test_evolution_csv_shape():
    diag = ViolationDiagonal(np.array([0, 1]))
    schedule = Schedule(50.0, steps=100)
    with pytest.raises(ValueError):
        evolution_csv(evolve(diag, "unscaled", RECT, schedule))
    logged = evolve(diag, "unscaled", RECT, schedule, collect_log=True)
    lines = evolution_csv(logged).strip().splitlines()
    assert lines[0] == "t,x,z,e0,e1,fidelity,norm"
    assert len(lines) == 102  # start snapshot plus one row per step
    assert float(lines[1].split(",")[0]) == 0.0
    assert float(lines[-1].split(",")[0]) == pytest.approx(50.0)


def test_points_at_runs_once_around_the_loop_and_clips_outside_it():
    skewed = LoopPath(((0.5, 1.0), (-1.0, 1.0), (-1.0, -2.0), (1.0, -1.0), (0.5, 1.0)))
    for path in (RECT, skewed):  # last edges whose a + (b - a) rounds to b, so s = 1 lands exactly
        start = path.waypoints[0]
        x, z = path.points_at(np.array([-0.5, 0.0, 1.0, 1.5]))
        assert x.tolist() == [start.x] * 4 and z.tolist() == [start.z] * 4
    x, z = RECT.points_at(np.array([0.125, 0.25, 0.5]))  # the edges are 1, 2, 2, 2 and 1 long
    assert x.tolist() == [-1.0, -1.0, 0.0] and z.tolist() == [1.0, 0.0, -1.0]
    # A repeated waypoint adds an edge of length 0: the points stay finite, and
    # are the loop's without it, so evolve gives the same result.
    doubled = LoopPath(RECT.waypoints[:2] + RECT.waypoints[1:])
    s = np.linspace(0.0, 1.0, 801)
    assert np.all(np.isfinite(doubled.points_at(s))) and np.array_equal(doubled.points_at(s), RECT.points_at(s))
    diag, schedule = worst_case_diagonal(3, 5), Schedule(100.0, steps=200)
    result = evolve(diag, "unscaled", doubled, schedule)
    assert np.array_equal(result.final_state, evolve(diag, "unscaled", RECT, schedule).final_state)


def test_points_at_ends_exactly_on_the_first_waypoint():
    # Over nine edges the edges' running sum and their total can round apart.
    rng = np.random.default_rng(1)
    for _ in range(100):
        corners = [tuple(corner) for corner in rng.uniform(-2.0, 2.0, size=(9, 2)).tolist()]
        x, z = LoopPath((*corners, corners[0])).points_at(np.array([0.0, 1.0]))
        assert x.tolist() == [corners[0][0]] * 2 and z.tolist() == [corners[0][1]] * 2


def dense_walk(diag, variant, schedule):
    """Oracle: step the full (2**n + 1)-dim state with one dense eigh per step."""

    loop = RECT
    s_edges = np.linspace(0.0, 1.0, schedule.steps + 1)
    x_mid, z_mid = loop.points_at(0.5 * (s_edges[:-1] + s_edges[1:]))
    durations = adiabatic._step_durations(lowest_levels(diag, variant, x_mid, z_mid, 2).gap(), schedule)
    edges = lowest_levels(diag, variant, *loop.points_at(s_edges), 2)
    amplitudes, head = edges.ground()
    groups = np.searchsorted(diag.histogram.values, diag.entries)
    grounds = np.concatenate((amplitudes[:, groups], head[:, None]), axis=1)
    psi = grounds[0].astype(np.complex128)
    fidelities = [abs(np.vdot(grounds[0], psi)) ** 2]
    for j in range(schedule.steps):
        ham = build(diag, ParameterPoint(float(x_mid[j]), float(z_mid[j])), variant)
        w, v = np.linalg.eigh(ham.to_dense())
        psi = v @ (np.exp(-1j * w * durations[j]) * (v.T @ psi))
        fidelities.append(abs(np.vdot(grounds[j + 1], psi)) ** 2)
    e0 = edges.level(0)
    dynamical = -float(np.sum(0.5 * (e0[:-1] + e0[1:]) * durations))
    total = float(np.angle(np.vdot(grounds[0], psi)))
    return psi, np.array(fidelities), edges, dynamical, total


def walk_diagonals(rng, n):
    """One solution, none, several, and a random draw (random CNF from n = 3)."""

    several = rng.integers(1, 4, size=2**n)
    several[rng.choice(2**n, size=max(2, 2**n // 4), replace=False)] = 0
    if n >= 3:
        drawn = violation_diagonal(random_instance(n, int(rng.integers(1, 4 * n)), rng))
    else:
        drawn = ViolationDiagonal(rng.integers(0, 3, size=2**n))
    return (
        worst_case_diagonal(n, int(rng.integers(2**n))),
        worst_case_diagonal(n, None),
        ViolationDiagonal(several),
        drawn,
    )


@pytest.mark.parametrize("profile", ["uniform", "gap_adaptive"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_sector_evolution_matches_a_dense_walk(variant, profile):
    rng = np.random.default_rng(4242)
    schedule = Schedule(30.0, profile, steps=120)
    for n in range(1, 7):
        for diag in walk_diagonals(rng, n):
            result = evolve(diag, variant, RECT, schedule, collect_log=True)
            psi, fidelities, edges, dynamical, total = dense_walk(diag, variant, schedule)
            np.testing.assert_allclose(result.final_state, psi, rtol=0, atol=1e-10)
            assert result.ground_fidelity == pytest.approx(fidelities[-1], abs=1e-10)
            assert result.dynamical_phase == pytest.approx(dynamical, abs=1e-10)
            assert circular_distance(result.total_phase, total) < 1e-10
            geometric = math.remainder(total - dynamical, 2.0 * math.pi)
            assert circular_distance(result.geometric_phase_estimate, geometric) < 1e-10
            log = result.log
            np.testing.assert_allclose([row.e0 for row in log], edges.level(0), rtol=0, atol=1e-10)
            np.testing.assert_allclose([row.e1 for row in log], edges.level(1), rtol=0, atol=1e-10)
            np.testing.assert_allclose([row.fidelity for row in log], fidelities, rtol=0, atol=1e-10)


def test_evolution_runs_past_the_dense_size_cap():
    diag = worst_case_diagonal(16, solution_index=40503)
    result = evolve(diag, "x_scaled", RECT, Schedule(1e3, "gap_adaptive"))
    assert result.max_norm_drift < 1e-9
    assert result.ground_fidelity >= 0.99
    state = result.final_state
    assert state.shape == (2**16 + 1,)
    groups = np.searchsorted(diag.histogram.values, diag.entries)
    for group in range(diag.histogram.values.size):  # group-uniform
        members = state[:-1][groups == group]
        assert np.all(members == members[0])


def test_norm_drift_raises(monkeypatch):
    vectors = Levels.vectors

    def stretched(levels):
        return vectors(levels) * (1.0 + 1e-5)

    monkeypatch.setattr(Levels, "vectors", stretched)
    with pytest.raises(NormDrift, match="norm drifted"):
        evolve(worst_case_diagonal(3, 0), "unscaled", RECT, Schedule(50.0, steps=100))


def sector_loop(diag, variant, schedule):
    """Oracle: one eigh per step's sector operator on ``lowest_levels`` gaps, then one ``u @ psi`` per step.

    Each sector operator is the dense ``build`` matrix projected onto the
    normalized group-uniform states and the head.
    """

    loop = RECT
    s_edges = np.linspace(0.0, 1.0, schedule.steps + 1)
    x_mid, z_mid = loop.points_at(0.5 * (s_edges[:-1] + s_edges[1:]))
    durations = adiabatic._step_durations(lowest_levels(diag, variant, x_mid, z_mid, 2).gap(), schedule)
    edges = lowest_levels(diag, variant, *loop.points_at(s_edges), 2)
    root_k = np.sqrt(diag.histogram.counts)
    amplitudes, head = edges.ground()
    grounds = np.concatenate((amplitudes * root_k, head[:, None]), axis=1)
    groups = np.searchsorted(diag.histogram.values, diag.entries)
    basis = np.zeros((diag.dimension + 1, diag.histogram.values.size + 1))
    basis[np.arange(diag.dimension), groups] = 1.0 / root_k[groups]
    basis[-1, -1] = 1.0
    mats = [basis.T @ build(diag, ParameterPoint(x, z), variant).to_dense() @ basis for x, z in zip(x_mid, z_mid)]
    w, v = np.linalg.eigh(np.array(mats))
    states = [grounds[0].astype(np.complex128)]
    for u in (v * np.exp(-1j * w * durations[:, None])[:, None, :]) @ np.swapaxes(v, 1, 2):
        states.append(u @ states[-1])
    psi = states[-1]
    fidelities = np.abs(np.sum(grounds * states, axis=1)) ** 2
    final = np.append((psi[:-1] / root_k)[groups], psi[-1])
    e0 = edges.level(0)
    dynamical = -float(np.sum(0.5 * (e0[:-1] + e0[1:]) * durations))
    return final, fidelities, dynamical, float(np.angle(np.vdot(states[0], psi)))


def sector_diagonals():
    """Planted and insoluble worst cases (k_0 = 1, 8), several zeros (k_0 = 3), random CNFs with G = 11 and 16."""

    return (
        worst_case_diagonal(3, 5),
        worst_case_diagonal(3, None),
        ViolationDiagonal(np.array([0, 2, 0, 1, 3, 0, 1, 2])),
        violation_diagonal(random_instance(6, 40, 0)),
        violation_diagonal(random_instance(7, 56, 0)),
    )


@pytest.mark.parametrize("steps", [100, 101, 2003])
@pytest.mark.parametrize("profile", ["uniform", "gap_adaptive"])
def test_blocked_evolution_matches_the_step_loop(monkeypatch, profile, steps):
    # Odd step counts put a midpoint on x = 0, where the sector is diagonal.
    # Every sector runs both through the eigenbasis step loop and in blocks,
    # so both paths stay under the oracle wherever _SMALL_SECTOR sits.  At
    # 2003 steps the G = 11 and 16 CNFs span five and nine chunks.
    schedule = Schedule(200.0, profile, steps=steps)
    for variant in VARIANTS:
        for diag in sector_diagonals():
            final, fidelities, dynamical, total = sector_loop(diag, variant, schedule)
            for small_sector in (0, 1 << 10):  # every step through its eigenbasis, then every chunk in blocks
                monkeypatch.setattr(adiabatic, "_SMALL_SECTOR", small_sector)
                result = evolve(diag, variant, RECT, schedule, collect_log=True)
                np.testing.assert_allclose(result.final_state, final, rtol=0, atol=1e-11)
                np.testing.assert_allclose([row.fidelity for row in result.log], fidelities, rtol=0, atol=1e-11)
                assert result.ground_fidelity == pytest.approx(fidelities[-1], abs=1e-11)
                assert result.dynamical_phase == pytest.approx(dynamical, abs=1e-11)
                assert circular_distance(result.total_phase, total) < 1e-11


def test_propagate_matches_the_sequential_product():
    rng = np.random.default_rng(29)
    for steps in range(1, 51):
        raw = rng.normal(size=(steps, 5, 5)) + 1j * rng.normal(size=(steps, 5, 5))
        u = np.linalg.qr(raw)[0]
        psi = rng.normal(size=5) + 1j * rng.normal(size=5)
        psi /= np.linalg.norm(psi)
        expected = [psi]
        for step in u:
            expected.append(step @ expected[-1])
        out = np.empty((steps, 5), dtype=np.complex128)
        last = adiabatic._propagate(u.copy(), psi, out)
        np.testing.assert_allclose(out, expected[1:], rtol=0, atol=1e-13)
        np.testing.assert_allclose(last, expected[-1], rtol=0, atol=1e-13)


@pytest.mark.parametrize("profile", ["uniform", "gap_adaptive"])
def test_chunked_evolution_matches_one_chunk(monkeypatch, profile):
    schedule = Schedule(200.0, profile, steps=1001)
    for diag in sector_diagonals()[:3]:
        whole = evolve(diag, "unscaled", RECT, schedule)
        # 60-step chunks, each of which ends in a part block.
        groups = diag.histogram.values.size
        monkeypatch.setattr(adiabatic, "_BATCH_ENTRIES", 60 * (groups + 1) * groups)
        chunked = evolve(diag, "unscaled", RECT, schedule)
        monkeypatch.undo()
        np.testing.assert_allclose(chunked.final_state, whole.final_state, rtol=0, atol=1e-12)
        assert chunked.ground_fidelity == pytest.approx(whole.ground_fidelity, abs=1e-12)
        assert chunked.dynamical_phase == pytest.approx(whole.dynamical_phase, abs=1e-12)
        assert circular_distance(chunked.total_phase, whole.total_phase) < 1e-12


def test_log_collection_leaves_the_traversal_bit_identical(monkeypatch):
    # The log's e1 comes from the edges' one solve, which asks for two roots
    # instead of one: root 0 starts and steps alike either way, at any G.
    solves = []

    def counted(*args):
        solves.append(args[4] if len(args) > 4 else None)
        return lowest_levels(*args)

    monkeypatch.setattr(adiabatic, "lowest_levels", counted)
    for profile in ("uniform", "gap_adaptive"):
        for diag in sector_diagonals():
            for variant in VARIANTS:
                schedule = Schedule(100.0, profile, steps=301)
                solves.clear()
                bare = evolve(diag, variant, RECT, schedule)
                bare_solves = solves.copy()
                solves.clear()
                logged = evolve(diag, variant, RECT, schedule, collect_log=True)
                assert bare_solves[-1] == 1 and solves == bare_solves[:-1] + [2]  # the edges, solved once
                assert np.array_equal(bare.final_state, logged.final_state)
                assert (bare.ground_fidelity, bare.max_norm_drift) == (logged.ground_fidelity, logged.max_norm_drift)
                assert (bare.dynamical_phase, bare.total_phase, bare.geometric_phase_estimate) == (
                    logged.dynamical_phase, logged.total_phase, logged.geometric_phase_estimate
                )


def test_large_sector_evolution_builds_no_unitaries():
    # G = 43: 34 steps per chunk, and each step goes through its eigenbasis
    # instead of a 44 x 44 unitary.  Building every chunk's unitaries peaked
    # at 20.9 MiB here.
    diag = violation_diagonal(random_instance(16, 300, np.random.default_rng(5)))
    assert diag.histogram.values.size == 43
    tracemalloc.start()
    try:
        result = evolve(diag, "unscaled", RECT, Schedule(1e3, "gap_adaptive", steps=2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.max_norm_drift < 1e-9
    assert peak <= 12 * 2**20
