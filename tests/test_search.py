"""Bisection search over the assignment space."""

import numpy as np
import pytest

from diaboli import (
    DegenerateOnLoop,
    InternalContradiction,
    OracleFailure,
    SearchTrace,
    UnknownVariant,
    ViolationDiagonal,
    brute_force_oracle,
    random_instance,
    solve,
    violation_diagonal,
    worst_case_diagonal,
)


def test_single_solution_found_in_n_calls():
    for n in (3, 4, 5):
        for target in (0, 3, (1 << n) - 1):
            trace = solve(worst_case_diagonal(n, solution_index=target), oracle=brute_force_oracle)
            assert trace.soluble and trace.result == target
            assert trace.oracle_calls == n
            assert trace.total_oracle_calls == n + 1


def test_insoluble_stops_after_the_full_space_probe():
    trace = solve(worst_case_diagonal(4), oracle=brute_force_oracle)
    assert not trace.soluble and trace.result is None
    assert trace.oracle_calls == 0
    assert trace.total_oracle_calls == 1
    assert trace.iterations == ()


def test_trace_replay_for_a_known_instance():
    # solution at index 5 of 8: probe [0..3] no, then [4..5] yes, then [4] no
    trace = solve(worst_case_diagonal(3, solution_index=5), oracle=brute_force_oracle)
    assert [step.phase_outcome for step in trace.iterations] == [False, True, False]
    assert [step.chosen_half for step in trace.iterations] == ["upper", "lower", "upper"]
    assert [step.mask_size for step in trace.iterations] == [8, 4, 2]
    assert trace.result == 5


def test_multi_solution_returns_the_smallest_index():
    rng = np.random.default_rng(31)
    checked = 0
    for n in (3, 4):
        for _ in range(12):
            diag = violation_diagonal(random_instance(n, int(rng.integers(2, 3 * n)), rng))
            if not diag.soluble:
                continue
            trace = solve(diag, oracle=brute_force_oracle)
            assert trace.result == min(diag.solutions)
            assert trace.oracle_calls == n
            checked += 1
    assert checked > 5


def test_berry_oracle_agrees_with_brute_force():
    diag = worst_case_diagonal(3, solution_index=6)
    via_phase = solve(diag)
    via_scan = solve(diag, oracle=brute_force_oracle)
    assert via_phase.result == via_scan.result == 6
    assert via_phase.oracle_calls == 3

    insoluble = worst_case_diagonal(3)
    assert solve(insoluble).soluble is False


def test_lying_oracle_is_caught():
    diag = worst_case_diagonal(3)  # no solution anywhere
    with pytest.raises(InternalContradiction):
        solve(diag, oracle=lambda _: True)


def test_oracle_errors_are_wrapped():
    def broken(_: ViolationDiagonal) -> bool:
        raise DegenerateOnLoop("synthetic failure")

    with pytest.raises(OracleFailure):
        solve(worst_case_diagonal(3, solution_index=0), oracle=broken)


def test_unknown_variant_is_rejected_under_either_oracle():
    for oracle in (None, brute_force_oracle):
        with pytest.raises(UnknownVariant, match="variant 'bogus'"):
            solve(worst_case_diagonal(3, solution_index=2), "bogus", oracle)


def test_non_power_of_two_space_is_rejected():
    with pytest.raises(ValueError):
        solve(ViolationDiagonal(np.array([1, 0, 1])))


def test_trace_serializes_insoluble_as_a_string():
    trace = solve(worst_case_diagonal(3), oracle=brute_force_oracle)
    d = trace.to_dict()
    assert d["result"] == "insoluble"
    assert d["total_oracle_calls"] == 1

    found = solve(worst_case_diagonal(3, solution_index=2), oracle=brute_force_oracle)
    assert isinstance(found.to_dict()["result"], int)
    assert isinstance(found, SearchTrace)
