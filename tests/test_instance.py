"""Parsing, violation counting, and the brute-force ground truth."""

import numpy as np
import pytest

from diaboli import (
    ClauseArityError,
    ClauseCountMismatch,
    CnfInstance,
    DuplicateVariableInClause,
    IndexOutOfRange,
    MalformedHeader,
    VariableOutOfRange,
    ViolationDiagonal,
    brute_force_solubility,
    diagonal_csv,
    parse_dimacs,
    random_instance,
    render_dimacs,
    violation_diagonal,
    worst_case_diagonal,
)


def count_violations_slow(inst: CnfInstance, assignment: int) -> int:
    """Reference evaluator: walk clause literals one by one.

    Kept deliberately naive (per-assignment, per-literal loop) so it shares
    no code path with the vectorized implementation it checks.
    """

    total = 0
    for clause in inst.clauses:
        satisfied = False
        for lit in clause:
            value = bool((assignment >> (abs(lit) - 1)) & 1)
            if (lit > 0 and value) or (lit < 0 and not value):
                satisfied = True
                break
        if not satisfied:
            total += 1
    return total


SMALL = """c two clauses on three variables
p cnf 3 2
1 -2 3 0
-1 2 -3 0
"""


def test_parse_small_instance():
    inst = parse_dimacs(SMALL)
    assert inst.n_vars == 3
    assert inst.clauses == ((1, -2, 3), (-1, 2, -3))


def test_parse_clause_spanning_lines():
    inst = parse_dimacs("p cnf 4 1\n1 2\n-4 0\n")
    assert inst.clauses == ((1, 2, -4),)


def test_parse_rejects_missing_header():
    with pytest.raises(MalformedHeader):
        parse_dimacs("1 2 3 0\n")


def test_parse_rejects_duplicate_header():
    with pytest.raises(MalformedHeader):
        parse_dimacs("p cnf 3 1\np cnf 3 1\n1 2 3 0\n")


def test_parse_rejects_bad_header_counts():
    with pytest.raises(MalformedHeader):
        parse_dimacs("p cnf three 1\n1 2 3 0\n")


def test_parse_rejects_wrong_arity():
    with pytest.raises(ClauseArityError):
        parse_dimacs("p cnf 3 1\n1 2 0\n")
    with pytest.raises(ClauseArityError):
        parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")


def test_parse_rejects_duplicate_variable():
    with pytest.raises(DuplicateVariableInClause):
        parse_dimacs("p cnf 3 1\n1 -1 2 0\n")


def test_parse_rejects_variable_out_of_range():
    with pytest.raises(VariableOutOfRange):
        parse_dimacs("p cnf 3 1\n1 2 4 0\n")


def test_parse_rejects_clause_count_mismatch():
    with pytest.raises(ClauseCountMismatch):
        parse_dimacs("p cnf 3 2\n1 2 3 0\n")
    with pytest.raises(ClauseCountMismatch):
        parse_dimacs("p cnf 3 1\n1 2 3 0\n-1 -2 -3 0\n")


def test_render_parse_round_trip():
    inst = parse_dimacs(SMALL)
    again = parse_dimacs(render_dimacs(inst))
    assert again == inst


def test_violation_diagonal_matches_slow_evaluator():
    rng = np.random.default_rng(703)
    for n in (3, 4, 5, 6):
        for _ in range(5):
            inst = random_instance(n, int(rng.integers(1, 5 * n)), rng)
            diag = violation_diagonal(inst)
            expected = [count_violations_slow(inst, a) for a in range(1 << n)]
            assert diag.entries.tolist() == expected


def test_each_clause_hits_exactly_an_eighth_of_the_space():
    # all three literal variables pinned, n-3 free bits
    rng = np.random.default_rng(11)
    for n in (3, 5, 7):
        inst = random_instance(n, 6, rng)
        diag = violation_diagonal(inst)
        assert int(diag.entries.sum()) == 6 * (1 << (n - 3))


def test_single_clause_violated_by_known_assignments():
    inst = CnfInstance(n_vars=3, clauses=((1, 2, 3),))
    diag = violation_diagonal(inst)
    # only the all-false assignment (index 0) violates (1 or 2 or 3)
    assert diag.entries.tolist() == [1, 0, 0, 0, 0, 0, 0, 0]


def test_brute_force_solubility_reports_indices():
    soluble, sols = brute_force_solubility(worst_case_diagonal(3, solution_index=5))
    assert soluble and sols == [5]
    soluble, sols = brute_force_solubility(worst_case_diagonal(3))
    assert not soluble and sols == []


def test_worst_case_diagonal_shape():
    diag = worst_case_diagonal(4, solution_index=0)
    assert diag.dimension == 16
    assert diag.entries[0] == 0
    assert set(diag.entries[1:].tolist()) == {1}
    with pytest.raises(IndexOutOfRange):
        worst_case_diagonal(3, solution_index=8)
    with pytest.raises(IndexOutOfRange):
        worst_case_diagonal(17)


def test_diagonal_entries_are_read_only():
    diag = worst_case_diagonal(3, solution_index=1)
    with pytest.raises(ValueError):
        diag.entries[0] = 9


def test_histogram_groups_counts_exactly():
    diag = ViolationDiagonal(np.array([2, 0, 2, 5, 0, 2]))
    values, counts, inverse = diag.histogram
    assert values.tolist() == [0, 2, 5] and counts.tolist() == [2, 3, 1]
    assert values[inverse].tolist() == diag.entries.tolist()
    assert diag.histogram is diag.histogram
    with pytest.raises(ValueError):
        counts[0] = 7


def test_diagonal_infers_n_vars_only_for_power_of_two():
    assert ViolationDiagonal(np.array([0, 1, 1, 1])).n_vars == 2
    assert ViolationDiagonal(np.array([0, 1, 1])).n_vars is None
    with pytest.raises(IndexOutOfRange):
        ViolationDiagonal(np.array([0, 1, 2]), n_vars=2)
    with pytest.raises(IndexOutOfRange):
        ViolationDiagonal(np.array([-1, 0]))
    with pytest.raises(IndexOutOfRange):
        ViolationDiagonal(np.array([], dtype=np.int64))


def test_clause_validation_on_direct_construction():
    with pytest.raises(ClauseArityError):
        CnfInstance(n_vars=3, clauses=((1, 2),))
    with pytest.raises(DuplicateVariableInClause):
        CnfInstance(n_vars=3, clauses=((2, -2, 3),))
    with pytest.raises(VariableOutOfRange):
        CnfInstance(n_vars=3, clauses=((1, 2, -9),))
    with pytest.raises(VariableOutOfRange):
        CnfInstance(n_vars=3, clauses=((0, 1, 2),))


def test_random_instance_is_reproducible():
    a = random_instance(5, 10, 42)
    b = random_instance(5, 10, 42)
    assert a == b
    for clause in a.clauses:
        assert len({abs(lit) for lit in clause}) == 3


def test_diagonal_csv_header_and_rows():
    text = diagonal_csv(ViolationDiagonal(np.array([0, 2])))
    assert text.splitlines() == ["index,violations", "0,0", "1,2"]
