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
    parse_dimacs,
    random_instance,
    render_dimacs,
    violation_diagonal,
    worst_case_diagonal,
)
from diaboli.instance import MAX_VARS


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
    with pytest.raises(MalformedHeader, match="before the 'p cnf' header"):
        parse_dimacs("1 2 3 0\n")
    with pytest.raises(MalformedHeader, match="no 'p cnf' header"):
        parse_dimacs("c only a comment\n\n")


def test_parse_rejects_duplicate_header():
    with pytest.raises(MalformedHeader):
        parse_dimacs("p cnf 3 1\np cnf 3 1\n1 2 3 0\n")


def test_parse_rejects_bad_header_counts():
    with pytest.raises(MalformedHeader):
        parse_dimacs("p cnf three 1\n1 2 3 0\n")
    for header in ("p cnf 3", "p dnf 3 1", "pcnf 3 1 0"):
        with pytest.raises(MalformedHeader, match="unreadable header"):
            parse_dimacs(f"{header}\n1 2 3 0\n")
    with pytest.raises(MalformedHeader, match="non-integer token"):
        parse_dimacs("p cnf 3 1\n1 x 3 0\n")


def test_parse_rejects_wrong_arity():
    with pytest.raises(ClauseArityError):
        parse_dimacs("p cnf 3 1\n1 2 0\n")
    with pytest.raises(ClauseArityError):
        parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")
    with pytest.raises(ClauseArityError, match="trailing literals"):
        parse_dimacs("p cnf 3 1\n1 2 3 0\n-1 2\n")


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


def violation_counts_by_passes(inst: CnfInstance) -> np.ndarray:
    """Oracle: three boolean passes over every index for each clause."""

    size = 1 << inst.n_vars
    idx = np.arange(size, dtype=np.int64)
    counts = np.zeros(size, dtype=np.int64)
    for clause in inst.clauses:
        violated = np.ones(size, dtype=bool)
        for lit in clause:
            bit = (idx >> (abs(lit) - 1)) & 1
            violated &= (bit == 0) if lit > 0 else (bit == 1)
        counts += violated
    return counts


def test_violation_diagonal_matches_clause_passes_up_to_16_vars():
    rng = np.random.default_rng(2609)
    for n in range(3, 17):
        # every sign pattern on a clause over the end variables 1 and n, each twice
        edge = [tuple(-v if neg else v for neg, v in zip(signs, (1, n // 2 + 1, n))) for signs in np.ndindex(2, 2, 2)]
        drawn = random_instance(n, int(rng.integers(1, 6 * n + 1)), rng).clauses
        for clauses in (tuple(edge * 2), drawn, drawn + drawn[:3]):
            inst = CnfInstance(n_vars=n, clauses=clauses)
            diag = violation_diagonal(inst)
            assert diag.entries.dtype == np.int64 and diag.n_vars == n
            assert np.array_equal(diag.entries, violation_counts_by_passes(inst))


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


def test_worst_case_diagonal_shape():
    diag = worst_case_diagonal(4, solution_index=0)
    assert diag.dimension == 16
    assert diag.entries[0] == 0
    assert set(diag.entries[1:].tolist()) == {1}
    assert worst_case_diagonal(3, solution_index=5).solutions == [5]
    insoluble = worst_case_diagonal(3)
    assert not insoluble.soluble and insoluble.solutions == []
    with pytest.raises(IndexOutOfRange):
        worst_case_diagonal(3, solution_index=8)
    with pytest.raises(IndexOutOfRange):
        worst_case_diagonal(17)
    with pytest.raises(IndexOutOfRange):
        worst_case_diagonal(np.int64(0))
    with pytest.raises(IndexOutOfRange):
        worst_case_diagonal(True)
    wide = worst_case_diagonal(np.int64(3))
    assert wide.dimension == 8 and type(wide.n_vars) is int
    assert worst_case_diagonal(3, solution_index=np.int64(5)).solutions == [5]
    for bad in (True, 2.7, -1):
        with pytest.raises(IndexOutOfRange):
            worst_case_diagonal(3, solution_index=bad)


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
    # bincount groups a value span below the size, np.unique any other
    full = violation_diagonal(random_instance(10, 40, 5))
    diagonals = [
        diag,
        ViolationDiagonal(np.array([0, 10**12, 0])),
        ViolationDiagonal(np.array([0, 5])),
        ViolationDiagonal(np.array([7])),
        ViolationDiagonal(full.entries[300:700]),
        *(worst_case_diagonal(16, k) for k in (None, 0, 5, (1 << 16) - 1)),
    ]
    for diag in diagonals:
        values, inverse, counts = np.unique(diag.entries, return_inverse=True, return_counts=True)
        for got, want in zip(diag.histogram, (values, counts, inverse.reshape(-1))):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not got.flags.writeable


def test_diagonal_infers_n_vars_only_for_power_of_two():
    assert ViolationDiagonal(np.array([0, 1, 1, 1])).n_vars == 2
    assert ViolationDiagonal(np.array([0, 1, 1])).n_vars is None
    for entries, n_vars in (([0, 1, 2], 2), ([0, 1], True), ([0, 1, 1, 1], 2.0)):
        with pytest.raises(IndexOutOfRange):
            ViolationDiagonal(np.array(entries), n_vars=n_vars)
    assert type(ViolationDiagonal(np.array([0, 1, 1, 1]), n_vars=np.int64(2)).n_vars) is int
    with pytest.raises(IndexOutOfRange):
        ViolationDiagonal(np.array([-1, 0]))
    for fractional in ([0.5, 1.7], [0.0, np.nan], [1.0, np.inf]):
        with pytest.raises(IndexOutOfRange):
            ViolationDiagonal(np.array(fractional))
    assert ViolationDiagonal(np.array([1.0, 0.0])).entries.tolist() == [1, 0]
    assert ViolationDiagonal(np.array([3, 1], dtype=np.uint8)).entries.dtype == np.int64
    with pytest.raises(IndexOutOfRange):
        ViolationDiagonal(np.array([], dtype=np.int64))
    with pytest.raises(IndexOutOfRange, match="longer than"):
        ViolationDiagonal(np.zeros(2**MAX_VARS + 1, dtype=np.int64))
    for malformed in ([[0, 1], [1]], ["1", "x"], [None, 1]):
        with pytest.raises(IndexOutOfRange):
            ViolationDiagonal(malformed)


def test_clause_validation_on_direct_construction():
    with pytest.raises(ClauseArityError):
        CnfInstance(n_vars=3, clauses=((1, 2),))
    with pytest.raises(DuplicateVariableInClause):
        CnfInstance(n_vars=3, clauses=((2, -2, 3),))
    with pytest.raises(VariableOutOfRange):
        CnfInstance(n_vars=3, clauses=((1, 2, -9),))
    with pytest.raises(VariableOutOfRange):
        CnfInstance(n_vars=3, clauses=((0, 1, 2),))
    with pytest.raises(MalformedHeader):
        CnfInstance(n_vars=np.int64(0), clauses=((1, 2, 3),))
    with pytest.raises(MalformedHeader):
        CnfInstance(n_vars=True, clauses=((1, 2, 3),))
    with pytest.raises(MalformedHeader, match="at most"):
        CnfInstance(n_vars=MAX_VARS + 1, clauses=((1, 2, 3),))
    with pytest.raises(ClauseCountMismatch, match="at least one clause"):
        CnfInstance(n_vars=3, clauses=())
    inst = CnfInstance(n_vars=np.int64(3), clauses=((1, 2, 3),))
    assert inst == CnfInstance(n_vars=3, clauses=((1, 2, 3),)) and type(inst.n_vars) is int


def test_random_instance_needs_three_variables():
    for n_vars in (2, 0, -1, 3.0):
        with pytest.raises(MalformedHeader):
            random_instance(n_vars, 3, 0)
    assert random_instance(3, 1, 0).n_vars == 3


def test_random_instance_is_reproducible():
    a = random_instance(5, 10, 42)
    b = random_instance(5, 10, 42)
    assert a == b
    for clause in a.clauses:
        assert len({abs(lit) for lit in clause}) == 3
