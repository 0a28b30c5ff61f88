"""Parsing, violation counting, and the brute-force ground truth."""

import contextlib
import io
import re

import numpy as np
import pytest

from diaboli import (
    ClauseArityError,
    ClauseCountMismatch,
    CnfInstance,
    DuplicateVariableInClause,
    IndexOutOfRange,
    LoopPath,
    MalformedHeader,
    VariableOutOfRange,
    ViolationDiagonal,
    berry_phase,
    brute_force_oracle,
    lowest_levels,
    parse_dimacs,
    prediction_report,
    random_instance,
    render_dimacs,
    violation_diagonal,
    worst_case_diagonal,
)
from diaboli import instance
from diaboli.cli import main
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


def test_parse_reports_a_clause_fault_before_a_count_mismatch():
    with pytest.raises(VariableOutOfRange):
        parse_dimacs("p cnf 3 2\n1 2 4 0\n")
    with pytest.raises(DuplicateVariableInClause):
        parse_dimacs("p cnf 3 1\n1 -1 2 0\n1 2 3 0\n")
    with pytest.raises(ClauseArityError, match="has 4 literals"):
        parse_dimacs("p cnf 4 2\n1 2 3 4 0\n")


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


def violation_counts_by_blocks(inst: CnfInstance) -> np.ndarray:
    """Oracle: one strided sub-block add per clause on the ``(2,)*n`` view, variable ``v`` on axis ``n - v``."""

    n = inst.n_vars
    counts = np.zeros((2,) * n, dtype=np.int64)
    for clause in inst.clauses:
        block: list[int | slice] = [slice(None)] * n
        for lit in clause:
            block[n - abs(lit)] = 0 if lit > 0 else 1
        counts[tuple(block)] += 1
    return counts.reshape(-1)


def test_violation_diagonal_matches_sub_block_adds():
    rng = np.random.default_rng(4242)
    for n in range(3, 17):
        for m in sorted({1, 2, n, 4 * n, 10 * n}):
            drawn = random_instance(n, m, rng).clauses
            edge = ((1, -n, 2), (-1, n, -2), (n, 1, n - 1))
            for clauses in (drawn, drawn + drawn, drawn[:1] * 3 + edge):
                inst = CnfInstance(n_vars=n, clauses=clauses)
                diag = violation_diagonal(inst)
                assert diag.entries.dtype == np.int64 and diag.n_vars == n
                assert np.array_equal(diag.entries, violation_counts_by_blocks(inst))
    # 40,000 clauses, one count beyond the int16 range
    inst = CnfInstance(n_vars=3, clauses=((1, 2, 3),) * 36_000 + random_instance(3, 4_000, rng).clauses)
    diag = violation_diagonal(inst)
    want = violation_counts_by_blocks(inst)
    assert want.max() > np.iinfo(np.int16).max and want.sum() == 40_000
    assert diag.entries.dtype == np.int64 and np.array_equal(diag.entries, want)


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
    values, counts = diag.histogram
    assert values.tolist() == [0, 2, 5] and counts.tolist() == [2, 3, 1]
    assert values[np.searchsorted(values, diag.entries)].tolist() == diag.entries.tolist()
    assert diag.histogram is diag.histogram
    with pytest.raises(ValueError):
        counts[0] = 7
    # bincount groups counts below the size, np.unique any others; worst cases are in closed form
    full = violation_diagonal(random_instance(10, 40, 5))
    diagonals = [
        diag,
        ViolationDiagonal(np.array([0, 10**12, 0])),
        ViolationDiagonal(np.array([0, 5])),
        ViolationDiagonal(np.array([7])),
        ViolationDiagonal(np.array([3, 4, 3, 3, 4])),
        ViolationDiagonal(full.entries[300:700]),
        *(worst_case_diagonal(n, k) for n in range(1, 17) for k in (None, 0, 1 << (n - 1), (1 << n) - 1)),
    ]
    for diag in diagonals:
        values, counts = diag.histogram
        want = np.unique(diag.entries, return_counts=True)
        for got, expected in zip((values, counts), want):
            assert got.dtype == expected.dtype == np.int64 and np.array_equal(got, expected)
            assert not got.flags.writeable


def test_worst_case_histogram_needs_no_entries(monkeypatch):
    built = []
    entries_of = instance._worst_case_entries

    def spy(n, solution_index):
        built.append((n, solution_index))
        return entries_of(n, solution_index)

    monkeypatch.setattr(instance, "_worst_case_entries", spy)
    planted, insoluble = worst_case_diagonal(16, 12345), worst_case_diagonal(16)
    small = worst_case_diagonal(5, 3)
    assert berry_phase(planted).holonomy_sign == -1 and berry_phase(insoluble).holonomy_sign == 1
    assert planted.dimension == 2**16 and planted.n_vars == 16
    assert repr(planted) == "ViolationDiagonal(dimension=65536, values=[0, 1], counts=[1, 65535])"
    assert repr(insoluble) == "ViolationDiagonal(dimension=65536, values=[1], counts=[65536])"
    assert planted.soluble and not insoluble.soluble
    assert brute_force_oracle(planted) and not brute_force_oracle(insoluble)
    xs, zs = LoopPath.default_rectangle().sample_coordinates()
    lowest_levels(planted, "x_scaled", xs, zs, 2)
    lowest_levels(small, "unscaled", xs, zs)
    prediction_report(worst_case_diagonal(7, 0), -1.0)
    for argv in (
        ["berry", "wc:n=16,sol=12345"],
        ["berry", "wc:n=12,sol=none", "--variant", "x_scaled"],
        ["predict-gap", "wc:n=16,sol=12345", "--z", "-1"],
        ["spectrum", "wc:n=10,sol=77", "--sweep", "x", "--fixed", "-1", "--range", "0:0.2", "--samples", "21"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    assert built == []
    # Entries, once read, are built once, read-only and the all-ones diagonal with its one zero.
    for diag, zero in ((planted, 12345), (insoluble, None), (small, 3)):
        entries = diag.entries
        assert diag.entries is entries and entries.dtype == np.int64 and not entries.flags.writeable
        want = np.ones(diag.dimension, dtype=np.int64)
        if zero is not None:
            want[zero] = 0
        assert np.array_equal(entries, want)
        assert diag.solutions == ([] if zero is None else [zero])
    assert built == [(16, 12345), (16, None), (5, 3)]


def test_diagonal_infers_n_vars_only_for_power_of_two():
    four = ViolationDiagonal(np.array([0, 1, 1, 1]))
    assert four.n_vars == 2 and type(four.n_vars) is int
    assert ViolationDiagonal(np.array([0, 1, 1])).n_vars is None
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
    # A literal is an integer: no float is truncated, no string or bool converted.
    for clause in ((1.7, 2, -3.9), ("1", 2, 3), (True, 2, 3), (np.True_, 2, 3), (1, np.float64(2.0), 3)):
        bad = next(lit for lit in clause if type(lit) is not int)
        with pytest.raises(VariableOutOfRange, match=f"literal {re.escape(repr(bad))} "):
            CnfInstance(n_vars=3, clauses=(clause,))
    inst = CnfInstance(n_vars=3, clauses=((np.int64(1), np.int32(-2), 3),))
    assert inst.clauses == ((1, -2, 3),) and {type(lit) for lit in inst.clauses[0]} == {int}


def test_random_instance_needs_three_variables():
    for n_vars in (2, 0, -1, 3.0):
        with pytest.raises(MalformedHeader):
            random_instance(n_vars, 3, 0)
    assert random_instance(3, 1, 0).n_vars == 3


def test_random_instance_rejects_bad_clause_counts_and_seeds():
    for n_clauses in (2.5, 0, -1):
        with pytest.raises(ClauseCountMismatch, match="positive integer clause count"):
            random_instance(4, n_clauses, 0)
    for rng in (1.5, -1, "7", None):
        with pytest.raises(MalformedHeader, match="rng must be"):
            random_instance(4, 3, rng)
    assert random_instance(4, np.int64(3), np.int64(2)) == random_instance(4, 3, np.random.default_rng(2))


def test_random_instance_is_reproducible():
    a = random_instance(5, 10, 42)
    b = random_instance(5, 10, 42)
    assert a == b
    for clause in a.clauses:
        assert len({abs(lit) for lit in clause}) == 3
