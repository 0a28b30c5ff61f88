"""3-SAT instances, DIMACS round-tripping and clause-violation diagonals.

Assignments are addressed by integers: bit ``k`` of the index (least
significant bit is ``k = 0``) holds the truth value of variable ``k + 1``,
with 0 meaning false.  The violation diagonal lists, for every assignment
in that order, how many clauses the assignment violates.  An instance is
soluble exactly when some entry is zero.

Every solver reads a diagonal only through its histogram of counts, as do
its dimension and solubility.  A worst-case diagonal carries that histogram
in closed form and builds its ``2**n`` entries only when they are read; a
CNF diagonal is one integer product of two tables over the top and bottom
halves of the bits.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import (
    ClauseArityError,
    ClauseCountMismatch,
    DuplicateVariableInClause,
    IndexOutOfRange,
    MalformedHeader,
    VariableOutOfRange,
)

MAX_VARS = 16  # keeps the diagonal at or below 65536 entries

Clause = tuple[int, int, int]


@dataclass(frozen=True)
class CnfInstance:
    """A 3-SAT formula in which every clause has three distinct variables.

    Literals use the DIMACS convention: a positive integer ``v`` is the
    variable ``v``, a negative integer is its negation.
    """

    n_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n_vars, numbers.Integral) or isinstance(self.n_vars, bool) or self.n_vars < 1:
            raise MalformedHeader(f"variable count must be a positive integer, got {self.n_vars!r}")
        if self.n_vars > MAX_VARS:
            raise MalformedHeader(f"at most {MAX_VARS} variables supported, got {self.n_vars}")
        n_vars = int(self.n_vars)
        object.__setattr__(self, "n_vars", n_vars)
        clauses = tuple(map(tuple, self.clauses))
        if not clauses:
            raise ClauseCountMismatch("an instance needs at least one clause")
        for clause in clauses:
            if len(clause) != 3:
                raise ClauseArityError(f"clause {clause} has {len(clause)} literals, want 3")
            seen = set()
            for lit in clause:
                if type(lit) is not int and (type(lit) is bool or not hasattr(lit, "__index__")):
                    raise VariableOutOfRange(f"literal {lit!r} in clause {clause} is not an integer")
                if lit == 0:
                    raise VariableOutOfRange("literal 0 is reserved as the clause terminator")
                var = abs(lit)
                if var > n_vars:
                    raise VariableOutOfRange(f"variable {var} exceeds declared count {n_vars}")
                if var in seen:
                    raise DuplicateVariableInClause(f"variable {var} repeats in clause {clause}")
                seen.add(var)
        object.__setattr__(self, "clauses", tuple(tuple(map(operator.index, clause)) for clause in clauses))

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)


class Histogram(NamedTuple):
    """Exact grouping of a diagonal by violation count.

    Entry ``i`` is in group ``np.searchsorted(values, entries[i])``.
    """

    values: np.ndarray  # distinct counts u_g, ascending
    counts: np.ndarray  # multiplicities k_g


@dataclass(frozen=True, eq=False, repr=False)
class ViolationDiagonal:
    """Per-assignment clause-violation counts.

    The histogram answers the rest: ``dimension`` and ``soluble``, and
    ``n_vars``, None unless the dimension is a power of two.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        try:
            raw = np.asarray(self.entries)
            with np.errstate(invalid="ignore"):  # nan and inf are caught just below
                arr = raw.astype(np.int64)
        except (TypeError, ValueError) as exc:  # ragged nesting, or values that are not numbers
            raise IndexOutOfRange(f"violation counts must be integers: {exc}") from exc
        if raw.dtype.kind not in "iu" and not np.array_equal(arr, raw):
            raise IndexOutOfRange("violation counts must be integers")
        if arr.ndim != 1 or arr.size < 1:
            raise IndexOutOfRange("diagonal must be a non-empty 1-d sequence")
        if arr.size > 2**MAX_VARS:
            raise IndexOutOfRange(f"diagonal longer than {2**MAX_VARS} entries")
        if arr.min() < 0:
            raise IndexOutOfRange("violation counts cannot be negative")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def __repr__(self) -> str:
        values, counts = self.histogram
        return f"ViolationDiagonal(dimension={self.dimension}, values={values.tolist()}, counts={counts.tolist()})"

    @cached_property
    def dimension(self) -> int:
        return int(self.histogram.counts.sum())

    @property
    def n_vars(self) -> int | None:
        size = self.dimension
        return size.bit_length() - 1 if size & (size - 1) == 0 else None

    @property
    def soluble(self) -> bool:
        return bool(self.histogram.values[0] == 0)

    @property
    def solutions(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.entries == 0)]

    @cached_property
    def histogram(self) -> Histogram:
        """Distinct counts and their multiplicities.

        Counts are integers, so grouping by equality is exact; computed
        once per diagonal and shared read-only.  When every count is below
        the entry count they are tallied by ``bincount`` in O(size) memory,
        otherwise sorted; both give what ``np.unique`` gives.
        """

        entries = self.entries
        if int(entries.max()) < entries.size:
            tally = np.bincount(entries)
            present = tally > 0
            return _read_only(Histogram(np.flatnonzero(present), tally[present]))
        values, counts = np.unique(entries, return_counts=True)
        return _read_only(Histogram(values, counts))


def _read_only(hist: Histogram) -> Histogram:
    for arr in hist:
        arr.setflags(write=False)
    return hist


class _WorstCase(ViolationDiagonal):
    """``worst_case_diagonal``: the histogram in closed form from ``n`` and the planted index, entries on first read."""

    def __init__(self, n: int, solution_index: int | None) -> None:
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_solution", solution_index)

    @cached_property
    def entries(self) -> np.ndarray:
        return _worst_case_entries(self._n, self._solution)

    @cached_property
    def histogram(self) -> Histogram:
        size = 1 << self._n
        values, counts = ([1], [size]) if self._solution is None else ([0, 1], [1, size - 1])
        return _read_only(Histogram(np.array(values, dtype=np.int64), np.array(counts, dtype=np.int64)))


def _worst_case_entries(n: int, solution_index: int | None) -> np.ndarray:
    entries = np.ones(1 << n, dtype=np.int64)
    if solution_index is not None:
        entries[solution_index] = 0
    entries.setflags(write=False)
    return entries


def parse_dimacs(text: str) -> CnfInstance:
    """Parse DIMACS CNF text into an instance.

    Comment lines start with ``c``.  Clauses are zero-terminated and may
    span or share physical lines.  The declared clause count must match
    the body exactly.
    """

    header: tuple[int, int] | None = None
    tokens: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise MalformedHeader("multiple header lines")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise MalformedHeader(f"unreadable header line: {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError as exc:
                raise MalformedHeader(f"non-integer counts in header: {line!r}") from exc
            continue
        if header is None:
            raise MalformedHeader("clause data before the 'p cnf' header")
        tokens.extend(line.split())
    if header is None:
        raise MalformedHeader("no 'p cnf' header found")
    n_vars, n_clauses = header

    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for tok in tokens:
        try:
            lit = int(tok)
        except ValueError as exc:
            raise MalformedHeader(f"non-integer token {tok!r} in clause data") from exc
        if lit == 0:
            clauses.append(tuple(current))
            current = []
        else:
            current.append(lit)
    if current:
        raise ClauseArityError(f"trailing literals without terminating 0: {tuple(current)}")
    inst = CnfInstance(n_vars=n_vars, clauses=tuple(clauses))
    if inst.n_clauses != n_clauses:
        raise ClauseCountMismatch(f"header declares {n_clauses} clauses, body has {inst.n_clauses}")
    return inst


def render_dimacs(inst: CnfInstance) -> str:
    """Render an instance to canonical DIMACS text (round-trips exactly)."""

    lines = [f"p cnf {inst.n_vars} {inst.n_clauses}"]
    for clause in inst.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


_CLAUSE_CHUNK = 2**15 - 1  # clauses per int16 product, so that no sum overflows


@cache
def _false_literals(n: int) -> np.ndarray:
    """Row ``lit + n``: 1 where literal ``lit`` is false, over the top-half indices (bits in place), then the bottom.

    In the half that does not hold its variable, a literal's row is 1, so a
    clause's product over its literals is 1 exactly where all are false.
    """

    low = n // 2
    index = np.concatenate((np.arange(1 << (n - low), dtype=np.int64) << low, np.arange(1 << low, dtype=np.int64)))
    top = np.arange(index.size) < 1 << (n - low)
    rows = np.ones((2 * n + 1, index.size), dtype=np.int16)
    for lit in chain(range(-n, 0), range(1, n + 1)):
        bit = 1 << abs(lit) - 1
        ours = top if bit >> low else ~top  # the half that holds the literal's variable
        rows[lit + n, ours] = (index[ours] & bit == 0) == (lit > 0)
    rows.setflags(write=False)  # shared by every call at this n
    return rows


def violation_diagonal(inst: CnfInstance) -> ViolationDiagonal:
    """Count violated clauses for every assignment.

    A clause is violated exactly when all three of its literals are false.
    Split an index into its top bits ``hi`` and its bottom ``n // 2`` bits
    ``lo``: clause ``c`` is violated at ``(hi, lo)`` exactly when its
    literals on top variables are all false at ``hi`` (``H[c, hi]``) and
    those on bottom variables at ``lo`` (``L[c, lo]``), so the counts are
    ``sum_c H[c, hi] * L[c, lo]``.  Both tables are the products of the
    clause's literal rows in a table kept per ``n``.  ``np.einsum`` takes the
    sum exactly over int16 tables, a chunk of clauses at a time so that no
    sum overflows.  A float ``@`` would be exact too, but its BLAS call starts
    worker threads that cost more than the whole product.
    """

    n = inst.n_vars
    literals = np.fromiter(chain.from_iterable(inst.clauses), np.int64, 3 * inst.n_clauses)
    false = _false_literals(n)[literals + n]
    all_false = np.multiply.reduce(false.reshape(inst.n_clauses, 3, -1), axis=1, dtype=np.int16)
    top = 1 << (n - n // 2)
    chunks = [all_false[start : start + _CLAUSE_CHUNK] for start in range(0, inst.n_clauses, _CLAUSE_CHUNK)]
    parts = [np.einsum("ch,cl->hl", chunk[:, :top], chunk[:, top:]) for chunk in chunks]
    counts = parts[0] if len(parts) == 1 else np.sum(parts, axis=0, dtype=np.int64)
    return ViolationDiagonal(entries=counts.reshape(-1))  # cast to int64 there


def worst_case_diagonal(n: int, solution_index: int | None = None) -> ViolationDiagonal:
    """Diagonal with every entry 1 except a single optional 0.

    This is the hardest solubility profile: at most one satisfying
    assignment, all other assignments violating exactly one clause.
    ``solution_index=None`` gives the insoluble all-ones counterpart.  The
    histogram is set in closed form, ``[1]`` with count ``2**n`` or
    ``[0, 1]`` with counts ``[1, 2**n - 1]``; the ``2**n`` entries are
    built, read-only, only when first read.
    """

    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
        raise IndexOutOfRange(f"need a positive variable count, got {n!r}")
    if n > MAX_VARS:
        raise IndexOutOfRange(f"at most {MAX_VARS} variables supported, got {n}")
    n = int(n)
    if solution_index is not None:
        if (
            not isinstance(solution_index, numbers.Integral)
            or isinstance(solution_index, bool)
            or not 0 <= solution_index < 1 << n
        ):
            raise IndexOutOfRange(f"solution index {solution_index!r} is not an integer in [0, {1 << n})")
        solution_index = int(solution_index)
    return _WorstCase(n, solution_index)


def random_instance(n_vars: int, n_clauses: int, rng: np.random.Generator | int) -> CnfInstance:
    """Draw a random 3-SAT instance: clause variables distinct, signs fair."""

    if not isinstance(n_vars, numbers.Integral) or n_vars < 3:
        raise MalformedHeader(f"a 3-SAT clause needs at least 3 variables, got {n_vars!r}")
    if not isinstance(n_clauses, numbers.Integral) or n_clauses < 1:
        raise ClauseCountMismatch(f"an instance needs a positive integer clause count, got {n_clauses!r}")
    if isinstance(rng, numbers.Integral) and rng >= 0:
        rng = np.random.default_rng(int(rng))
    elif not isinstance(rng, np.random.Generator):
        raise MalformedHeader(f"rng must be a non-negative integer seed or a numpy Generator, got {rng!r}")
    clauses = []
    for _ in range(n_clauses):
        variables = rng.choice(n_vars, size=3, replace=False) + 1
        signs = rng.integers(0, 2, size=3) * 2 - 1
        clauses.append(tuple(int(v * s) for v, s in zip(variables, signs)))
    return CnfInstance(n_vars=n_vars, clauses=tuple(clauses))

