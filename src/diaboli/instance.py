"""3-SAT instances, DIMACS round-tripping and clause-violation diagonals.

Assignments are addressed by integers: bit ``k`` of the index (least
significant bit is ``k = 0``) holds the truth value of variable ``k + 1``,
with 0 meaning false.  The violation diagonal lists, for every assignment
in that order, how many clauses the assignment violates.  An instance is
soluble exactly when some entry is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
        if not isinstance(self.n_vars, int) or self.n_vars < 1:
            raise MalformedHeader(f"variable count must be a positive integer, got {self.n_vars!r}")
        if self.n_vars > MAX_VARS:
            raise MalformedHeader(f"at most {MAX_VARS} variables supported, got {self.n_vars}")
        clauses = tuple(tuple(int(lit) for lit in clause) for clause in self.clauses)
        if not clauses:
            raise ClauseCountMismatch("an instance needs at least one clause")
        for clause in clauses:
            _check_clause(clause, self.n_vars)
        object.__setattr__(self, "clauses", clauses)

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)


def _check_clause(clause: tuple[int, ...], n_vars: int) -> None:
    if len(clause) != 3:
        raise ClauseArityError(f"clause {clause} has {len(clause)} literals, want 3")
    seen = set()
    for lit in clause:
        if lit == 0:
            raise VariableOutOfRange("literal 0 is reserved as the clause terminator")
        var = abs(lit)
        if var > n_vars:
            raise VariableOutOfRange(f"variable {var} exceeds declared count {n_vars}")
        if var in seen:
            raise DuplicateVariableInClause(f"variable {var} repeats in clause {clause}")
        seen.add(var)


class Histogram(NamedTuple):
    """Exact grouping of a diagonal by violation count."""

    values: np.ndarray  # distinct counts u_g, ascending
    counts: np.ndarray  # multiplicities k_g
    inverse: np.ndarray  # group index of every entry, so values[inverse] == entries


@dataclass(frozen=True, eq=False)
class ViolationDiagonal:
    """Per-assignment clause-violation counts.

    ``n_vars`` is set when the diagonal covers a full assignment space of
    size ``2**n_vars``; restrictions to arbitrary subspaces leave it None.
    """

    entries: np.ndarray
    n_vars: int | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=np.int64)
        if arr.ndim != 1 or arr.size < 1:
            raise IndexOutOfRange("diagonal must be a non-empty 1-d sequence")
        if arr.size > 2**MAX_VARS:
            raise IndexOutOfRange(f"diagonal longer than {2**MAX_VARS} entries")
        if np.any(arr < 0):
            raise IndexOutOfRange("violation counts cannot be negative")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        n = self.n_vars
        if n is None and arr.size & (arr.size - 1) == 0:
            n = int(arr.size).bit_length() - 1
        if n is not None and 2**n != arr.size:
            raise IndexOutOfRange(f"n_vars={n} does not match {arr.size} entries")
        object.__setattr__(self, "n_vars", n)

    @property
    def dimension(self) -> int:
        return int(self.entries.size)

    @property
    def soluble(self) -> bool:
        return bool(np.any(self.entries == 0))

    @property
    def solutions(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.entries == 0)]

    @cached_property
    def histogram(self) -> Histogram:
        """Distinct counts, their multiplicities and the entry-to-group map.

        Counts are integers, so grouping by equality is exact; computed
        once per diagonal and shared read-only.
        """

        values, inverse, counts = np.unique(self.entries, return_inverse=True, return_counts=True)
        hist = Histogram(values, counts, inverse.reshape(-1))
        for arr in hist:
            arr.setflags(write=False)
        return hist


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

    clauses: list[Clause] = []
    current: list[int] = []
    for tok in tokens:
        try:
            lit = int(tok)
        except ValueError as exc:
            raise MalformedHeader(f"non-integer token {tok!r} in clause data") from exc
        if lit == 0:
            if len(current) != 3:
                raise ClauseArityError(f"clause {tuple(current)} has {len(current)} literals, want 3")
            clauses.append((current[0], current[1], current[2]))
            current = []
        else:
            current.append(lit)
    if current:
        raise ClauseArityError(f"trailing literals without terminating 0: {tuple(current)}")
    if len(clauses) != n_clauses:
        raise ClauseCountMismatch(f"header declares {n_clauses} clauses, body has {len(clauses)}")
    return CnfInstance(n_vars=n_vars, clauses=tuple(clauses))


def render_dimacs(inst: CnfInstance) -> str:
    """Render an instance to canonical DIMACS text (round-trips exactly)."""

    lines = [f"p cnf {inst.n_vars} {inst.n_clauses}"]
    for clause in inst.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def violation_diagonal(inst: CnfInstance) -> ViolationDiagonal:
    """Count violated clauses for every assignment.

    A clause is violated exactly when all three of its literals are false,
    so each clause contributes to ``2**(n-3)`` assignments.
    """

    size = 1 << inst.n_vars
    idx = np.arange(size, dtype=np.int64)
    counts = np.zeros(size, dtype=np.int64)
    for clause in inst.clauses:
        violated = np.ones(size, dtype=bool)
        for lit in clause:
            bit = (idx >> (abs(lit) - 1)) & 1
            violated &= (bit == 0) if lit > 0 else (bit == 1)
        counts += violated
    return ViolationDiagonal(entries=counts, n_vars=inst.n_vars)


def brute_force_solubility(diag: ViolationDiagonal) -> tuple[bool, list[int]]:
    """Scan the diagonal for zero entries; returns (soluble, solution indices)."""

    sols = diag.solutions
    return (len(sols) > 0, sols)


def worst_case_diagonal(n: int, solution_index: int | None = None) -> ViolationDiagonal:
    """Diagonal with every entry 1 except a single optional 0.

    This is the hardest solubility profile: at most one satisfying
    assignment, all other assignments violating exactly one clause.
    ``solution_index=None`` gives the insoluble all-ones counterpart.
    """

    if not isinstance(n, int) or n < 1:
        raise IndexOutOfRange(f"need a positive variable count, got {n!r}")
    if n > MAX_VARS:
        raise IndexOutOfRange(f"at most {MAX_VARS} variables supported, got {n}")
    entries = np.ones(1 << n, dtype=np.int64)
    if solution_index is not None:
        if not 0 <= solution_index < entries.size:
            raise IndexOutOfRange(f"solution index {solution_index} outside [0, {entries.size})")
        entries[solution_index] = 0
    return ViolationDiagonal(entries=entries, n_vars=n)


def random_instance(n_vars: int, n_clauses: int, rng: np.random.Generator | int) -> CnfInstance:
    """Draw a random 3-SAT instance: clause variables distinct, signs fair."""

    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    clauses = []
    for _ in range(n_clauses):
        variables = rng.choice(n_vars, size=3, replace=False) + 1
        signs = rng.integers(0, 2, size=3) * 2 - 1
        clauses.append(tuple(int(v * s) for v, s in zip(variables, signs)))
    return CnfInstance(n_vars=n_vars, clauses=tuple(clauses))


def diagonal_csv(diag: ViolationDiagonal) -> str:
    """CSV dump of the diagonal with an ``index,violations`` header."""

    lines = ["index,violations"]
    for i, v in enumerate(diag.entries):
        lines.append(f"{i},{int(v)}")
    return "\n".join(lines) + "\n"
