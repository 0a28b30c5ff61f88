"""Solution extraction by repeated halving of the assignment space.

One full-space solubility test decides whether to search at all.  Each
iteration then restricts the diagonal to the lower half of the surviving
index range ``[lo, hi)``, a contiguous slice of the entries, and asks the
oracle about that half alone: phase pi keeps the lower half, phase 0
sends the search to the upper half.  After n halvings of a 2**n space a
single index remains, reached with exactly n half-space oracle calls.
Ties are broken toward the lower half, so with several satisfying
assignments the smallest index wins.

The oracle is injectable: the default transports the ground state around
the standard loop (restricted subproblems reuse the caller's variant and
the default loop), and `brute_force_oracle` scans for zeros, which is
handy for fast cross-checks of the search logic itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import DiaboliError, InternalContradiction, OracleFailure, UnknownVariant
from .hamiltonian import SubspaceMask  # noqa: F401 - perfbench/tracer.py wraps this module-level name
from .hamiltonian import VARIANTS, restrict
from .holonomy import solubility
from .instance import ViolationDiagonal

Oracle = Callable[[ViolationDiagonal], bool]


@dataclass(frozen=True)
class SearchStep:
    mask_size: int
    phase_outcome: bool
    chosen_half: str


@dataclass(frozen=True)
class SearchTrace:
    """Decision record of one bisection run."""

    soluble: bool
    result: int | None
    iterations: tuple[SearchStep, ...]
    oracle_calls: int
    total_oracle_calls: int

    def to_dict(self) -> dict:
        return {
            "soluble": self.soluble,
            "result": self.result if self.result is not None else "insoluble",
            "iterations": [
                {
                    "mask_size": step.mask_size,
                    "phase_outcome": step.phase_outcome,
                    "chosen_half": step.chosen_half,
                }
                for step in self.iterations
            ],
            "oracle_calls": self.oracle_calls,
            "total_oracle_calls": self.total_oracle_calls,
        }


def brute_force_oracle(diag: ViolationDiagonal) -> bool:
    return diag.soluble


def solve(diag: ViolationDiagonal, variant: str = "unscaled", oracle: Oracle | None = None) -> SearchTrace:
    """Find a satisfying assignment index, or report insolubility."""

    size = diag.dimension
    if diag.n_vars is None:
        raise ValueError(f"bisection needs a power-of-two space, got {size} entries")
    if variant not in VARIANTS:  # the caller's error, whatever the oracle
        raise UnknownVariant(f"variant {variant!r} not in {VARIANTS}")
    if oracle is None:
        def oracle(restricted: ViolationDiagonal) -> bool:
            return solubility(restricted, variant)

    def ask(restricted: ViolationDiagonal) -> bool:
        try:
            return bool(oracle(restricted))
        except DiaboliError as exc:
            raise OracleFailure(f"oracle failed on a {restricted.dimension}-state subspace: {exc}") from exc

    if not ask(diag):
        return SearchTrace(
            soluble=False, result=None, iterations=(), oracle_calls=0, total_oracle_calls=1
        )

    lo, hi = 0, size
    steps: list[SearchStep] = []
    while hi - lo > 1:
        mid = lo + (hi - lo) // 2
        outcome = ask(restrict(diag, slice(lo, mid)))
        steps.append(
            SearchStep(
                mask_size=hi - lo,
                phase_outcome=outcome,
                chosen_half="lower" if outcome else "upper",
            )
        )
        lo, hi = (lo, mid) if outcome else (mid, hi)

    result = lo
    if int(diag.entries[result]) != 0:
        raise InternalContradiction(
            f"search landed on index {result} with {int(diag.entries[result])} violations"
        )
    return SearchTrace(
        soluble=True,
        result=result,
        iterations=tuple(steps),
        oracle_calls=len(steps),
        total_oracle_calls=len(steps) + 1,
    )
