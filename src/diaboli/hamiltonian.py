"""Bordered diagonal (arrowhead) Hamiltonians over violation diagonals.

The operator acts on the assignment basis plus one extra "head" state
appended at the last index.  The body block is diagonal, every body state
couples to the head with one uniform border element, and the head carries
the opposite bias, so the two sectors cross as ``z`` changes sign:

* ``unscaled``   body ``z/4 + d[i]``,     border ``x``,          head ``-z/4``
* ``z_scaled``   body ``z/4 + N * d[i]``, border ``x``,          head ``-z/4``
* ``x_scaled``   body ``z/4 + d[i]``,     border ``x / sqrt(N)``, head ``-z/4``

``N`` is the body dimension of the diagonal being built, so restricted
subproblems scale by their own size.  ``sector`` gives the same operators
at a batch of points in histogram form; only this module scales variants,
with one exception: ``perturbation.second_order`` takes the squared
``x_scaled`` border scale as ``1/N`` itself, which ``(1/sqrt(N))**2``
misses by a rounding at every odd ``n``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionTooLarge, EmptyMask, IndexOutOfRange, UnknownVariant
from .instance import ViolationDiagonal

VARIANTS = ("unscaled", "z_scaled", "x_scaled")

DENSE_LIMIT = 4097  # largest matrix the dense paths will materialize


def _real(value) -> float | None:
    """``value`` as a float when it is a real number other than a bool, else None."""

    if type(value) is float:
        return value
    return None if isinstance(value, bool) or not isinstance(value, numbers.Real) else float(value)


@dataclass(frozen=True)
class ParameterPoint:
    """A point (x, z) in the two-parameter control plane."""

    x: float
    z: float

    def __post_init__(self) -> None:
        for name in ("x", "z"):
            given = getattr(self, name)
            value = _real(given)
            if value is None or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite real number, got {given!r}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SubspaceMask:
    """Strictly increasing assignment indices naming a subspace."""

    selected: tuple[int, ...]

    def __post_init__(self) -> None:
        sel = tuple(int(i) for i in self.selected)
        if not sel:
            raise EmptyMask("mask selects no basis states")
        if any(i < 0 for i in sel):
            raise IndexOutOfRange(f"negative index in mask: {sel}")
        if any(b <= a for a, b in zip(sel, sel[1:])):
            raise IndexOutOfRange("mask indices must be strictly increasing")
        object.__setattr__(self, "selected", sel)


@dataclass(frozen=True, eq=False)
class ArrowheadHamiltonian:
    """Real symmetric arrowhead matrix: diagonal body, uniform border, head last."""

    body_diag: np.ndarray
    border: float
    head_diag: float

    def __post_init__(self) -> None:
        body = np.asarray(self.body_diag, dtype=np.float64)
        if body.ndim != 1 or body.size < 1:
            raise IndexOutOfRange("body diagonal must be a non-empty 1-d array")
        if not np.all(np.isfinite(body)):
            raise ValueError("body diagonal contains non-finite entries")
        body = body.copy()
        body.setflags(write=False)
        object.__setattr__(self, "body_diag", body)
        object.__setattr__(self, "border", float(self.border))
        object.__setattr__(self, "head_diag", float(self.head_diag))

    @property
    def dimension(self) -> int:
        return int(self.body_diag.size) + 1

    def to_dense(self) -> np.ndarray:
        """Materialize the full symmetric matrix (small systems only)."""

        dim = self.dimension
        if dim > DENSE_LIMIT:
            raise DimensionTooLarge(f"dense matrix of dimension {dim} exceeds {DENSE_LIMIT}")
        mat = np.zeros((dim, dim), dtype=np.float64)
        mat[np.arange(dim - 1), np.arange(dim - 1)] = self.body_diag
        mat[-1, -1] = self.head_diag
        mat[:-1, -1] = self.border
        mat[-1, :-1] = self.border
        return mat


def variant_scales(variant: str, size: int) -> tuple[float, float]:
    """Body factor on the violation counts and divisor of ``x`` for a body of ``size`` states."""

    if variant not in VARIANTS:
        raise UnknownVariant(f"variant {variant!r} not in {VARIANTS}")
    factor = float(size) if variant == "z_scaled" else 1.0
    divisor = math.sqrt(size) if variant == "x_scaled" else 1.0
    return factor, divisor


def build(diag: ViolationDiagonal, point: ParameterPoint, variant: str = "unscaled") -> ArrowheadHamiltonian:
    """Assemble the arrowhead operator for a diagonal at a parameter point."""

    factor, divisor = variant_scales(variant, diag.dimension)
    quarter = point.z / 4.0
    return ArrowheadHamiltonian(
        body_diag=quarter + factor * diag.entries.astype(np.float64),
        border=point.x / divisor,
        head_diag=-quarter,
    )


class Sector(NamedTuple):
    """Group ``g``: ``k_g`` body levels ``z/4 + poles[g]``, each coupled by ``border`` to the head ``-z/4``."""

    poles: np.ndarray  # s * u_g, ascending
    counts: np.ndarray  # k_g
    quarter: np.ndarray  # z/4 at every point
    border: np.ndarray  # x / divisor at every point


def sector(diag: ViolationDiagonal, variant: str, x, z) -> Sector:
    """``build(diag, (x, z), variant)`` on the histogram of ``diag``, at finite points broadcast and flattened."""

    x, z = np.asarray(x, dtype=np.float64), np.asarray(z, dtype=np.float64)
    if x.ndim != 1 or x.shape != z.shape:  # flat arrays of one size, as transport passes them, are used as they are
        x, z = (a.reshape(-1) for a in np.broadcast_arrays(x, z))
    if not (np.isfinite(x).all() and np.isfinite(z).all()):
        raise ValueError("parameter points must be finite")
    factor, divisor = variant_scales(variant, diag.dimension)
    hist = diag.histogram
    return Sector(factor * hist.values.astype(np.float64), hist.counts, z / 4.0, x / divisor)


def restrict(diag: ViolationDiagonal, mask: SubspaceMask | slice) -> ViolationDiagonal:
    """Select a subspace of the diagonal, preserving index order.

    ``slice(lo, hi)`` selects the contiguous range ``lo <= i < hi``
    without listing its indices.
    """

    if isinstance(mask, slice):
        lo, hi = mask.start, mask.stop
        if mask.step not in (None, 1) or lo is None or hi is None or not 0 <= lo < hi <= diag.dimension:
            raise IndexOutOfRange(f"want slice(lo, hi) with 0 <= lo < hi <= {diag.dimension}, got {mask}")
        return ViolationDiagonal(entries=diag.entries[lo:hi])
    idx = np.asarray(mask.selected, dtype=np.int64)
    if idx[-1] >= diag.dimension:
        raise IndexOutOfRange(f"mask index {int(idx[-1])} outside diagonal of size {diag.dimension}")
    return ViolationDiagonal(entries=diag.entries[idx])
