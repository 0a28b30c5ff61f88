"""Eigensolvers for symmetric arrowhead matrices.

The fast path never materializes the matrix.  With body diagonal ``d``,
uniform border ``b != 0`` and head value ``a``, the non-trivial
eigenvalues are the roots of the secular function

    f(lam) = (a - lam) - sum_i b**2 / (d[i] - lam)

which has exactly one root below the smallest distinct body value, one
root between each pair of adjacent distinct body values, and one root
above the largest.  A body value repeated k times additionally yields
k - 1 eigenvalues equal to that value exactly (deflation): only the
uniform combination of the repeated states couples to the head.

Each root is solved as an offset from an origin, as LAPACK's ``dlaed4``
does (R.-C. Li, LAPACK Working Note 89, 1993).  It starts at the root of
a three-level model of its sector: the head and the lowest group exact,
the other groups lumped into one level.  With two groups the model is
the sector, and its closed-form roots are the sector's to a few ulps;
with more it places only the leftmost root, so a solve asking for more
roots starts each at the middle of its interlacing interval, where one
evaluation picks the half that holds it (as do all roots of one group,
whose rational steps are exact from any start).  The origin is the bracket
pole nearer the start; the leftmost root keeps origin 0 when it lies
nearer 0 than a positive first pole.  Rational steps then keep the
nearest pole's term exactly, model the rest of the secular function by
its tangent, and fall back to halving the bracket when they leave it.  A
root ends when the secular function is within its own rounding-error bound,
as in ``dlaed4``, taking its last step if that stays in the bracket, or when
its bracket holds no float strictly inside; a root still open when the step
budget runs out raises ``ConvergenceFailure``.  Differences between poles are
exact, so the distance from a root ``lam = sigma + tau`` to each body
value keeps its relative accuracy however close the root lies to a pole,
and the root's eigenvector follows in closed form:

    v[i] = b / (tau - (d[i] - sigma)),   v[head] = 1,   then normalize.

``lowest_levels`` is the one level solve, on a violation diagonal's exact
histogram (``hamiltonian.sector``), for a whole batch of parameter points at
once.  Asked for the ``count`` lowest levels, it solves only the secular
roots among them: the two lowest levels serve the loop transport and gap
scans, the ground level the evolution edges, and the whole spectrum the
sweeps and evolution steps.  Its ``Levels`` keeps the spectrum run-length
encoded (each body level repeats ``k_g - 1`` times) and gives the gap, the
ground vector as one amplitude per group, and each root's eigenvector by
the same formula; a point's results do not depend on its batch, to the bit.
``eigen_arrowhead`` returns the whole spectrum of any one arrowhead matrix,
its body grouped to float tolerance.  Both go through ``_sector_roots``,
which holds the one rule for a border too small to couple (``x = 0``): the
levels and vectors follow the stable-sorted diagonal, body first on ties.
``eigen_dense`` is the independent cross-check: ``eigh`` of the dense matrix.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailure, DimensionTooLarge
from .hamiltonian import DENSE_LIMIT, ArrowheadHamiltonian, ParameterPoint, Sector, sector
from .hamiltonian import build  # noqa: F401 - perfbench/tracer.py wraps this module-level name
from .instance import ViolationDiagonal

DEFLATION_RTOL = 1e-13  # body values closer than this (relative) share a group
_STEP_BUDGET = 64  # secular evaluations per root; a rejected step becomes a halving
_EPS = np.finfo(np.float64).eps
# A border whose square is below the normal range couples nothing at double
# precision (each root lies within the subnormal range of its pole), so such
# points take the diagonal branch.
_TINY = np.finfo(np.float64).tiny


@dataclass(eq=False)
class Spectrum:
    """Eigenvalues in ascending order, optionally with the ground vector."""

    eigenvalues: np.ndarray
    ground_vector: np.ndarray | None = None

    @property
    def gap01(self) -> float:
        return float(self.eigenvalues[1] - self.eigenvalues[0])


def _group_body(body: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort body values and merge near-equal ones into (values, counts)."""

    d = np.sort(body, kind="stable")  # the default kind may not keep the sign of a zero
    if d.size == 1:
        return d, np.ones(1, dtype=np.int64)
    gaps = np.diff(d)
    scale = np.maximum(1.0, np.maximum(np.abs(d[:-1]), np.abs(d[1:])))
    breaks = gaps > DEFLATION_RTOL * scale
    starts = np.concatenate(([0], np.flatnonzero(breaks) + 1))
    counts = np.diff(np.concatenate((starts, [d.size])))
    return d[starts], counts.astype(np.int64)


def eigen_arrowhead(ham: ArrowheadHamiltonian) -> Spectrum:
    """Full spectrum of one arrowhead matrix, ascending.

    The body is grouped to float tolerance, so this serves any arrowhead;
    its ``p + 1`` roots come from the solve behind ``lowest_levels``, run
    at one point.
    """

    values, counts = _group_body(ham.body_diag)
    # The body is its own frame: z/4 is -0.0, which leaves every level's bits alone.
    one = Sector(values, counts, np.full(1, -0.0), np.array([ham.border]))
    roots, *_ = _sector_roots(one, np.array([ham.head_diag]), values.size + 1)
    deflated = np.repeat(values, counts - 1)
    return Spectrum(eigenvalues=np.sort(np.concatenate((deflated, roots[0])), kind="stable"))


def eigen_dense(ham: ArrowheadHamiltonian, want_ground_vector: bool = True) -> Spectrum:
    """Reference diagonalization of the materialized matrix."""

    if ham.dimension > DENSE_LIMIT:
        raise DimensionTooLarge(f"dense solve of dimension {ham.dimension} exceeds {DENSE_LIMIT}")
    if want_ground_vector:
        w, v = np.linalg.eigh(ham.to_dense())
        ground = v[:, 0].copy()
        anchor = ground[-1]
        if anchor == 0.0:
            anchor = ground[int(np.argmax(np.abs(ground)))]
        if anchor < 0.0:
            ground = -ground
        return Spectrum(eigenvalues=w, ground_vector=ground)
    w = np.linalg.eigvalsh(ham.to_dense())
    return Spectrum(eigenvalues=w, ground_vector=None)


def _pole_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of row-major ``(G, ...)`` terms over the poles, pole after pole, whatever the batch.

    numpy adds such an array down axis 0 one pole at a time while each pole
    holds two or more entries, but sums a lone entry per pole pairwise;
    accumulating keeps that case in the same order, so a point's results
    do not depend on the batch it is solved in.
    """

    return terms.sum(axis=0) if terms[0].size > 1 else np.add.accumulate(terms, axis=0)[-1]


def _root_pair(total: np.ndarray, product: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The roots of ``t**2 - total * t + product`` with ``product < 0``, one each side of 0, lower first.

    The larger in magnitude comes without cancellation, and the other as
    ``product`` over it, so both keep their relative accuracy.
    """

    big = 0.5 * (total + np.copysign(np.sqrt(total * total - 4.0 * product), total))
    small = product / big
    return np.minimum(big, small), np.maximum(big, small)


def _model_start(
    poles: np.ndarray, k: np.ndarray, size: int, b2: np.ndarray, head: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Starts for the ``count`` leftmost roots from a three-level model of the sector, or None.

    The model keeps the head and the lowest group exact and lumps the other
    groups into one level at their count-weighted mean pole, carrying their
    summed weight; at ``G = 2`` it is the sector itself.  Its roots are
    taken in closed form relative to a pole, from exact pole differences:
    the top root by the trigonometric form of the 3x3 eigenvalues, the other
    two from the quadratic the top root leaves, whose product keeps its
    relative accuracy however close a root lies to the pole, so at ``G = 2``
    a root usually ends at its first evaluation.  At ``G > 2`` only root 0
    is placed well, so a call asking for more gets no starts.  Nor does
    ``G = 1``: there the first rational step is exact from any start.

    Returns ``right`` and ``tau``, shaped ``(count, points)``: whether a
    root's origin is the right end of its bracket (as in ``_leftmost_roots``)
    and its start as an offset from that origin.
    """

    g = poles.size
    if g == 1 or (g > 2 and count > 1):
        return None
    w0, w1 = k[0] * b2, (size - k[0]) * b2
    h = head - poles[0]
    far = float(k[1:] @ (poles[1:] - poles[0])) / (size - k[0])
    # Top eigenvalue of [[0, 0, sqrt w0], [0, far, sqrt w1], [sqrt w0, sqrt w1, h]].
    mean = (far + h) / 3.0
    d0, d1, d2 = -mean, far - mean, h - mean
    square = (d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * size * b2) / 6.0
    scale = np.sqrt(square)
    cosine = (d0 * d1 * d2 - d0 * w1 - d1 * w0) / (2.0 * square * scale)
    top = mean + 2.0 * scale * np.cos(np.arccos(np.clip(cosine, -1.0, 1.0)) / 3.0)
    # The other two roots sum to the trace minus top, and multiply to det / top.
    low, high = _root_pair((h + far) - top, -w0 * (far / top))

    right = np.ones((count, head.size), dtype=bool)
    tau = np.empty((count, head.size))
    # Root 0 keeps origin 0 below poles[0] / 2, as the midpoint split does.
    right[0] = ~((poles[0] > 0.0) & (low < -0.5 * poles[0]))
    tau[0] = np.where(right[0], low, poles[0] + low)
    if count > 1:
        # Roots 1 and 2 relative to poles[1]: the root below poles[0] is known,
        # and the determinant there is far * w1.
        low1, high1 = _root_pair((h - far) - low, far * w1 / (low - far))
        right[1] = high > 0.5 * far
        tau[1] = np.where(right[1], low1, high)
        if count > 2:
            tau[2] = high1
    return right, tau


def _leftmost_roots(
    poles: np.ndarray, k: np.ndarray, size: int, border: np.ndarray, head: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` leftmost secular roots at every point, as ``origin + offset``.

    ``poles`` are the distinct body levels (ascending) of multiplicity
    ``k``, ``size`` is ``sum(k)``, and each point has its own border with
    ``border**2 > 0`` and head level ``head``.  The violation-diagonal
    callers work in the frame ``mu = lam - z/4``, where the poles ``s * u_g``
    do not move with the point.  Root ``j`` lies between poles ``j - 1`` and
    ``j``, so ``count = G + 1`` gives all the non-deflated levels.

    Both results are shaped ``(points, count)``.  ``origin`` is the bracket
    pole nearer the root, or 0 for a leftmost root nearer 0 than a positive
    ``poles[0]``; ``offset`` is the root minus its origin, so
    ``poles - origin - offset`` keeps its relative accuracy however close
    the root sits to a pole.

    Each root starts at its ``_model_start`` root when the call gets starts
    (``G = 2``, or ``G > 2`` and ``count == 1``) and that root lies strictly
    inside its bracket.  Other roots start at the middle of their bracket,
    where the sign of f picks the origin.  A root ends when ``|f|`` is within
    f's rounding-error bound, where the sign of f means nothing (next to an
    avoided crossing f cancels to noise well before steps settle), and then
    takes its last step if that lies inside its bracket.  A root whose
    bracket holds no float strictly inside ends where it stands.
    """

    points, g = border.size, poles.size
    j = np.arange(count)
    near_left, near_right = np.maximum(j - 1, 0), np.minimum(j, g - 1)
    origin_left, origin_right = poles[near_left], poles[near_right]
    total = math.sqrt(size) * np.abs(border) + 1.0
    lo = np.repeat(origin_left[:, None], points, axis=1)
    hi = np.repeat(origin_right[:, None], points, axis=1)
    lo[0] = np.minimum(poles[0], head) - total
    if count > g:
        hi[g] = np.maximum(poles[-1], head) + total
    split = 0.5 * (lo + hi)
    if poles[0] > 0.0:
        # The leftmost root keeps origin 0 when it lies nearer 0 than poles[0].
        origin_left[0] = 0.0
        split[0] = 0.5 * poles[0]

    # One row per root, root-major, so that neighbouring rows are
    # neighbouring points and take the same branches; sums over the poles
    # run down axis 0.
    rows = points * count
    lo, hi, split = lo.reshape(-1), hi.reshape(-1), split.reshape(-1)
    b2 = border * border
    weight = np.tile(k[:, None] * b2, count)  # (G, rows)
    origin_left, origin_right = np.repeat(origin_left, points), np.repeat(origin_right, points)
    near_left, near_right = np.repeat(near_left, points), np.repeat(near_right, points)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # A row starts at its model root when that lies strictly inside its
        # bracket, and its origin is the bracket pole nearer the start.
        start = _model_start(poles, k, size, b2, head, count)
        if start is not None:
            right, guess = (a.reshape(-1) for a in start)
            origin = np.where(right, origin_right, origin_left)
            placed = (lo - origin < guess) & (guess < hi - origin)
        head = np.tile(head, count)
        if start is None or not placed.all():
            # One evaluation at the split point picks the half of the bracket
            # that holds the root, and with it the origin: the pole at that end.
            dist = poles[:, None] - split
            terms = weight / dist
            value = head - split - _pole_sum(terms)
            split_right = value > 0  # f decreases, so the root lies right of the split
            right = split_right if start is None else np.where(placed, right, split_right)
        near = np.where(right, near_right, near_left)
        origin = np.where(right, origin_right, origin_left)
        lo, hi, tau = lo - origin, hi - origin, split - origin
        if start is not None:
            tau = np.where(placed, guess, tau)
        picked = near, np.arange(rows)
        near_weight = weight[picked]
        near_pole = poles[near] - origin  # 0, or poles[0] for a root kept at origin 0
        side = np.copysign(1.0, near_pole - tau)  # +1 when the near pole lies right of the root
        # The shifted poles are exact pole differences.  The near pole's own
        # term is kept apart, so the rest of the sum never cancels against it.
        shifted = poles[:, None] - origin
        shifted[picked] = np.inf
        level = head - origin
        at_pole = near_pole == 0.0
        # f's rounding error is within eps * ((G + 3) * (sum |far terms| + |rest|) + 5 * slope * |tau|):
        # dlaed4's kind of bound, (G + 2) * sum |terms| + |level| + |tau| * (1 + 3 * slope), read with
        # |near term| <= |rest| + |f| and |level| <= |rest| + |tau| + sum |far terms|.  By Cauchy-Schwarz,
        # sum |far terms| <= sqrt(size * b2 * curve).
        ulps = _EPS * (g + 3)
        summed = np.tile(size * b2, count)  # the poles' summed weight
        if start is None:
            # Without model starts, the split evaluation serves the first step, its near term taken out.
            terms[picked] = 0.0
            rest = head - split - _pole_sum(terms)
            curve = _pole_sum(terms / dist)

        offset = np.empty(rows)
        work = np.arange(rows)
        active = np.ones(rows, dtype=bool)
        for steps in range(_STEP_BUDGET):
            if steps or start is not None:
                dist = shifted - tau
                terms = weight / dist
                rest = level - tau - _pole_sum(terms)
                curve = _pole_sum(terms / dist)
            # f(tau) = rest - near_weight / (near_pole - tau), where rest is everything
            # else (the head level, -tau and the far poles), of slope 1 + curve.
            slope = 1.0 + curve
            gap = near_pole - tau
            value = rest - near_weight / gap
            positive = value > 0
            lo = np.where(positive, tau, lo)
            hi = np.where(positive, hi, tau)
            # Rational step: keep the near pole's term exactly and model the
            # rest by its tangent.  The new distance to the near pole solves
            # a quadratic, and so does the increment, a multiple of f; each
            # form is written without cancellation.  The increment is taken
            # unless the origin is the near pole and the step at least halves
            # the offset: then the new distance is the new offset itself,
            # which keeps its relative accuracy however close it lies.
            span = side * gap
            lean = side * rest
            tilt = slope * span
            below, above = lean - tilt, lean + tilt
            root = np.sqrt(below * below + 4.0 * slope * near_weight)
            twice = 2.0 * slope
            step = tau + np.where(above > 0, 2.0 * span * value / (above + root), side * (above - root) / twice)
            jump = -side * np.where(below > 0, 2.0 * near_weight / (root + below), (root - below) / twice)
            abs_tau = np.abs(tau)
            step = np.where(at_pole & (np.abs(jump) <= 0.5 * abs_tau), jump, step)
            # A root is done when f is within its rounding-error bound, and
            # still takes its last step when that lies inside the bracket.
            finished = np.abs(value) <= ulps * (np.sqrt(summed * curve) + np.abs(rest)) + 5.0 * _EPS * slope * abs_tau
            inside = (lo < step) & (step < hi)
            last, tau = tau, np.where(inside, step, np.where(finished, tau, 0.5 * (lo + hi)))
            # tau is an end of its bracket, and so is the midpoint only when no
            # float lies strictly inside: such a root ends where it stands.
            finished |= tau == last
            done = active & finished
            offset[work[done]] = tau[done]
            active ^= done
            live = np.count_nonzero(active)
            if live == 0:
                break
            if live < active.size // 2:
                # compress keeps (G, rows) arrays row-major, where a[..., active] would
                # turn them column-major and make numpy sum each column pairwise.
                (work, tau, lo, hi, level, summed, side, at_pole, near_weight, near_pole, shifted, weight) = (
                    np.compress(active, a, axis=-1)
                    for a in (work, tau, lo, hi, level, summed, side, at_pole, near_weight, near_pole, shifted, weight)
                )
                active = np.ones(live, dtype=bool)
        else:
            raise ConvergenceFailure(
                f"{int(np.count_nonzero(active))} secular root(s) missed tolerance after "
                f"{_STEP_BUDGET} steps"
            )
    if not np.all(np.isfinite(offset)):
        raise ConvergenceFailure("secular root search produced non-finite values")
    return origin.reshape(count, points).T, offset.reshape(count, points).T


def _sector_roots(sec: Sector, head: np.ndarray, count: int) -> tuple:
    """The ``count`` lowest roots of the sector at every point, and the solve behind them.

    At a flat point, one whose border squared is below the normal range,
    the sector is diagonal and its roots are its stable-sorted diagonal:
    ``z/4 + poles``, then ``head``, so the body comes first on ties.  The
    points ``flat`` masks keep that sort as ``order`` (None when no point is
    flat), from which ``Levels`` takes their vectors.  Elsewhere root ``j``
    is ``z/4 + (origin + offset)``, solved in the frame ``mu = lam - z/4``
    where the poles do not move; ``origin`` and ``offset`` cover only those
    points, which ``live`` indexes (a boolean mask would scatter rows
    several times slower).
    """

    poles, counts, quarter, border = sec
    roots = np.empty((border.size, count))
    flat = border * border < _TINY
    order = None
    if flat.any():
        diagonal = np.concatenate((quarter[flat][:, None] + poles, head[flat][:, None]), axis=1)
        roots[flat] = np.sort(diagonal, axis=1, kind="stable")[:, :count]
        order = np.argsort(diagonal, axis=1, kind="stable")
    live = np.flatnonzero(~flat)
    origin, offset = _leftmost_roots(
        poles, counts.astype(np.float64), int(counts.sum()), border[live], head[live] - quarter[live], count
    )
    roots[live] = quarter[live][:, None] + (origin + offset)
    return roots, origin, offset, live, flat, order


def _secular_vectors(sec: Sector, border, origin, offset) -> tuple[np.ndarray, np.ndarray]:
    """Per-group and head amplitudes of each root's eigenvector, normalized over the ``k_g``-fold body.

    The group amplitudes come group-major, ``(G,) + offset.shape``, so that
    the norm sums over the groups as ``_pole_sum`` does.
    """

    poles = sec.poles.reshape((-1,) + (1,) * offset.ndim)
    a = border / (offset - (poles - origin))
    scale = np.maximum(1.0, np.max(np.abs(a), axis=0))  # a near pole can make a*a overflow
    a /= scale
    h = 1.0 / scale
    norm = np.sqrt(_pole_sum(a * a * sec.counts.astype(np.float64).reshape(poles.shape)) + h * h)
    return a / norm, h / norm


@dataclass(frozen=True, eq=False)
class Levels:
    """The lowest levels at a batch of points, kept run-length encoded.

    ``roots[p]`` holds the solved eigenvalues of the symmetric sector,
    ascending, root ``j`` lying between body levels ``j - 1`` and ``j``;
    ``levels[p]`` holds the body levels ``z/4 + s * u_g``.  The ascending
    spectrum at point ``p`` is

        roots[p, 0], levels[p, 0] x (k_0 - 1), roots[p, 1], ..., roots[p, G]

    of which only the first ``roots.shape[1]`` roots were solved.
    """

    roots: np.ndarray  # (points, solved roots)
    counts: np.ndarray  # k_g
    _solve: tuple = field(repr=False)  # the sector, the solve of _sector_roots, and where each root is

    @property
    def levels(self) -> np.ndarray:
        """The body levels, ``(points, groups)``."""

        return self._solve[0].quarter[:, None] + self._solve[0].poles

    def level(self, index: int) -> np.ndarray:
        """Eigenvalue number ``index`` (ascending; negative counts from the top) at every point."""

        starts = self._solve[-1]
        size = starts[-1] + 1
        if not -size <= index < size:
            raise IndexError(f"level {index} outside a spectrum of {size} levels")
        index %= size
        j = bisect.bisect_right(starts, index) - 1
        if starts[j] != index:
            return self._solve[0].quarter + self._solve[0].poles[j]
        if j >= self.roots.shape[1]:
            raise IndexError(f"level {index} is root {j}, and only {self.roots.shape[1]} root(s) were solved")
        return self.roots[:, j]

    def gap(self) -> np.ndarray:
        """``level(1) - level(0)``, taken before the common ``z/4`` shift, so it keeps its relative accuracy."""

        sec, origin, offset, live, *_ = self._solve
        gap = self.level(1) - self.roots[:, 0]  # kept at flat points
        if self.counts[0] > 1:
            gap[live] = (sec.poles[0] - origin[:, 0]) - offset[:, 0]
        else:
            gap[live] = (origin[:, 1] - origin[:, 0]) + (offset[:, 1] - offset[:, 0])
        return gap

    def ground(self) -> tuple[np.ndarray, np.ndarray]:
        """The ground vector as ``(amplitudes, head)``, uniform on each violation-count group.

        Body entry ``i`` carries ``amplitudes[p, g]`` with
        ``g = diag.histogram.inverse[i]`` and the head carries ``head[p]``,
        normalized with ``head >= 0``.  At a flat point it is the lowest body
        group, made uniform, or the head, as the roots and ``vectors`` have it.
        """

        sec, origin, offset, live, flat, order, _ = self._solve
        group, solved = _secular_vectors(sec, sec.border[live], origin[:, 0], offset[:, 0])
        if order is None:
            return group.T, solved
        amplitudes = np.zeros((len(self.roots), len(self.counts)))
        head = np.zeros(len(amplitudes))
        amplitudes[flat, 0] = (order[:, 0] == 0) / math.sqrt(self.counts[0])
        head[flat] = order[:, 0] == len(self.counts)
        amplitudes[live], head[live] = group.T, solved
        return amplitudes, head

    def vectors(self) -> np.ndarray:
        """Eigenvectors of the symmetric sector, ``(points, G + 1, roots)``, column ``j`` for ``roots[:, j]``.

        Rows are the normalized uniform states of the count groups, then the
        head.  At a flat point the columns stably sort the diagonal, as the roots do.
        """

        sec, origin, offset, live, flat, order, _ = self._solve
        size, solved = len(self.counts) + 1, self.roots.shape[1]
        vectors = np.zeros((len(self.roots), size, solved))
        if order is not None:
            vectors[flat] = np.swapaxes(np.eye(size)[order[:, :solved]], 1, 2)
        amplitudes, vectors[live, -1] = _secular_vectors(sec, sec.border[live][:, None], origin, offset)
        vectors[live, :-1] = np.swapaxes(amplitudes, 0, 1) * np.sqrt(self.counts.astype(np.float64))[:, None]
        return vectors

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """The spectrum's values and how often each repeats: ``2G + 1`` columns, or up to the first unsolved root."""

        width = min(2 * self.roots.shape[1], 2 * len(self.counts) + 1)
        values = np.empty((len(self.roots), width))
        values[:, 0::2] = self.roots
        values[:, 1::2] = self.levels[:, : width // 2]
        repeats = np.ones(width, dtype=np.int64)
        repeats[1::2] = self.counts[: width // 2] - 1
        return values, repeats


def lowest_levels(
    diag: ViolationDiagonal, variant: str, x: np.ndarray, z: np.ndarray, count: int | None = None
) -> Levels:
    """The ``count`` lowest levels of ``build(diag, (x, z), variant)`` at every point, in one batch.

    Works on the exact histogram of the diagonal (``sector``), so the cost
    per point is set by the number of distinct violation counts ``G``, not
    by ``2**n``.  Only the secular roots among those levels are solved (all
    ``G + 1`` for ``None``); the others are body levels, so a repeated lowest
    count ``k_0 > 1`` gives level 1 without a solve.  At a flat point
    (``x = 0``) the levels are the sorted diagonal.
    """

    if count is not None and count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    sec = sector(diag, variant, x, z)
    starts = [0, *itertools.accumulate(sec.counts.tolist())]  # the index of each root in the spectrum
    solved = len(starts) if count is None else bisect.bisect_left(starts, count)
    roots, *solve = _sector_roots(sec, -sec.quarter, solved)
    return Levels(roots=roots, counts=sec.counts, _solve=(sec, *solve, starts))


_GAP_TOL = 1e-6  # a zoom stops once its bracket is this narrow in the swept parameter
# Rescans per call.  Four samples shrink the bracket to 2/3 a round, so this
# reaches _GAP_TOL from any range up to 1e16 wide; a bracket still wider is
# held apart by the float spacing of its ends.
_ZOOM_ROUNDS = 128


def min_gap_on_segment(
    diag: ViolationDiagonal,
    variant: str,
    sweep: str,
    fixed: float,
    lo: float,
    hi: float,
    samples: int = 65,
) -> tuple[ParameterPoint, float]:
    """Locate the minimum of the first spectral gap along one parameter axis.

    ``sweep`` names the swept parameter ("x" or "z"); ``fixed`` pins the
    other one.  Each round solves ``samples`` evenly spaced points of the
    bracket in one ``lowest_levels`` batch, starting from ``[lo, hi]``, and
    zooms to the two grid cells around the smallest sampled gap.  That
    shrinks the bracket by ``(samples - 1) / 2`` a round; the zoom stops
    once it is at most ``_GAP_TOL`` wide and returns the lowest gap seen,
    with its point.  Nothing assumes the gap is unimodal in the bracket;
    a bracket that cannot shrink to ``_GAP_TOL`` within ``_ZOOM_ROUNDS``
    rounds raises ``ConvergenceFailure``.
    """

    if sweep not in ("x", "z"):
        raise ValueError(f"sweep must be 'x' or 'z', got {sweep!r}")
    if samples < 4:
        raise ValueError(f"need at least 4 samples per scan, got {samples}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"bad sweep range [{lo}, {hi}]")

    a, b = lo, hi
    t_min, g_min = lo, math.inf
    for _ in range(_ZOOM_ROUNDS):
        ts = np.linspace(a, b, samples)
        xs, zs = (ts, fixed) if sweep == "x" else (fixed, ts)
        gaps = lowest_levels(diag, variant, xs, zs, 2).gap()
        best = int(np.argmin(gaps))
        if gaps[best] < g_min:
            t_min, g_min = float(ts[best]), float(gaps[best])
        a, b = float(ts[max(best - 1, 0)]), float(ts[min(best + 1, samples - 1)])
        if b - a <= _GAP_TOL:
            point = ParameterPoint(x=t_min, z=fixed) if sweep == "x" else ParameterPoint(x=fixed, z=t_min)
            return point, g_min
    raise ConvergenceFailure(
        f"gap-minimum bracket still {b - a:.3g} wide after {_ZOOM_ROUNDS} rounds, above {_GAP_TOL:g}"
    )
