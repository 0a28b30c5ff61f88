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
does (R.-C. Li, LAPACK Working Note 89, 1993).  It starts at a root of a
closed-form model: with one or two groups the sector itself, whose roots
come to a few ulps; with more, for the leftmost root a model that keeps
the head and the lowest group exact and lumps the others into one, for
the top root its mirror image, and for the root between groups j - 1 and
j one that keeps those two exact and holds the others at their value
mid-bracket.  A start that rounds outside its bracket takes the middle
of its bracket, keeping the origin its model chose.
The origin is the bracket pole nearer the start; the leftmost root keeps
origin 0, with no near pole, when it lies nearer 0 than a positive first
pole.  Each step keeps the near pole's term exactly and fits the rest of
the secular function by one rational term that matches its value, slope
and curvature (LAWN 89's fixed weight, with the other pole fitted), so it
triples the digits; a step that leaves the bracket becomes a halving.  A
root ends when the secular function is within its own rounding-error
bound, as in ``dlaed4``, taking its last step if that stays in the
bracket, or when its bracket holds no float strictly inside; a root still
open when the step budget runs out raises ``ConvergenceFailure``.
Differences between poles are exact, so the distance from a root
``lam = sigma + tau`` to each body value keeps its relative accuracy
however close the root lies to a pole, and the root's eigenvector follows
in closed form:

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
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailure
from .hamiltonian import ArrowheadHamiltonian, ParameterPoint, Sector, sector
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

    return np.add.reduce(terms, axis=0) if terms[0].size > 1 else np.add.accumulate(terms, axis=0)[-1]


def _root_pair(total: np.ndarray, product: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The roots of ``t**2 - total * t + product`` with ``product < 0``, one each side of 0, lower first.

    The larger in magnitude comes without cancellation, and the other as
    ``product`` over it, so both keep their relative accuracy.
    """

    big = 0.5 * (total + np.copysign(np.sqrt(total * total - 4.0 * product), total))
    small = product / big
    return np.minimum(big, small), np.maximum(big, small)


def _trig_roots(far, h: np.ndarray, w0: np.ndarray, w1: np.ndarray, turns) -> np.ndarray:
    """Root ``turns`` (0 top, 1 bottom, 2 middle) of ``[[0, 0, sqrt w0], [0, far, sqrt w1], [sqrt w0, sqrt w1, h]]``."""

    third = (far + h) / 3.0
    d1 = far - third
    square = (h * (h - far) + (far * far + 3.0 * (w0 + w1))) / 9.0  # (trace of (M - third)**2) / 6
    scale = np.sqrt(square)
    cosine = 0.5 * (third * (w1 - d1 * (h - third)) - d1 * w0) / (square * scale)  # det(M - third) / (2 scale**3)
    angle = np.arccos(np.minimum(np.maximum(cosine, -1.0), 1.0)) + 2.0 * np.pi * turns
    return third + 2.0 * scale * np.cos(angle / 3.0)  # good to a few ulps of the matrix's scale


def _model_start(
    poles: np.ndarray, k: np.ndarray, size: int, b2: np.ndarray, head: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Starts ``(right, tau)`` for the ``count`` leftmost roots, each from a closed-form model.

    At ``G <= 2`` the model is the sector, so a root usually ends at its first evaluation.  At ``G > 2``
    root 0's model lumps groups 1.. into one of their total weight that gives their sum one pole spacing
    below ``poles[0]``, typically within 1% of the root, and the top root's mirrors it above ``poles[-1]``;
    root ``j``'s, between poles ``j - 1`` and ``j``, keeps those two groups and holds the others' sum at
    its value mid-bracket.  No start depends on another.  ``right`` says whether a root's origin is the
    right end of its bracket, the pole nearer the start; ``tau`` is the start.
    """

    g = poles.size
    h, w0, others = head - poles[0], k[0] * b2, size - k[0]
    if g == 1:
        low, high = _root_pair(h, -w0)
    else:
        width = far = poles[1] - poles[0]
        w1 = others * b2
        if g == 2:  # the top root in trigonometric form, the lower two from the quadratic it leaves, whose
            # sum meets top - far only times w0 / top (a far pole costs no digits); the upper two from far
            top = _trig_roots(far, h, w0, w1, 0)
            low, high = _root_pair((far * h - w1 - w0 * ((top - far) / top)) / top, -w0 * (far / top))
            if count > 1:
                upper = _root_pair((h - far) - low, far * w1 / (low - far))  # det(M - far) = far * w1
        else:  # one group of the far groups' total weight, placed to give their sum one width below
            far = others / float(np.add.reduce(k[1:] / ((poles[1:] - poles[0]) + width))) - width
            if count == 1:  # a start that steps refine needs no more than the trigonometric form
                low = _trig_roots(far, h, w0, w1, 1)
            else:  # and root j's models, holding the groups other than j - 1 and j at their sum mid-bracket
                j = np.arange(1, min(count, g))[:, None]
                width = poles[j] - poles[j - 1]
                held = np.arange(g - 2) + 2 * (np.arange(g - 2) >= j - 1)  # the groups root j's model holds
                held = np.add.reduce(k[held] / ((poles[held] - poles[j - 1]) - 0.5 * width), axis=1, keepdims=True)
                # Root r's model is row r: far pole, held sum, far weight and turns, from pole max(r - 1, 0).
                models = np.empty((4, count, 1))
                models[:, 0, 0] = far, 0.0, others, 1.0
                models[:, 1 : j.size + 1] = width, held, k[j], np.full_like(width, 2.0)
                if count > g:  # the top root's: groups 0..G-2 lumped to give their sum one width above poles[-1]
                    span, lumped = poles[-1] - poles[-2], size - k[-1]
                    below = lumped / float(np.add.reduce(k[:-1] / ((poles[-1] - poles[:-1]) + span))) - span
                    models[:, g, 0] = -below, 0.0, lumped, 0.0
                near = np.maximum(np.arange(count) - 1, 0)[:, None]
                h = (head - poles[near]) - models[1] * b2
                roots = _trig_roots(models[0], h, k[near] * b2, models[2] * b2, models[3])
                low, high = roots[0], roots[1 : j.size + 1]
                upper = [high - width, roots[-1]]
    right, tau = np.full((count, head.size), True), np.empty((count, head.size))
    tau[0] = low
    if poles[0] > 0.0:
        # Root 0 keeps origin 0 below poles[0] / 2; there it is the head level less the poles' small
        # terms, as poles[0] + low would cancel.
        right[0] = ~(low < -0.5 * poles[0])
        zero = head - high if g == 1 else poles[0] + low  # at G = 1 the roots sum to h
        if g > 1:
            zero = head - (w0 / (poles[0] - zero) + w1 / ((poles[0] + far) - zero))
        tau[0] = np.where(right[0], low, zero)
    if count > 1 and g == 1:
        tau[1] = high  # both ends of root 1's bracket are poles[0]
    elif count > 1:  # the roots between two poles, relative to the right one when nearer it
        between = slice(1, min(count, g))
        right[between] = high > 0.5 * width
        tau[between] = np.where(right[between], upper[0], high)
        if count > g:
            tau[g] = upper[1]
    return right, tau


def _leftmost_roots(
    poles: np.ndarray, k: np.ndarray, size: int, b2: np.ndarray, head: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` leftmost secular roots at every point, as ``origin + offset``.

    ``poles`` are the distinct body levels (ascending) of multiplicity
    ``k``, ``size`` is ``sum(k)``, and each point has its own squared border
    ``b2 > 0`` and head level ``head``.  The violation-diagonal callers
    work in the frame ``mu = lam - z/4``, where the poles ``s * u_g`` do not
    move with the point.  Root ``j`` lies between poles ``j - 1`` and ``j``,
    so ``count = G + 1`` gives all the non-deflated levels.

    Both results are shaped ``(count, points)``.  ``origin`` is the bracket
    pole nearer the root, or 0 for a leftmost root nearer 0 than a positive
    ``poles[0]``; ``offset`` is the root minus its origin, so
    ``poles - origin - offset`` keeps its relative accuracy however close
    the root sits to a pole.

    Each root starts at its ``_model_start`` root, from the origin that
    start lies nearer, or at the middle of its bracket when that start is
    not strictly inside it; nothing is evaluated before the steps.  A root
    ends when ``|f|`` is within f's rounding-error bound, where the sign of
    f means nothing (next to an avoided crossing f cancels to noise well
    before steps settle), and then takes its last step if that lies inside
    its bracket; or where it stands, when its bracket holds no float
    strictly inside.  Callers turn numpy's warnings off.
    """

    g = poles.size
    j = np.arange(count)
    near_left, near_right = np.maximum(j - 1, 0), np.minimum(j, g - 1)
    left_pole, right_pole = poles[near_left][:, None], poles[near_right][:, None]
    # The state is a grid of roots by points, (count, points), and the pole terms add a leading G
    # axis.  What depends on the point alone, the pole weights and sqrt(size * b2), which bounds the
    # far terms, is held once per point and broadcast across the roots.
    weight, spread = k[:, None, None] * b2, np.sqrt(size * b2)

    # A root starts at its model root, and its origin is the bracket pole nearer that start.  The
    # near pole's own term is kept apart, so the rest of the sum never cancels against it; a leftmost
    # root kept at origin 0 (nearer 0 than poles[0]) has its near pole at inf, of weight 0, and every
    # pole in its sums.
    right, tau = _model_start(poles, k, size, b2, head, count)
    origin = np.where(right, right_pole, left_pole)
    near_pole, near_weight = np.zeros_like(tau), np.where(right, k[near_right][:, None], k[near_left][:, None]) * b2
    if poles[0] > 0.0:
        origin[0, ~right[0]], near_pole[0, ~right[0]], near_weight[0, ~right[0]] = 0.0, np.inf, 0.0
    # A start not strictly inside its bracket (one rounded onto a pole at a tiny coupling, or a
    # model that overflows) takes the bracket's middle.
    lo, hi = left_pole - origin, right_pole - origin
    lo[0] = (np.minimum(poles[0], head) - (spread + 1.0)) - origin[0]
    if count > g:
        hi[g] = (np.maximum(poles[-1], head) + (spread + 1.0)) - origin[g]
    placed = (lo < tau) & (tau < hi)
    if np.count_nonzero(placed) < placed.size:
        tau = np.where(placed, tau, 0.5 * (lo + hi))
    # The shifted poles are exact pole differences.  Distinct poles meet a root's origin only at its
    # near pole, whose difference is an exact 0 and whose term is kept apart.
    shifted, level = poles[:, None, None] - origin, head - origin
    shifted[shifted == 0.0] = np.inf
    # f's rounding error is within eps * ((G + 3) * (sum |far terms| + |rest|) + 5 * slope * |tau|):
    # dlaed4's kind of bound, (G + 2) * sum |terms| + |level| + |tau| * (1 + 3 * slope), read with
    # |near term| <= |rest| + |f| and |level| <= |rest| + |tau| + sum |far terms|.  By Cauchy-Schwarz,
    # sum |far terms| <= sqrt(size * b2) * sqrt(curve), taken as that product so that it does not overflow.
    ulps = _EPS * (g + 3)
    closed = 0  # how many finished roots' brackets have closed
    for _ in range(_STEP_BUDGET):
        dist = shifted - tau
        terms = weight / dist
        rest = level - tau - _pole_sum(terms)
        curve = _pole_sum(np.divide(terms, dist, out=terms))
        bend = _pole_sum(np.divide(terms, dist, out=terms))
        # f(tau) = rest - near_weight / (near_pole - tau), where rest is everything else (the head
        # level, -tau and the far poles), of slope -(1 + curve) and curvature -2 * bend.
        slope = 1.0 + curve
        gap = near_pole - tau
        value = rest - near_weight / gap
        positive = value > 0
        lo = np.where(positive, tau, lo)
        hi = np.where(positive, hi, tau)
        # Step: keep the near pole's term and model the rest by rest - slope * d / (1 - bent * d) of
        # the increment d, which matches its value, slope and curvature.  The increment solves a
        # quadratic, a multiple of f written without cancellation (Halley's step where 1 / gap = 0).
        # Where it takes a root at least halfway to its near pole, the new distance to the pole, the
        # new offset itself, solves the same model, accurate however close it lies.
        bent = bend / slope
        quad = slope + bent * rest
        lean = rest / gap + slope + bent * value
        root = np.sqrt(lean * lean - 4.0 * (quad / gap) * value)
        increment = 2.0 * value / (lean + root)
        rising = lean > 0
        if np.count_nonzero(rising) < rising.size:
            increment = np.where(rising, increment, (lean - root) * gap / (2.0 * quad))
        step = tau + increment
        abs_tau = np.abs(tau)
        # The two forms agree to a few ulps: a step beyond half the offset (and 1e-9 of it) takes no jump.
        if not np.min(increment / tau) > 1e-9 - 0.5:
            side = np.sign(gap)  # +1 when the near pole lies right of the root
            below = side * (rest - bent * near_weight - quad * gap)
            weighted = near_weight * (1.0 - bent * gap)
            root = np.sqrt(below * below + 4.0 * quad * weighted)
            distance = np.where(below > 0, (2.0 * weighted) / (root + below), (root - below) / (2.0 * quad))
            jump = (distance <= 0.5 * abs_tau) & (near_weight > 0)
            step = np.where(jump, np.copysign(distance, tau), step)
        # A root is done when f is within its rounding-error bound, and
        # still takes its last step when that lies inside the bracket.
        finished = np.abs(value) <= ulps * (spread * np.sqrt(curve) + np.abs(rest)) + 5.0 * _EPS * slope * abs_tau
        inside = (lo < step) & (step < hi)
        last, tau = tau, step
        if np.count_nonzero(inside) < inside.size:
            tau = np.where(inside, step, np.where(finished, last, 0.5 * (lo + hi)))
        # tau is an end of its bracket, and so is the midpoint only when no
        # float lies strictly inside: such a root ends where it stands.
        finished |= tau == last
        done = np.count_nonzero(finished)
        if done == finished.size:
            break
        if done > closed:  # a finished root stays in the grid, held where it ended by its closed bracket
            lo, hi, closed = np.where(finished, tau, lo), np.where(finished, tau, hi), done
    else:
        missed = finished.size - np.count_nonzero(finished)
        raise ConvergenceFailure(f"{missed} secular root(s) missed tolerance after {_STEP_BUDGET} steps")
    if np.count_nonzero(np.isfinite(tau)) < tau.size:
        raise ConvergenceFailure("secular root search produced non-finite values")
    return origin, tau


def _sector_roots(sec: Sector, head: np.ndarray, count: int) -> tuple:
    """The ``count`` lowest roots of the sector at every point, and the solve behind them.

    At a flat point, one whose border squared is below the normal range,
    the sector is diagonal and its roots are its stable-sorted diagonal:
    ``z/4 + poles``, then ``head``, so the body comes first on ties.  The
    points ``flat`` lists keep that sort as ``order`` (None when no point is
    flat), from which ``Levels`` takes their vectors.  Elsewhere root ``j``
    is ``z/4 + (origin + offset)``, solved in the frame ``mu = lam - z/4``
    where the poles do not move.  A flat point solves as a copy of the first
    coupled one, which leaves the solve's steps alone; ``Levels`` overwrites
    what that gives.  A border whose square overflows raises at once.
    """

    poles, counts, quarter, border = sec
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b2 = border * border
        if b2.size and b2.max() == np.inf:
            p = int(np.argmax(np.isinf(b2)))
            raise ConvergenceFailure(f"border {border[p]:.6g} at z = {4.0 * quarter[p]:.6g} squares to inf")
        flat, shifted, order = (b2 < _TINY).nonzero()[0], head - quarter, None
        if flat.size:
            diagonal = np.concatenate((quarter[flat][:, None] + poles, head[flat][:, None]), axis=1)
            order = np.argsort(diagonal, axis=1, kind="stable")
            if flat.size < b2.size:
                first = int(np.argmax(b2 >= _TINY))
                b2[flat], shifted[flat] = b2[first], shifted[first]
        if flat.size < b2.size:
            origin, offset = _leftmost_roots(poles, counts.astype(np.float64), int(counts.sum()), b2, shifted, count)
        else:  # nothing to solve: a root one below the lowest pole keeps every vector finite
            origin, offset = np.full((count, b2.size), poles[0]), np.full((count, b2.size), -1.0)
        roots = (quarter + (origin + offset)).T
    if order is not None:
        roots[flat] = np.sort(diagonal, axis=1, kind="stable")[:, :count]
    return roots, origin.T, offset.T, flat, order


def _secular_vectors(sec: Sector, origin, offset, largest=None) -> tuple[np.ndarray, np.ndarray]:
    """Per-group and head amplitudes of each root's eigenvector, normalized over the ``k_g``-fold body.

    ``offset`` is ``(points,)`` or ``(points, roots)``.  The group amplitudes
    come group-major, ``(G,) + offset.shape``, so that the norm sums over the
    groups as ``_pole_sum`` does.  ``largest`` is the group of the largest
    amplitude, where known: 0 for the ground root, below every pole.
    """

    shape = (-1,) + (1,) * offset.ndim
    a = (sec.border if offset.ndim == 1 else sec.border[:, None]) / (offset - (sec.poles.reshape(shape) - origin))
    big = np.abs(a[largest]) if largest is not None else np.max(np.abs(a), axis=0)
    h = 1.0
    if np.count_nonzero(big > 1e100):  # a near pole can make a*a overflow; below 1e100, a*a * k_g cannot
        scale = np.maximum(1.0, big)
        a /= scale
        h = 1.0 / scale
    norm = np.sqrt(_pole_sum(a * a * sec.counts.reshape(shape).astype(np.float64)) + h * h)
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

        (sec, origin, offset, flat, order, _), level = self._solve, self.level(1)  # raises if level 1 is unsolved
        if self.counts[0] > 1:
            gap = (sec.poles[0] - origin[:, 0]) - offset[:, 0]
        else:
            gap = (origin[:, 1] - origin[:, 0]) + (offset[:, 1] - offset[:, 0])
        if order is not None:
            gap[flat] = level[flat] - self.roots[flat, 0]
        return gap

    def ground(self) -> tuple[np.ndarray, np.ndarray]:
        """The ground vector as ``(amplitudes, head)``, uniform on each violation-count group.

        Body entry ``i`` carries ``amplitudes[p, g]``, where ``g`` is its
        group, ``np.searchsorted(diag.histogram.values, diag.entries[i])``,
        and the head carries ``head[p]``, normalized with ``head >= 0``.  At a
        flat point it is the lowest body group, made uniform, or the head, as
        the roots and ``vectors`` have it.
        """

        sec, origin, offset, flat, order, _ = self._solve
        group, head = _secular_vectors(sec, origin[:, 0], offset[:, 0], largest=0)
        amplitudes = group.T
        if order is not None:
            amplitudes[flat] = 0.0
            amplitudes[flat, 0] = (order[:, 0] == 0) / math.sqrt(self.counts[0])
            head[flat] = order[:, 0] == len(self.counts)
        return amplitudes, head

    def vectors(self) -> np.ndarray:
        """Eigenvectors of the symmetric sector, ``(points, G + 1, roots)``, column ``j`` for ``roots[:, j]``.

        Rows are the normalized uniform states of the count groups, then the
        head.  At a flat point the columns stably sort the diagonal, as the roots do.
        """

        sec, origin, offset, flat, order, _ = self._solve
        size, solved = len(self.counts) + 1, self.roots.shape[1]
        vectors = np.empty((len(self.roots), size, solved))
        amplitudes, vectors[:, -1] = _secular_vectors(sec, origin, offset)
        vectors[:, :-1] = np.swapaxes(amplitudes, 0, 1) * np.sqrt(self.counts.astype(np.float64))[:, None]
        if order is not None:
            vectors[flat] = np.swapaxes(np.eye(size)[order[:, :solved]], 1, 2)
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
    if not isinstance(samples, numbers.Integral) or samples < 4:
        raise ValueError(f"need an integer of at least 4 samples per scan, got {samples!r}")
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
