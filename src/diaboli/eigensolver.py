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

Each root is bracketed by its interlacing interval, narrowed by a fixed
number of bisections and finished by safeguarded Newton steps; a root
that misses tolerance when the step budget runs out raises
``ConvergenceFailure``.  The ground eigenvector follows in closed form
from the root:

    v[i] = b / (lam0 - d[i]),   v[head] = 1,   then normalize.

``lowest_levels`` serves the loop transport, gap scans and evolution
schedules: it groups a violation diagonal once by its exact histogram
(distinct count ``u_g``, multiplicity ``k_g``) and solves only the two
lowest roots, for a whole batch of parameter points at once, returning
the ground vector as one amplitude per group.  ``all_levels`` runs the
same batched solve for all ``G + 1`` roots and serves the spectrum sweeps;
it keeps the spectrum run-length encoded, since each body level repeats
``k_g - 1`` times.  ``eigen_arrowhead`` returns the whole spectrum of any
one arrowhead matrix: it groups the body to float tolerance and runs the
same batched solve at a single point.  ``eigen_dense`` provides the
independent cross-check through ``numpy.linalg.eigh`` on the materialized
matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionTooLarge
from .hamiltonian import DENSE_LIMIT, ArrowheadHamiltonian, ParameterPoint, variant_scales
from .hamiltonian import build  # noqa: F401 - perfbench/tracer.py wraps this module-level name
from .instance import ViolationDiagonal

DEFLATION_RTOL = 1e-13  # body values closer than this (relative) share a group
_BISECT_ITER = 14  # bracket halvings before switching to Newton
_NEWTON_ITER = 44  # polish cap; rejected steps degrade to further halvings
_BUDGET_SLACK = 4.0 * np.finfo(np.float64).eps  # accepted residual step when the cap is hit


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

    d = np.sort(body)
    if d.size == 1:
        return d, np.ones(1, dtype=np.int64)
    gaps = np.diff(d)
    scale = np.maximum(1.0, np.maximum(np.abs(d[:-1]), np.abs(d[1:])))
    breaks = gaps > DEFLATION_RTOL * scale
    starts = np.concatenate(([0], np.flatnonzero(breaks) + 1))
    counts = np.diff(np.concatenate((starts, [d.size])))
    return d[starts], counts.astype(np.int64)


def _bracketed_roots(secular, slope, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Root of a decreasing secular function inside each bracket ``(lo, hi)``.

    ``secular`` and ``slope`` map an array of abscissae shaped like ``lo``
    to the function values and derivatives there.
    """

    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_BISECT_ITER):
            mid = 0.5 * (lo + hi)
            positive = secular(mid) > 0  # NaN at an exact pole lands on the safe side
            lo = np.where(positive, mid, lo)
            hi = np.where(positive, hi, mid)

    # Newton finishes the job: f is strictly decreasing between poles, so
    # f > 0 always means the root lies to the right, and a step that
    # escapes its bracket is replaced by another halving.  A root is done
    # when the Newton correction itself (a direct estimate of the distance
    # to the root) or its bracket falls below machine tolerance.
    lam = 0.5 * (lo + hi)
    active = np.ones(lam.shape, dtype=bool)
    corr = np.full(lam.shape, np.inf)
    for _ in range(_NEWTON_ITER):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            flam = secular(lam)
            corr = flam / slope(lam)
            step = lam - corr
        positive = flam > 0
        lo = np.where(positive, lam, lo)
        hi = np.where(positive, hi, lam)
        tol = 2e-16 * np.maximum(1.0, np.abs(lam))
        active &= ~((np.abs(corr) <= tol) | ((hi - lo) <= tol))
        if not np.any(active):
            break
        inside = np.isfinite(step) & (step > lo) & (step < hi)
        lam = np.where(active, np.where(inside, step, 0.5 * (lo + hi)), lam)
    else:
        # The stop test sits just under one ulp, so a root can end its
        # budget oscillating at machine precision; that is converged.
        loose = _BUDGET_SLACK * np.maximum(1.0, np.abs(lam))
        stuck = active & ~((np.abs(corr) <= loose) | ((hi - lo) <= loose))
        if np.any(stuck):
            raise ConvergenceFailure(
                f"{int(np.count_nonzero(stuck))} secular root(s) missed tolerance after "
                f"{_NEWTON_ITER} Newton steps"
            )
    if not np.all(np.isfinite(lam)):
        raise ConvergenceFailure("secular root search produced non-finite values")
    return lam


def eigen_arrowhead(ham: ArrowheadHamiltonian) -> Spectrum:
    """Full spectrum of one arrowhead matrix, ascending.

    The body is grouped to float tolerance, so this serves any arrowhead;
    its ``p + 1`` secular roots come from the batched solve behind
    ``lowest_levels``, run at one point.
    """

    body = ham.body_diag
    if ham.border == 0.0:
        full = np.append(body, ham.head_diag)
        return Spectrum(eigenvalues=full[np.argsort(full, kind="stable")])

    values, counts = _group_body(body)
    roots = _leftmost_roots(
        values, counts, body.size, np.array([ham.border]), np.array([ham.head_diag]), values.size + 1
    )[0]
    deflated = np.repeat(values, counts - 1)
    return Spectrum(eigenvalues=np.sort(np.concatenate((roots, deflated))))


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


def _leftmost_roots(
    poles: np.ndarray, k: np.ndarray, size: int, border: np.ndarray, head: np.ndarray, count: int
) -> np.ndarray:
    """The ``count`` leftmost secular roots at every point, shape ``(points, count)``.

    ``poles`` are the distinct body levels (ascending) of multiplicity
    ``k``, ``size`` is ``sum(k)``, and each point has its own nonzero
    ``border`` and head level ``head``.  The violation-diagonal callers
    work in the frame ``mu = lam - z/4``, where the poles ``s * u_g`` do
    not move with the point.  Root ``j`` lies between poles ``j - 1`` and
    ``j``, so ``count = G + 1`` gives all the non-deflated levels.
    """

    g = poles.size
    w2 = (border * border)[:, None] * k[None, :]
    total = math.sqrt(size) * np.abs(border) + 1.0
    lo = np.empty((border.size, count))
    hi = np.empty((border.size, count))
    lo[:, 0] = np.minimum(poles[0], head) - total
    lo[:, 1:] = poles[: count - 1]
    hi[:, :g] = poles[:count]
    if count > g:
        hi[:, g] = np.maximum(poles[-1], head) + total

    def secular(mu: np.ndarray) -> np.ndarray:
        return (head[:, None] - mu) - np.sum(w2[:, None, :] / (poles - mu[..., None]), axis=-1)

    def slope(mu: np.ndarray) -> np.ndarray:
        d = poles - mu[..., None]
        return -1.0 - np.sum(w2[:, None, :] / (d * d), axis=-1)

    return _bracketed_roots(secular, slope, lo, hi)


def _flat_points(x, z) -> tuple[np.ndarray, np.ndarray]:
    """Parameter points as two 1-d float arrays of equal length."""

    x, z = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(z, dtype=np.float64))
    x, z = x.reshape(-1), z.reshape(-1)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
        raise ValueError("parameter points must be finite")
    return x, z


@dataclass(frozen=True, eq=False)
class LowestLevels:
    """The two lowest eigenvalues and the ground vector at a batch of points.

    The ground vector is uniform on each violation-count group: body entry
    ``i`` carries ``amplitudes[p, g]`` with ``g = diag.histogram.inverse[i]``
    and the head carries ``head[p]``, normalized with ``head >= 0``.
    ``gap`` is ``e1 - e0`` evaluated before the common ``z/4`` shift is
    added back, so it keeps its relative accuracy when the levels are close.
    """

    e0: np.ndarray
    e1: np.ndarray
    gap: np.ndarray
    amplitudes: np.ndarray  # (points, groups)
    head: np.ndarray


def lowest_levels(diag: ViolationDiagonal, variant: str, x: np.ndarray, z: np.ndarray) -> LowestLevels:
    """Two lowest levels and the ground vector of ``build(diag, (x, z), variant)`` at every point.

    Works on the exact histogram of the diagonal, so the cost per point is
    set by the number of distinct violation counts ``G``, not by ``2**n``.
    In the frame ``mu = lam - z/4`` the poles ``s * u_g`` do not move with
    the point, and only the two leftmost secular roots are solved, for all
    points at once; a repeated lowest count ``k_0 > 1`` pins ``e1`` to its
    body value, which leaves one root.  Points with ``x = 0`` follow
    ``eigen_arrowhead``'s diagonal branch, with the lowest body group's
    vector made uniform.
    """

    x, z = _flat_points(x, z)
    factor, divisor = variant_scales(variant, diag.dimension)
    hist = diag.histogram
    poles = factor * hist.values.astype(np.float64)
    k = hist.counts.astype(np.float64)
    repeated = hist.counts[0] > 1

    quarter = z / 4.0
    border = x / divisor
    e0 = np.empty(x.size)
    e1 = np.empty(x.size)
    gap = np.empty(x.size)
    amplitudes = np.zeros((x.size, poles.size))
    head = np.zeros(x.size)

    flat = border == 0.0
    if np.any(flat):
        q = quarter[flat]
        body0 = q + poles[0]
        head_value = -q
        second = body0 if repeated else (q + poles[1] if poles.size > 1 else np.inf)
        below = body0 <= head_value  # a stable sort puts the body first on ties
        e0[flat] = np.where(below, body0, head_value)
        e1[flat] = np.where(below, np.minimum(second, head_value), body0)
        gap[flat] = e1[flat] - e0[flat]
        amplitudes[flat, 0] = np.where(below, 1.0 / math.sqrt(hist.counts[0]), 0.0)
        head[flat] = np.where(below, 0.0, 1.0)

    live = ~flat
    if np.any(live):
        b = border[live]
        q = quarter[live]
        # A repeated lowest count pins e1 to its body level; only e0 needs solving.
        roots = _leftmost_roots(poles, k, diag.dimension, b, -2.0 * q, 1 if repeated else 2)
        mu0 = roots[:, 0]
        mu0 = np.where(mu0 >= poles[0], np.nextafter(mu0, -np.inf), mu0)
        mu1 = poles[0] if repeated else roots[:, 1]
        e0[live] = q + mu0
        e1[live] = q + mu1
        gap[live] = mu1 - mu0
        with np.errstate(over="ignore"):
            a = b[:, None] / (mu0[:, None] - poles)
            norm = np.sqrt((a * a) @ k + 1.0)
        if not np.all(np.isfinite(norm)):
            raise ConvergenceFailure("ground vector overflowed; root too close to a pole")
        amplitudes[live] = a / norm[:, None]
        head[live] = 1.0 / norm
    return LowestLevels(e0=e0, e1=e1, gap=gap, amplitudes=amplitudes, head=head)


@dataclass(frozen=True, eq=False)
class AllLevels:
    """The whole spectrum at a batch of points, kept run-length encoded.

    ``roots[p]`` holds the ``G + 1`` eigenvalues of the symmetric sector,
    ascending, root ``j`` lying between body levels ``j - 1`` and ``j``;
    ``levels[p]`` holds the body levels ``z/4 + s * u_g``.  The whole
    ascending spectrum at point ``p`` is

        roots[p, 0], levels[p, 0] x (k_0 - 1), roots[p, 1], ..., roots[p, G]
    """

    roots: np.ndarray  # (points, groups + 1)
    levels: np.ndarray  # (points, groups)
    counts: np.ndarray  # k_g

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Values ``(points, 2G + 1)`` and how often each column repeats in the spectrum."""

        values = np.empty((self.roots.shape[0], 2 * self.levels.shape[1] + 1))
        values[:, 0::2] = self.roots
        values[:, 1::2] = self.levels
        repeats = np.ones(values.shape[1], dtype=np.int64)
        repeats[1::2] = self.counts - 1
        return values, repeats

    def level(self, index: int) -> np.ndarray:
        """Eigenvalue number ``index`` (ascending; negative counts from the top) at every point."""

        values, repeats = self.runs()
        ends = np.cumsum(repeats)
        if not -ends[-1] <= index < ends[-1]:
            raise IndexError(f"level {index} outside a spectrum of {int(ends[-1])} levels")
        return values[:, int(np.searchsorted(ends, index % ends[-1], side="right"))]


def all_levels(diag: ViolationDiagonal, variant: str, x: np.ndarray, z: np.ndarray) -> AllLevels:
    """Whole spectrum of ``build(diag, (x, z), variant)`` at every point, in one batch.

    All ``G + 1`` secular roots of every point are solved together by the
    batched solve behind ``lowest_levels``; the other eigenvalues are the
    body levels repeated ``k_g - 1`` times.  At ``x = 0`` the sector is
    diagonal and its roots are its sorted diagonal, as in
    ``eigen_arrowhead``'s diagonal branch.
    """

    x, z = _flat_points(x, z)
    factor, divisor = variant_scales(variant, diag.dimension)
    hist = diag.histogram
    poles = factor * hist.values.astype(np.float64)
    quarter = z[:, None] / 4.0
    border = x / divisor
    levels = quarter + poles
    roots = np.empty((x.size, poles.size + 1))
    flat = border == 0.0
    roots[flat] = np.sort(np.concatenate((levels[flat], -quarter[flat]), axis=1), axis=1)
    live = ~flat
    if np.any(live):
        mu = _leftmost_roots(
            poles, hist.counts.astype(np.float64), diag.dimension, border[live],
            -2.0 * quarter[live, 0], poles.size + 1,
        )
        roots[live] = quarter[live] + mu
    return AllLevels(roots=roots, levels=levels, counts=hist.counts)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def min_gap_on_segment(
    diag: ViolationDiagonal,
    variant: str,
    sweep: str,
    fixed: float,
    lo: float,
    hi: float,
    samples: int = 65,
    tol: float = 1e-6,
) -> tuple[ParameterPoint, float]:
    """Locate the minimum of the first spectral gap along one parameter axis.

    ``sweep`` names the swept parameter ("x" or "z"); ``fixed`` pins the
    other one.  A coarse scan brackets the smallest sampled gap and a
    golden-section search refines the bracket to ``tol`` in the parameter.
    """

    if sweep not in ("x", "z"):
        raise ValueError(f"sweep must be 'x' or 'z', got {sweep!r}")
    if samples < 3:
        raise ValueError("need at least 3 coarse samples")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"bad sweep range [{lo}, {hi}]")

    def point_at(t: float) -> ParameterPoint:
        return ParameterPoint(x=t, z=fixed) if sweep == "x" else ParameterPoint(x=fixed, z=t)

    def gaps_at(ts: np.ndarray) -> np.ndarray:
        xs, zs = (ts, fixed) if sweep == "x" else (fixed, ts)
        return lowest_levels(diag, variant, xs, zs).gap

    def gap_at(t: float) -> float:
        return float(gaps_at(np.array([t]))[0])

    ts = np.linspace(lo, hi, samples)
    gaps = gaps_at(ts)
    best = int(np.argmin(gaps))
    a = float(ts[max(best - 1, 0)])
    b = float(ts[min(best + 1, samples - 1)])

    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = gap_at(c)
    fd = gap_at(d)
    for _ in range(300):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = gap_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = gap_at(d)
    else:
        raise ConvergenceFailure("golden-section refinement did not shrink the bracket")

    t_star = 0.5 * (a + b)
    g_star = gap_at(t_star)
    # Keep whichever evaluation was lowest; the coarse grid guards against
    # a refinement bracket that missed the global sampled minimum.
    candidates = [(g_star, t_star), (float(gaps[best]), float(ts[best])), (fc, c), (fd, d)]
    g_min, t_min = min(candidates)
    return point_at(t_min), float(g_min)
