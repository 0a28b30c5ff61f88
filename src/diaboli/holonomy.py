"""Ground-state holonomy around closed loops in the (x, z) plane.

The Hamiltonian is real symmetric, so transporting the real ground
eigenvector once around a closed loop can only return it to plus or minus
itself.  The sign is computed discretely: solve for the ground vector at
each sample point, flip its sign whenever the overlap with the previous
vector is negative, and read the holonomy off the final overlap with the
starting vector.  A sign of -1 means the loop encloses a point where the
two lowest levels touch, which for these operators happens at the origin
exactly when the instance is soluble, so phase pi doubles as a solubility
oracle.

Ground vectors are kept as one amplitude per violation-count group plus
the head amplitude (see ``Levels.ground``), so an overlap is the short sum
``sum_g k_g a_g a'_g + h h'`` whatever the size of the diagonal.  All loop
samples are solved in one batch; segments whose endpoint vectors overlap
weakly are then bisected level by level, so the transport never jumps
across an avoided crossing.  Each level looks only at the halves the
last one made.  Every solved point has a place along the loop, exact in
binary; a segment that does not split stores its overlap at its end
point, and the walk is point 0, then the points with one in place order.

Near a crossing each level splits only a few segments, and one solve costs
about the same for one point as for dozens.  So a segment that splits
without a solved midpoint has its whole bisection subtree, a few levels
deep, solved in one batch (prefetched) into the one table of solved
points, where later levels find their midpoints by place.  A prefetched
point the walk never reaches stores no overlap, so it does not reach the
result.  A point's solve does not depend on its batch, so the walk,
its log and its errors are bit for bit those of solving each level's
midpoints alone.  A logged transport re-solves the points it walked, in
one more batch, for the log's levels.  ``LoopPath.points_at`` gives the
point at any fraction of the loop's length, which evolution steps along.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConvergenceFailure, DegenerateOnLoop, OpenLoop, RefinementExhausted
from .eigensolver import lowest_levels
from .eigensolver import eigen_arrowhead  # noqa: F401 - perfbench/tracer.py wraps this module-level name
from .hamiltonian import ParameterPoint
from .hamiltonian import build  # noqa: F401 - perfbench/tracer.py wraps this module-level name
from .instance import ViolationDiagonal

GAP_FLOOR = 1e-9
OVERLAP_FLOOR = 0.5
REFINE_TRIGGER = 0.8
MAX_REFINE_DEPTH = 22
# A split segment's bisection subtree is solved this many levels deep in one
# call, and one call solves at most _PREFETCH_POINTS points (more segments
# prefetch fewer levels).  One solve costs about as much as 100-150 extra
# points in it, so a level more pays when the walk is likely to need it.
_PREFETCH_DEPTH = 6
_PREFETCH_POINTS = 128
DEFAULT_SAMPLES_PER_EDGE = 64

_DEFAULT_WAYPOINTS = (
    (0.0, 1.0),
    (-1.0, 1.0),
    (-1.0, -1.0),
    (1.0, -1.0),
    (1.0, 1.0),
    (0.0, 1.0),
)


def _segment_hits_origin(a: ParameterPoint, b: ParameterPoint) -> bool:
    return (
        a.x * b.z - a.z * b.x == 0.0
        and min(a.x, b.x) <= 0.0 <= max(a.x, b.x)
        and min(a.z, b.z) <= 0.0 <= max(a.z, b.z)
    )


@dataclass(frozen=True)
class LoopPath:
    """Closed polyline of waypoints with a per-edge sampling density."""

    waypoints: tuple[ParameterPoint, ...]
    samples_per_edge: int = DEFAULT_SAMPLES_PER_EDGE
    _samples: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    _arc: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = tuple(
            p if isinstance(p, ParameterPoint) else ParameterPoint(p[0], p[1])
            for p in self.waypoints
        )
        if len(pts) < 2 or pts[0] != pts[-1]:
            raise OpenLoop("waypoint list must end exactly where it starts")
        if len({(p.x, p.z) for p in pts}) < 3:
            raise OpenLoop("need at least 3 distinct waypoints to enclose area")
        for a, b in zip(pts, pts[1:]):
            if _segment_hits_origin(a, b):
                raise ValueError("loop passes through (0, 0), where the spectrum can touch")
        s = self.samples_per_edge
        if not isinstance(s, numbers.Integral) or isinstance(s, bool) or s < 1:
            raise ValueError(f"samples_per_edge must be an integer of at least 1, not {s!r}")
        object.__setattr__(self, "waypoints", pts)
        object.__setattr__(self, "samples_per_edge", int(s))
        j = np.arange(1, s + 1)
        xs, zs = [np.array([pts[0].x])], [np.array([pts[0].z])]
        for a, b in zip(pts, pts[1:]):
            t = j / s
            if a.x != b.x:
                t = np.where((j < s) & (a.x + (b.x - a.x) * t == 0.0), (j + 0.5) / s, t)
            xs.append(a.x + (b.x - a.x) * t)
            zs.append(a.z + (b.z - a.z) * t)
        samples = np.concatenate(xs), np.concatenate(zs)
        for axis in samples:
            axis.flags.writeable = False
        object.__setattr__(self, "_samples", samples)
        corner_x, corner_z = np.array([p.x for p in pts]), np.array([p.z for p in pts])
        arc = np.cumsum(np.hypot(np.diff(corner_x), np.diff(corner_z)))
        object.__setattr__(self, "_arc", (corner_x, corner_z, np.concatenate(([0.0], arc / arc[-1]))))

    @classmethod
    def default_rectangle(cls, samples_per_edge: int = DEFAULT_SAMPLES_PER_EDGE) -> "LoopPath":
        return cls(waypoints=_DEFAULT_WAYPOINTS, samples_per_edge=samples_per_edge)

    def sample_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Uniform samples along each edge, waypoints included, as x and z arrays.

        They are computed once, when the path is built, and are read-only.
        An interior sample landing exactly on x = 0 is displaced half a
        grid step along its edge: the border coupling vanishes on that
        axis and a purely diagonal matrix with a repeated minimum would
        look degenerate even though the transported ground sheet crosses
        the axis continuously.  Edges lying on the axis are left alone.
        """

        return self._samples

    def sample_points(self) -> list[ParameterPoint]:
        """``sample_coordinates`` as a list of points."""

        return [ParameterPoint(x, z) for x, z in zip(*self.sample_coordinates())]

    def points_at(self, s) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates (x, z) of the loop at each fraction ``s`` of its length.

        ``s`` runs from 0 at the first waypoint once around to 1, back at it
        exactly; values outside [0, 1] clip to the ends.  A zero-length edge
        maps to its waypoint.
        """

        xs, zs, cum = self._arc
        s = np.clip(s, 0.0, 1.0)
        i = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, cum.size - 2)
        span = cum[i + 1] - cum[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(span == 0.0, 0.0, (s - cum[i]) / span)
        end = t == 1.0  # a + (b - a) * 1 can miss b by an ulp
        return tuple(np.where(end, c[i + 1], c[i] + (c[i + 1] - c[i]) * t) for c in (xs, zs))


_DEFAULT_LOOP = LoopPath.default_rectangle()


@dataclass(frozen=True)
class TransportStep:
    step: int
    x: float
    z: float
    e0: float
    e1: float
    overlap: float
    cumulative_sign: int


@dataclass(frozen=True)
class BerryResult:
    """Outcome of one transported loop."""

    phase: float  # 0.0 or pi
    holonomy_sign: int
    min_transport_overlap: float
    min_gap_on_loop: float
    refined_points: int
    points_solved: int  # walked points only, not unreached prefetched ones; not serialized
    log: tuple[TransportStep, ...] | None = None

    @property
    def phase_label(self) -> str:
        return "pi" if self.holonomy_sign < 0 else "0"

    def to_dict(self) -> dict:
        return {
            "phase": self.phase_label,
            "holonomy_sign": self.holonomy_sign,
            "min_transport_overlap": self.min_transport_overlap,
            "min_gap_on_loop": self.min_gap_on_loop,
            "refined_points": self.refined_points,
        }


class _Points:
    """Solved points as table columns, in order of solving: x, z, place, gap, overlap, the ground vector.

    A point's place is where it sits along the loop: sample ``j`` at ``j << MAX_REFINE_DEPTH``, and
    a bisection midpoint halfway between the places of its segment's ends, whatever the x = 0
    nudge does to its x and z.  So places are exact dyadic numbers, one per point, and ``column_at``
    finds the column of each prefetched point by its place.  A walked point's overlap row holds
    the overlap of the walk's segment that ends there; it is NaN at every other point.  The ground
    vector is the head amplitude, then one per group, which ``weights`` sums over.  The columns are
    the loop samples, then each prefetched subtree, walked or not; the first ``size`` are filled.
    The table keeps room to grow, and the row views cover all of it, so they are rebuilt only when
    it grows.
    """

    def __init__(self, diag: ViolationDiagonal, variant: str) -> None:
        self.diag = diag
        self.variant = variant
        self.weights = np.concatenate(([1.0], diag.histogram.counts))  # the head's, then each group's
        self.size = 0
        self.table = np.empty((5 + self.weights.size, 0))
        self.column_at: dict[float, int] = {}

    def solve(self, x: np.ndarray, z: np.ndarray, place: np.ndarray) -> np.ndarray:
        """Solve a batch of points in one call, append them and return their columns."""

        levels = lowest_levels(self.diag, self.variant, x, z, 2)
        first, self.size = self.size, self.size + x.size
        if self.size > self.table.shape[1]:
            table = np.full((self.table.shape[0], 2 * self.size), np.nan)
            table[:, :first] = self.table[:, :first]
            self.table = table
            self.x, self.z, self.place, self.gap, self.overlaps = table[:5]
            self.vectors = table[5:]
        block = self.table[:, first : self.size]
        amplitudes, block[5] = levels.ground()
        block[0], block[1], block[2], block[3], block[6:] = x, z, place, levels.gap(), amplitudes.T
        return np.arange(first, self.size)

    def fetch(self, a: np.ndarray, b: np.ndarray, levels: int, axis_tol: float) -> np.ndarray:
        """Solve the subtrees of segments ``(a, b)`` in one call, and return the columns of their midpoints.

        A subtree point the walk may never reach can fail to converge; the
        segments' own midpoints are then solved alone, so a failure surfaces
        only where the level-by-level walk meets it.
        """

        x, z, place = _subtree_midpoints(self.table[:3, np.stack((a, b), axis=-1)], levels, axis_tol)
        try:
            rows = self.solve(x.reshape(-1), z.reshape(-1), place.reshape(-1))
        except ConvergenceFailure:
            if levels == 1:
                raise
            return self.fetch(a, b, 1, axis_tol)
        self.column_at.update(zip(place.reshape(-1).tolist(), rows.tolist()))
        return rows[:: x.shape[1]]  # each subtree's node 0

    def overlap(self, a, b) -> np.ndarray:
        return self.weights @ (self.vectors[:, a] * self.vectors[:, b])  # a, b: columns or slices of them


def _subtree_midpoints(ends: np.ndarray, levels: int, axis_tol: float) -> np.ndarray:
    """Midpoints of each segment's bisection subtree, ``levels`` deep, as ``(3, segments, 2**levels - 1)``.

    ``ends`` holds the x, z and place of each segment's start and end point,
    ``(3, segments, 2)``.  Node 0 bisects the segment and node ``j`` has the
    halves that nodes ``2j + 1`` and ``2j + 2`` bisect.  A midpoint on
    x = 0, up to the rounding of the samples, moves half a step on, as a
    sample does; its place stays halfway.
    """

    # Each segment's points along it, 2**levels steps apart at the deepest level.
    line = np.empty(ends.shape[:2] + ((1 << levels) + 1,))
    line[..., 0], line[..., -1] = ends[..., 0], ends[..., 1]
    mids = []
    for level in range(levels):
        step = 1 << (levels - level)
        start, end = line[..., :-1:step], line[..., step::step]
        mid = 0.5 * (start + end)
        near = np.abs(mid[0]) <= axis_tol
        if near.any():
            mid[:2] = np.where(near & (start[0] != end[0]), 0.5 * (mid[:2] + end[:2]), mid[:2])
        line[..., step // 2 :: step] = mid
        mids.append(mid)
    return np.concatenate(mids, axis=-1)


def berry_phase(
    diag: ViolationDiagonal,
    variant: str = "unscaled",
    path: LoopPath | None = None,
    *,
    collect_log: bool = False,
) -> BerryResult:
    """Transport the ground vector around a closed loop and read off the sign.

    The segments of the walk start as the steps between loop samples, all
    solved in one batch.  Then, level by level, every segment whose
    endpoint vectors overlap by less than ``REFINE_TRIGGER`` in magnitude,
    below ``MAX_REFINE_DEPTH`` and away from degenerate end points, is split
    in two at the point solved at its midpoint's place, and only the fresh
    halves get overlaps and are looked at on the next level; the others
    store theirs at their end points.  Split segments with no solved
    midpoint get their bisection subtrees, ``_PREFETCH_DEPTH`` levels deep
    and at most ``_PREFETCH_POINTS`` points, solved in one batch into the
    table of loop samples.  The walk is point 0, then the samples and each
    split segment's midpoint in place order, so prefetched points it never
    reached do not reach the result.  Whether a segment splits depends on
    ``|overlap|`` alone, not on the sign carried so far, so this reaches
    exactly the segments of a walk along the loop that bisects each weak
    step as it meets it.  The failure that walk meets first is raised: a
    sub-floor gap at the start point or at a segment's end point
    (``DegenerateOnLoop``), or a segment whose overlap is still below
    ``OVERLAP_FLOOR`` (``RefinementExhausted``).  A midpoint on x = 0, up
    to the rounding of the samples, moves half a step on, as a sample does.
    With ``collect_log`` the walked points are solved once more, in one batch, for the log's levels.
    """

    if path is None:
        path = _DEFAULT_LOOP
    xs, zs = path.sample_coordinates()
    n = xs.size
    pts = _Points(diag, variant)
    pts.solve(xs, zs, np.arange(n) << MAX_REFINE_DEPTH)

    # The segments still to look at, as the columns of their ends, and their
    # overlaps.  A segment that does not split never will.  Each overlap is
    # taken once, in its level's batch: the bits of ``weights @ M`` in a
    # column can depend on the other columns of ``M``.
    left, right = np.arange(n - 1), np.arange(1, n)
    overlap = pts.overlap(slice(0, n - 1), slice(1, n))
    for depth in range(MAX_REFINE_DEPTH + 1):  # the last level splits nothing
        ends = (pts.gap[left] <= GAP_FLOOR) | (pts.gap[right] <= GAP_FLOOR)
        split = ~ends & (np.abs(overlap) < REFINE_TRIGGER) & (depth < MAX_REFINE_DEPTH)
        pts.overlaps[right[~split]] = overlap[~split]
        if not np.count_nonzero(split):
            break
        left, right = left[split], right[split]
        mid = np.array([pts.column_at.get(p, -1) for p in (0.5 * (pts.place[left] + pts.place[right])).tolist()])
        new = mid < 0
        if np.count_nonzero(new):
            # As many levels as the cap on points allows, and none below the
            # depth cap; at least the segments' own midpoints.
            fits = (_PREFETCH_POINTS // int(np.count_nonzero(new)) + 1).bit_length() - 1
            levels = max(1, min(_PREFETCH_DEPTH, MAX_REFINE_DEPTH - depth, fits))
            axis_tol = np.finfo(np.float64).eps * float(np.max(np.abs(xs)))
            mid[new] = pts.fetch(left[new], right[new], levels, axis_tol)
        # The first halves of the split segments, then their second halves.
        left, right = np.concatenate((left, mid)), np.concatenate((mid, right))
        overlap = pts.overlap(left, right)
    if depth:  # the walked points in place order (the samples' own when none split)
        right = np.flatnonzero(~np.isnan(pts.overlaps[: pts.size]))
        right = right[np.argsort(pts.place[right])]
        overlap = pts.overlaps[right]

    # The walk meets point 0, then each segment's end point and the segment;
    # a segment leaving a degenerate point follows the one that reaches it.
    failed = ((pts.gap[right] <= GAP_FLOOR) | (np.abs(overlap) < OVERLAP_FLOOR)).nonzero()[0]
    if pts.gap[0] <= GAP_FLOOR or failed.size:
        i = 0 if pts.gap[0] <= GAP_FLOOR else right[failed[0]]
        if pts.gap[i] <= GAP_FLOOR:
            raise DegenerateOnLoop(
                f"gap {pts.gap[i]:.3e} at (x={pts.x[i]:.6g}, z={pts.z[i]:.6g}) is below the floor"
            )
        j = failed[0]
        span = int(pts.place[i] - pts.place[right[j - 1] if j else 0])  # 2**(MAX_REFINE_DEPTH - depth)
        raise RefinementExhausted(
            f"overlap {overlap[j]:.3f} near (x={pts.x[i]:.6g}, z={pts.z[i]:.6g}) "
            f"still below {OVERLAP_FLOOR} at refinement depth {MAX_REFINE_DEPTH + 1 - span.bit_length()}"
        )

    # The transported vector at each step is gauge * (the solver's vector); the gauge flips at each negative overlap.
    closing = float(pts.overlap(slice(n - 1, n), slice(0, 1))[0]) * (-1) ** np.count_nonzero(overlap < 0.0)
    sign = 1 if closing > 0.0 else -1
    log = None
    if collect_log:
        # The walked points' levels, re-solved in one batch.  Logged overlaps are taken against
        # the transported previous vector, and the sign column counts the flips that transport makes.
        walked = np.concatenate(([0], right))
        x, z = pts.x[walked], pts.z[walked]
        levels = lowest_levels(diag, variant, x, z, 2)
        gauge = np.cumprod(np.where(overlap < 0.0, -1, 1))
        logged = np.concatenate(([1], gauge[:-1])) * overlap
        flips = np.cumprod(np.where(logged < 0.0, -1, 1))
        columns = (np.arange(walked.size), x, z, levels.level(0), levels.level(1),
                   np.concatenate(([1.0], logged)), np.concatenate(([1], flips)))
        log = tuple(map(TransportStep, *(column.tolist() for column in columns)))
    return BerryResult(
        phase=math.pi if sign < 0 else 0.0,
        holonomy_sign=sign,
        min_transport_overlap=min(1.0, float(np.abs(overlap).min())),
        min_gap_on_loop=float(min(pts.gap[0], pts.gap[right].min())),
        refined_points=right.size + 1 - n,
        points_solved=right.size + 1,
        log=log,
    )


def solubility(diag: ViolationDiagonal, variant: str = "unscaled") -> bool:
    """True when the default loop picks up phase pi (an enclosed level touching)."""

    return berry_phase(diag, variant).holonomy_sign < 0


def _log_csv(log: tuple | None, row: type, producer: str) -> str:
    """A log collected with ``collect_log=True`` as CSV: ``row``'s field names, then each value as %.17g."""

    if log is None:
        raise ValueError(f"{producer} was run without collect_log=True")
    lines = [",".join(f.name for f in fields(row))]
    lines += (",".join(f"{v:.17g}" for v in vars(entry).values()) for entry in log)
    return "\n".join(lines) + "\n"


def transport_csv(result: BerryResult) -> str:
    """CSV dump of a transport log collected with ``collect_log=True``."""

    return _log_csv(result.log, TransportStep, "berry_phase")
