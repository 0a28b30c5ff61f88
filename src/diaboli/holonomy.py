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
the head amplitude (see ``lowest_levels``), so an overlap is the short sum
``sum_g k_g a_g a'_g + h h'`` whatever the size of the diagonal.  All loop
samples are solved in one batch; segments whose endpoint vectors overlap
weakly are then bisected level by level, each level's midpoints again in
one batch, so the transport never jumps across an avoided crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateOnLoop, OpenLoop, RefinementExhausted
from .eigensolver import lowest_levels
from .eigensolver import eigen_arrowhead  # noqa: F401 - perfbench/tracer.py wraps this module-level name
from .hamiltonian import ParameterPoint
from .hamiltonian import build  # noqa: F401 - perfbench/tracer.py wraps this module-level name
from .instance import ViolationDiagonal

GAP_FLOOR = 1e-9
OVERLAP_FLOOR = 0.5
REFINE_TRIGGER = 0.8
MAX_REFINE_DEPTH = 22
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
    cross = a.x * b.z - a.z * b.x
    if cross != 0.0:
        return False
    if min(a.x, b.x) <= 0.0 <= max(a.x, b.x) and min(a.z, b.z) <= 0.0 <= max(a.z, b.z):
        return True
    return False


@dataclass(frozen=True)
class LoopPath:
    """Closed polyline of waypoints with a per-edge sampling density."""

    waypoints: tuple[ParameterPoint, ...]
    samples_per_edge: int = DEFAULT_SAMPLES_PER_EDGE

    def __post_init__(self) -> None:
        pts = tuple(
            p if isinstance(p, ParameterPoint) else ParameterPoint(float(p[0]), float(p[1]))
            for p in self.waypoints
        )
        if len(pts) < 2 or pts[0] != pts[-1]:
            raise OpenLoop("waypoint list must end exactly where it starts")
        if len({(p.x, p.z) for p in pts}) < 3:
            raise OpenLoop("need at least 3 distinct waypoints to enclose area")
        for a, b in zip(pts, pts[1:]):
            if _segment_hits_origin(a, b):
                raise ValueError("loop passes through (0, 0), where the spectrum can touch")
        if self.samples_per_edge < 1:
            raise ValueError("samples_per_edge must be at least 1")
        object.__setattr__(self, "waypoints", pts)

    @classmethod
    def default_rectangle(cls, samples_per_edge: int = DEFAULT_SAMPLES_PER_EDGE) -> "LoopPath":
        return cls(waypoints=_DEFAULT_WAYPOINTS, samples_per_edge=samples_per_edge)

    def sample_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Uniform samples along each edge, waypoints included, as x and z arrays.

        An interior sample landing exactly on x = 0 is displaced half a
        grid step along its edge: the border coupling vanishes on that
        axis and a purely diagonal matrix with a repeated minimum would
        look degenerate even though the transported ground sheet crosses
        the axis continuously.  Edges lying on the axis are left alone.
        """

        s = self.samples_per_edge
        j = np.arange(1, s + 1)
        xs = [np.array([self.waypoints[0].x])]
        zs = [np.array([self.waypoints[0].z])]
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            t = j / s
            if a.x != b.x:
                t = np.where((j < s) & (a.x + (b.x - a.x) * t == 0.0), (j + 0.5) / s, t)
            xs.append(a.x + (b.x - a.x) * t)
            zs.append(a.z + (b.z - a.z) * t)
        return np.concatenate(xs), np.concatenate(zs)

    def sample_points(self) -> list[ParameterPoint]:
        """``sample_coordinates`` as a list of points."""

        return [ParameterPoint(x, z) for x, z in zip(*self.sample_coordinates())]


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
    points_solved: int  # loop samples plus inserted midpoints; not serialized
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
    """Every point solved on one loop, in order of solving.

    ``place`` holds ``(edge, position, depth)`` per point, the place at
    which a walk along the loop would solve it: loop sample ``j`` at
    ``(j - 1, -1, 0)``, a midpoint at the place of the segment it splits
    (see ``berry_phase``).  Sorting places gives walk order.
    """

    def __init__(self, diag: ViolationDiagonal, variant: str) -> None:
        self.diag = diag
        self.variant = variant
        self.weights = diag.histogram.counts.astype(np.float64)
        self.x = self.z = self.e0 = self.e1 = self.gap = self.head = np.empty(0)
        self.amplitudes = np.empty((0, self.weights.size))
        self.place = np.empty((0, 3), dtype=np.int64)

    def add(self, x: np.ndarray, z: np.ndarray, place: np.ndarray) -> np.ndarray:
        """Solve a batch of points and return their indices."""

        levels = lowest_levels(self.diag, self.variant, x, z)
        first = self.x.size
        self.x = np.concatenate((self.x, x))
        self.z = np.concatenate((self.z, z))
        self.e0 = np.concatenate((self.e0, levels.e0))
        self.e1 = np.concatenate((self.e1, levels.e1))
        self.gap = np.concatenate((self.gap, levels.gap))
        self.amplitudes = np.concatenate((self.amplitudes, levels.amplitudes))
        self.head = np.concatenate((self.head, levels.head))
        self.place = np.concatenate((self.place, place))
        return np.arange(first, self.x.size)

    def overlap(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (self.amplitudes[a] * self.amplitudes[b]) @ self.weights + self.head[a] * self.head[b]


def _place(edge: np.ndarray, code: np.ndarray, depth: int, top: int) -> np.ndarray:
    """Walk-order places of segments: in its edge's bisection tree, code
    ``c`` at ``depth`` has children ``2c`` and ``2c + 1``, and its position
    ``c << (top - depth)`` puts it after its parent and before its children."""

    return np.stack((edge, code << (top - depth), np.full(edge.size, depth)), axis=1)


def _walk_order(place: np.ndarray) -> np.ndarray:
    return np.lexsort(place.T[::-1])


def berry_phase(
    diag: ViolationDiagonal,
    variant: str = "unscaled",
    path: LoopPath | None = None,
    *,
    collect_log: bool = False,
) -> BerryResult:
    """Transport the ground vector around a closed loop and read off the sign.

    All loop samples are solved in one batch.  Then, level by level, every
    segment whose endpoint vectors overlap by less than ``REFINE_TRIGGER``
    in magnitude is split at its midpoint, below ``MAX_REFINE_DEPTH``, and
    the midpoints of a level are solved in one batch.  Whether a segment
    splits depends on ``|overlap|`` alone, not on the sign carried so far,
    so this reaches exactly the segments of a walk along the loop that
    bisects each weak step as it meets it.  Errors follow that walk too:
    of all sub-floor gaps (``DegenerateOnLoop``) and segments still below
    ``OVERLAP_FLOOR`` at the depth cap (``RefinementExhausted``), the one
    the walk would meet first is raised, and segments touching a
    degenerate point are not refined.
    """

    if path is None:
        path = LoopPath.default_rectangle()
    xs, zs = path.sample_coordinates()
    n = xs.size
    top = MAX_REFINE_DEPTH
    pts = _Points(diag, variant)
    pts.add(xs, zs, np.stack((np.arange(-1, n - 1), np.full(n, -1), np.zeros(n, dtype=np.int64)), axis=1))

    # The segments of one level: endpoint indices, loop edge, tree code.
    left = np.arange(n - 1)
    right = left + 1
    edge = left.copy()
    code = np.zeros(n - 1, dtype=np.int64)
    leaves: list[tuple[np.ndarray, ...]] = []
    depth = 0
    while True:
        degenerate = pts.gap <= GAP_FLOOR
        live = ~(degenerate[left] | degenerate[right])
        left, right, edge, code = left[live], right[live], edge[live], code[live]
        overlap = pts.overlap(left, right)
        split = (np.abs(overlap) < REFINE_TRIGGER) & (depth < top)
        keep = ~split
        leaves.append((_place(edge[keep], code[keep], depth, top), right[keep], overlap[keep]))
        left, right, edge, code = left[split], right[split], edge[split], code[split]
        if not left.size:
            break
        mid_x = 0.5 * (pts.x[left] + pts.x[right])
        mid_z = 0.5 * (pts.z[left] + pts.z[right])
        mid = pts.add(mid_x, mid_z, _place(edge, code, depth, top))
        left, right = np.concatenate((left, mid)), np.concatenate((mid, right))
        edge = np.concatenate((edge, edge))
        code = np.concatenate((2 * code, 2 * code + 1))
        depth += 1

    place, target, overlap = (np.concatenate(part) for part in zip(*leaves))
    _raise_first_failure(pts, place, target, overlap)

    order = _walk_order(place)
    target, overlap = target[order], overlap[order]
    # The transported vector at each step is gauge * (the solver's vector).
    gauge = np.cumprod(np.where(overlap < 0.0, -1, 1))
    closing = float(gauge[-1] * pts.overlap(np.array([n - 1]), np.array([0]))[0])
    sign = 1 if closing > 0.0 else -1
    log = None
    if collect_log:
        # Logged overlaps are taken against the transported previous vector,
        # and the sign column counts the flips that transport makes.
        logged = np.concatenate(([1], gauge[:-1])) * overlap
        flips = np.cumprod(np.where(logged < 0.0, -1, 1))
        rows = [(0, 1.0, 1)] + list(zip(target.tolist(), logged.tolist(), flips.tolist()))
        log = tuple(
            TransportStep(
                step=step,
                x=float(pts.x[i]),
                z=float(pts.z[i]),
                e0=float(pts.e0[i]),
                e1=float(pts.e1[i]),
                overlap=float(ov),
                cumulative_sign=int(cum),
            )
            for step, (i, ov, cum) in enumerate(rows)
        )
    return BerryResult(
        phase=math.pi if sign < 0 else 0.0,
        holonomy_sign=sign,
        min_transport_overlap=min(1.0, float(np.min(np.abs(overlap)))),
        min_gap_on_loop=float(np.min(pts.gap)),
        refined_points=pts.x.size - n,
        points_solved=pts.x.size,
        log=log,
    )


def _raise_first_failure(pts: _Points, place: np.ndarray, target: np.ndarray, overlap: np.ndarray) -> None:
    """Raise the failure a walk along the loop would meet first, if any.

    ``place``, ``target`` and ``overlap`` describe the segments that were
    not split: their walk-order place, end point and endpoint overlap.
    """

    bad_points = np.flatnonzero(pts.gap <= GAP_FLOOR)
    bad_leaves = np.flatnonzero(np.abs(overlap) < OVERLAP_FLOOR)
    if not (bad_points.size or bad_leaves.size):
        return
    first = int(_walk_order(np.concatenate((pts.place[bad_points], place[bad_leaves])))[0])
    if first < bad_points.size:
        i = bad_points[first]
        raise DegenerateOnLoop(
            f"gap {pts.gap[i]:.3e} at (x={pts.x[i]:.6g}, z={pts.z[i]:.6g}) is below the floor"
        )
    j = bad_leaves[first - bad_points.size]
    i = target[j]
    raise RefinementExhausted(
        f"overlap {overlap[j]:.3f} near (x={pts.x[i]:.6g}, z={pts.z[i]:.6g}) "
        f"still below {OVERLAP_FLOOR} at refinement depth {place[j, 2]}"
    )


def solubility(diag: ViolationDiagonal, variant: str = "unscaled") -> bool:
    """True when the default loop picks up phase pi (an enclosed level touching)."""

    return berry_phase(diag, variant).holonomy_sign < 0


def transport_csv(result: BerryResult) -> str:
    """CSV dump of a transport log collected with ``collect_log=True``."""

    if result.log is None:
        raise ValueError("berry_phase was run without collect_log=True")
    lines = ["step,x,z,e0,e1,overlap,cumulative_sign"]
    for row in result.log:
        lines.append(
            f"{row.step},{row.x:.17g},{row.z:.17g},{row.e0:.17g},{row.e1:.17g},"
            f"{row.overlap:.17g},{row.cumulative_sign}"
        )
    return "\n".join(lines) + "\n"
