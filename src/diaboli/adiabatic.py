"""Time-dependent evolution around the control loop.

The loop is traversed once via an arc-length coordinate ``s`` in [0, 1].
Each time step applies the exact unitary of the instantaneous operator at
the step's midpoint, built from a dense eigendecomposition, so the only
discretization error is the piecewise-constant treatment of H(t) (local
error O(dt**3)).  Norm is therefore conserved structurally and only
monitored, never restored.

Two speed profiles are provided: ``uniform`` covers equal arc length per
unit time, and ``gap_adaptive`` moves at a rate proportional to the
square of the local spectral gap (floor-clamped), the classic way to
spend the time budget where transitions are actually at risk.

Hbar is 1 throughout: energies are inverse times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NormDrift, ScheduleInvalid
from .eigensolver import LowestLevels, lowest_levels
from .eigensolver import eigen_arrowhead  # noqa: F401 - perfbench/tracer.py wraps this module-level name
from .hamiltonian import ParameterPoint, build
from .holonomy import LoopPath
from .instance import ViolationDiagonal

PROFILES = ("uniform", "gap_adaptive")
NORM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Schedule:
    """How long the traversal takes and how the speed is distributed."""

    total_time: float
    speed_profile: str = "uniform"
    steps: int = 2000
    min_speed_fraction: float = 0.05

    def __post_init__(self) -> None:
        if not (math.isfinite(self.total_time) and self.total_time > 0.0):
            raise ScheduleInvalid(f"total_time must be positive and finite, got {self.total_time!r}")
        if self.speed_profile not in PROFILES:
            raise ScheduleInvalid(f"speed_profile {self.speed_profile!r} not in {PROFILES}")
        if not isinstance(self.steps, int) or self.steps < 100:
            raise ScheduleInvalid(f"steps must be an integer >= 100, got {self.steps!r}")
        if not (0.0 < self.min_speed_fraction <= 1.0):
            raise ScheduleInvalid(
                f"min_speed_fraction must lie in (0, 1], got {self.min_speed_fraction!r}"
            )


@dataclass(frozen=True)
class EvolutionStep:
    t: float
    x: float
    z: float
    e0: float
    e1: float
    fidelity: float
    norm: float


@dataclass(frozen=True, eq=False)
class EvolutionResult:
    """Final state and the phase bookkeeping of one traversal."""

    total_time: float
    speed_profile: str
    steps: int
    final_state: np.ndarray
    ground_fidelity: float
    dynamical_phase: float
    total_phase: float
    geometric_phase_estimate: float
    max_norm_drift: float
    log: tuple[EvolutionStep, ...] | None = None


class _ArcLengthLoop:
    """Piecewise-linear map from s in [0, 1] to points on the loop."""

    def __init__(self, path: LoopPath) -> None:
        pts = path.waypoints
        xs = np.array([p.x for p in pts])
        zs = np.array([p.z for p in pts])
        seg = np.hypot(np.diff(xs), np.diff(zs))
        total = float(seg.sum())
        if total <= 0.0:
            raise ScheduleInvalid("loop has zero length")
        self._xs = xs
        self._zs = zs
        self._cum = np.concatenate(([0.0], np.cumsum(seg))) / total

    def points_at(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates (x, z) of the loop at each arc-length fraction in ``s``."""

        s = np.clip(s, 0.0, 1.0)
        i = np.clip(np.searchsorted(self._cum, s, side="right") - 1, 0, self._cum.size - 2)
        span = self._cum[i + 1] - self._cum[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(span == 0.0, 0.0, (s - self._cum[i]) / span)
        x = self._xs[i] + (self._xs[i + 1] - self._xs[i]) * t
        z = self._zs[i] + (self._zs[i + 1] - self._zs[i]) * t
        return x, z


def _step_durations(
    diag: ViolationDiagonal,
    variant: str,
    mid_points: tuple[np.ndarray, np.ndarray],
    schedule: Schedule,
) -> np.ndarray:
    steps = schedule.steps
    if schedule.speed_profile == "uniform":
        return np.full(steps, schedule.total_time / steps)
    gaps = lowest_levels(diag, variant, *mid_points).gap
    speed = gaps * gaps
    speed = np.maximum(speed, schedule.min_speed_fraction * float(speed.mean()))
    durations = (1.0 / steps) / speed
    return durations * (schedule.total_time / float(durations.sum()))


def _ground_vector(diag: ViolationDiagonal, levels: LowestLevels, index: int) -> np.ndarray:
    """Full ground vector at one point of a batch, spread from its group amplitudes."""

    body = levels.amplitudes[index, diag.histogram.inverse]
    return np.append(body, levels.head[index]).astype(np.complex128)


def evolve(
    diag: ViolationDiagonal,
    variant: str,
    path: LoopPath,
    schedule: Schedule,
    *,
    collect_log: bool = False,
) -> EvolutionResult:
    """Propagate the instantaneous ground state once around the loop."""

    loop = _ArcLengthLoop(path)
    steps = schedule.steps
    s_edges = np.linspace(0.0, 1.0, steps + 1)
    s_mid = 0.5 * (s_edges[:-1] + s_edges[1:])
    x_mid, z_mid = loop.points_at(s_mid)
    durations = _step_durations(diag, variant, (x_mid, z_mid), schedule)

    # Instantaneous levels and ground vectors at the step edges, for the
    # dynamical-phase quadrature and the fidelity log.
    x_edge, z_edge = loop.points_at(s_edges)
    edges = lowest_levels(diag, variant, x_edge, z_edge)
    e0 = edges.e0

    psi = _ground_vector(diag, edges, 0)
    psi0 = psi.copy()
    max_drift = 0.0
    log: list[EvolutionStep] | None = [] if collect_log else None

    def log_state(index: int, t: float, norm: float) -> None:
        if log is None:
            return
        fid = abs(np.vdot(_ground_vector(diag, edges, index), psi)) ** 2
        log.append(
            EvolutionStep(
                t=t,
                x=float(x_edge[index]),
                z=float(z_edge[index]),
                e0=float(edges.e0[index]),
                e1=float(edges.e1[index]),
                fidelity=float(fid),
                norm=norm,
            )
        )

    log_state(0, 0.0, 1.0)
    elapsed = 0.0
    for j in range(steps):
        dt = float(durations[j])
        ham = build(diag, ParameterPoint(float(x_mid[j]), float(z_mid[j])), variant)
        w, v = np.linalg.eigh(ham.to_dense())
        psi = v @ (np.exp(-1j * w * dt) * (v.T @ psi))
        elapsed += dt
        norm = float(np.linalg.norm(psi))
        drift = abs(norm - 1.0)
        if drift > max_drift:
            max_drift = drift
        if drift > NORM_TOLERANCE:
            raise NormDrift(f"norm drifted to {norm!r} at t={elapsed:.6g}")
        log_state(j + 1, elapsed, norm)

    dynamical = -float(np.sum(0.5 * (e0[:-1] + e0[1:]) * durations))
    total = float(np.angle(np.vdot(psi0, psi)))
    geometric = math.remainder(total - dynamical, 2.0 * math.pi)
    if geometric <= -math.pi:
        geometric += 2.0 * math.pi
    fidelity = float(abs(np.vdot(_ground_vector(diag, edges, steps), psi)) ** 2)
    return EvolutionResult(
        total_time=schedule.total_time,
        speed_profile=schedule.speed_profile,
        steps=steps,
        final_state=psi,
        ground_fidelity=fidelity,
        dynamical_phase=dynamical,
        total_phase=total,
        geometric_phase_estimate=geometric,
        max_norm_drift=max_drift,
        log=tuple(log) if log is not None else None,
    )


def fidelity_vs_time(
    diag: ViolationDiagonal,
    variant: str,
    path: LoopPath,
    times: list[float],
    speed_profile: str = "gap_adaptive",
    steps: int = 2000,
) -> list[dict]:
    """One summary row per total_time, in the order given."""

    rows = []
    for total_time in times:
        schedule = Schedule(total_time=float(total_time), speed_profile=speed_profile, steps=steps)
        result = evolve(diag, variant, path, schedule)
        rows.append(
            {
                "total_time": result.total_time,
                "speed_profile": result.speed_profile,
                "steps": result.steps,
                "ground_fidelity": result.ground_fidelity,
                "dynamical_phase": result.dynamical_phase,
                "total_phase": result.total_phase,
                "geometric_phase_estimate": result.geometric_phase_estimate,
                "max_norm_drift": result.max_norm_drift,
            }
        )
    return rows


def evolution_csv(result: EvolutionResult) -> str:
    """CSV dump of an evolution log collected with ``collect_log=True``."""

    if result.log is None:
        raise ValueError("evolve was run without collect_log=True")
    lines = ["t,x,z,e0,e1,fidelity,norm"]
    for row in result.log:
        lines.append(
            f"{row.t:.17g},{row.x:.17g},{row.z:.17g},{row.e0:.17g},{row.e1:.17g},"
            f"{row.fidelity:.17g},{row.norm:.17g}"
        )
    return "\n".join(lines) + "\n"
