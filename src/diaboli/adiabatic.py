"""Time-dependent evolution around the control loop.

The loop is traversed once via an arc-length coordinate ``s`` in [0, 1],
which ``LoopPath.points_at`` maps to (x, z).  Each time step applies the
exact unitary of the instantaneous operator at the step's midpoint, so the
only discretization error is the piecewise-constant treatment of H(t)
(local error O(dt**3)).  Norm is therefore conserved structurally and only
monitored, never restored.

The evolution runs in the symmetric sector: the start state is uniform on
each violation-count group, and the operator maps such states to such
states, so the state lives in the ``G + 1`` dimensions spanned by the
group-uniform states and the head.  The whole spectrum at the step
midpoints is solved a chunk at a time by ``lowest_levels``: its roots are
the sector's levels, its ``level(1) - level(0)`` gives the ``gap_adaptive``
gaps, and ``Levels.vectors`` gives the sector's eigenvectors in closed form
from the same solve.  Sectors up to ``G + 1 = 16`` propagate in blocks of
complex step unitaries ``v diag(exp(-1j * E dt)) v.T``; above that each
step goes through its midpoint eigenbasis instead.  The final state is
spread over the ``2**n`` entries at the end, so the cost is set by ``G``,
not ``2**n``.

Two speed profiles are provided: ``uniform`` covers equal arc length per
unit time, and ``gap_adaptive`` moves at a rate proportional to the
square of the local spectral gap (floor-clamped), the classic way to
spend the time budget where transitions are actually at risk.

Hbar is 1 throughout: energies are inverse times.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NormDrift, ScheduleInvalid
from .eigensolver import lowest_levels
from .eigensolver import eigen_arrowhead  # noqa: F401 - perfbench/tracer.py wraps this module-level name
from .hamiltonian import _real
from .hamiltonian import build  # noqa: F401 - perfbench/tracer.py wraps this module-level name
from .holonomy import LoopPath, _log_csv
from .instance import ViolationDiagonal

PROFILES = ("uniform", "gap_adaptive")
NORM_TOLERANCE = 1e-6
_BATCH_ENTRIES = 1 << 16  # secular working set per chunk of midpoints: steps x (G + 1) roots x G poles
# Largest G + 1 whose blocked (G+1)**3 unitaries beat the eigenbasis loop: whole
# traversals take 0.87-0.99x its time at G + 1 = 13..16 and 1.05-1.08x at 17..18.
_SMALL_SECTOR = 16
_MIN_SPEED_FRACTION = 0.05  # gap_adaptive speed floor, relative to the mean speed


@dataclass(frozen=True)
class Schedule:
    """How long the traversal takes and how the speed is distributed."""

    total_time: float
    speed_profile: str = "uniform"
    steps: int = 2000

    def __post_init__(self) -> None:
        total = _real(self.total_time)
        if total is None or not (math.isfinite(total) and total > 0.0):
            raise ScheduleInvalid(f"total_time must be positive and finite, got {self.total_time!r}")
        object.__setattr__(self, "total_time", total)
        if self.speed_profile not in PROFILES:
            raise ScheduleInvalid(f"speed_profile {self.speed_profile!r} not in {PROFILES}")
        if not isinstance(self.steps, numbers.Integral) or self.steps < 100:
            raise ScheduleInvalid(f"steps must be an integer >= 100, got {self.steps!r}")
        object.__setattr__(self, "steps", int(self.steps))


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


def _step_durations(gaps: np.ndarray | None, schedule: Schedule) -> np.ndarray:
    steps = schedule.steps
    if schedule.speed_profile == "uniform":
        return np.full(steps, schedule.total_time / steps)
    speed = gaps * gaps
    speed = np.maximum(speed, _MIN_SPEED_FRACTION * float(speed.mean()))
    durations = (1.0 / steps) / speed
    return durations * (schedule.total_time / float(durations.sum()))


def _propagate(u: np.ndarray, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``u[j] @ ... @ u[0] @ psi`` to ``out[j]`` for every step ``j``; return the last state.

    In blocks of about ``sqrt(len(u))`` steps, the prefix products within all
    blocks are taken at once, in place of ``u``; each block's start state is
    carried through its product, and one ``einsum`` applies the prefixes.
    """

    block = math.isqrt(len(u))
    whole = len(u) - len(u) % block
    prefix = u[:whole].reshape(-1, block, psi.size, psi.size)
    for t in range(1, block):
        prefix[:, t] = prefix[:, t] @ prefix[:, t - 1]
    starts = np.empty((len(prefix), psi.size), dtype=psi.dtype)
    for b, product in enumerate(prefix[:, -1]):
        starts[b] = psi
        psi = product @ psi
    out[:whole] = np.einsum("btij,bj->bti", prefix, starts).reshape(whole, psi.size)
    return _propagate(u[whole:], psi, out[whole:]) if whole < len(u) else psi


def evolve(
    diag: ViolationDiagonal,
    variant: str,
    path: LoopPath,
    schedule: Schedule,
    *,
    collect_log: bool = False,
) -> EvolutionResult:
    """Propagate the instantaneous ground state once around the loop."""

    steps = schedule.steps
    s_edges = np.linspace(0.0, 1.0, steps + 1)
    x_mid, z_mid = path.points_at(0.5 * (s_edges[:-1] + s_edges[1:]))
    hist = diag.histogram
    dim = hist.values.size + 1
    chunk = max(1, _BATCH_ENTRIES // (dim * (dim - 1)))
    starts = range(0, steps, chunk)
    solves = [lowest_levels(diag, variant, x_mid[i : i + chunk], z_mid[i : i + chunk]) for i in starts]
    durations = _step_durations(np.concatenate([levels.level(1) - levels.level(0) for levels in solves]), schedule)

    # Ground levels and states at the step edges, in sector coordinates.  The
    # log's e1 comes from the same solve: root 0 starts and steps alike
    # whether root 1 is asked for, so logging moves no bit of e0.
    x_edge, z_edge = path.points_at(s_edges)
    edges = lowest_levels(diag, variant, x_edge, z_edge, 2 if collect_log else 1)
    e0 = edges.level(0)
    root_k = np.sqrt(hist.counts.astype(np.float64))
    amplitudes, head = edges.ground()
    grounds = np.concatenate((amplitudes * root_k, head[:, None]), axis=1)

    # states[j] is the state after j steps.
    states = np.empty((steps + 1, dim), dtype=np.complex128)
    states[0] = grounds[0]
    for start, levels in zip(starts, solves):
        v = levels.vectors()
        phases = np.exp(-1j * levels.roots * durations[start : start + chunk, None])
        if dim <= _SMALL_SECTOR:  # each step's unitary v diag(phases) v.T, applied in blocks
            u = (v * phases[:, None, :]) @ np.swapaxes(v, 1, 2)
            _propagate(u, states[start], states[start + 1 : start + chunk + 1])
        else:  # no (G+1)**3 unitary per step: each step goes through its eigenbasis and back
            psi = states[start]
            for j, (basis, phase) in enumerate(zip(v, phases), start + 1):
                psi = states[j] = basis @ (phase * (psi @ basis))
    psi = states[-1]

    elapsed = np.cumsum(durations)
    norms = np.linalg.norm(states[1:], axis=1)
    drift = np.abs(norms - 1.0)
    over = np.flatnonzero(drift > NORM_TOLERANCE)
    if over.size:
        j = int(over[0])
        raise NormDrift(f"norm drifted to {float(norms[j])!r} at t={elapsed[j]:.6g}")
    fidelities = np.abs(np.sum(grounds * states, axis=1)) ** 2

    log = None
    if collect_log:
        e1 = edges.level(1)
        columns = np.concatenate(([0.0], elapsed)), x_edge, z_edge, e0, e1, fidelities, np.append(1.0, norms)
        log = tuple(map(EvolutionStep, *(column.tolist() for column in columns)))

    dynamical = -float(np.sum(0.5 * (e0[:-1] + e0[1:]) * durations))
    total = float(np.angle(np.vdot(states[0], psi)))
    geometric = math.remainder(total - dynamical, 2.0 * math.pi)
    if geometric <= -math.pi:
        geometric += 2.0 * math.pi
    # Spread the sector amplitudes back over the k_g entries of each group.
    body = (psi[:-1] / root_k)[np.searchsorted(hist.values, diag.entries)]
    return EvolutionResult(
        total_time=schedule.total_time,
        speed_profile=schedule.speed_profile,
        steps=steps,
        final_state=np.append(body, psi[-1]),
        ground_fidelity=float(fidelities[-1]),
        dynamical_phase=dynamical,
        total_phase=total,
        geometric_phase_estimate=geometric,
        max_norm_drift=float(drift.max()),
        log=log,
    )


def evolution_csv(result: EvolutionResult) -> str:
    """CSV dump of an evolution log collected with ``collect_log=True``."""

    return _log_csv(result.log, EvolutionStep, "evolve")
