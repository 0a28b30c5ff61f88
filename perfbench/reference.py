"""Answer references that share no code with the package under test.

Violation counts come from a direct evaluation of every literal on the
assignment bit matrix.  Spectra come from the symmetric sector: a diagonal
with distinct counts ``u_g`` of multiplicity ``k_g`` couples to the head
only through the group-uniform states, so the bordered operator reduces to
a (G+1)-dimensional symmetric matrix

    diag(z/4 + u_g)  bordered by  x * sqrt(k_g),  head  -z/4

whose ``numpy.linalg.eigvalsh`` roots, together with ``z/4 + u_g``
repeated ``k_g - 1`` times, give the whole spectrum.  Only the
``unscaled`` variant is covered, which is the one every workload uses.
"""

from __future__ import annotations

import math

import numpy as np


def violation_counts(n_vars: int, clauses: list[tuple[int, int, int]]) -> np.ndarray:
    """Clauses violated by each assignment; bit k of the index is variable k+1."""

    bits = (np.arange(1 << n_vars)[:, None] >> np.arange(n_vars)[None, :]) & 1
    counts = np.zeros(1 << n_vars, dtype=np.int64)
    for clause in clauses:
        all_false = np.ones(1 << n_vars, dtype=bool)
        for lit in clause:
            all_false &= bits[:, abs(lit) - 1] == (0 if lit > 0 else 1)
        counts += all_false
    return counts


def histogram(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct violation counts ``u_g`` and their multiplicities ``k_g``."""

    u, k = np.unique(np.asarray(counts), return_counts=True)
    return u.astype(np.float64), k.astype(np.int64)


def sector_roots(u: np.ndarray, k: np.ndarray, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric-sector matrix at each (x, z); shape (P, G+1)."""

    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    zs = np.broadcast_to(np.asarray(zs, dtype=np.float64), xs.shape)
    g = u.size
    mats = np.zeros((xs.size, g + 1, g + 1))
    idx = np.arange(g)
    mats[:, idx, idx] = zs[:, None] / 4.0 + u[None, :]
    mats[:, g, g] = -zs / 4.0
    border = xs[:, None] * np.sqrt(k.astype(np.float64))[None, :]
    mats[:, idx, g] = border
    mats[:, g, idx] = border
    return np.linalg.eigvalsh(mats)


def full_spectrum(u: np.ndarray, k: np.ndarray, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Whole ascending spectrum at each point: sector roots plus repeated ``u_g``."""

    roots = sector_roots(u, k, xs, zs)
    zs = np.broadcast_to(np.asarray(zs, dtype=np.float64), (roots.shape[0],))
    repeated = np.repeat(u, k - 1)
    deflated = zs[:, None] / 4.0 + repeated[None, :]
    return np.sort(np.concatenate((roots, deflated), axis=1), axis=1)


def gap01(u: np.ndarray, k: np.ndarray, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """First spectral gap at each point."""

    roots = sector_roots(u, k, xs, zs)
    lowest = roots[:, :2]
    if k[0] > 1:
        # u_0 repeated: z/4 + u_0 is an eigenvalue in its own right.
        zs = np.broadcast_to(np.asarray(zs, dtype=np.float64), (roots.shape[0],))
        extra = (zs / 4.0 + u[0])[:, None]
        lowest = np.sort(np.concatenate((lowest, extra), axis=1), axis=1)[:, :2]
    return lowest[:, 1] - lowest[:, 0]


def min_gap_x(u: np.ndarray, k: np.ndarray, z: float, lo: float, hi: float) -> tuple[float, float]:
    """Smallest first gap along x in [lo, hi] at fixed z: dense grid, then ternary refinement."""

    xs = np.linspace(lo, hi, 4001)
    gaps = gap01(u, k, xs, z)
    best = int(np.argmin(gaps))
    a, b = xs[max(best - 1, 0)], xs[min(best + 1, xs.size - 1)]
    for _ in range(100):
        c, d = a + (b - a) / 3.0, b - (b - a) / 3.0
        gc, gd = gap01(u, k, np.array([c, d]), z)
        if gc < gd:
            b = d
        else:
            a = c
    x = 0.5 * (a + b)
    return x, float(gap01(u, k, np.array([x]), z)[0])


def second_order(u: np.ndarray, k: np.ndarray, z: float) -> tuple[float, float, float | None]:
    """Closed-form x**2 shifts of the lowest body level and the head, and their crossing."""

    e_b = -z / 4.0
    e = z / 4.0 + u
    delta_a = float(k[0]) / (e[0] - e_b)
    delta_b = float(np.sum(k / (e_b - e)))
    x_sq = (e_b - e[0]) / (delta_a - delta_b) if delta_a != delta_b else -1.0
    return delta_a, delta_b, (math.sqrt(x_sq) if x_sq > 0.0 else None)


def circular_distance(a: float, b: float) -> float:
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)
