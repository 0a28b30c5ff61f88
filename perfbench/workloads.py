"""Seeded workloads: inputs, the program calls of each op, and answer checks.

A workload is a list of rounds; a round is a fixed sequence of op slots
(the same slots in every round, fresh seeded inputs in each).  Timing
statistics are taken per slot, so a run that stops part way through a
round still weighs every slot equally.  The program sees only the
generated inputs: DIMACS text, ``wc:`` specs, diagonals and schedules.
Every answer is checked against ``reference`` before its time counts.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

NAMES = ("oracle-small", "search", "wide", "adiabatic")

# Rounds generated at set-up; a run that needs more cycles through them.
POOL_ROUNDS = {"oracle-small": 32, "search": 6, "wide": 6, "adiabatic": 2}
# Rounds in a traced run: fixed, so that its counts repeat exactly for a seed.
TRACE_ROUNDS = {"oracle-small": 8, "search": 2, "wide": 2, "adiabatic": 2}

WIDE_N = 16
SWEEP_N = 10
ADIABATIC_N = 3
SLOW_FIDELITY = 0.99
SLOW_PHASE_ERR = 0.15


@dataclass
class Op:
    """One timed call sequence into the program and the check of its answer."""

    slot: str
    kind: str
    spec: str  # the input as the program receives it, for identity checks
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the answer is right
    facts: dict = field(default_factory=dict)  # answer figures worth reporting


@dataclass
class Workload:
    name: str
    rounds: list[list[Op]]
    trace_rounds: int


def rng_for(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(name.encode())])


def random_clauses(rng: np.random.Generator, n: int, m: int) -> list[tuple[int, int, int]]:
    clauses = []
    for _ in range(m):
        variables = rng.permutation(n)[:3] + 1
        signs = rng.integers(0, 2, size=3) * 2 - 1
        clauses.append(tuple(int(v * s) for v, s in zip(variables, signs)))
    return clauses


def dimacs(n: int, clauses: list[tuple[int, int, int]]) -> str:
    body = "".join(f"{a} {b} {c} 0\n" for a, b, c in clauses)
    return f"p cnf {n} {len(clauses)}\n{body}"


def worst_case_counts(n: int, solution: int | None) -> np.ndarray:
    counts = np.ones(1 << n, dtype=np.int64)
    if solution is not None:
        counts[solution] = 0
    return counts


# --- decide ---------------------------------------------------------------


# References are computed on first use, after the op has run, so that
# set-up time holds only the program's import and the generated inputs.


def _check_decide(counts: Callable[[], np.ndarray]) -> Callable[[object], str | None]:
    def check(result) -> str | None:
        says = result.holonomy_sign < 0
        soluble = bool(np.any(counts() == 0))
        return None if says == soluble else f"phase says soluble={says}, zero scan says {soluble}"

    return check


def decide_cnf(dia, slot: str, n: int, clauses) -> Op:
    text = dimacs(n, clauses)

    def run():
        return dia.berry_phase(dia.violation_diagonal(dia.parse_dimacs(text)))

    return Op(slot, "decide", text, run, _check_decide(cache(lambda: ref.violation_counts(n, clauses))))


def decide_worst_case(dia, slot: str, n: int, solution: int | None) -> Op:
    def run():
        return dia.berry_phase(dia.worst_case_diagonal(n, solution))

    counts = cache(lambda: worst_case_counts(n, solution))
    return Op(slot, "decide", f"wc:n={n},sol={solution}", run, _check_decide(counts))


# --- search ---------------------------------------------------------------


def search_op(dia, slot: str, n: int, counts: np.ndarray, diag, spec: str) -> Op:
    zeros = np.flatnonzero(counts == 0)

    def run():
        return dia.solve(diag)

    def check(trace) -> str | None:
        if zeros.size == 0:
            if trace.result is not None or trace.total_oracle_calls != 1:
                return f"insoluble input gave result {trace.result} after {trace.total_oracle_calls} calls"
            return None
        if trace.result is None or not 0 <= trace.result < counts.size or counts[trace.result] != 0:
            return f"result {trace.result} is not a zero-violation index"
        if trace.oracle_calls != n:
            return f"{trace.oracle_calls} half-space calls, want {n}"
        return None

    return Op(slot, "search", spec, run, check)


# --- gap scan and sweep through the command line ---------------------------


def gapscan_op(dia, slot: str, n: int, solution: int, out: Path) -> Op:
    spec = f"wc:n={n},sol={solution}"
    z = -1.0
    argv = ["predict-gap", spec, "--z", repr(z), "--out", str(out)]

    def run():
        return dia.cli.main(argv)

    def check(code) -> str | None:
        text = out.read_text()
        if code != 0:
            return f"predict-gap exited {code}"
        got = json.loads(text)
        u, k = ref.histogram(worst_case_counts(n, solution))
        delta_a, delta_b, x_pred = ref.second_order(u, k, z)
        if x_pred is not None:
            x_ref, gap_ref = ref.min_gap_x(u, k, z, 0.0, max(0.2, 2.5 * x_pred))
        else:
            x_ref, gap_ref = ref.min_gap_x(u, k, z, -0.5, 0.5)
        if not math.isclose(got["delta_a2_coeff"], delta_a, rel_tol=1e-12):
            return f"delta_a2 {got['delta_a2_coeff']} != {delta_a}"
        if not math.isclose(got["delta_b2_coeff"], delta_b, rel_tol=1e-12):
            return f"delta_b2 {got['delta_b2_coeff']} != {delta_b}"
        if (got["x_gap_predicted"] is None) != (x_pred is None) or (
            x_pred is not None and not math.isclose(got["x_gap_predicted"], x_pred, rel_tol=1e-12)
        ):
            return f"x_gap_predicted {got['x_gap_predicted']} != {x_pred}"
        at_point = float(ref.gap01(u, k, np.array([got["x_gap_numeric"]]), z)[0])
        if not math.isclose(got["gap_numeric"], at_point, rel_tol=1e-9, abs_tol=1e-13):
            return f"reported gap {got['gap_numeric']} but the gap at its x is {at_point}"
        # predict-gap refines x to 1e-6; the gap is V-shaped at its minimum.
        if abs(abs(got["x_gap_numeric"]) - abs(x_ref)) > 1e-5:
            return f"gap minimum at x={got['x_gap_numeric']}, reference x={x_ref}"
        if not gap_ref * (1 - 1e-9) <= got["gap_numeric"] <= gap_ref * (1 + 1e-4):
            return f"minimum gap {got['gap_numeric']} != reference {gap_ref}"
        return None

    return Op(slot, "gapscan", " ".join(argv[:4]), run, check)


def sweep_op(dia, slot: str, n: int, solution: int, out: Path) -> Op:
    spec = f"wc:n={n},sol={solution}"
    samples, fixed = 201, -1.0
    argv = ["spectrum", spec, "--sweep", "x", "--fixed", repr(fixed), "--range", "0:0.2",
            "--samples", str(samples), "--out", str(out)]

    def run():
        return dia.cli.main(argv)

    def check(code) -> str | None:
        text = out.read_text()
        if code != 0:
            return f"spectrum exited {code}"
        lines = text.splitlines()
        header = "x,z," + ",".join(f"e{i}" for i in range((1 << n) + 1)) + ",gap01"
        if lines[0] != header or len(lines) != samples + 1:
            return "spectrum CSV has the wrong header or row count"
        table = np.array([line.split(",") for line in lines[1:]], dtype=np.float64)
        xs = np.linspace(0.0, 0.2, samples)
        u, k = ref.histogram(worst_case_counts(n, solution))
        want = ref.full_spectrum(u, k, xs, fixed)
        if not (np.array_equal(table[:, 0], xs) and np.all(table[:, 1] == fixed)):
            return "spectrum CSV sample points differ from the requested sweep"
        eig = table[:, 2:-1]
        err = float(np.max(np.abs(eig - want) / np.maximum(1.0, np.abs(want))))
        if err > 1e-9:
            return f"spectrum differs from the sector reference by {err:.2e}"
        if not np.allclose(table[:, -1], eig[:, 1] - eig[:, 0], rtol=1e-12, atol=1e-15):
            return "gap01 column is not e1 - e0"
        return None

    return Op(slot, "sweep", " ".join(argv[:2]), run, check)


# --- evolve ---------------------------------------------------------------


def evolve_op(dia, slot: str, diag, schedule, spec: str, slow: bool) -> Op:
    path = dia.LoopPath.default_rectangle()
    op = Op(slot, "evolve", spec, lambda: dia.evolve(diag, "unscaled", path, schedule), None)

    def check(result) -> str | None:
        err = ref.circular_distance(result.geometric_phase_estimate, math.pi)
        op.facts = {"ground_fidelity": result.ground_fidelity, "phase_err_rad": err}
        if result.max_norm_drift > 1e-6:
            return f"norm drift {result.max_norm_drift:.2e}"
        if slow and not (result.ground_fidelity >= SLOW_FIDELITY and err <= SLOW_PHASE_ERR):
            return f"slow traversal: fidelity {result.ground_fidelity:.5f}, phase error {err:.3f} rad"
        if not slow and result.ground_fidelity >= SLOW_FIDELITY:
            return f"fast traversal stayed adiabatic: fidelity {result.ground_fidelity:.5f}"
        return None

    op.check = check
    return op


# --- workloads ------------------------------------------------------------


def _oracle_small(dia, rng, out: Path) -> list[Op]:
    # A4 mix: one decide per n = 3..8 with m uniform in 1..5n.
    ops = []
    for n in range(3, 9):
        m = int(rng.integers(1, 5 * n + 1))
        ops.append(decide_cnf(dia, f"decide n={n}", n, random_clauses(rng, n, m)))
    return ops


def _search(dia, rng, out: Path) -> list[Op]:
    # A5 mix: soluble draws at n = 3..7 with m in 1..3n, then two insoluble
    # inputs, the all-ones worst case and a 10n-clause draw that came out insoluble.
    ops = []
    for n in range(3, 8):
        while True:
            clauses = random_clauses(rng, n, int(rng.integers(1, 3 * n + 1)))
            counts = ref.violation_counts(n, clauses)
            if np.any(counts == 0):
                break
        text = dimacs(n, clauses)
        diag = dia.violation_diagonal(dia.parse_dimacs(text))
        ops.append(search_op(dia, f"search n={n}", n, counts, diag, text))
    n = int(rng.integers(3, 8))
    spec = f"wc:n={n},sol=None"
    ops.append(search_op(dia, "search insoluble worst case", n, worst_case_counts(n, None),
                         dia.worst_case_diagonal(n), spec))
    n = int(rng.integers(3, 8))
    while True:
        clauses = random_clauses(rng, n, 10 * n)
        counts = ref.violation_counts(n, clauses)
        if not np.any(counts == 0):
            break
    text = dimacs(n, clauses)
    ops.append(search_op(dia, "search insoluble draw", n, counts,
                         dia.violation_diagonal(dia.parse_dimacs(text)), text))
    return ops


def _wide(dia, rng, out: Path) -> list[Op]:
    # 2**16 states: cost per point scales with the diagonal, not the point count.
    n = WIDE_N
    m = int(round(4.26 * n))
    return [
        decide_worst_case(dia, "decide wc planted", n, int(rng.integers(1 << n))),
        decide_worst_case(dia, "decide wc insoluble", n, None),
        decide_cnf(dia, "decide random 4.26n", n, random_clauses(rng, n, m)),
        gapscan_op(dia, "gapscan wc n=16", n, int(rng.integers(1 << n)), out / "gapscan.json"),
        sweep_op(dia, "sweep wc n=10", SWEEP_N, int(rng.integers(1 << SWEEP_N)), out / "sweep.csv"),
    ]


def _adiabatic(dia, rng, out: Path) -> list[Op]:
    # A7 settings on the n=3 worst case; the planted index comes from the seed.
    solution = int(rng.integers(1 << ADIABATIC_N))
    diag = dia.worst_case_diagonal(ADIABATIC_N, solution)
    spec = f"wc:n={ADIABATIC_N},sol={solution}"
    slow = dia.Schedule(1e3, "gap_adaptive", steps=2000)
    fast = dia.Schedule(10.0, "uniform", steps=2000)
    return [
        evolve_op(dia, "evolve slow adaptive", diag, slow, spec + " T=1e3 gap_adaptive", True),
        evolve_op(dia, "evolve fast uniform", diag, fast, spec + " T=10 uniform", False),
    ]


_BUILDERS = {"oracle-small": _oracle_small, "search": _search, "wide": _wide, "adiabatic": _adiabatic}


def build(name: str, seed: int, dia, out: Path) -> Workload:
    """Generate the seeded rounds of one workload."""

    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = rng_for(name, seed)
    rounds = [_BUILDERS[name](dia, rng, out) for _ in range(POOL_ROUNDS[name])]
    return Workload(name, rounds, TRACE_ROUNDS[name])
