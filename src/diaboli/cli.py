"""Command-line front end.

Subcommands: spectrum, berry, predict-gap, evolve, solve.
Instances come either from a DIMACS CNF file or from the synthetic
worst-case family written as ``wc:n=<vars>,sol=<index|none>``.

Outputs are deterministic: CSV floats use %.17g, JSON keys are sorted,
and identical invocations produce byte-identical files.  Exit codes:
0 success, 1 usage error, 2 any numerical or module failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TextIO

import numpy as np

from .adiabatic import Schedule, evolution_csv, evolve
from .eigensolver import lowest_levels
from .eigensolver import eigen_arrowhead  # noqa: F401 - perfbench/tracer.py wraps this module-level name
from .errors import DiaboliError
from .hamiltonian import VARIANTS
from .hamiltonian import build  # noqa: F401 - perfbench/tracer.py wraps this module-level name
from .holonomy import DEFAULT_SAMPLES_PER_EDGE, LoopPath, berry_phase, transport_csv
from .instance import ViolationDiagonal, parse_dimacs, violation_diagonal, worst_case_diagonal
from .perturbation import prediction_report
from .search import SearchTrace, brute_force_oracle, solve


class UsageError(Exception):
    """Bad command line or unusable input specification."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise UsageError(message)


def _parse_source(spec: str) -> ViolationDiagonal:
    if spec.startswith("wc:"):
        fields: dict[str, str] = {}
        for chunk in spec[3:].split(","):
            if "=" not in chunk:
                raise UsageError(f"bad worst-case field {chunk!r}; want wc:n=<vars>,sol=<index|none>")
            key, _, value = chunk.partition("=")
            key = key.strip()
            if key in fields:
                raise UsageError(f"worst-case field {key!r} given more than once")
            fields[key] = value.strip()
        if "n" not in fields:
            raise UsageError("worst-case source needs n=<vars>")
        try:
            n = int(fields["n"])
        except ValueError as exc:
            raise UsageError(f"bad variable count {fields['n']!r}") from exc
        sol_text = fields.get("sol", "none")
        solution: int | None
        if sol_text == "none":
            solution = None
        else:
            try:
                solution = int(sol_text)
            except ValueError as exc:
                raise UsageError(f"bad solution index {sol_text!r}") from exc
        unknown = set(fields) - {"n", "sol"}
        if unknown:
            raise UsageError(f"unknown worst-case fields: {sorted(unknown)}")
        return worst_case_diagonal(n, solution)
    path = Path(spec)
    if not path.is_file():
        raise UsageError(f"no such instance file: {spec}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read instance file {spec}: {exc}") from exc
    return violation_diagonal(parse_dimacs(text))


def _parse_range(text: str) -> tuple[float, float]:
    lo_text, sep, hi_text = text.partition(":")
    if not sep:
        raise UsageError(f"range must be written lo:hi, got {text!r}")
    try:
        lo, hi = float(lo_text), float(hi_text)
    except ValueError as exc:
        raise UsageError(f"non-numeric range {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"range ends must be finite, got {text!r}")
    if not lo < hi:
        raise UsageError(f"range must satisfy lo < hi, got {text!r}")
    return lo, hi


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text!r}")
        return value

    return parse


@contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """Standard output, or the file ``out`` opened for writing.

    The file gets a 1 MiB buffer, so rows longer than the default buffer
    do not go out one write call each.
    """

    if out is None:
        yield sys.stdout
    else:
        with open(out, "w", buffering=1 << 20) as stream:
            yield stream


def _emit(text: str, out: str | None) -> None:
    with _output(out) as stream:
        stream.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cmd_spectrum(args: argparse.Namespace) -> int:
    diag = _parse_source(args.source)
    lo, hi = _parse_range(args.range)
    values = np.linspace(lo, hi, args.samples)
    xs, zs = (values, args.fixed) if args.sweep == "x" else (args.fixed, values)
    xs, zs = np.broadcast_arrays(xs, zs)
    levels = lowest_levels(diag, args.variant, xs, zs)
    runs, repeats = levels.runs()
    gaps = levels.level(1) - levels.level(0)
    names = ",".join(f"e{i}" for i in range(diag.dimension + 1))
    # Rows are written as they are formatted: at n = 16 each is about 1 MB.
    counts = repeats.tolist()
    with _output(args.out) as stream:
        stream.write("x,z," + names + ",gap01\n")
        for x, z, row, gap in zip(xs.tolist(), zs.tolist(), runs.tolist(), gaps.tolist()):
            # Each distinct value is formatted once; a deflated body level repeats its string.
            eigs = "".join(f"{e:.17g}," * r for e, r in zip(row, counts))
            stream.write(f"{x:.17g},{z:.17g},{eigs}{gap:.17g}\n")
    return 0


def _cmd_berry(args: argparse.Namespace) -> int:
    diag = _parse_source(args.source)
    path = LoopPath.default_rectangle(samples_per_edge=args.samples_per_edge)
    result = berry_phase(diag, args.variant, path, collect_log=args.transport_csv is not None)
    if args.transport_csv is not None:
        _emit(transport_csv(result), args.transport_csv)
    _emit(_json_text(result.to_dict()), args.out)
    return 0


def _cmd_predict_gap(args: argparse.Namespace) -> int:
    diag = _parse_source(args.source)
    _emit(_json_text(prediction_report(diag, args.z, args.variant)), args.out)
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    diag = _parse_source(args.source)
    profile = "gap_adaptive" if args.profile == "adaptive" else args.profile
    schedule = Schedule(total_time=args.time, speed_profile=profile, steps=args.steps)
    path = LoopPath.default_rectangle()
    result = evolve(diag, args.variant, path, schedule, collect_log=args.out is not None)
    if args.out is not None:
        _emit(evolution_csv(result), args.out)
    summary = {
        "total_time": result.total_time,
        "speed_profile": result.speed_profile,
        "steps": result.steps,
        "ground_fidelity": result.ground_fidelity,
        "dynamical_phase": result.dynamical_phase,
        "total_phase": result.total_phase,
        "geometric_phase_estimate": result.geometric_phase_estimate,
        "max_norm_drift": result.max_norm_drift,
    }
    _emit(_json_text(summary), args.summary)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    diag = _parse_source(args.source)
    oracle = brute_force_oracle if args.oracle == "brute" else None
    trace: SearchTrace = solve(diag, args.variant, oracle)
    _emit(_json_text(trace.to_dict()), args.out)
    return 0


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="diaboli", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser) -> None:
        p.add_argument("source", help="DIMACS CNF path or wc:n=<vars>,sol=<index|none>")
        p.add_argument("--variant", choices=VARIANTS, default="unscaled")
        p.add_argument("--out", default=None, help="output file (default: stdout)")

    p = sub.add_parser("spectrum", help="sweep one parameter and dump all eigenvalues as CSV")
    add_common(p)
    p.add_argument("--sweep", choices=("x", "z"), required=True)
    p.add_argument("--fixed", type=_finite_float, required=True, help="value of the non-swept parameter")
    p.add_argument("--range", required=True, help="sweep range, lo:hi")
    p.add_argument("--samples", type=_int_at_least(1), default=101)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("berry", help="transport the ground state around the standard loop")
    add_common(p)
    p.add_argument("--samples-per-edge", type=_int_at_least(1), default=DEFAULT_SAMPLES_PER_EDGE)
    p.add_argument("--transport-csv", default=None, help="also write the per-step transport log")
    p.set_defaults(func=_cmd_berry)

    p = sub.add_parser("predict-gap", help="second-order gap location vs numeric sweep")
    add_common(p)
    p.add_argument("--z", type=_finite_float, default=-1.0)
    p.set_defaults(func=_cmd_predict_gap)

    p = sub.add_parser("evolve", help="time evolution once around the loop")
    add_common(p)
    p.add_argument("--time", type=_positive_float, required=True, help="total traversal time")
    p.add_argument("--profile", choices=("uniform", "adaptive"), default="adaptive")
    p.add_argument("--steps", type=_int_at_least(100), default=2000)
    p.add_argument("--summary", default=None, help="summary JSON file (default: stdout)")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("solve", help="bisection search for a satisfying assignment")
    add_common(p)
    p.add_argument("--oracle", choices=("berry", "brute"), default="berry")
    p.set_defaults(func=_cmd_solve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DiaboliError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
