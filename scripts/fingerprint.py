"""Fingerprint the benchmark's answers: one digest and one call count per workload and seed.

    python scripts/fingerprint.py [--seed 7 --seed 11]

For each workload and seed this builds the op pool through
``perfbench/workloads.py``, runs every op once to warm up, then runs the
pool again.  On that second pass it feeds every op's result into one
SHA-256 (dataclass fields by name, floats by their hex form, arrays by
dtype, shape and bytes), together with the op's stdout and the files the
command-line ops write, and counts the C-function calls each op makes
(``sys.setprofile`` ``c_call`` events).  It prints one line per workload
and seed:

    oracle-small seed=7 sha256=<hex> c_calls_per_op=<count>

A last line digests a fixed set of command lines run through
``diaboli.cli.main``: every subcommand under every variant on a ``wc:``
source and on a five-variable CNF file, plus usage, domain and argparse
errors.  It covers each command's exit code, stdout, stderr and the bytes
of every file it writes:

    cli commands=<count> sha256=<hex>

Two runs of one commit print identical lines.  To check that a change
keeps every answer, run the script in a checkout of each commit and
compare the lines.  It imports the package from the ``src`` and the
workloads from the ``perfbench`` next to it, and writes only to a
temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEEDS = (7, 11)


def _feed(digest, value) -> None:
    """Feed one value into ``digest``: its type, then its contents."""

    digest.update(type(value).__qualname__.encode() + b":")
    if isinstance(value, (np.ndarray, np.generic)):
        array = np.ascontiguousarray(value)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    elif value is None or isinstance(value, (bool, int, str)):
        digest.update(repr(value).encode())
    elif isinstance(value, bytes):
        digest.update(value)
    elif isinstance(value, float):
        digest.update(value.hex().encode())
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            digest.update(f.name.encode() + b"=")
            _feed(digest, getattr(value, f.name))
    elif isinstance(value, tuple):
        digest.update(str(len(value)).encode())
        for item in value:
            _feed(digest, item)
    else:
        raise TypeError(f"no digest rule for a {type(value).__qualname__}")
    digest.update(b";")


def _run(op, out: Path) -> tuple[object, str, int]:
    """Run one op with a fresh output directory: its result, its stdout and its C-function calls."""

    for path in out.iterdir():
        path.unlink()
    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        if event == "c_call":
            calls += 1

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        sys.setprofile(count)
        try:
            result = op.run()
        finally:
            sys.setprofile(None)
    return result, stdout.getvalue(), calls


def fingerprint(name: str, seed: int, dia, workloads) -> tuple[str, float]:
    """The digest over one pool's second pass, and its C-function calls per op."""

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        ops = [op for ops in workloads.build(name, seed, dia, out).rounds for op in ops]
        for op in ops:
            _run(op, out)
        digest, calls = hashlib.sha256(), 0
        for op in ops:
            result, stdout, op_calls = _run(op, out)
            calls += op_calls
            _feed(digest, (op.slot, op.spec, result, stdout))
            for path in sorted(out.iterdir()):
                _feed(digest, (path.name, path.read_bytes()))
    return digest.hexdigest(), calls / len(ops)


CNF = """c a soluble instance whose violation counts take five values
p cnf 5 12
1 2 3 0
-1 2 -4 0
2 -3 5 0
-2 4 5 0
1 -4 -5 0
-1 -2 3 0
3 4 -5 0
-3 -4 1 0
1 2 -5 0
2 3 4 0
1 3 5 0
-1 -3 -5 0
"""

# Each command fails before any output file is written: usage errors exit 1, failures of the library 2.
ERROR_COMMANDS = (
    [],
    ["spectrum"],
    ["bogus", "wc:n=3,sol=2"],
    ["berry", "wc:n=3,sol=2", "--variant", "bogus"],
    ["berry", "wc:n=3,sol=2", "--samples-per-edge", "0"],
    ["evolve", "wc:n=3,sol=2", "--time", "-1"],
    ["evolve", "wc:n=3,sol=2", "--time", "10", "--steps", "50"],
    ["solve", "wc:n=3,sol=2", "--bogus"],
    ["predict-gap", "wc:n=3,sol=2", "--z", "nan"],
    ["spectrum", "wc:n=3,sol=2", "--sweep", "x", "--fixed", "-1", "--range", "1:0"],
    ["spectrum", "wc:n=3,sol=2", "--sweep", "x", "--fixed", "-1", "--range", "a:b"],
    ["spectrum", "wc:n=x", "--sweep", "x", "--fixed", "-1", "--range", "a:b"],  # the source is read first
    ["solve", "wc:n=x"],
    ["solve", "wc:n=3,sol=x"],
    ["solve", "wc:sol=1"],
    ["solve", "wc:n=3,n=4"],
    ["solve", "wc:n=3,foo=1"],
    ["solve", "wc:n3"],
    ["solve", "missing.cnf"],
    ["solve", "wc:n=3,sol=8"],
    ["solve", "wc:n=0"],
    ["solve", "bad.cnf"],
    ["solve", "wc:n=3,sol=2", "--out", "missing/solve.json"],
)


# The output-file flags of each subcommand.
OUTPUT_FLAGS = {
    "spectrum": ("out",),
    "berry": ("out", "transport-csv"),
    "predict-gap": ("out",),
    "evolve": ("out", "summary"),
    "solve": ("out",),
}


def _cli_commands() -> list[list[str]]:
    """The command lines ``cli_fingerprint`` runs: each subcommand and variant on two sources, then the errors."""

    commands = []
    for source in ("wc:n=3,sol=2", "instance.cnf"):
        for variant in ("unscaled", "z_scaled", "x_scaled"):
            common = [source, "--variant", variant]
            for argv in (
                ["spectrum", *common, "--sweep", "x", "--fixed", "-1", "--range", "-1:1", "--samples", "5"],
                ["spectrum", *common, "--sweep", "z", "--fixed", "0.3", "--range", "-1:1", "--samples", "4"],
                ["berry", *common, "--samples-per-edge", "16"],
                ["predict-gap", *common, "--z", "-1"],
                ["evolve", *common, "--time", "50", "--steps", "200"],
                ["evolve", *common, "--time", "5", "--steps", "100", "--profile", "uniform"],
                ["solve", *common],
            ):
                if source.startswith("wc:"):  # the worst-case runs write every output file, the CNF runs to stdout
                    argv += [arg for flag in OUTPUT_FLAGS[argv[0]] for arg in (f"--{flag}", f"{flag}.out")]
                commands.append(argv)
    commands.append(["solve", "instance.cnf", "--oracle", "brute"])
    return commands + list(ERROR_COMMANDS)


def cli_fingerprint(cli) -> tuple[str, int]:
    """The digest over every command of ``_cli_commands``, run in a fresh directory, and their number."""

    commands = _cli_commands()
    digest, cwd = hashlib.sha256(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        inputs = {"instance.cnf": CNF, "bad.cnf": "p cnf 3 1\n1 2 0\n"}
        for name, text in inputs.items():
            Path(tmp, name).write_text(text)
        os.chdir(tmp)  # output paths and the messages naming them stay relative
        try:
            for argv in commands:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(argv)
                _feed(digest, (tuple(argv), code, stdout.getvalue(), stderr.getvalue()))
                for path in sorted(Path(tmp).iterdir()):
                    if path.name not in inputs:
                        _feed(digest, (path.name, path.read_bytes()))
                        path.unlink()
        finally:
            os.chdir(cwd)
    return digest.hexdigest(), len(commands)


def main(argv: list[str] | None = None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import diaboli
    import diaboli.cli  # noqa: F401 - the command-line ops call diaboli.cli.main
    import workloads

    if Path(diaboli.__file__).resolve().parent != ROOT / "src" / "diaboli":
        raise SystemExit(f"diaboli imported from {diaboli.__file__}, not from {ROOT / 'src'}")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append", help="repeatable; default 7 and 11")
    args = parser.parse_args(argv)
    for name in workloads.NAMES:
        for seed in args.seed or DEFAULT_SEEDS:
            sha, per_op = fingerprint(name, seed, diaboli, workloads)
            print(f"{name} seed={seed} sha256={sha} c_calls_per_op={per_op:.1f}", flush=True)
    sha, count = cli_fingerprint(diaboli.cli)
    print(f"cli commands={count} sha256={sha}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
