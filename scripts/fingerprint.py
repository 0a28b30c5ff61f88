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
    return 0


if __name__ == "__main__":
    sys.exit(main())
