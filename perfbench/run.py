"""Seeded end-to-end and per-layer benchmark of the diaboli package.

    python3 perfbench/run.py --workload oracle-small --seed 7 --seconds 25 --trace 0

Runs one workload (oracle-small, search, wide, adiabatic) on inputs drawn
from the seed, checks every answer against an independent reference, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` times the ops untraced and
reports the end-to-end metrics; ``--trace 1`` runs a fixed number of
rounds untraced and then traced, and reports the per-layer metrics.  The
line before it holds the details: per-kind latencies, answer figures,
the self-time split and the machine facts.  A wrong answer makes the exit
code 1; a checkout without the package sources makes it 2, with no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
DEFAULT_SEED = 7  # the acceptance tests draw from seeds 1000+n and 2000+n
SETUP_REPEATS = 7
ENV_KEYS = ("DIABOLI_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class ProgramMissing(Exception):
    """The checkout holds no importable package sources."""


def load_program():
    """Import diaboli from the checkout's ``src`` and nowhere else."""

    init = SRC / "diaboli" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"package sources not found at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import diaboli
    import diaboli.cli  # noqa: F401 - the command-line ops call diaboli.cli.main

    if Path(diaboli.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"diaboli imported from {diaboli.__file__}, not from {SRC}")
    return diaboli


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import diaboli and generate the workload's inputs, in this process."""

    start = time.perf_counter()
    dia = load_program()
    import workloads

    workloads.build(workload, seed, dia, OUT)
    return time.perf_counter() - start


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time measured in fresh interpreters, one per repeat."""

    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def machine_facts() -> dict:
    import numpy as np

    model = None
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = None
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "env": {key: os.environ.get(key) for key in ENV_KEYS},
    }


class Tally:
    """Timed samples and failures of one pass over a workload."""

    def __init__(self) -> None:
        self.times: dict[int, float] = {}  # op index -> seconds
        self.slot_times: dict[str, list[float]] = defaultdict(list)
        self.slot_kind: dict[str, str] = {}
        self.facts: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.raised: list[str] = []
        self.wrong: list[str] = []
        self.rounds = 0

    @property
    def failed(self) -> int:
        return len(self.raised) + len(self.wrong)


def run_op(dia, op, index: int, tally: Tally, tracer=None) -> None:
    """Time one op, check its answer, and file the outcome."""

    tally.attempted += 1
    start = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.op(index, op.kind):
                out = op.run()
    except dia.DiaboliError as exc:
        tally.raised.append(f"{op.slot}: {type(exc).__name__}: {exc}")
        return
    elapsed = time.perf_counter() - start
    reason = op.check(out)
    if reason is not None:
        tally.wrong.append(f"{op.slot} [{op.spec.splitlines()[0]}]: {reason}")
        return
    tally.times[index] = elapsed
    tally.slot_times[op.slot].append(elapsed)
    tally.slot_kind[op.slot] = op.kind
    for key, value in op.facts.items():
        tally.facts[f"{op.slot}: {key}"].append(value)


def measure(dia, wl, seconds: float) -> Tally:
    """Run the workload's rounds in order for ``seconds``, and at least one whole round."""

    tally = Tally()
    start = time.perf_counter()
    index = 0
    while True:
        for op in wl.rounds[tally.rounds % len(wl.rounds)]:
            if tally.rounds >= 1 and time.perf_counter() - start >= seconds:
                return tally
            run_op(dia, op, index, tally)
            index += 1
        tally.rounds += 1


def tail(times: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""

    if len(times) < 11:
        return None
    ordered = sorted(times)
    rank = len(ordered) - 11
    return {"value": 1000.0 * ordered[rank], "percentile": 100.0 * (rank + 1) / len(ordered),
            "samples": len(ordered)}


def end_to_end(tally: Tally, setup: list[float]) -> tuple[dict, dict]:
    if not tally.slot_times:
        return {}, {"failed_frac": 1.0}
    slot_medians = {slot: statistics.median(ts) for slot, ts in tally.slot_times.items()}
    slot_means = [statistics.fmean(ts) for ts in tally.slot_times.values()]
    metrics = {
        "op_ms": {"value": 1000.0 * statistics.fmean(slot_medians.values()), "unit": "ms"},
        "ops_per_s": {"value": len(slot_means) / sum(slot_means), "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    per_kind = {}
    for kind in sorted(set(tally.slot_kind.values())):
        slots = [slot for slot, k in tally.slot_kind.items() if k == kind]
        per_kind[f"{kind}_ms"] = 1000.0 * statistics.fmean(slot_medians[s] for s in slots)
        per_kind[f"{kind}_tail_ms"] = tail([t for s in slots for t in tally.slot_times[s]])
    detail = {
        "per_kind": per_kind,
        "per_slot_ms": {slot: 1000.0 * value for slot, value in slot_medians.items()},
        "samples": sum(len(ts) for ts in tally.slot_times.values()),
        "whole_rounds": tally.rounds,
        "answer_figures": {key: statistics.median(values) for key, values in tally.facts.items()},
        "failed_frac": tally.failed / tally.attempted,
        "setup_s_repeats": setup,
    }
    return metrics, detail


def per_layer(dia, wl, seed: int) -> tuple[dict, dict, list[Tally]]:
    """Each op of a fixed number of rounds run untraced and traced; layer metrics from the latter."""

    import tracer as tracing

    plain, traced = Tally(), Tally()
    tracer = tracing.Tracer()
    ops = [op for ops in wl.rounds[: wl.trace_rounds] for op in ops]
    for index, op in enumerate(ops):
        # Alternate which pass goes first, so warm-up and drift fall on both.
        for with_trace in (False, True) if index % 2 == 0 else (True, False):
            if not with_trace:
                run_op(dia, op, index, plain)
                continue
            tracer.install()
            try:
                run_op(dia, op, index, traced, tracer)
            finally:
                tracer.uninstall()
    both = plain.times.keys() & traced.times.keys()
    overhead = sum(traced.times[i] for i in both) / sum(plain.times[i] for i in both) - 1.0 if both else 0.0
    values, residual = tracing.summarize(tracer.spans)
    values["trace.overhead_frac"] = overhead
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in tracing.METRICS.items()}
    spans_file = OUT / f"spans-{wl.name}-{seed}.csv"
    tracer.write(spans_file)
    detail = {
        "self_time_split": {layer: values[f"{layer}.self_s"] / (values["bench.op_s"] or 1.0)
                            for layer in (*tracing.LAYERS, "bench")},
        "max_op_residual_s": residual,
        "absent_names": tracer.absent,
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_file, HERE.parent),
    }
    if residual > 1e-6:
        traced.wrong.append(f"self times miss an op's wall time by {residual:.3g} s")
    return metrics, detail, [plain, traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="oracle-small, search, wide or adiabatic")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0, help="untraced measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            print(repr(setup_probe(args.workload, args.seed)))
            return 0
        dia = load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, dia, OUT)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, detail, tallies = per_layer(dia, wl, args.seed)
    else:
        setup = setup_seconds(args.workload, args.seed)
        tally = measure(dia, wl, args.seconds)
        metrics, detail = end_to_end(tally, setup)
        tallies = [tally]
    wrong = [line for t in tallies for line in t.wrong]
    raised = [line for t in tallies for line in t.raised]
    result = {
        "correct": not wrong,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": metrics,
    }
    detail.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "wrong": wrong[:10], "raised": raised[:10], "machine": machine_facts()})
    op_times = {slot: [round(1000.0 * t, 3) for t in ts] for slot, ts in tallies[-1].slot_times.items()}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result, "op_times_ms": op_times}, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
