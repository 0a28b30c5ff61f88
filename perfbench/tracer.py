"""Spans around the calls into each layer, recorded from outside the package.

The tracer replaces names in module namespaces with thin wrappers: the
package names the benchmark calls, and the names each module imports from
the layer below (``holonomy.eigen_arrowhead``, ``search.restrict``,
``adiabatic.build`` ...).  A call made through a wrapped name records a
span (name, layer, start, end, parent, op id, thread).  Spans stay in
memory until the run ends.  ``uninstall`` puts every original back.

Self time is a span's duration minus the part of it
that its child spans cover.  Worker threads of the program get the span
open in the main thread as their parent, and an instant during which
several threads run leaf spans is shared equally among those spans, so
the self times of one op always add up to its wall time.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("instance", "hamiltonian", "eigensolver", "holonomy", "perturbation", "adiabatic", "search", "cli")
# Layers whose ``calls`` counts entries from another layer; hamiltonian and
# eigensolver count builds, restrictions and solves instead.
_ENTRY_COUNTED = ("instance", "holonomy", "perturbation", "adiabatic", "search", "cli")

# Every per-layer metric a traced run reports, with its unit.
METRICS = {
    "instance.calls": "count", "instance.busy_s": "s", "instance.self_s": "s", "instance.entries": "count",
    "hamiltonian.build_calls": "count", "hamiltonian.restrict_calls": "count",
    "hamiltonian.busy_s": "s", "hamiltonian.self_s": "s", "hamiltonian.body_entries": "count",
    "eigensolver.calls": "count", "eigensolver.busy_s": "s", "eigensolver.self_s": "s",
    "eigensolver.entries_solved": "count", "eigensolver.gapscan_self_s": "s",
    "holonomy.calls": "count", "holonomy.busy_s": "s", "holonomy.self_s": "s",
    "holonomy.points_solved": "count", "holonomy.refined_points": "count", "holonomy.useful_ratio": "ratio",
    "perturbation.calls": "count", "perturbation.busy_s": "s", "perturbation.self_s": "s",
    "adiabatic.calls": "count", "adiabatic.busy_s": "s", "adiabatic.self_s": "s", "adiabatic.steps": "count",
    "adiabatic.gap_solves": "count", "adiabatic.eigh_calls": "count", "adiabatic.eigh_busy_s": "s",
    "search.calls": "count", "search.busy_s": "s", "search.self_s": "s",
    "search.oracle_calls": "count", "search.oracle_busy_s": "s",
    "cli.calls": "count", "cli.busy_s": "s", "cli.self_s": "s",
    "bench.self_s": "s", "bench.op_s": "s",
    "trace.overhead_frac": "ratio",
}

_dim = lambda args, kwargs, result: result.dimension  # noqa: E731
_body = lambda args, kwargs, result: result.body_diag.size  # noqa: E731
_solved = lambda args, kwargs, result: args[0].dimension  # noqa: E731
_refined = lambda args, kwargs, result: result.refined_points  # noqa: E731
_length = lambda args, kwargs, result: len(result)  # noqa: E731
_steps = lambda args, kwargs, result: result.steps  # noqa: E731
_oracle = lambda args, kwargs, result: result.total_oracle_calls  # noqa: E731

# (module, attribute path, layer or None to inherit the caller's, counter, measure)
TARGETS = (
    # names the benchmark calls
    ("diaboli", "parse_dimacs", "instance", None, None),
    ("diaboli", "violation_diagonal", "instance", "instance.entries", _dim),
    ("diaboli", "worst_case_diagonal", "instance", "instance.entries", _dim),
    ("diaboli", "berry_phase", "holonomy", "holonomy.refined_points", _refined),
    ("diaboli", "solve", "search", "search.oracle_calls", _oracle),
    ("diaboli", "evolve", "adiabatic", "adiabatic.steps", _steps),
    ("diaboli.cli", "main", "cli", None, None),
    # command line -> layers
    ("diaboli.cli", "parse_dimacs", "instance", None, None),
    ("diaboli.cli", "violation_diagonal", "instance", "instance.entries", _dim),
    ("diaboli.cli", "worst_case_diagonal", "instance", "instance.entries", _dim),
    ("diaboli.cli", "build", "hamiltonian", "hamiltonian.body_entries", _body),
    ("diaboli.cli", "eigen_arrowhead", "eigensolver", "eigensolver.entries_solved", _solved),
    ("diaboli.cli", "berry_phase", "holonomy", "holonomy.refined_points", _refined),
    ("diaboli.cli", "transport_csv", "holonomy", None, None),
    ("diaboli.cli", "prediction_report", "perturbation", None, None),
    ("diaboli.cli", "evolve", "adiabatic", "adiabatic.steps", _steps),
    ("diaboli.cli", "evolution_csv", "adiabatic", None, None),
    ("diaboli.cli", "solve", "search", "search.oracle_calls", _oracle),
    # search -> hamiltonian, holonomy
    ("diaboli.search", "restrict", "hamiltonian", "hamiltonian.body_entries", _dim),
    ("diaboli.search", "SubspaceMask", "hamiltonian", None, None),
    ("diaboli.search", "solubility", "holonomy", None, None),
    # holonomy -> hamiltonian, eigensolver; its own loop sampling and transport
    ("diaboli.holonomy", "build", "hamiltonian", "hamiltonian.body_entries", _body),
    ("diaboli.holonomy", "eigen_arrowhead", "eigensolver", "eigensolver.entries_solved", _solved),
    ("diaboli.holonomy", "berry_phase", "holonomy", "holonomy.refined_points", _refined),
    ("diaboli.holonomy", "LoopPath.sample_points", "holonomy", "holonomy.loop_points", _length),
    # perturbation -> hamiltonian, eigensolver
    ("diaboli.perturbation", "build", "hamiltonian", "hamiltonian.body_entries", _body),
    ("diaboli.perturbation", "eigen_arrowhead", "eigensolver", "eigensolver.entries_solved", _solved),
    ("diaboli.perturbation", "min_gap_on_segment", "eigensolver", None, None),
    ("diaboli.perturbation", "_group_body", "eigensolver", None, None),
    # eigensolver -> hamiltonian; the solves inside its own gap scan
    ("diaboli.eigensolver", "build", "hamiltonian", "hamiltonian.body_entries", _body),
    ("diaboli.eigensolver", "eigen_arrowhead", "eigensolver", "eigensolver.entries_solved", _solved),
    # adiabatic -> hamiltonian, eigensolver, numpy
    ("diaboli.adiabatic", "build", "hamiltonian", "hamiltonian.body_entries", _body),
    ("diaboli.adiabatic", "eigen_arrowhead", "eigensolver", "eigensolver.entries_solved", _solved),
    ("diaboli.hamiltonian", "ArrowheadHamiltonian.to_dense", "hamiltonian", None, None),
    ("numpy.linalg", "eigh", None, None, None),
)

# Span record fields.
NAME, LAYER, START, END, PARENT, OP, THREAD, MEASURE = range(8)


class Tracer:
    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.spans: dict[int, list] = {}
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self._main_stack: list[int] = []
        self._op: int | None = None

    # -- installation --------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for module_name, path, layer, counter, measure in self.targets:
            name = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, layer, counter, measure))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, layer, counter, measure):
        tracer = self
        spans = self.spans

        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._main_stack[-1]
            sid = next(tracer._ids)
            rec = [name, layer or spans[parent][LAYER], time.perf_counter(), None, parent,
                   tracer._op, threading.get_ident(), None]
            spans[sid] = rec
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if counter is not None:
                rec[MEASURE] = (counter, measure(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def op(self, op_id: int, kind: str):
        """Span of one benchmark op; spans are recorded only inside it."""

        self._main_stack = self._stack()
        sid = next(self._ids)
        rec = [f"op.{kind}", "bench", time.perf_counter(), None, None, op_id, threading.get_ident(), None]
        self.spans[sid] = rec
        self._main_stack.append(sid)
        self._op = op_id
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._op = None
            self._main_stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as handle:
            handle.write("id,name,layer,start,end,parent,op,thread\n")
            for sid, rec in self.spans.items():
                parent = "" if rec[PARENT] is None else rec[PARENT]
                handle.write(f"{sid},{rec[NAME]},{rec[LAYER]},{rec[START]!r},{rec[END]!r},"
                             f"{parent},{rec[OP]},{rec[THREAD]}\n")


# -- attribution --------------------------------------------------------


def _thread_segments(sids: list[int], spans: dict[int, list]) -> list[tuple[float, float, int]]:
    """Split one thread's nested spans into (start, end, innermost span) pieces."""

    segments = []
    stack: list[int] = []
    cursor = 0.0

    def close_until(t: float) -> None:
        nonlocal cursor
        while stack and spans[stack[-1]][END] <= t:
            top = stack.pop()
            end = spans[top][END]
            if end > cursor:
                segments.append((cursor, end, top))
            cursor = end

    for sid in sorted(sids, key=lambda s: (spans[s][START], s)):
        start = spans[sid][START]
        close_until(start)
        if stack and start > cursor:
            segments.append((cursor, start, stack[-1]))
        cursor = start
        stack.append(sid)
    close_until(float("inf"))
    return segments


def self_shares(sids: list[int], spans: dict[int, list]) -> dict[int, float]:
    """Self time of every span of one op; the values add up to the op's wall time."""

    by_thread: dict[int, list[int]] = defaultdict(list)
    for sid in sids:
        by_thread[spans[sid][THREAD]].append(sid)
    share: dict[int, float] = defaultdict(float)
    per_thread = [_thread_segments(group, spans) for group in by_thread.values()]
    if len(per_thread) == 1:
        for start, end, sid in per_thread[0]:
            share[sid] += end - start
        return share

    def ancestors(sid: int) -> set[int]:
        seen = set()
        parent = spans[sid][PARENT]
        while parent is not None:
            seen.add(parent)
            parent = spans[parent][PARENT]
        return seen

    bounds = sorted({t for segs in per_thread for seg in segs for t in seg[:2]})
    pointers = [0] * len(per_thread)
    for a, b in zip(bounds, bounds[1:]):
        active = []
        for i, segs in enumerate(per_thread):
            while pointers[i] < len(segs) and segs[pointers[i]][1] <= a:
                pointers[i] += 1
            if pointers[i] < len(segs) and segs[pointers[i]][0] <= a:
                active.append(segs[pointers[i]][2])
        covered = set().union(*(ancestors(s) for s in active)) if len(active) > 1 else set()
        leaves = [s for s in active if s not in covered]
        for sid in leaves:
            share[sid] += (b - a) / len(leaves)
    return share


def summarize(spans: dict[int, list]) -> tuple[dict[str, float], float]:
    """Per-layer metrics over all recorded ops, and the worst per-op residual
    between the op's wall time and the sum of its self times."""

    by_op: dict[int, list[int]] = defaultdict(list)
    for sid, rec in spans.items():
        by_op[rec[OP]].append(sid)
    shares: dict[int, float] = {}
    op_total = 0.0
    residual = 0.0
    for sids in by_op.values():
        part = self_shares(sids, spans)
        root = next(s for s in sids if spans[s][PARENT] is None)
        wall = spans[root][END] - spans[root][START]
        op_total += wall
        residual = max(residual, abs(sum(part.values()) - wall))
        shares.update(part)

    m: dict[str, float] = defaultdict(float)

    def short(rec) -> str:
        return rec[NAME].rsplit(".", 1)[-1]

    def under(sid: int, name: str) -> bool:
        parent = spans[sid][PARENT]
        while parent is not None:
            if short(spans[parent]) == name:
                return True
            parent = spans[parent][PARENT]
        return False

    for sid, rec in spans.items():
        layer, name = rec[LAYER], short(rec)
        parent_layer = spans[rec[PARENT]][LAYER] if rec[PARENT] is not None else None
        m[f"{layer}.self_s"] += shares.get(sid, 0.0)
        entry = parent_layer != layer
        if entry and layer != "bench":
            m[f"{layer}.busy_s"] += rec[END] - rec[START]
            if layer in _ENTRY_COUNTED:
                m[f"{layer}.calls"] += 1
        if rec[MEASURE] is not None:
            m[rec[MEASURE][0]] += rec[MEASURE][1]
        if name == "build":
            m["hamiltonian.build_calls"] += 1
        elif name == "restrict":
            m["hamiltonian.restrict_calls"] += 1
        elif name == "eigen_arrowhead":
            m["eigensolver.calls"] += 1
            if parent_layer == "holonomy":
                m["holonomy.points_solved"] += 1
            if parent_layer == "adiabatic":
                m["adiabatic.gap_solves"] += 1
        elif name == "eigh" and layer == "adiabatic":
            m["adiabatic.eigh_calls"] += 1
            m["adiabatic.eigh_busy_s"] += rec[END] - rec[START]
        elif name == "solubility" and parent_layer == "search":
            m["search.oracle_busy_s"] += rec[END] - rec[START]
        if layer == "eigensolver" and (name == "min_gap_on_segment" or under(sid, "min_gap_on_segment")):
            m["eigensolver.gapscan_self_s"] += shares.get(sid, 0.0)

    points = m["holonomy.points_solved"]
    m["holonomy.useful_ratio"] = m.pop("holonomy.loop_points", 0.0) / points if points else 0.0
    m["bench.op_s"] = op_total
    return {key: m[key] for key in METRICS if key != "trace.overhead_frac"}, residual
