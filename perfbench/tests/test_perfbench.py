"""Checks on the benchmark itself: seeded inputs, answer checks, tracer hygiene."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

dia = run.load_program()


def _specs(name, seed, out):
    wl = workloads.build(name, seed, dia, out)
    return [[op.spec for op in ops] for ops in wl.rounds]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    first = _specs(name, 11, tmp_path)
    assert first == _specs(name, 11, tmp_path)
    if name != "adiabatic":  # its only seeded input is one of 8 planted indices
        assert first != _specs(name, 12, tmp_path)


def _result(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


class _Says:
    def __init__(self, sign):
        self.holonomy_sign = sign
        self.refined_points = 0


def test_wrong_phase_answer_fails_the_traced_run(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(dia, "berry_phase", lambda diag, *a, **k: _Says(+1))  # "insoluble" always
    code = run.main(["--workload", "oracle-small", "--seed", "3", "--trace", "1"])
    result = _result(capsys)
    assert code == 1 and result["correct"] is False and result["failed"] > 0


class _Trace:
    result = None
    oracle_calls = 0
    total_oracle_calls = 1


def test_wrong_search_answer_fails_the_timed_run(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(dia, "solve", lambda diag, *a, **k: _Trace())  # "insoluble" always
    code = run.main(["--workload", "search", "--seed", "3", "--seconds", "0.1", "--trace", "0"])
    result = _result(capsys)
    assert code == 1 and result["correct"] is False and result["failed"] >= 5


def _bound_names():
    names = []
    for module_name, path, *_ in tracing.TARGETS:
        owner = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        names.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
    return names


def test_tracer_restores_every_name_and_reports_absent_ones():
    before = _bound_names()
    tracer = tracing.Tracer(tracing.TARGETS + (("diaboli.search", "renamed_away", "search", None, None),))
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not original for owner, attr, original in before)
    finally:
        tracer.uninstall()
    assert tracer.absent == ["diaboli.search.renamed_away"]
    assert all(
        (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)) is original
        for owner, attr, original in before
    )


def test_self_times_add_up_to_each_op_span(tmp_path):
    clauses = [(1, -2, 3), (-1, 2, 4), (2, 3, -4)]
    text = workloads.dimacs(4, clauses)
    csv = tmp_path / "sweep.csv"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op(0, "decide"):
            dia.berry_phase(dia.violation_diagonal(dia.parse_dimacs(text)))
        with tracer.op(1, "sweep"):
            assert dia.cli.main(["spectrum", "wc:n=3,sol=1", "--sweep", "x", "--fixed", "-1",
                                 "--range", "0:0.2", "--samples", "40", "--out", str(csv)]) == 0
        with tracer.op(2, "search"):
            dia.solve(dia.violation_diagonal(dia.parse_dimacs(text)))
    finally:
        tracer.uninstall()
    values, residual = tracing.summarize(tracer.spans)
    assert residual < 1e-9
    layers = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + values["bench.self_s"] == pytest.approx(values["bench.op_s"], rel=1e-9)
    assert values["search.oracle_calls"] == 5 and values["hamiltonian.restrict_calls"] == 4
    assert values["holonomy.calls"] == 6 and values["cli.calls"] == 1


def test_threads_share_the_instants_they_overlap():
    # op 0 in thread 1 from 0 to 10; its child runs 2..8 with a worker-thread
    # child of its own at 4..6 overlapping a second worker span at 5..7.
    spans = {
        0: ["op.x", "bench", 0.0, 10.0, None, 0, 1, None],
        1: ["m.main", "cli", 2.0, 8.0, 0, 0, 1, None],
        2: ["m.eigen_arrowhead", "eigensolver", 4.0, 6.0, 1, 0, 2, None],
        3: ["m.build", "hamiltonian", 5.0, 7.0, 1, 0, 3, None],
    }
    share = tracing.self_shares(list(spans), spans)
    assert share[0] == pytest.approx(4.0)
    assert share[1] == pytest.approx(3.0)  # 2..4 and 7..8, when no child runs
    assert share[2] == pytest.approx(1.5)  # 4..5 alone, 5..6 shared
    assert share[3] == pytest.approx(1.5)
    assert sum(share.values()) == pytest.approx(10.0)


def test_benchmark_file_names_every_metric_the_script_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.METRICS
    tally = run.Tally()
    tally.slot_times["a"] = [0.1]
    tally.slot_kind["a"] = "decide"
    tally.attempted = 1
    metrics, _ = run.end_to_end(tally, [0.2])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in metrics.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode != 0 and done.stdout.strip() == ""
