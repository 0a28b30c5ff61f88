"""Command-line behaviour: exit codes, determinism, file outputs."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from diaboli import (
    VARIANTS,
    ParameterPoint,
    build,
    eigen_arrowhead,
    lowest_levels,
    random_instance,
    render_dimacs,
    violation_diagonal,
    worst_case_diagonal,
)
from diaboli.cli import _build_parser, main
from diaboli.hamiltonian import variant_scales

CNF = """c single soluble clause
p cnf 3 1
1 2 3 0
"""


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_spectrum_csv_matches_the_solver(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _ = run_cli(
        capsys,
        "spectrum",
        "wc:n=3,sol=0",
        "--sweep",
        "x",
        "--fixed",
        "-1.0",
        "--range",
        "0:0.2",
        "--samples",
        "5",
        "--out",
        str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,z," + ",".join(f"e{i}" for i in range(9)) + ",gap01"
    assert len(lines) == 6
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == -1.0
    spec = eigen_arrowhead(build(worst_case_diagonal(3, solution_index=0), ParameterPoint(0.0, -1.0)))
    assert first[2:11] == pytest.approx(list(spec.eigenvalues), abs=1e-15)


def test_spectrum_output_is_deterministic(tmp_path, capsys):
    argv = [
        "spectrum", "wc:n=4,sol=3", "--sweep", "z", "--fixed", "0.1",
        "--range=-1:1", "--samples", "33",
    ]
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second and len(first) > 0
    out = tmp_path / "sweep.csv"
    assert run_cli(capsys, *argv, "--out", str(out)) == (0, "")
    assert out.read_bytes() == first.encode()



def test_spectrum_rows_repeat_each_level_string(tmp_path, capsys):
    # Rows repeat a formatted value per deflated level; they match joining the
    # repeated strings one by one, byte for byte.
    argv = ["spectrum", "wc:n=10,sol=321", "--sweep", "x", "--fixed", "-1", "--range", "0:0.2", "--samples", "7"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    xs = np.linspace(0.0, 0.2, 7)
    levels = lowest_levels(worst_case_diagonal(10, 321), "unscaled", xs, np.full(7, -1.0))
    runs, repeats = levels.runs()
    assert repeats.max() == 2**10 - 2  # the count-1 level repeats
    gaps = levels.level(1) - levels.level(0)
    want = ["x,z," + ",".join(f"e{i}" for i in range(2**10 + 1)) + ",gap01"]
    for x, row, gap in zip(xs.tolist(), runs.tolist(), gaps.tolist()):
        eigs = ",".join(",".join([f"{e:.17g}"] * r) for e, r in zip(row, repeats.tolist()) if r)
        want.append(f"{x:.17g},{-1.0:.17g},{eigs},{gap:.17g}")
    assert out == "\n".join(want) + "\n"

@pytest.mark.parametrize("variant", VARIANTS)
def test_spectrum_csv_matches_per_point_solves(tmp_path, capsys, variant):
    rng = np.random.default_rng(8080)
    sweeps = (  # (swept axis, fixed value, range); each includes x = 0
        ("x", "-1", "0:0.2"),
        ("z", "0", "-1:1"),
        ("z", "0.1", "-1:1"),
    )
    for n in range(1, 11):
        planted = int(rng.integers(2**n))
        cases = [(f"wc:n={n},sol={planted}", worst_case_diagonal(n, planted))]
        if n >= 3:
            instance = random_instance(n, int(rng.integers(1, 5 * n)), rng)
            cnf = tmp_path / f"draw{n}.cnf"
            cnf.write_text(render_dimacs(instance))
            cases.append((str(cnf), violation_diagonal(instance)))
        for source, diag in cases:
            for sweep, fixed, span in sweeps:
                code, out = run_cli(
                    capsys, "spectrum", source, "--variant", variant, "--sweep", sweep,
                    "--fixed", fixed, f"--range={span}", "--samples", "9",
                )
                assert code == 0
                lines = out.splitlines()
                assert lines[0] == "x,z," + ",".join(f"e{i}" for i in range(2**n + 1)) + ",gap01"
                assert len(lines) == 10
                swept = np.linspace(*(float(v) for v in span.split(":")), 9)
                for line, value in zip(lines[1:], swept.tolist()):
                    x, z = (value, float(fixed)) if sweep == "x" else (float(fixed), value)
                    cells = line.split(",")
                    assert cells[:2] == [f"{x:.17g}", f"{z:.17g}"]
                    got = np.array(cells[2:], dtype=np.float64)
                    want = eigen_arrowhead(build(diag, ParameterPoint(x, z), variant)).eigenvalues
                    # relative to each value; a value that cancels to ~1e-17 is held to
                    # the same 1e-12 relative to the spectral radius
                    radius = float(np.max(np.abs(want)))
                    np.testing.assert_allclose(got[:-1], want, rtol=1e-12, atol=1e-12 * radius)
                    assert got[-1] == got[1] - got[0]


def sector_spectrum(diag, variant: str, x: float, z: float) -> np.ndarray:
    """Oracle: eigvalsh of the (G+1)-dim symmetric-sector matrix, plus each body level k_g - 1 times."""

    factor, divisor = variant_scales(variant, diag.dimension)
    hist = diag.histogram
    body = z / 4.0 + factor * hist.values.astype(np.float64)
    sector = np.diag(np.append(body, -z / 4.0))
    sector[:-1, -1] = sector[-1, :-1] = (x / divisor) * np.sqrt(hist.counts)
    return np.sort(np.concatenate((np.linalg.eigvalsh(sector), np.repeat(body, hist.counts - 1))))


@pytest.mark.parametrize(
    "n, argv",
    [
        (12, ["predict-gap", "--z", "0.5"]),
        (10, ["predict-gap", "--z", "1"]),
        (10, ["spectrum", "--sweep", "x", "--fixed", "0.5", "--range", "0:1e-8"]),
        # 5 samples keep the 65537-column CSV small; z = -1 and 1 alone failed before.
        (16, ["spectrum", "--sweep", "z", "--fixed", "1e-6", "--range=-1:1", "--samples", "5"]),
    ],
    ids=["gap-n12-z0.5", "gap-n10-z1", "sweep-x-n10", "sweep-z-n16"],
)
def test_scaled_hamiltonian_roots_converge(tmp_path, n, argv):
    """Roots a hair from the z_scaled poles N*u_g once ended in ConvergenceFailure."""

    out = tmp_path / "out"
    command, options = argv[0], argv[1:]
    assert main([command, f"wc:n={n},sol=0", "--variant", "z_scaled", *options, "--out", str(out)]) == 0
    diag = worst_case_diagonal(n, solution_index=0)
    if command == "predict-gap":
        report = json.loads(out.read_text())
        want = sector_spectrum(diag, "z_scaled", report["x_gap_numeric"], report["z"])
        assert report["gap_numeric"] == pytest.approx(want[1] - want[0], rel=1e-12, abs=1e-12)
        return
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == (5 if "--samples" in options else 101)
    for line in lines:
        cells = np.array(line.split(","), dtype=np.float64)
        want = sector_spectrum(diag, "z_scaled", cells[0], cells[1])
        radius = float(np.max(np.abs(want)))
        np.testing.assert_allclose(cells[2:-1], want, rtol=1e-12, atol=1e-12 * radius)


def test_seed_flag_is_gone(capsys):
    argv = ["spectrum", "wc:n=3,sol=0", "--sweep", "x", "--fixed", "-1", "--range", "0:0.2"]
    assert main(argv) == 0
    assert main(argv + ["--seed", "3"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_selftest_is_gone(capsys):
    assert main(["selftest"]) == 1
    assert "usage error" in capsys.readouterr().err


SPECTRUM = ["spectrum", "wc:n=3,sol=0", "--sweep", "x"]
EVOLVE = ["evolve", "wc:n=3,sol=0"]


@pytest.mark.parametrize(
    "argv",
    [
        ["berry", "wc:n=3,sol=0", "--samples-per-edge", "0"],
        SPECTRUM + ["--fixed", "-1", "--range", "0:0.2", "--samples", "-1"],
        SPECTRUM + ["--fixed", "-1", "--range", "0:0.2", "--samples", "0"],
        SPECTRUM + ["--fixed", "nan", "--range", "0:0.2"],
        ["predict-gap", "wc:n=3,sol=0", "--z", "nan"],
        SPECTRUM + ["--fixed", "-1", "--range", "0:inf"],
        EVOLVE + ["--time", "nan"],
        EVOLVE + ["--time", "inf"],
        EVOLVE + ["--time", "-1"],
        EVOLVE + ["--time", "100", "--steps", "0"],
        EVOLVE + ["--time", "100", "--steps", "99"],
        SPECTRUM + ["--fixed", "abc", "--range", "0:0.2"],
        SPECTRUM + ["--fixed", "-1", "--range", "0:0.2", "--samples", "1.5"],
        SPECTRUM + ["--fixed", "-1", "--range", "a:b"],
        SPECTRUM + ["--fixed", "-1", "--range", "0.2:0"],
        SPECTRUM + ["--fixed", "-1", "--range", "0.2:0.2"],
    ],
    ids=[
        "samples-per-edge-0", "samples-negative", "samples-0", "fixed-nan", "z-nan", "range-inf",
        "time-nan", "time-inf", "time-negative", "steps-0", "steps-99",
        "fixed-not-a-number", "samples-not-an-integer", "range-not-numeric", "range-reversed", "range-empty",
    ],
)
def test_bad_numbers_are_usage_errors(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: ")


def test_berry_json_and_transport_log(tmp_path, capsys):
    log = tmp_path / "transport.csv"
    code, out = run_cli(capsys, "berry", "wc:n=3,sol=5", "--transport-csv", str(log))
    assert code == 0
    payload = json.loads(out)
    assert payload["phase"] == "pi" and payload["holonomy_sign"] == -1
    assert log.read_text().startswith("step,x,z,e0,e1,overlap,cumulative_sign")

    code, out = run_cli(capsys, "berry", "wc:n=3,sol=none")
    assert code == 0
    assert json.loads(out)["phase"] == "0"


def test_predict_gap_reports_both_coefficients(capsys):
    code, out = run_cli(capsys, "predict-gap", "wc:n=7,sol=0", "--z", "-1.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["delta_a2_coeff"] == pytest.approx(-2.0)
    assert payload["delta_b2_coeff"] == pytest.approx(-252.0)
    assert payload["x_gap_predicted"] == pytest.approx(math.sqrt(1.0 / 500.0))


def test_evolve_writes_summary_and_log(tmp_path, capsys):
    summary = tmp_path / "run.json"
    log = tmp_path / "run.csv"
    code, _ = run_cli(
        capsys,
        "evolve", "wc:n=1,sol=0", "--time", "50", "--steps", "100",
        "--summary", str(summary), "--out", str(log),
    )
    assert code == 0
    payload = json.loads(summary.read_text())
    assert payload["steps"] == 100 and payload["total_time"] == 50.0
    assert 0.0 <= payload["ground_fidelity"] <= 1.0
    assert log.read_text().startswith("t,x,z,e0,e1,fidelity,norm")


def test_solve_from_dimacs_file(tmp_path, capsys):
    cnf = tmp_path / "tiny.cnf"
    cnf.write_text(CNF)
    code, out = run_cli(capsys, "solve", str(cnf), "--oracle", "brute")
    assert code == 0
    payload = json.loads(out)
    # index 0 is the all-false assignment, the only violating one
    assert payload["soluble"] is True and payload["result"] == 1
    assert payload["oracle_calls"] == 3


def test_solve_with_phase_oracle(capsys):
    code, out = run_cli(capsys, "solve", "wc:n=3,sol=6")
    assert code == 0
    assert json.loads(out)["result"] == 6


def test_usage_errors_exit_one(capsys):
    assert main(["spectrum", "wc:n=3,sol=0", "--sweep", "y",
                 "--fixed", "0", "--range", "0:1"]) == 1
    assert main(["berry", "wc:n=3,scale=2"]) == 1
    for source in ("wc:n=3,sol", "wc:sol=1", "wc:n=three", "wc:n=3,sol=first"):
        assert main(["berry", source]) == 1, source
    assert main(["berry", "/nonexistent/file.cnf"]) == 1
    assert main(["spectrum", "wc:n=3,sol=0", "--sweep", "x",
                 "--fixed", "0", "--range", "0to1"]) == 1
    capsys.readouterr()


def test_domain_errors_exit_two(capsys):
    assert main(["predict-gap", "wc:n=4,sol=0", "--z", "0"]) == 2
    assert main(["berry", "wc:n=3,sol=99"]) == 2
    capsys.readouterr()
    # x = 1e200 squares past the float range: named at once, with no numpy warning.
    spectrum = ["spectrum", "wc:n=3,sol=5", "--sweep", "x", "--fixed", "0.5", "--range", "0:1e200", "--samples", "3"]
    assert main(spectrum) == 2
    assert "squares to inf" in capsys.readouterr().err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


def test_repeated_calls_share_one_parser_and_no_values(capsys):
    argv = ["predict-gap", "wc:n=5,sol=0", "--z", "0.5"]
    fresh = subprocess.run([sys.executable, "-m", "diaboli", *argv], capture_output=True, text=True)
    assert fresh.returncode == 0
    spectrum = ["spectrum", "wc:n=3,sol=0", "--variant", "z_scaled", "--sweep", "x", "--fixed", "-1"]
    assert run_cli(capsys, *spectrum, "--range", "0:0.2", "--samples", "3")[0] == 0
    assert run_cli(capsys, *argv) == (0, fresh.stdout)
    assert _build_parser() is _build_parser()


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "diaboli", "berry", "wc:n=3,sol=0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["phase"] == "pi"
