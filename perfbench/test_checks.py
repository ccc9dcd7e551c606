"""The benchmark's output checks accept the program's output and reject
perturbed copies of it.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from stochadd import julia, machine, spectrum  # noqa: E402
from stochadd.numeration import parse_base_spec, parse_probs_spec  # noqa: E402

PROBS = "plist:0.7,0.85,0.6;tail=0.75"
WINDOW = (-1.6, 1.6, -1.6, 1.6)


def system(base_spec, probs_spec):
    return julia.FiberedSystem(parse_base_spec(base_spec), parse_probs_spec(probs_spec))


# -- operator ----------------------------------------------------------------


@pytest.fixture(params=["const:3", "periodic:3,5", "even"])
def operator(request):
    base = request.param
    mat = machine.build_matrix(300, parse_base_spec(base), parse_probs_spec(PROBS))
    return (mat.to_csr(), mat.clipped_rows, machine.column_sum_report(mat),
            checks.base_seq(base), checks.prob_seq(PROBS))


def test_operator_accepted(operator):
    csr, clipped, report, d, p = operator
    checks.check_operator(csr, clipped, report, d, p, range(300))


def test_closed_form_row_matches_program():
    base, probs = parse_base_spec("fib"), parse_probs_spec(PROBS)
    d, p = checks.base_seq("fib"), checks.prob_seq(PROBS)
    for n in range(500):
        assert dict(machine.transition_row(n, base, probs).entries) == \
            pytest.approx(checks.closed_form_row(n, d, p), abs=1e-15)


def test_perturbed_row_rejected(operator):
    csr, clipped, report, d, p = operator
    bad = csr.copy()
    bad.data[bad.indptr[123]] += 1e-9
    with pytest.raises(checks.CheckFailed, match="row sum"):
        checks.check_operator(bad, clipped, report, d, p, [123])
    # With the sums let through, the closed-form row alone still catches it.
    with pytest.raises(checks.CheckFailed, match="row 123 entry"):
        checks.check_operator(bad, clipped, report, d, p, [123], tol=1.0)


def test_wrong_column_report_rejected(operator):
    csr, clipped, report, d, p = operator
    bad = list(report)
    m, total, complete = bad[40]
    bad[40] = (m, total, not complete)
    with pytest.raises(checks.CheckFailed, match="completeness"):
        checks.check_operator(csr, clipped, bad, d, p, [])


def test_trajectory_checks():
    base, probs = parse_base_spec("const:3"), parse_probs_spec(PROBS)
    d, p = checks.base_seq("const:3"), checks.prob_seq(PROBS)
    states = list(machine.simulate(base, probs, 0, 5000, 7).states)
    checks.check_trajectory(states, 0, 5000, d, p)
    illegal = states.copy()
    illegal[2500] = illegal[2499] + 2
    with pytest.raises(checks.CheckFailed, match="illegal step"):
        checks.check_trajectory(illegal, 0, 5000, d, p)
    with pytest.raises(checks.CheckFailed, match="stay share"):
        checks.check_trajectory(states, 0, 5000, d, checks.prob_seq("pconst:0.5"))


# -- escape-time grids -----------------------------------------------------------


@pytest.fixture
def render(tmp_path):
    sysm = system("const:3", "plist:0.7;tail=1")
    grid = julia.render(sysm, WINDOW, (64, 64), 200, threads=2)
    julia.write_pgm(grid, tmp_path / "g.pgm")
    julia.write_pbm(grid, tmp_path / "g.pbm")
    d, p = checks.base_seq("const:3"), checks.prob_seq("plist:0.7;tail=1")
    return grid, d, p, tmp_path


def test_render_accepted(render):
    grid, d, p, tmp = render
    sample = np.argwhere(np.ones((64, 64), dtype=bool))[::7]
    assert checks.check_render(grid.escaped, grid.stage, WINDOW, 200, d, p, sample,
                               tmp / "g.pgm", tmp / "g.pbm") == 0


def test_flipped_pixel_rejected(render):
    grid, d, p, tmp = render
    row, col = np.argwhere(~grid.escaped)[0]
    escaped = grid.escaped.copy()
    escaped[row, col] = True
    with pytest.raises(checks.CheckFailed, match="PBM"):
        checks.check_render(escaped, grid.stage, WINDOW, 200, d, p, [], None, tmp / "g.pbm")
    with pytest.raises(checks.CheckFailed, match="PGM"):
        checks.check_render(escaped, grid.stage, WINDOW, 200, d, p, [], tmp / "g.pgm")
    with pytest.raises(checks.CheckFailed, match="scalar loop"):
        checks.check_render(escaped, grid.stage, WINDOW, 200, d, p, [])
    # Flipping the mirror pixel too keeps the symmetry; the scalar sample catches it.
    escaped[63 - row, col] = True
    with pytest.raises(checks.CheckFailed, match="scalar loop"):
        checks.check_render(escaped, grid.stage, WINDOW, 200, d, p, [(row, col)])


def test_unit_disk():
    grid = julia.render(system("const:2", "pconst:1"), WINDOW, (96, 96), 200, threads=2)
    assert checks.check_unit_disk(grid.escaped, WINDOW) == 0
    escaped = grid.escaped.copy()
    escaped[48, 48] = True
    with pytest.raises(checks.CheckFailed, match="disagree"):
        checks.check_unit_disk(escaped, WINDOW)


# -- point spectrum ---------------------------------------------------------------


@pytest.fixture
def roots():
    ps = spectrum.point_spectrum(system("periodic:3,5", "pconst:0.7"), 4)
    levels = [level.roots.copy() for level in ps.levels]
    return levels, ps.all_roots(), checks.base_seq("periodic:3,5"), checks.prob_seq("pconst:0.7")


def test_spectrum_accepted(roots):
    levels, all_roots, d, p = roots
    checks.check_spectrum(levels, all_roots, d, p, range(0, 225, 13))


def test_shifted_root_rejected(roots):
    levels, all_roots, d, p = roots
    shifted = [level.copy() for level in levels]
    shifted[1][3] += 1e-7
    with pytest.raises(checks.CheckFailed, match="conjugation"):
        checks.check_spectrum(shifted, all_roots, d, p, [])
    # Shift a conjugate pair of deepest roots along the real axis: closure and
    # nesting still hold, the mpmath backward error does not.
    top = levels[-1].copy()
    i = int(np.argmax(top.imag))
    j = int(np.argmin(np.abs(top - np.conj(top[i]))))
    top[[i, j]] += 1e-12
    with pytest.raises(checks.CheckFailed, match="backward error"):
        checks.check_spectrum(levels[:-1] + [top], top, d, p, [i])


def test_level_count_rejected(roots):
    levels, all_roots, d, p = roots
    with pytest.raises(checks.CheckFailed, match="level 2 holds"):
        checks.check_spectrum([levels[0], levels[1][:-1]], levels[1][:-1], d, p, [])


# -- verify output ----------------------------------------------------------------


def test_verify_output():
    suites, presets = ("a", "b"), ("x", "y")
    lines = [f"PASS {s} {n} detail=1" for n in presets for s in suites]
    checks.check_verify_output([0], "\n".join(lines), suites, presets)
    with pytest.raises(checks.CheckFailed, match="exit codes"):
        checks.check_verify_output([1], "\n".join(lines), suites, presets)
    with pytest.raises(checks.CheckFailed, match="PASS lines"):
        checks.check_verify_output([0], "\n".join(lines[1:]), suites, presets)
    with pytest.raises(checks.CheckFailed, match="failing"):
        checks.check_verify_output([0], "\n".join(lines + ["FAIL a x e=1"]), suites, presets)
