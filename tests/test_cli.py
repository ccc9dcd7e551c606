import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stochadd
from stochadd import julia, machine, spectrum
from stochadd.cli import (
    _ESCAPES,
    _INSIDE,
    _OUTSIDE,
    FACTORIZATION_DRAWS,
    PRESETS,
    RENORM_STATES,
    _draw_tables,
    _escape_samples,
    _factorization_cases,
    _suite_factorization,
    main,
)
from stochadd.numeration import largest_level, parse_base_spec, parse_probs_spec

from test_julia import factorization_check, kernel_inputs


# 41 stages of probability 1e-8: stage maps that scale by 1e8.
TINY_P = "plist:" + ",".join(["1e-8"] * 41) + ";tail=1"
PINNED_VERIFY_STDOUT = json.loads((Path(__file__).parent / "verify_stdout.json").read_text())
PINNED_MATRIX_STDOUT = json.loads((Path(__file__).parent / "matrix_stdout.json").read_text())
PINNED_REPORT_STDOUT = json.loads((Path(__file__).parent / "report_stdout.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDigits:
    def test_base3_eight(self, capsys):
        code, out, _ = run(capsys, "digits", "8", "--base", "const:3")
        assert code == 0
        assert out == "digits=2,2 counter=3 succ=9\n"

    def test_zero_even_base(self, capsys):
        code, out, _ = run(capsys, "digits", "0", "--base", "even")
        assert code == 0
        assert out == "digits= counter=1 succ=1\n"

    def test_mixed_prefix(self, capsys):
        code, out, _ = run(capsys, "digits", "17", "--base", "list:2,3,4;tail=4")
        assert code == 0
        assert out.startswith("digits=1,2,2 ")

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "digits", "8", "--base", "nonsense:3")
        assert code == 2
        assert "error" in err


class TestMatrix:
    def test_report_and_file(self, capsys, tmp_path):
        out_path = tmp_path / "mat.txt"
        code, out, _ = run(capsys, "matrix", "--n", "10", "--base", "const:3",
                           "--probs", "pconst:0.7", "--out", str(out_path))
        assert code == 0
        assert "result=pass" in out
        header = out_path.read_text().splitlines()[0]
        assert header.split()[:2] == ["10", "10"]

    def test_certain_machine_rows(self, capsys, tmp_path):
        out_path = tmp_path / "mat.txt"
        code, out, _ = run(capsys, "matrix", "--n", "6", "--base", "const:3",
                           "--probs", "pconst:1", "--out", str(out_path))
        assert code == 0
        body = out_path.read_text().splitlines()[1:]
        # pure successor shifts: one unit entry per unclipped row
        assert body == [f"{n} {n + 1} 1" for n in range(5)]

    @pytest.mark.parametrize("case", sorted(PINNED_MATRIX_STDOUT))
    def test_stdout_is_pinned(self, capsys, case):
        # The verdict printed when every row had its own math.fsum and the
        # columns came from the list of triples: a moved last bit shows here.
        base, probs, n = case.split(" ")
        code, out, _ = run(capsys, "matrix", "--n", n, "--base", base, "--probs", probs)
        assert code == 0
        assert out.splitlines() == PINNED_MATRIX_STDOUT[case]


class TestRender:
    def test_writes_images_and_meta(self, capsys, tmp_path):
        prefix = tmp_path / "img"
        code, out, _ = run(capsys, "render", "--preset", "fig6a",
                           "--res", "48x48", "--depth", "50",
                           "--out", str(prefix))
        assert code == 0
        assert (tmp_path / "img.pgm").read_bytes().startswith(b"P5\n48 48\n255\n")
        assert (tmp_path / "img.pbm").read_bytes().startswith(b"P4\n48 48\n")
        meta = (tmp_path / "img.meta").read_text()
        assert "base=even" in meta and "probs=pconst:0.8" in meta

    def test_unit_disk_image(self, capsys, tmp_path):
        prefix = tmp_path / "disk"
        code, _, _ = run(capsys, "render", "--base", "const:2", "--probs",
                         "pconst:1", "--window=-1.5,1.5,-1.5,1.5",
                         "--res", "64x64", "--depth", "40", "--out", str(prefix))
        assert code == 0
        raw = (tmp_path / "disk.pgm").read_bytes()
        pixels = np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8)
        bounded_fraction = np.mean(pixels == 255)
        assert abs(bounded_fraction - np.pi / 9) < 0.02

    def test_zero_area_window_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "render", "--base", "const:2", "--probs",
                           "pconst:1", "--window", "1,1,0,2",
                           "--res", "16x16", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "zero area" in err

    def test_non_finite_window_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "render", "--preset", "fig3a", "--res", "8x8",
                             "--window=-1,1,-1,1e400", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "finite" in err and out == ""
        assert not (tmp_path / "x.pgm").exists()

    def test_byte_identical_runs(self, capsys, tmp_path):
        for prefix in ("a", "b"):
            run(capsys, "render", "--preset", "fig10a", "--res", "32x32",
                "--depth", "25", "--out", str(tmp_path / prefix))
        assert ((tmp_path / "a.pgm").read_bytes()
                == (tmp_path / "b.pgm").read_bytes())
        assert ((tmp_path / "a.pbm").read_bytes()
                == (tmp_path / "b.pbm").read_bytes())

    # Windows whose every centre the row chords decide, so the escape kernel
    # gets nothing: far off the set, inside fig3a's trapping disk
    # |lam| <= tau_0 = 0.4, and the unit disk at 256x256.
    CHORDS_ONLY = {
        "off": (["--preset", "fig3a", "--window=2,3,2,3", "--res", "24x16"],
                "bounded_pixels=0 escaped_pixels=384\n"),
        "tau0": (["--preset", "fig3a", "--window=-0.2,0.2,-0.2,0.2", "--res", "24x16"],
                 "bounded_pixels=384 escaped_pixels=0\n"),
        "unit": (["--base", "const:2", "--probs", "pconst:1", "--res", "256x256"],
                 "bounded_pixels=20108 escaped_pixels=45428\n"),
    }

    # --threads is accepted and ignored; the unit case passes the golden
    # renders' --threads 2.
    @pytest.mark.parametrize("case, threads", [("off", 1), ("tau0", 1), ("unit", 2)],
                             ids=["off-1", "tau0-1", "unit-2"])
    def test_chords_alone_under_warnings_as_errors(self, capsys, monkeypatch, tmp_path, case,
                                                   threads):
        options, stdout = self.CHORDS_ONLY[case]
        argv = ["render", *options, "--threads", str(threads), "--out"]
        src = Path(stochadd.__file__).resolve().parents[1]
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "stochadd.cli", *argv,
                               str(tmp_path / "sub")], env=env, capture_output=True, text=True,
                              timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, "")

        calls = kernel_inputs(monkeypatch)
        assert run(capsys, *argv, str(tmp_path / "in")) == (0, stdout, "")
        assert calls == []  # the escape kernel never ran
        for ext in ("pgm", "pbm", "meta"):
            assert (tmp_path / f"sub.{ext}").read_bytes() == (tmp_path / f"in.{ext}").read_bytes()

    def test_presets_cover_gallery(self):
        for fig in (3, 4, 5, 6, 7, 8, 9, 10):
            for variant in "abc":
                assert f"fig{fig}{variant}" in PRESETS


class TestRoots:
    def test_binary_half_depth_two(self, capsys, tmp_path):
        path = tmp_path / "roots.csv"
        code, out, _ = run(capsys, "roots", "--base", "const:2", "--probs",
                           "pconst:0.5", "--depth", "2", "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "depth,re,im"
        values = sorted(float(l.split(",")[1]) for l in lines[1:]
                        if l.startswith("2,"))
        assert np.allclose(values, [0.0, 0.5, 0.5, 1.0], atol=1e-12)

    def test_always_contains_one(self, capsys, tmp_path):
        path = tmp_path / "roots.csv"
        run(capsys, "roots", "--preset", "fig10a", "--depth", "3",
            "--out", str(path))
        ones = [l for l in path.read_text().splitlines()[1:]
                if abs(float(l.split(",")[1]) - 1.0) < 1e-9
                and abs(float(l.split(",")[2])) < 1e-9]
        assert len(ones) == 3  # one per depth

    def test_cap_partial_flag(self, capsys, tmp_path):
        path = tmp_path / "roots.csv"
        code, out, _ = run(capsys, "roots", "--base", "const:2", "--probs",
                           "pconst:0.5", "--depth", "10", "--cap", "8",
                           "--out", str(path))
        assert code == 0
        assert path.read_text().startswith("# partial")
        assert "capped=true" in out


class TestVerify:
    def test_stochasticity_on_presets(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "stochasticity")
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 5
        assert all(l.startswith("PASS") for l in lines)

    def test_renorm_single_config(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "renorm",
                           "--base", "const:2", "--probs", "pconst:0.5")
        assert code == 0
        assert out.startswith("PASS renorm")

    def test_renorm_over_the_state_limit_fails_before_building(self, capsys, monkeypatch):
        # d_1 * 4 d_2 = 2 * 1028 fine states, one over the limit.
        def renorm_check(*args):
            raise AssertionError("renorm_check called over the state limit")

        monkeypatch.setattr(machine, "renorm_check", renorm_check)
        code, out, _ = run(capsys, "verify", "--suite", "renorm", "--base", "list:2,257;tail=2",
                           "--probs", "pconst:0.7")
        assert code == 1
        assert out == f"FAIL renorm custom error=renorm needs 2056 fine states, over {RENORM_STATES}\n"

    def test_renorm_at_the_state_limit_runs(self, capsys, monkeypatch):
        calls = []

        def renorm_check(r, n2, base, probs):
            calls.append((r, n2))
            return machine.RenormReport(r, 2 * n2, n2, 0, 0.0, 0.0)

        monkeypatch.setattr(machine, "renorm_check", renorm_check)
        code, out, _ = run(capsys, "verify", "--suite", "renorm", "--base", "list:2,256;tail=2",
                           "--probs", "pconst:0.7")
        assert (code, calls) == (0, [(1, RENORM_STATES // 2)])
        assert out == "PASS renorm custom n2=1024 max_diff=0\n"

    def test_unknown_suite_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_flat_report_file(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        code, _, _ = run(capsys, "verify", "--suite", "eigenpairs",
                         "--base", "const:2", "--probs", "pconst:0.5",
                         "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert "eigenpairs.custom.result=pass" in lines
        assert any(l.startswith("eigenpairs.custom.max_resid=") for l in lines)

    def test_report_file_keeps_error_message_whole(self, capsys, tmp_path):
        # 0.5**1070 is subnormal and positive: the probe runs and raises.
        path = tmp_path / "report.txt"
        code, _, _ = run(capsys, "verify", "--suite", "transient", "--base", "const:2",
                         "--probs", "plist:" + ",".join(["0.5"] * 1070) + ";tail=1",
                         "--out", str(path))
        assert code == 1
        assert path.read_text() == ("transient.custom.result=fail\n"
                                    "transient.custom.error=grid has no deep-interior pixels\n")

    def test_check_failure_exit_code(self, capsys, monkeypatch):
        import stochadd.cli as cli_mod
        monkeypatch.setitem(cli_mod._SUITE_FUNCS, "stochasticity",
                            lambda sysm, seed: (False, "forced"))
        code, out, _ = run(capsys, "verify", "--suite", "stochasticity",
                           "--base", "const:2", "--probs", "pconst:0.5")
        assert code == 1
        assert out.startswith("FAIL")

    def test_escape_suite_quiet_under_warnings_as_errors(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "verify", "--suite", "escape")
        assert code == 0
        assert len(out.splitlines()) == 5

    @pytest.mark.parametrize("preset", ["fig8a", "fig6a"])  # fib and even bases
    def test_escape_suite_flags_match_scalar_loop(self, preset):
        base_spec, probs_spec = PRESETS[preset]
        sysm = julia.FiberedSystem(parse_base_spec(base_spec), parse_probs_spec(probs_spec))
        lams = _escape_samples(0)
        loose, _ = julia._render_band(sysm, lams, 200, bailout=1e6)
        for lam, flag in zip(lams, loose):
            v = complex(lam)
            escaped = False
            for r in range(1, 201):
                v = julia.stage_map(sysm, r, v)
                if abs(v) > 1e6:
                    escaped = True
                    break
            assert flag == escaped


    def test_transient_skip_underflowing_product(self, capsys):
        # prod p_r = 1e-400 is positive but rounds to 0.0 in double precision
        code, out, _ = run(capsys, "verify", "--suite", "transient", "--base", "const:3",
                           "--probs", "plist:1e-200,1e-200;tail=1")
        assert code == 0
        assert out == ("PASS transient custom skipped "
                       "(probability product positive but below double precision)\n")

    def test_transient_skip_vanishing_product(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        code, out, _ = run(capsys, "verify", "--suite", "transient", "--base", "const:3",
                           "--probs", "pconst:0.7", "--out", str(path))
        assert code == 0
        assert out == "PASS transient custom skipped (vanishing probability product)\n"
        # The skip note holds no "=", so the report file has only the result.
        assert path.read_text() == "transient.custom.result=pass\n"

    def test_fill_without_certified_chains_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "witness", "--base", "const:2",
                           "--probs", TINY_P)
        assert code == 1
        assert out.startswith("FAIL witness custom error=")

    def test_eigenpairs_without_roots_fails(self, capsys):
        # d_1 = 5000 > cap 4000, so no depth fits and no root is checked.
        code, out, _ = run(capsys, "verify", "--suite", "eigenpairs", "--base",
                           "list:5000;tail=2", "--probs", "pconst:0.7")
        assert code == 1
        assert out == "FAIL eigenpairs custom n=2 roots=0 max_resid=0\n"

    def test_factorization_without_bounded_draws_fails(self, capsys):
        # Every disk draw escapes, so only the draw budget ends the suite.
        code, out, _ = run(capsys, "verify", "--suite", "factorization", "--base", "const:2",
                           "--probs", TINY_P, "--seed", "0")
        assert code == 1
        assert out == ("FAIL factorization custom "
                       "error=100000 draws gave 0 of 100 bounded cases\n")

    def test_all_suites_run_without_orbit(self, capsys, monkeypatch):
        def orbit(*args, **kwargs):
            raise RuntimeError("verify called julia.orbit")

        monkeypatch.setattr(julia, "orbit", orbit)
        code, out, _ = run(capsys, "verify", "--suite", "all", "--seed", "7")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 35 and all(line.startswith("PASS ") for line in lines)
        for suite in ("factorization", "witness", "transient"):
            got = [line for line in lines if line.split()[1] == suite]
            assert got == PINNED_VERIFY_STDOUT[f"{suite} 7"]

    @pytest.mark.parametrize("suite, seed", [key.split() for key in PINNED_VERIFY_STDOUT])
    def test_stdout_is_pinned(self, capsys, suite, seed):
        # The lines these suites printed before their stage loops read one
        # table per system, and factorization's before it replayed raw
        # words for seeds 0-20: a moved last bit of any residual shows here.
        code, out, _ = run(capsys, "verify", "--suite", suite, "--seed", seed)
        assert code == 0
        assert out.splitlines() == PINNED_VERIFY_STDOUT[f"{suite} {seed}"]

    def test_nan_witness_residual_fails(self, capsys, monkeypatch):
        # Python's max(x, nan) is x, so a NaN residual once passed this check.
        def eigen_residuals(mat, csr, lams, vecs):
            resid = real_residuals(mat, csr, lams, vecs)
            resid[3] = math.nan
            return resid

        real_residuals = spectrum.eigen_residuals
        monkeypatch.setattr(spectrum, "eigen_residuals", eigen_residuals)
        code, out, _ = run(capsys, "verify", "--suite", "witness", "--preset", "fig3a")
        assert code == 1
        assert out == "FAIL witness fig3a n=729 worst_over_bound=nan\n"

    def test_nan_renorm_diff_fails(self, capsys, monkeypatch):
        # const:2 compares a 16-state fine matrix with an 8-state coarse one.
        build = machine.build_matrix

        def with_nan(n_states, base, probs):
            mat = build(n_states, base, probs)
            if n_states != 8:
                return mat
            bad = mat.data.copy()
            bad[mat.indptr[4]] = math.nan
            return dataclasses.replace(mat, data=bad)

        monkeypatch.setattr(machine, "build_matrix", with_nan)
        code, out, _ = run(capsys, "verify", "--suite", "renorm", "--base", "const:2",
                           "--probs", "pconst:0.5")
        assert code == 1
        assert out == "FAIL renorm custom n2=8 max_diff=nan\n"

    def test_nan_factorization_residual_fails(self, capsys, monkeypatch):
        calls = []

        def residual(*args):
            calls.append(args)
            return math.nan if len(calls) == 2 else real_residual(*args)

        real_residual = julia._factorization_residual
        monkeypatch.setattr(julia, "_factorization_residual", residual)
        code, out, _ = run(capsys, "verify", "--suite", "factorization", "--preset", "fig3a")
        assert code == 1 and len(calls) == 100
        assert out == "FAIL factorization fig3a cases=100 worst_resid=nan\n"


def reference_factorization(sysm, seed):
    """The factorization suite as a scalar ``orbit`` test of each draw, then
    ``factorization_check``, which computes the stage values again."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    kept = 0
    draws = 0
    while kept < 100:
        if draws == FACTORIZATION_DRAWS:
            raise ValueError(f"{draws} draws gave {kept} of 100 bounded cases")
        draws += 1
        lam = complex(-1.0 + 2.0 * rng.random(), -1.0 + 2.0 * rng.random())
        if abs(lam) > 1:
            continue
        r = int(rng.integers(2, 13))
        if julia.orbit(sysm, lam, r).escaped:
            continue
        k = int(rng.integers(1, r))
        worst = max(worst, factorization_check(sysm, lam, r, k))
        kept += 1
    return worst < 1e-9, f"cases={kept} worst_resid={worst:.17g}"


def raw_words(bitgen):
    """The raw 64-bit words of ``bitgen`` as Python ints, in stream order."""
    while True:
        yield from bitgen.random_raw(1024).tolist()


def uint32s(words):
    """PCG64's ``next_uint32`` over ``words``: the low half of a fresh word,
    then its high half, which the bit generator keeps for the next call.  A
    word is taken only when its low half is asked for, so doubles drawn from
    ``words`` in between take the words after it, as in a ``Generator``."""
    for word in words:
        yield word & 0xFFFF_FFFF
        yield word >> 32


def bounded(halves, span):
    """``Generator.integers(low, low + span) - low`` for 1 <= span <= 2**32,
    by Lemire's multiply-and-reject over ``halves``; a span of 1 takes none."""
    if span == 1:
        return 0
    threshold = (2**32 - span) % span
    m = next(halves) * span
    while m & 0xFFFF_FFFF < threshold:
        m = next(halves) * span
    return m >> 32


def oracle_cases(sysm, words, count):
    """The factorization walk one draw at a time over the Python ints
    ``words``: (lam, r, k, stage values) of the first ``count`` kept cases."""
    halves = uint32s(words)
    cases = []
    for _ in range(FACTORIZATION_DRAWS):
        lam = complex(-1.0 + 2.0 * ((next(words) >> 11) * 2**-53),
                      -1.0 + 2.0 * ((next(words) >> 11) * 2**-53))
        if abs(lam) > 1:
            continue
        r = 2 + bounded(halves, 11)
        vals = julia._bounded_stage_values(sysm, lam, r)
        if vals is None:
            continue
        cases.append((lam, r, 1 + bounded(halves, r - 1), vals))
        if len(cases) == count:
            return cases
    raise ValueError(f"{FACTORIZATION_DRAWS} draws gave {len(cases)} of {count} bounded cases")


def case_bits(cases):
    """The cases with every complex as the hex of its parts: -0 and NaN compare as bits."""
    def hexes(z):
        return z.real.hex(), z.imag.hex()
    return [(hexes(lam), r, k, [hexes(v) for v in vals]) for lam, r, k, vals in cases]


def word_of(u):
    """A raw word whose double (w >> 11) * 2**-53 is ``u``, a multiple of 2**-53."""
    return int(u * 2**53) << 11


def lam_words(lam):
    """The two raw words that the suite turns into ``lam``, rounded onto its grid."""
    return [word_of((part + 1.0) / 2.0) for part in (lam.real, lam.imag)]


def half_for(span, value):
    """A half-word whose first Lemire try takes it and gives ``value`` below
    ``span``: the low bits of half * span are in [span, 2 span), above the
    threshold (2**32 - span) % span."""
    return -(-(value << 32) // span) + 1


class TestFactorizationDraws:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_matches_orbit_then_check_loop(self, preset):
        base_spec, probs_spec = PRESETS[preset]
        sysm = julia.FiberedSystem(parse_base_spec(base_spec), parse_probs_spec(probs_spec))
        for seed in range(6):
            assert _suite_factorization(sysm, seed) == reference_factorization(sysm, seed)

    def test_replay_matches_generator(self):
        # Mixed random() and integers(low, high) calls, so that a buffered
        # half word outlives the doubles drawn after it.  The spans near 2**31
        # and 3 * 2**30 reject a quarter to a half of their first tries.
        # Every seed takes over 1 100 words, past the first block read.
        spans = (1, 2, 11, 12, 3 * 2**30, 2**31 + 1, 2**32 - 1, 2**32)
        for seed in range(100):
            calls = np.random.default_rng([seed, 1]).integers(-1, len(spans), size=2000)
            rng = np.random.default_rng(seed)
            words = raw_words(np.random.default_rng(seed).bit_generator)
            halves = uint32s(words)
            for call in calls.tolist():
                if call < 0:
                    assert (next(words) >> 11) * 2**-53 == rng.random()
                else:
                    low = call - 3
                    want = int(rng.integers(low, low + spans[call]))
                    assert low + bounded(halves, spans[call]) == want, (seed, spans[call])

    @pytest.mark.parametrize("seed", [0, 1, 20])
    def test_scaled_random_is_uniform(self, seed):
        # The factorization suite draws -1 + 2 * random() for uniform(-1, 1).
        rng = np.random.default_rng(seed)
        got = np.array([-1.0 + 2.0 * rng.random() for _ in range(100_000)])
        want = np.random.default_rng(seed).uniform(-1, 1, size=100_000)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


SYS_DISK = julia.FiberedSystem(parse_base_spec("const:2"), parse_probs_spec("pconst:1"))
# Stage 1 maps 1 + 1.357 exp(7i pi / 8), inside the unit disk, to a value
# with parts near 1.3e308 whose modulus overflows: abs raises there.
SYS_OVERFLOW = julia.FiberedSystem(parse_base_spec("const:2"),
                                   parse_probs_spec("plist:1e-154;tail=1"))
LAM_OVERFLOW = 1.0 + 1.357 * complex(math.cos(7 * math.pi / 8), math.sin(7 * math.pi / 8))


class TestFactorizationWalk:
    """The table-driven walk against ``oracle_cases``, the same draws one at a
    time, on word streams cut into blocks of any size and on crafted words
    that reach the branches no seed does."""

    def check(self, sysm, words, sizes=(1024,), count=100):
        """The walk over ``words`` in blocks of ``sizes``, then random words, equals the oracle."""
        tail = np.random.default_rng(99).bit_generator.random_raw(20_000)
        stream = np.concatenate((np.array(words, dtype=np.uint64), tail))
        cuts = np.cumsum(list(itertools.islice(itertools.cycle(sizes), stream.size)))
        blocks = iter(np.split(stream, cuts[cuts < stream.size]))
        got = list(_factorization_cases(sysm, blocks, count))
        assert case_bits(got) == case_bits(oracle_cases(sysm, iter(stream.tolist()), count))
        return got

    @pytest.mark.parametrize("preset", ["fig3a", "fig6a", "fig8a", "fig10a"])
    @pytest.mark.parametrize("sizes", [(1,), (2,), (3,), (1, 2, 5), (1023, 1, 1024, 2), (1025,)])
    def test_any_block_sizes(self, preset, sizes):
        # Blocks of one and two words end at every place a draw can: between
        # the words of a lam, between a lam and its integers, with a kept half
        # from the block before, and used up exactly.
        base_spec, probs_spec = PRESETS[preset]
        sysm = julia.FiberedSystem(parse_base_spec(base_spec), parse_probs_spec(probs_spec))
        for seed in (0, 1):
            bitgen = np.random.default_rng(seed).bit_generator
            self.check(sysm, bitgen.random_raw(3000).tolist(), sizes)

    def test_span_one_takes_no_half(self):
        # r = 2 gives k = integers(1, 2) = 1, which takes no half: the high
        # half of r's word gives the next r, and it is 7.
        lam = lam_words(0.5 + 0.25j)
        words = [*lam, (half_for(11, 5) << 32) | half_for(11, 0), *lam]
        got = self.check(SYS_DISK, words, count=2)
        assert [(r, k) for _, r, k, _ in got] == [(2, 1), (7, got[1][2])]

    def test_rejected_first_try_for_r(self):
        # Half 0 gives 0 * 11 = 0 below the threshold 4: r takes the kept high
        # half instead, and k a fresh word.
        lam = lam_words(0.5 + 0.25j)
        words = [*lam, half_for(11, 9) << 32, half_for(10, 3)]
        got = self.check(SYS_DISK, words, count=1)
        assert [(r, k) for _, r, k, _ in got] == [(11, 4)]

    def test_rejected_first_try_for_k(self):
        # r = 4 gives k = integers(1, 4): span 3, threshold 1, so half 0 is
        # rejected and the next word's low half gives k.
        lam = lam_words(0.5 + 0.25j)
        words = [*lam, half_for(11, 2), half_for(3, 2)]
        for sizes in [(1024,), (3,), (4,)]:
            got = self.check(SYS_DISK, words, sizes, count=1)
            assert [(r, k) for _, r, k, _ in got] == [(4, 3)]

    def test_overflowing_modulus_goes_to_the_scalar_loop(self):
        [x, y] = lam_words(LAM_OVERFLOW)
        words = np.array([x, y, half_for(11, 0)], dtype=np.uint64)
        codes = _draw_tables(SYS_OVERFLOW, words)[0]
        assert codes[0] == _INSIDE
        lam = complex(-1.0 + 2.0 * ((x >> 11) * 2**-53), -1.0 + 2.0 * ((y >> 11) * 2**-53))
        with pytest.raises(OverflowError, match="absolute value too large"):
            julia._bounded_stage_values(SYS_OVERFLOW, lam, 2)
        with pytest.raises(OverflowError, match="absolute value too large"):
            list(_factorization_cases(SYS_OVERFLOW, iter([words]), 1))

    def test_overflowing_modulus_fails_the_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "factorization", "--base", "const:2",
                           "--probs", "plist:1e-154;tail=1")
        assert code == 1
        assert out == "FAIL factorization custom error=absolute value too large\n"

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_codes_match_the_scalar_loop(self, preset):
        base_spec, probs_spec = PRESETS[preset]
        sysm = julia.FiberedSystem(parse_base_spec(base_spec), parse_probs_spec(probs_spec))
        words = np.random.default_rng(5).bit_generator.random_raw(1025)
        codes, rs, halves, parts = _draw_tables(sysm, words)
        assert len(codes) == 1024 and len(rs) == len(halves) == 2050 and len(parts) == 1025
        for j, word in enumerate(words.tolist()):
            assert parts[j] == -1.0 + 2.0 * ((word >> 11) * 2**-53)
            assert (halves[2 * j], halves[2 * j + 1]) == (word & 0xFFFF_FFFF, word >> 32)
        for j, h in enumerate(halves.tolist()):
            assert rs[j] == (0 if h * 11 & 0xFFFF_FFFF < 4 else 2 + (h * 11 >> 32))
        for j in range(1024):
            lam = complex(parts[j], parts[j + 1])
            want = (_OUTSIDE if abs(lam) > 1 else
                    _ESCAPES if julia._bounded_stage_values(sysm, lam, 2) is None else _INSIDE)
            assert codes[j] == want


@pytest.mark.parametrize("argv", [["verify", "--suite", "all"],
                                  ["report", "--preset", "fig8a", "--depth", "4"]],
                         ids=["verify-all", "report-fig8a"])
def test_runs_clean_with_warnings_as_errors(argv):
    # The array kernels overflow and make NaN on purpose, inside np.errstate;
    # under -W error any warning that leaks out would end the run.
    src = Path(stochadd.__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "stochadd.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_import_leaves_scipy_spatial_unloaded():
    # Only boundary_density needs scipy.spatial, and it imports it itself.
    # No module starts threads, so neither concurrent.futures nor the logging
    # it imports is loaded.
    src = Path(stochadd.__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, stochadd.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.spatial', 'concurrent', 'logging'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv", [
    ["digits", "8", "--base", "const:3"],
    ["render", "--preset", "fig6a", "--res", "16x16", "--out", "{tmp}/fig6a"],
    ["roots", "--preset", "fig3a", "--depth", "3"],
    ["simulate", "--preset", "fig3a", "--steps", "5"],
    ["matrix", "--preset", "fig3a", "--n", "81", "--out", "{tmp}/mat.txt"],
    ["verify", "--suite", "stochasticity"],
    ["verify", "--suite", "renorm"],
    ["verify", "--suite", "escape"],
    ["verify", "--suite", "factorization"],
    ["verify", "--suite", "transient"],
], ids=["digits", "render", "roots", "simulate", "matrix", "verify-stochasticity",
        "verify-renorm", "verify-escape", "verify-factorization", "verify-transient"])
def test_subcommand_leaves_scipy_unloaded(tmp_path, argv):
    # Only SparseTransitionMatrix.to_csr and boundary_density need scipy, and
    # each imports it itself.  verify --suite all is not here: its eigenpairs
    # and witness suites multiply by to_csr().
    src = Path(stochadd.__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    code = ("import sys; from stochadd.cli import main; code = main(sys.argv[1:]); "
            "sys.stderr.write(repr(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))); "
            "sys.exit(code)")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert proc.stderr == "[]"


class TestReport:
    KEYS = {"base", "probs", "regime", "claimed_spectrum", "eigen_max_residual",
            "eigen_states", "point_spectrum_capped", "boundary_sup_min_dist",
            "boundary_coverage", "transient_interior_max", "transient_boundary_min",
            "transient_boundary_max", "ok"}

    def test_transient_preset(self, capsys):
        code, out, _ = run(capsys, "report", "--preset", "fig3a", "--depth", "3",
                           "--resolution", "128")
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.splitlines())
        assert set(fields) == self.KEYS
        assert fields["regime"] == "transient_like"
        assert fields["ok"] == "true"
        base = parse_base_spec(PRESETS["fig3a"][0])
        assert int(fields["eigen_states"]) == largest_level(base, 2048)

    @pytest.mark.parametrize("preset", ["fig9a", "fig9c"])
    def test_dust_like_set_skips_boundary_density(self, capsys, preset):
        # the band render of these sets at 64x64 keeps no boundary pixel
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "report", "--preset", preset, "--depth", "2",
                               "--resolution", "64")
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.splitlines())
        assert set(fields) == {"base", "probs", "regime", "claimed_spectrum",
                               "eigen_max_residual", "eigen_states", "point_spectrum_capped",
                               "boundary_density", "ok"}
        assert fields["boundary_density"] == "skipped (grid has no boundary pixels)"
        assert fields["regime"] == "null_recurrent_like"
        assert fields["ok"] == "true"

    def test_no_roots_fails(self, capsys):
        # d_1 = 300000 > ROOT_CAP, so no depth fits and no root is checked.
        code, out, _ = run(capsys, "report", "--base", "list:300000;tail=2", "--probs",
                           "pconst:0.7", "--resolution", "64")
        fields = dict(line.split("=", 1) for line in out.splitlines())
        assert code == 1
        assert fields["eigen_max_residual"] == "0" and fields["ok"] == "false"
        assert fields["point_spectrum_capped"] == "true"
        assert fields["boundary_density"] == "skipped (no roots supplied)"

    def test_cap_hit_is_printed(self, capsys):
        # depth 1 has 1000 roots; depth 2 would have 300000 > ROOT_CAP.
        code, out, _ = run(capsys, "report", "--base", "list:1000,300;tail=2", "--probs",
                           "pconst:0.7", "--depth", "2", "--resolution", "64")
        fields = dict(line.split("=", 1) for line in out.splitlines())
        assert code == 0
        assert fields["point_spectrum_capped"] == "true"

    def test_prints_the_evidence_record_in_order(self, capsys):
        code, out, _ = run(capsys, "report", "--preset", "fig3a", "--depth", "2",
                           "--resolution", "64")
        base, probs = PRESETS["fig3a"]
        rep = spectrum.classify_spectrum(
            julia.FiberedSystem(parse_base_spec(base), parse_probs_spec(probs)), 2,
            resolution=64)
        assert all(type(value) in (str, int, float, bool) for value in rep.evidence.values())
        keys = [line.split("=", 1)[0] for line in out.splitlines()]
        assert keys == ["base", "probs", "regime", "claimed_spectrum", *rep.evidence, "ok"]
        assert code == 0

    def test_overflowing_eigenvectors_fail_without_warnings(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "report", "--base", "const:2", "--probs", TINY_P)
        fields = dict(line.split("=", 1) for line in out.splitlines())
        assert code == 1
        assert fields["eigen_max_residual"] == "nan" and fields["ok"] == "false"

    @pytest.mark.parametrize("preset", sorted(PINNED_REPORT_STDOUT))
    def test_stdout_is_pinned(self, capsys, preset):
        # The evidence printed when each root had its own eigenvector and
        # matrix-vector product: a moved last bit of a residual, a root or a
        # distance shows here.
        code, out, _ = run(capsys, "report", "--preset", preset, "--depth", "6")
        assert code == 0
        assert out.splitlines() == PINNED_REPORT_STDOUT[preset]

    def test_needs_a_configuration(self, capsys):
        code, _, err = run(capsys, "report")
        assert code == 2
        assert "--preset" in err


class TestOptions:
    """Each subcommand accepts only the shared options that it reads."""

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--suite", "escape", "--threads", "2"], "unrecognized arguments: --threads"),
        (["digits", "8", "--base", "const:3", "--seed", "1"], "unrecognized arguments: --seed"),
        (["digits", "8", "--base", "const:3", "--preset", "fig3a"], "unrecognized arguments"),
        (["report", "--preset", "fig3a", "--out", "x"], "unrecognized arguments: --out"),
        (["matrix", "--n", "9", "--preset", "fig3a", "--seed", "1"], "unrecognized arguments"),
        (["render", "--preset", "fig6a"], "the following arguments are required: --out"),
        (["digits", "8"], "the following arguments are required: --base"),
        (["matrix", "--n", "9", "--preset", "fig99"], "argument --preset: invalid choice: 'fig99'"),
        (["verify", "--suite", "factorization", "--preset", "fig3a", "--seed", "-1"],
         "argument --seed: expected a non-negative integer, got '-1'"),
        (["report", "--preset", "fig3a", "--seed", "-1", "--depth", "2", "--resolution", "64"],
         "argument --seed: expected a non-negative integer, got '-1'"),
        (["simulate", "--preset", "fig3a", "--steps", "3", "--seed", "-1"],
         "argument --seed: expected a non-negative integer, got '-1'"),
        (["report", "--preset", "fig3a", "--resolution", "0"],
         "argument --resolution: expected a positive integer, got '0'"),
        (["report", "--preset", "fig3a", "--resolution", "-64"],
         "argument --resolution: expected a positive integer, got '-64'"),
        (["digits", "-1", "--base", "const:3"],
         "argument n: expected a non-negative integer, got '-1'"),
        (["simulate", "--preset", "fig3a", "--steps", "3", "--start", "-5"],
         "argument --start: expected a non-negative integer, got '-5'"),
        (["simulate", "--preset", "fig3a", "--steps", "-1"],
         "argument --steps: expected a non-negative integer, got '-1'"),
        (["matrix", "--preset", "fig3a", "--n", "1"],
         "argument --n: expected an integer >= 2, got '1'"),
        (["matrix", "--preset", "fig3a", "--n", "0"],
         "argument --n: expected an integer >= 2, got '0'"),
        (["render", "--preset", "fig6a", "--out", "x", "--depth", "0"],
         "argument --depth: expected a positive integer, got '0'"),
        (["roots", "--preset", "fig3a", "--depth", "0"],
         "argument --depth: expected a positive integer, got '0'"),
        (["roots", "--preset", "fig3a", "--depth", "2", "--cap", "0"],
         "argument --cap: expected a positive integer, got '0'"),
        (["roots", "--preset", "fig3a", "--depth", "2", "--cap", "-1"],
         "argument --cap: expected a positive integer, got '-1'"),
        (["report", "--preset", "fig3a", "--depth", "0"],
         "argument --depth: expected a positive integer, got '0'"),
    ])
    def test_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestConfigurationRule:
    """``--preset`` alone or ``--base`` with ``--probs`` names one configuration;
    ``verify`` with none of the three runs its default presets."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "renorm", "--base", "const:2"],
        ["verify", "--suite", "renorm", "--probs", "pconst:0.5"],
        ["verify", "--suite", "renorm", "--preset", "fig3a", "--base", "const:2",
         "--probs", "pconst:0.5"],
        ["matrix", "--n", "9", "--preset", "fig3a", "--base", "const:2"],
        ["simulate", "--steps", "2", "--preset", "fig3a", "--probs", "pconst:0.5"],
        ["roots", "--depth", "2", "--base", "const:2"],
    ])
    def test_usage_error(self, capsys, argv):
        assert run(capsys, *argv) == (2, "", "error: use --preset alone, or --base with --probs\n")


class TestUnboundedStates:
    def test_digits_past_int64(self, capsys):
        code, out, err = run(capsys, "digits", str(2**63), "--base", "const:2")
        assert (code, err) == (0, "")
        assert out == f"digits={'0,' * 63}1 counter=1 succ={2**63 + 1}\n"

    def test_simulate_past_int64(self, capsys):
        code, out, err = run(capsys, "simulate", "--base", "const:2", "--probs", "pconst:1",
                             "--start", str(2**63 - 1), "--steps", "2")
        assert (code, err) == (0, "")
        assert out == f"step,state\n0,{2**63 - 1}\n1,{2**63}\n2,{2**63 + 1}\n"


class TestReportTransientProbe:
    """``report`` consults the same skip rule as ``verify --suite transient``."""

    @pytest.mark.parametrize("halves, code, line", [
        # 0.5**1080 underflows to 0.0: the probe is skipped, as in verify
        (1080, 0, "transient_limits=skipped "
                  "(probability product positive but below double precision)"),
        # 0.5**1070 is subnormal and positive: the probe runs and fails
        (1070, 1, "transient_limits=error (grid has no deep-interior pixels)"),
    ], ids=["underflow", "subnormal"])
    def test_skip_and_error(self, capsys, halves, code, line):
        probs = "plist:" + ",".join(["0.5"] * halves) + ";tail=1"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, out, err = run(capsys, "report", "--base", "const:2", "--probs", probs)
            _, verify_out, _ = run(capsys, "verify", "--suite", "transient",
                                   "--base", "const:2", "--probs", probs)
        assert (got, err) == (code, "")
        fields = dict(l.split("=", 1) for l in out.splitlines())
        assert line in out.splitlines()
        assert fields["ok"] == ("true" if code == 0 else "false")
        assert "transient_interior_max" not in fields
        verdict = "PASS transient custom skipped" if code == 0 else \
            "FAIL transient custom error=grid has no deep-interior pixels"
        assert verify_out.startswith(verdict)


class TestErrors:
    def test_internal_error_exit_code(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("point_spectrum broke")

        monkeypatch.setattr(spectrum, "point_spectrum", broken)
        code, _, err = run(capsys, "roots", "--base", "const:2", "--probs",
                           "pconst:0.5", "--depth", "2")
        assert code == 3
        assert "Traceback" in err and "point_spectrum broke" in err


class TestSimulate:
    def test_certain_machine_progression(self, capsys):
        code, out, _ = run(capsys, "simulate", "--base", "const:3", "--probs",
                           "pconst:1", "--steps", "5")
        assert code == 0
        assert out == "step,state\n0,0\n1,1\n2,2\n3,3\n4,4\n5,5\n"

    def test_fixed_seed_byte_identical(self, capsys, tmp_path):
        for name in ("a.csv", "b.csv"):
            run(capsys, "simulate", "--base", "const:2", "--probs",
                "pconst:0.5", "--steps", "200", "--seed", "9",
                "--out", str(tmp_path / name))
        assert ((tmp_path / "a.csv").read_bytes()
                == (tmp_path / "b.csv").read_bytes())

    def test_zero_steps_single_row(self, capsys):
        code, out, _ = run(capsys, "simulate", "--base", "const:2", "--probs",
                           "pconst:0.5", "--start", "7", "--steps", "0")
        assert code == 0
        assert out == "step,state\n0,7\n"
