"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each test enforces its stated tolerance (and, where stated, runtime).
"""

import contextlib
import math
import time

import numpy as np
import pytest

from stochadd.cli import PRESETS, main
from stochadd.julia import (
    FiberedSystem,
    band_depth,
    factorization_check,
    orbit,
    render,
    stage_map,
    witness,
)
from stochadd.machine import build_matrix, column_sum_report, simulate
from stochadd.numeration import (
    BaseSeq,
    ProbSeq,
    base_product,
    parse_base_spec,
    parse_probs_spec,
)
from stochadd.spectrum import (
    boundary_density,
    point_spectrum,
    sample_bounded,
    verify_eigenpairs,
)


@contextlib.contextmanager
def criterion(num, desc, max_seconds=None):
    t0 = time.time()
    try:
        yield
    except Exception:
        print(f"[criterion {num:02d}] FAIL {desc} ({time.time() - t0:.2f}s)")
        raise
    elapsed = time.time() - t0
    print(f"[criterion {num:02d}] PASS {desc} ({elapsed:.2f}s)")
    if max_seconds is not None:
        assert elapsed < max_seconds, f"criterion {num} exceeded {max_seconds}s"


def _system(base_spec, probs_spec):
    return FiberedSystem(parse_base_spec(base_spec), parse_probs_spec(probs_spec))


def _displayed_base3_block(p1, p2, p3):
    """The 10x10 leading block of the base-3 machine as a function of the
    first three stage probabilities (rows 0..8 dense, row 9 handled apart)."""
    m = np.zeros((9, 10))
    m[0, 0], m[0, 1] = 1 - p1, p1
    m[1, 1], m[1, 2] = 1 - p1, p1
    m[2, 0], m[2, 2], m[2, 3] = p1 * (1 - p2), 1 - p1, p1 * p2
    m[3, 3], m[3, 4] = 1 - p1, p1
    m[4, 4], m[4, 5] = 1 - p1, p1
    m[5, 3], m[5, 5], m[5, 6] = p1 * (1 - p2), 1 - p1, p1 * p2
    m[6, 6], m[6, 7] = 1 - p1, p1
    m[7, 7], m[7, 8] = 1 - p1, p1
    m[8, 0], m[8, 6], m[8, 8], m[8, 9] = (
        p1 * p2 * (1 - p3), p1 * (1 - p2), 1 - p1, p1 * p2 * p3)
    return m


def test_criterion_01_base3_matrix_reproduction():
    with criterion(1, "base-3 matrix matches displayed block", max_seconds=1.0):
        base = BaseSeq("const", (3,))
        rng = np.random.default_rng(101)
        for _ in range(5):
            p1, p2, p3 = rng.uniform(0.05, 0.95, size=3)
            probs = ProbSeq("list", (p1, p2, p3), 0.5)
            mat = build_matrix(10, base, probs)
            dense = mat.to_dense()
            expected = _displayed_base3_block(p1, p2, p3)
            assert np.abs(dense[:9] - expected).max() < 1e-14
            assert mat.rows[9].entries == ((9, pytest.approx(1 - p1, abs=1e-15)),)
            assert mat.clipped_rows == frozenset({9})


def test_criterion_02_stochasticity_random_configs():
    with criterion(2, "row/column stochasticity on 20 random configs",
                   max_seconds=10.0):
        rng = np.random.default_rng(20)
        for _ in range(20):
            plen = int(rng.integers(1, 6))
            base = BaseSeq("list",
                           tuple(int(rng.integers(2, 7)) for _ in range(plen)),
                           int(rng.integers(2, 7)))
            pvals = tuple(1.0 if rng.random() < 0.2
                          else float(rng.uniform(0.05, 1.0))
                          for _ in range(plen))
            probs = ProbSeq("list", pvals, float(rng.uniform(0.05, 1.0)))
            n = base_product(base, 5)
            mat = build_matrix(n, base, probs)
            mask = mat.unclipped_mask()
            for row in mat.rows:
                if mask[row.source]:
                    assert abs(row.total() - 1.0) <= 1e-12
            for m, total, complete in column_sum_report(mat):
                if complete:
                    assert abs(total - 1.0) <= 1e-12
            col0 = np.zeros(n)
            for row in mat.rows:
                for tgt, pr in row.entries:
                    if tgt == 0:
                        col0[row.source] += pr
            for t in range(1, 5):
                qt = base_product(base, t)
                assert abs(col0[:qt].sum()
                           - (1.0 - probs.prefix_product(t + 1))) <= 1e-12


def test_criterion_03_eigenpair_verification():
    with criterion(3, "eigen-equation residuals for enumerated roots",
                   max_seconds=30.0):
        sys_half = _system("const:2", "pconst:0.5")
        ps = point_spectrum(sys_half, 2)
        roots = ps.all_roots()
        assert np.allclose(sorted(z.real for z in roots), [0.0, 0.5, 1.0],
                           atol=1e-12)
        rep = verify_eigenpairs(sys_half, roots, 2**12, tol=1e-9)
        assert rep.ok, f"max residual {rep.max_residual}"

        sweep = [("const:2", "pconst:0.5"), ("const:3", "pconst:0.7"),
                 ("const:3", "plist:0.8,0.8,0.8;tail=1"),
                 ("periodic:3,5", "pconst:0.7"), ("fib", "pconst:0.8")]
        for base_spec, probs_spec in sweep:
            sysm = _system(base_spec, probs_spec)
            try:
                n = min(base_product(sysm.base, 8), 10_000)
            except OverflowError:
                n = 10_000
            rep = verify_eigenpairs(sysm, point_spectrum(sysm, 4).all_roots(),
                                    n, tol=1e-9)
            assert rep.ok, f"{base_spec} {probs_spec}: {rep.max_residual}"


def test_criterion_04_escape_criterion_exactness():
    with criterion(4, "bailout-1 vs bailout-1e6 agreement on 1e4 samples"):
        sysm = _system("const:2", "pconst:0.5")
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            tight = orbit(sysm, lam, 200).escaped
            v = lam
            loose = False
            for r in range(1, 201):
                v = stage_map(sysm, r, v)
                if abs(v) > 1e6:
                    loose = True
                    break
            assert tight == loose, f"status mismatch at {lam}"


def test_criterion_05_unit_disk_case():
    with criterion(5, "certain machine: disk membership and circle roots"):
        sysm = _system("const:2", "pconst:1")
        grid = render(sysm, (-1.5, 1.5, -1.5, 1.5), (512, 512), 200)
        centers = grid.center_at(*np.indices(grid.escaped.shape))
        inside = np.abs(centers) <= 1.0
        mismatch = inside != ~grid.escaped
        band = np.abs(np.abs(centers) - 1.0) <= grid.pixel_diag()
        assert not (mismatch & ~band).any()
        roots = point_spectrum(sysm, 8).levels[-1].roots
        assert len(roots) == 256
        assert np.abs(np.abs(roots) - 1.0).max() < 1e-9


def test_criterion_06_binary_cross_check():
    with criterion(6, "binary machine grid matches classical quadratic oracle"):
        p = 0.7
        sysm = _system("const:2", "pconst:0.7")
        grid = render(sysm, (-1.6, 1.6, -1.6, 1.6), (512, 512), 200)
        # independent oracle: conjugate u = (z - (1-p)) / p^2 turns every stage
        # into u -> u^2 + c with c = -(1-p)/p^2; classical escape radius 2
        c = -(1 - p) / p**2
        u = (grid.center_at(*np.indices(grid.escaped.shape)) - (1 - p)) / p**2
        member = np.ones(u.shape, dtype=bool)
        active = member.copy()
        for _ in range(200):
            u = np.where(active, u * u + c, u)
            esc = active & (np.abs(u) > 2.0)
            member[esc] = False
            active &= ~esc
            u = np.where(active, u, 2.0)
        mismatch = member != ~grid.escaped

        def interface(mask):
            edge = np.zeros_like(mask)
            edge[1:, :] |= mask[1:, :] != mask[:-1, :]
            edge[:-1, :] |= mask[1:, :] != mask[:-1, :]
            edge[:, 1:] |= mask[:, 1:] != mask[:, :-1]
            edge[:, :-1] |= mask[:, 1:] != mask[:, :-1]
            return edge

        allowed = interface(member) | interface(~grid.escaped)
        grown = allowed.copy()
        grown[1:, :] |= allowed[:-1, :]
        grown[:-1, :] |= allowed[1:, :]
        grown[:, 1:] |= allowed[:, :-1]
        grown[:, :-1] |= allowed[:, 1:]
        grown[1:, 1:] |= allowed[:-1, :-1]
        grown[:-1, :-1] |= allowed[1:, 1:]
        grown[1:, :-1] |= allowed[:-1, 1:]
        grown[:-1, 1:] |= allowed[1:, :-1]
        assert not (mismatch & ~grown).any()


def test_criterion_07_renormalization_identities():
    with criterion(7, "renormalization identities on interior windows",
                   max_seconds=10.0):
        from stochadd.machine import renorm_check
        cases = [(BaseSeq("const", (2,)), ProbSeq("const", (0.5,))),
                 (BaseSeq("const", (3,)), ProbSeq("const", (0.7,))),
                 (BaseSeq("const", (3,)), ProbSeq("const", (1.0,)))]
        for base, probs in cases:
            for n2 in (9, 16, 27):
                rep = renorm_check(1, n2, base, probs)
                assert rep.part2_max_diff < 1e-12, (base, n2)
                assert rep.part1_max_diff < 1e-12, (base, n2)


def test_criterion_08_witness_residual_bound():
    with criterion(8, "depth-truncated witness residuals within bound"):
        sysm = _system("const:3", "pconst:0.7")
        n = 3**7
        mat = build_matrix(n, sysm.base, sysm.probs)
        csr = mat.to_csr()
        mask = mat.unclipped_mask()
        lams = sample_bounded(sysm, 50, depth=200, seed=42)
        for lam in lams:
            for t in range(1, 7):
                g = witness(sysm, lam, t, n)
                resid = float(np.abs((csr @ g - lam * g)[mask]).max())
                assert resid <= 3.0 * 0.7**t + 1e-12, (lam, t, resid)


def test_criterion_09_boundary_density():
    with criterion(9, "enumerated roots hug the detected boundary at 1024^2"):
        for preset in ("fig3a", "fig10a"):
            sysm = _system(*PRESETS[preset])
            res = (1024, 1024)
            grid = render(sysm, (-1.6, 1.6, -1.6, 1.6), res, band_depth(res))
            ps = point_spectrum(sysm, 8)
            assert ps.levels[-1].depth == 8
            sup_dist, coverage = boundary_density(grid, list(ps.levels))
            assert coverage == 1.0, f"{preset}: coverage {coverage}"


def test_criterion_10_transient_limits():
    with criterion(10, "transient-regime stage-modulus limits at depth 60"):
        from stochadd.spectrum import transient_limit_check
        cases = [("pconst:1", (-1.5, 1.5, -1.5, 1.5)),
                 ("pgeo:c=0.25,gamma=0.5", (-1.6, 1.6, -1.6, 1.6))]
        for probs_spec, window in cases:
            sysm = _system("const:2", probs_spec)
            grid = render(sysm, window, (384, 384), 200)
            rep = transient_limit_check(sysm, grid, 40, 60, seed=5)
            assert rep.interior_max_mod < 0.1, probs_spec
            assert rep.boundary_min_mod >= 2 * rep.tail_product - 1 - 0.05
            assert rep.boundary_max_mod <= 1.0 + 1e-12
            assert rep.chain_step_residual < 1e-9


def test_criterion_11_factorization_identity():
    with criterion(11, "stage-value factorization residuals on 1e3 cases"):
        sysm = _system("const:2", "pconst:0.5")
        rng = np.random.default_rng(5)
        kept = 0
        while kept < 1000:
            lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(lam) > 1:
                continue
            r = int(rng.integers(2, 13))
            if orbit(sysm, lam, r).escaped:
                continue
            k = int(rng.integers(1, r))
            resid = factorization_check(sysm, lam, r, k)
            assert resid < 1e-9, (lam, r, k, resid)
            kept += 1


def test_criterion_12_simulation(tmp_path, capsys):
    with criterion(12, "reproducible trajectories and self-loop frequency"):
        for name in ("a.csv", "b.csv"):
            code = main(["simulate", "--base", "const:2", "--probs",
                         "pconst:0.5", "--steps", "2000", "--seed", "3",
                         "--out", str(tmp_path / name)])
            assert code == 0
        capsys.readouterr()
        assert ((tmp_path / "a.csv").read_bytes()
                == (tmp_path / "b.csv").read_bytes())

        traj = simulate(BaseSeq("const", (2,)), ProbSeq("const", (0.5,)),
                        0, 100_000, seed=11)
        states = np.array(traj.states)
        freq = np.mean(states[1:] == states[:-1])
        sigma = math.sqrt(0.25 / 100_000)
        assert abs(freq - 0.5) <= 3 * sigma
