import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochadd.cli import PRESETS
from stochadd.julia import DEFAULT_WINDOW, FiberedSystem, band_depth, orbit, render, stage_map
from stochadd.numeration import BaseSeq, ProbSeq, parse_base_spec, parse_probs_spec
from stochadd.spectrum import (
    CHAIN_DEGREE_LIMIT,
    DEDUP_TOL,
    PointSpectrum,
    RootSet,
    _boundary_chain,
    _dedup,
    _deep_interior_mask,
    _preimage_array,
    boundary_density,
    classify_spectrum,
    point_spectrum,
    sample_bounded,
    transient_limit_check,
    verify_eigenpairs,
    write_roots_csv,
)

SYS_HALF = FiberedSystem(BaseSeq("const", (2,)), ProbSeq("const", (0.5,)))
SYS_DISK = FiberedSystem(BaseSeq("const", (2,)), ProbSeq("const", (1.0,)))
SYS_37 = FiberedSystem(BaseSeq("const", (3,)), ProbSeq("const", (0.7,)))
SYS_GEO = FiberedSystem(BaseSeq("const", (2,)),
                        ProbSeq("geo", c=0.25, gamma=0.5))
SYS_FIG3A = FiberedSystem(parse_base_spec(PRESETS["fig3a"][0]),
                          parse_probs_spec(PRESETS["fig3a"][1]))


def dedup_oracle(roots, tol):
    """The definition: greedy in input order, abs(a - b) <= tol, sorted output."""
    kept = []
    for z in roots:
        z = complex(z)
        if all(abs(z - a) > tol for a in kept):
            kept.append(z)
    kept.sort(key=lambda z: (z.real, z.imag))
    return np.asarray(kept, dtype=complex)


@st.composite
def root_clouds(draw, tol):
    """Clusters of duplicates, ulp and tol-edge offsets, and a-b-c chains
    whose ends lie more than tol apart, in a permuted input order."""
    finite = st.floats(-2, 2, allow_nan=False, allow_infinity=False)
    lattice = st.builds(lambda i, j, h: complex(i, j) * h * tol,
                        st.integers(-4, 4), st.integers(-4, 4), st.sampled_from([0.5, 0.7]))
    pts = []
    for _ in range(draw(st.integers(0, 6))):
        c = draw(st.one_of(st.builds(complex, finite, finite), lattice))
        kind = draw(st.sampled_from(["dup", "ulp", "edge", "chain"]))
        if kind == "dup":
            pts += [c] * draw(st.integers(1, 4))
        elif kind == "ulp":
            for _ in range(draw(st.integers(1, 4))):
                toward = draw(st.sampled_from([-np.inf, np.inf]))
                if draw(st.booleans()):
                    c = complex(np.nextafter(c.real, toward), c.imag)
                else:
                    c = complex(c.real, np.nextafter(c.imag, toward))
                pts.append(c)
        else:
            u = np.exp(1j * draw(st.sampled_from([0.0, np.pi / 2, np.pi / 4]) | finite))
            if kind == "edge":
                pts += [c, c + tol * (1 + draw(st.sampled_from([-1e-6, 0.0, 1e-6]))) * u]
            else:
                step = draw(st.floats(0.55, 1.0)) * tol
                pts += [c, c + step * u, c + 2 * step * u]
    return draw(st.permutations(pts))


def preimages(sysm, r, w):
    """The d_r solutions of f_r(z) = w."""
    return _preimage_array(sysm, r, np.asarray([w], dtype=complex)).reshape(-1)


class TestPreimage:
    def test_binary_half_of_one(self):
        roots = sorted(preimages(SYS_HALF, 1, 1.0), key=lambda z: z.real)
        assert np.allclose(roots, [0.0, 1.0], atol=1e-12)

    def test_critical_value_double_root(self):
        roots = preimages(SYS_HALF, 1, 0.0)
        assert np.allclose(roots, [0.5, 0.5])

    def test_contains_one(self):
        for sysm in (SYS_HALF, SYS_37, SYS_DISK):
            roots = preimages(sysm, 3, 1.0)
            assert min(abs(z - 1.0) for z in roots) < 1e-12

    @given(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), st.integers(1, 6))
    @settings(max_examples=150)
    def test_soundness(self, wt, r):
        w = complex(*wt)
        for z in preimages(SYS_37, r, w):
            assert abs(stage_map(SYS_37, r, z) - w) < 1e-10


class TestPointSpectrum:
    def test_depth_one_and_two(self):
        ps = point_spectrum(SYS_HALF, 2)
        assert np.allclose(sorted(ps.levels[0].roots, key=lambda z: z.real),
                           [0.0, 1.0], atol=1e-12)
        assert np.allclose(sorted(ps.levels[1].roots, key=lambda z: z.real),
                           [0.0, 0.5, 1.0], atol=1e-12)

    def test_always_contains_one(self):
        for sysm in (SYS_HALF, SYS_37, SYS_GEO):
            ps = point_spectrum(sysm, 4)
            for level in ps.levels:
                assert min(abs(z - 1.0) for z in level.roots) < 1e-10

    def test_residuals_after_refinement(self):
        ps = point_spectrum(SYS_37, 6)
        for level in ps.levels:
            for z in level.roots:
                v = complex(z)
                for r in range(1, level.depth + 1):
                    v = stage_map(SYS_37, r, v)
                assert abs(v - 1.0) < 1e-9

    def test_nesting(self):
        ps = point_spectrum(SYS_37, 5)
        for a, b in zip(ps.levels, ps.levels[1:]):
            for z in a.roots:
                assert min(abs(z - w) for w in b.roots) < 1e-9

    def test_cap_flags_partial(self):
        ps = point_spectrum(SYS_HALF, 10, cap=8)
        assert ps.capped and len(ps.levels) == 3

    def test_root_count_bound(self):
        ps = point_spectrum(SYS_37, 5)
        for level in ps.levels:
            assert len(level.roots) <= 3 ** level.depth

    def test_roots_of_unity_for_certain_machine(self):
        ps = point_spectrum(SYS_DISK, 8)
        roots = ps.levels[-1].roots
        assert len(roots) == 256
        assert np.abs(np.abs(roots) - 1.0).max() < 1e-12

    def test_roots_stay_bounded_at_drift_limited_depth(self):
        # roots lie in the bounded set and their trace is eventually the
        # constant 1.  Forward iteration amplifies the ~1e-12 refinement
        # residual by ~d/p per stage (and chain values sitting exactly on
        # modulus 1 carry ulp noise), so the float-checkable statement uses
        # drift-aware tolerances over depth + 12 stages.
        for sysm in (SYS_HALF, SYS_37, SYS_GEO):
            ps = point_spectrum(sysm, 6)
            for level in ps.levels:
                for z in level.roots:
                    v = complex(z)
                    for r in range(1, level.depth + 13):
                        v = stage_map(sysm, r, v)
                        assert abs(v) <= 1.0 + 1e-8 or r > level.depth
                        if r > level.depth:
                            assert abs(v - 1.0) < 1e-3


class TestDedup:
    def test_pair_exactly_tol_apart_merges(self):
        # a bucket grid of width tol rounds these to buckets 0 and 2
        z = np.array([0.5e-10, 1.5e-10], dtype=complex)
        assert abs(z[1] - z[0]) <= 1e-10
        assert _dedup(z, 1e-10).tolist() == [0.5e-10]

    def test_chain_order_decides(self):
        a, b, c = 0.0, 0.6e-10, 1.2e-10
        assert _dedup(np.array([a, b, c], dtype=complex), 1e-10).tolist() == [a, c]
        assert _dedup(np.array([b, a, c], dtype=complex), 1e-10).tolist() == [b]

    @given(st.sampled_from([DEDUP_TOL, 1e-3]).flatmap(
        lambda tol: st.tuples(st.just(tol), root_clouds(tol))))
    @settings(max_examples=300, deadline=None)
    def test_matches_greedy_oracle(self, case):
        tol, pts = case
        roots = np.asarray(pts, dtype=complex).reshape(-1)
        got = _dedup(roots, tol)
        want = dedup_oracle(roots, tol)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_quiet_under_warnings_as_errors(self):
        band = render(SYS_FIG3A, DEFAULT_WINDOW, (128, 128), band_depth((128, 128)))
        deep = render(SYS_FIG3A, DEFAULT_WINDOW, (96, 96), 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ps = point_spectrum(SYS_FIG3A, 4)
            roots = ps.all_roots()
            boundary_density(band, list(ps.levels))
            rep = transient_limit_check(SYS_FIG3A, deep, 8, 60)
            assert _dedup(np.zeros(0, dtype=complex), DEDUP_TOL).shape == (0,)
            assert _dedup(roots[:1], DEDUP_TOL).tolist() == roots[:1].tolist()
            assert _dedup(roots[::-1], DEDUP_TOL).tobytes() == roots.tobytes()
        assert rep.interior_ok


class TestVerifyEigenpairs:
    def test_alternating_eigenvector(self):
        rep = verify_eigenpairs(SYS_HALF, np.array([0.0 + 0j]), 64, tol=1e-10)
        assert rep.ok and rep.max_residual < 1e-10

    def test_stochastic_fixed_vector(self):
        rep = verify_eigenpairs(SYS_37, np.array([1.0 + 0j]), 81, tol=1e-12)
        assert rep.max_residual < 1e-12

    def test_depth_three_sweep(self):
        ps = point_spectrum(SYS_37, 3)
        rep = verify_eigenpairs(SYS_37, ps.all_roots(), 3**6, tol=1e-9)
        assert rep.ok


class TestBoundaryDensity:
    def test_unit_circle_roots_converge(self):
        grid = render(SYS_DISK, (-1.5, 1.5, -1.5, 1.5), (256, 256), 60)
        ps = point_spectrum(SYS_DISK, 8)
        sup4, _ = boundary_density(grid, [ps.levels[3]])
        sup8, cov8 = boundary_density(grid, [ps.levels[7]])
        assert sup8 < sup4
        assert cov8 == 1.0

    def test_single_root_definition(self):
        grid = render(SYS_DISK, (-1.5, 1.5, -1.5, 1.5), (128, 128), 60)
        pix = np.array([grid.center_at(r, c) for r, c in
                        np.argwhere(~grid.escaped)])
        rs = RootSet(1, np.array([1.0 + 0j]))
        sup, cov = boundary_density(grid, rs)
        from stochadd.julia import boundary_pixels
        centers = np.array([grid.center_at(r, c) for r, c in boundary_pixels(grid)])
        assert sup == pytest.approx(np.abs(centers - 1.0).max())

    def test_empty_boundary_raises(self):
        grid = render(SYS_DISK, (-0.2, 0.2, -0.2, 0.2), (16, 16), 10)
        with pytest.raises(ValueError):
            boundary_density(grid, RootSet(1, np.array([1.0 + 0j])))


class TestTransientLimits:
    def test_certain_machine(self):
        grid = render(SYS_DISK, (-1.5, 1.5, -1.5, 1.5), (192, 192), 100)
        rep = transient_limit_check(SYS_DISK, grid, 10, 60, seed=1)
        assert rep.ok
        assert rep.interior_max_mod < 0.1
        assert rep.boundary_min_mod >= rep.lower_bound
        assert rep.boundary_max_mod <= 1.0 + 1e-12

    @pytest.mark.parametrize("r_probe", [1, 3, 6])
    def test_interior_probe_matches_scalar_loop(self, r_probe):
        grid = render(SYS_GEO, (-1.6, 1.6, -1.6, 1.6), (96, 96), 200)
        rep = transient_limit_check(SYS_GEO, grid, 30, r_probe, seed=4)
        interior = np.argwhere(_deep_interior_mask(grid))
        pick = np.random.default_rng(4).choice(len(interior), size=30, replace=False)
        want = 0.0
        for row, col in interior[pick].tolist():
            v = grid.center_at(row, col)
            for r in range(1, r_probe + 1):
                v = stage_map(SYS_GEO, r, v)
            want = max(want, abs(v))
        # numpy may fuse multiply-adds that the scalar loop rounds twice; the
        # relative error grows by about the degree d = 2 per stage
        assert rep.interior_max_mod == pytest.approx(want, rel=8 * 2.0**-52 * 2**r_probe)

    def test_interior_power_collapse(self):
        v = 0.5 + 0j
        for r in range(1, 21):
            v = stage_map(SYS_DISK, r, v)
        assert abs(v) < 1e-100

    def test_circle_modulus_preserved(self):
        # exact statement: modulus 1 is preserved by every stage.  In floats
        # the modulus error doubles per squaring, so the tolerance at stage r
        # is 2**r ulps; this conditioning is why boundary samples come from
        # backward chains rather than forward iteration.
        lam = complex(np.cos(0.7), np.sin(0.7))
        v = lam
        for r in range(1, 21):
            v = stage_map(SYS_DISK, r, v)
            assert abs(abs(v) - 1.0) < 2.0**r * 1e-15

    def test_geometric_tail(self):
        grid = render(SYS_GEO, (-1.6, 1.6, -1.6, 1.6), (192, 192), 200)
        rep = transient_limit_check(SYS_GEO, grid, 10, 60, seed=2)
        assert rep.ok
        assert rep.chain_step_residual < 1e-9

    def test_recurrent_config_rejected(self):
        grid = render(SYS_37, (-1.6, 1.6, -1.6, 1.6), (64, 64), 30)
        with pytest.raises(ValueError):
            transient_limit_check(SYS_37, grid, 5, 30)


def reference_sample(sysm, count, depth, seed, rejection_budget=None):
    """One draw pair and one scalar orbit at a time, then the chain fill.

    Returns the sample and whether rejection alone filled it.
    """
    rng = np.random.default_rng(seed)
    budget = rejection_budget if rejection_budget is not None else 40 * count
    re_min, re_max, im_min, im_max = DEFAULT_WINDOW
    out = []
    for _ in range(budget):
        if len(out) >= count:
            break
        lam = complex(rng.uniform(re_min, re_max), rng.uniform(im_min, im_max))
        if not orbit(sysm, lam, depth).escaped:
            out.append(lam)
    filled = len(out) == count
    chain_depth = next((j - 1 for j in range(1, depth + 1) if sysm.d(j) > CHAIN_DEGREE_LIMIT),
                       depth)
    while len(out) < count:
        lam, _, resid = _boundary_chain(sysm, chain_depth, rng)
        if resid < 1e-9:
            out.append(lam)
    return out, filled


class TestSampleBounded:
    def test_matches_scalar_rejection_loop(self):
        branches = set()
        for preset in ("fig3a", "fig6c", "fig7a", "fig8a", "fig10c"):
            base_spec, probs_spec = PRESETS[preset]
            sysm = FiberedSystem(parse_base_spec(base_spec), parse_probs_spec(probs_spec))
            for seed in range(3):
                for count, budget in ((10, None), (5, 3)):
                    expected, filled = reference_sample(sysm, count, 200, seed, budget)
                    branches.add(filled)
                    got = sample_bounded(sysm, count, depth=200, seed=seed,
                                         rejection_budget=budget)
                    assert got == expected, (preset, seed, count, budget)
        assert branches == {True, False}

    def test_fat_set_uses_rejection(self):
        lams = sample_bounded(SYS_DISK, 8, depth=100, seed=0)
        assert len(lams) == 8
        assert all(not orbit(SYS_DISK, lam, 100).escaped for lam in lams)

    def test_dust_set_falls_back_to_chains(self):
        lams = sample_bounded(SYS_37, 8, depth=200, seed=0)
        assert len(lams) == 8
        # chain points carry certified bounded stage values
        for lam in lams:
            vals = []
            v = complex(lam)
            for r in range(1, 8):
                v = stage_map(SYS_37, r, v)
                vals.append(abs(v))
            assert max(vals) <= 1.0 + 1e-9


class TestClassifySpectrum:
    def test_recurrent_claims_full_set(self):
        rep = classify_spectrum(SYS_37, 3, resolution=128)
        assert rep.regime == "null_recurrent_like"
        assert rep.claimed_spectrum == "E"
        assert rep.evidence["eigenpairs"].ok

    def test_certain_machine_claims_circle(self):
        rep = classify_spectrum(SYS_DISK, 3, resolution=128)
        assert rep.regime == "transient_like"
        assert rep.claimed_spectrum == "boundary_of_E"
        assert rep.ok

    def test_geometric_tail_claims_boundary(self):
        rep = classify_spectrum(SYS_GEO, 3, resolution=128)
        assert rep.claimed_spectrum == "boundary_of_E"
        assert rep.ok


class TestRootsCsv:
    def test_format(self, tmp_path):
        ps = point_spectrum(SYS_HALF, 2)
        path = tmp_path / "roots.csv"
        write_roots_csv(ps, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "depth,re,im"
        assert len(lines) == 1 + 2 + 3

    def test_partial_flag(self, tmp_path):
        ps = point_spectrum(SYS_HALF, 10, cap=8)
        path = tmp_path / "roots.csv"
        write_roots_csv(ps, path)
        assert path.read_text().startswith("# partial")

    def test_enumeration_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_roots_csv(point_spectrum(SYS_37, 5), a)
        write_roots_csv(point_spectrum(SYS_37, 5), b)
        assert a.read_bytes() == b.read_bytes()
