import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.spatial
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from stochadd import spectrum
from stochadd.cli import PRESETS
from stochadd.julia import (
    DEFAULT_WINDOW,
    FiberedSystem,
    MembershipGrid,
    _jet,
    _pow_int,
    _rescale,
    band_depth,
    boundary_pixels,
    eigvec,
    orbit,
    render,
    stage_map,
)
from stochadd.machine import build_matrix
from stochadd.numeration import (
    BaseSeq,
    ProbSeq,
    largest_level,
    levels,
    parse_base_spec,
    parse_probs_spec,
)
from stochadd.spectrum import (
    CHAIN_DEGREE_LIMIT,
    PointSpectrum,
    RootSet,
    _boundary_chain,
    _deep_interior_mask,
    _preimage_array,
    boundary_density,
    classify_spectrum,
    eigen_residuals,
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
# Stage maps that scale by 1e8 for 41 stages: eigenvectors overflow, and no
# backward chain certifies.
SYS_TINY_P = FiberedSystem(BaseSeq("const", (2,)), ProbSeq("list", (1e-8,) * 41, 1.0))
SYS_FIG3A = FiberedSystem(parse_base_spec(PRESETS["fig3a"][0]),
                          parse_probs_spec(PRESETS["fig3a"][1]))


def all_roots_oracle(ps):
    """``all_roots`` by its definition, the union of the levels: the deepest
    level, once every shallower level lies within 1e-10 of it."""
    deepest = ps.levels[-1].roots
    for level in ps.levels[:-1]:
        assert max_gap(level.roots, deepest) <= 1e-10
    return deepest


def max_gap(src, dst):
    """Largest distance from a root of ``src`` to the nearest root of ``dst``."""
    dist, _ = cKDTree(np.column_stack([dst.real, dst.imag])).query(
        np.column_stack([src.real, src.imag]))
    return dist.max()


def preimages(sysm, r, w):
    """The d_r solutions of f_r(z) = w."""
    return _preimage_array(sysm, r, np.asarray([w], dtype=complex)).reshape(-1)


def dividing_jet(z, d, p, c):
    """``_jet`` dividing the derivative by p, for arrays as for scalars."""
    h = _rescale(z, p, c)
    return _pow_int(h, d), d * _pow_int(h, d - 1) / p


def reference_levels(sysm, depth_max, monkeypatch):
    """``point_spectrum``'s levels through the dividing jet, each sorted by
    ``lexsort`` on (real, imag)."""
    out = []
    with monkeypatch.context() as m:
        m.setattr(spectrum, "_jet", dividing_jet)
        for depth in range(1, depth_max + 1):
            w = np.asarray([1.0 + 0.0j])
            for j in range(depth, 0, -1):
                w = _preimage_array(sysm, j, w).reshape(-1)
            w = spectrum._composed_newton(sysm, w, depth)
            out.append(w[np.lexsort((w.imag, w.real))])
    return out


def reference_residual(mat, lam, v):
    """One root's eigen-residual: one CSR matrix-vector product, then lam * v."""
    return float(np.abs((mat.to_csr() @ v - lam * v)[mat.unclipped_mask()]).max())


def bits(a):
    """The bits of a complex or float array, so that NaN equals NaN and -0 differs from 0."""
    return np.ascontiguousarray(a).view(np.uint64)


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
        # 0.5, the critical point of f_1, is a double root of f~_2 - 1: f_2(f_1(0.5)) = f_2(0) = 1
        assert np.allclose(sorted(ps.levels[1].roots, key=lambda z: z.real),
                           [0.0, 0.5, 0.5, 1.0], atol=1e-12)

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

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_levels_nest_and_all_roots_is_their_union(self, preset):
        # Every f_r fixes 1, so a level-r root is a level-(r+1) root, and the
        # union of the levels is the deepest level.
        base_spec, probs_spec = PRESETS[preset]
        sysm = FiberedSystem(parse_base_spec(base_spec), parse_probs_spec(probs_spec))
        ps = point_spectrum(sysm, 3 if base_spec in ("even", "fib") else 5)
        for a, b in zip(ps.levels, ps.levels[1:]):
            assert max_gap(a.roots, b.roots) <= 1e-10
        assert ps.all_roots().tobytes() == all_roots_oracle(ps).tobytes()

    @pytest.mark.parametrize("base_spec, probs_spec, r_max",
                             [(*PRESETS[name], None) for name in sorted(PRESETS)]
                             + [("const:2", "pconst:0.5", 8)])
    def test_root_sum_is_trace(self, base_spec, probs_spec, r_max):
        # The depth-s roots are the eigenvalues of S_s, the machine mod q_s,
        # with multiplicity. Only the stay 1 - p_1 lies on its diagonal, so
        # they sum to q_s (1 - p_1). A lost or merged root moves the sum by
        # about its modulus; at p = 1/2 the binary machine has double roots.
        sysm = FiberedSystem(parse_base_spec(base_spec), parse_probs_spec(probs_spec))
        qs = levels(sysm.base, 2000)[:r_max]
        ps = point_spectrum(sysm, len(qs), cap=2000)
        assert [len(level.roots) for level in ps.levels] == qs
        for q, level in zip(qs, ps.levels):
            assert abs(level.roots.sum() - q * (1.0 - sysm.probs.at(1))) <= 1e-12 * q

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


class TestOracles:
    """The array paths of ``point_spectrum`` give the bits of the dividing
    jet and the two-key sort."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_levels_match_dividing_jet_and_lexsort(self, preset, monkeypatch):
        sysm = system(preset)
        depth_max = len(levels(sysm.base, 20_000))
        want = reference_levels(sysm, depth_max, monkeypatch)
        got = point_spectrum(sysm, depth_max, cap=20_000)
        assert not got.capped and len(got.levels) == depth_max
        for level, roots in zip(got.levels, want):
            assert np.array_equal(bits(level.roots), bits(roots))

    @pytest.mark.parametrize("p", [0.7, 0.55, 0.3, 0.81, 0.695, 0.704, 1.0, 1e-8])
    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_jet_differs_from_division_only_in_zero_signs(self, d, p):
        rng = np.random.default_rng(d)
        scale = 10.0 ** rng.integers(-300, 300, (500, 2))
        z = (rng.uniform(-2, 2, (500, 2)) * scale).view(complex)[:, 0]
        special = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 1e300]
        z = np.concatenate([z, [complex(x, y) for x in special for y in special]])
        c = 1.0 - p
        with np.errstate(over="ignore", invalid="ignore"):
            fz, fpz = _jet(z, d, p, c)
            want_fz, want_fpz = dividing_jet(z, d, p, c)
        assert np.array_equal(bits(fz), bits(want_fz))
        # At d = 1 the derivative is the scalar 1 / p.
        fpz, want_fpz = np.broadcast_to(fpz, z.shape), np.broadcast_to(want_fpz, z.shape)
        for got, want in ((fpz.real, want_fpz.real), (fpz.imag, want_fpz.imag)):
            # == equates -0 and 0; NaN sits in the same places.
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(bits(got[got != 0]), bits(want[want != 0]))
        # Scalars, numpy's or Python's, keep the division.
        for x in [*z[::37], *z[::37].tolist()]:
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = _jet(x, d, p, c)[1], dividing_jet(x, d, p, c)[1]
            assert bits(np.array([got])).tolist() == bits(np.array([want])).tolist()

    @given(st.lists(st.tuples(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0]),
                              st.sampled_from([-2.0, -0.0, 0.0, 0.5, 3.0])),
                    max_size=40))
    @settings(max_examples=200)
    def test_stable_sort_is_lexsort(self, pairs):
        w = np.array([complex(*pair) for pair in pairs], dtype=complex)
        assert np.array_equal(bits(np.sort(w, kind="stable")),
                              bits(w[np.lexsort((w.imag, w.real))]))


class TestDedup:
    """No merge looks at the roots, which are kept with multiplicity: a
    non-finite root must still raise, and roots crowding one real part must
    still cost linear memory."""

    def test_crowded_spectrum_memory_is_linear(self):
        # The inner stages (d = 2, p = 0.4) have real roots, and d = 4 in the
        # first stage puts half of the depth-12 roots at re ~ 0.3, within an ulp.
        sysm = FiberedSystem(parse_base_spec("list:4;tail=2"),
                             parse_probs_spec("plist:0.7;tail=0.4"))
        tracemalloc.start()
        try:
            ps = point_spectrum(sysm, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ps.all_roots().size == 4 * 2**11
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan),
                                     complex(np.inf, np.nan)])
    def test_non_finite_roots_raise(self, bad, monkeypatch):
        roots = np.array([1 + 1j, bad, 1 + 1j, 0.5], dtype=complex)
        monkeypatch.setattr(spectrum, "_composed_newton", lambda sys, z, depth: roots)
        with pytest.raises(ValueError, match="roots must be finite"):
            point_spectrum(SYS_HALF, 2)

    def test_quiet_under_warnings_as_errors(self):
        band = render(SYS_FIG3A, DEFAULT_WINDOW, (128, 128), band_depth((128, 128)))
        deep = render(SYS_FIG3A, DEFAULT_WINDOW, (96, 96), 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ps = point_spectrum(SYS_FIG3A, 4)
            boundary_density(band, list(ps.levels))
            rep = transient_limit_check(SYS_FIG3A, deep, 8, 60)
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

    def test_no_roots_fails(self):
        rep = verify_eigenpairs(SYS_HALF, np.zeros(0, dtype=complex), 64)
        assert rep.residuals == () and rep.max_residual == 0.0 and not rep.ok

    def test_nan_residual_fails(self):
        roots = point_spectrum(SYS_TINY_P, 4).all_roots()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = verify_eigenpairs(SYS_TINY_P, roots, 2048, tol=1e-8)
        assert any(math.isnan(resid) for _, resid in rep.residuals)
        assert math.isnan(rep.max_residual) and not rep.ok


class TestBatchedEigenCheck:
    """``verify_eigenpairs`` against one ``eigvec`` and one matrix-vector
    product per root, bit for bit, in one batch and in several."""

    @staticmethod
    def assert_matches_one_root_path(sysm, roots, n, monkeypatch):
        mat = build_matrix(n, sysm.base, sysm.probs)
        want = [reference_residual(mat, lam, eigvec(sysm, lam, n)) for lam in roots]
        for batch in (spectrum.EIGEN_BATCH, 7 * n, n):
            monkeypatch.setattr(spectrum, "EIGEN_BATCH", batch)
            rep = verify_eigenpairs(sysm, roots, n)
            assert [lam for lam, _ in rep.residuals] == roots.tolist()
            assert np.array_equal(bits(np.array([r for _, r in rep.residuals])),
                                  bits(np.array(want)))
            assert bits(np.array([rep.max_residual])) == bits(np.array([np.max(want)]))

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets_at_largest_level(self, preset, monkeypatch):
        sysm = system(preset)
        n = largest_level(sysm.base, 2048)
        ps = point_spectrum(sysm, 12, cap=20_000)
        rng = np.random.default_rng(11)
        roots = ps.all_roots()[rng.choice(ps.all_roots().size, 40, replace=False)]
        roots = np.concatenate([roots, ps.levels[0].roots, [0.3 + 0.4j]])
        self.assert_matches_one_root_path(sysm, roots, n, monkeypatch)

    def test_overflowing_eigenvectors(self, monkeypatch):
        roots = point_spectrum(SYS_TINY_P, 4).all_roots()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_matches_one_root_path(SYS_TINY_P, roots, 2048, monkeypatch)

    def test_nan_in_any_column_propagates(self):
        mat = build_matrix(27, SYS_37.base, SYS_37.probs)
        vecs = np.ones((3, 27), dtype=complex)
        vecs[1, 5] = complex(math.nan, 0.0)
        resid = eigen_residuals(mat, mat.to_csr(), [1.0, 1.0, 1.0], vecs)
        assert math.isnan(resid[1]) and resid[0] == resid[2] == 0.0


def two_tree_density(grid, rootsets):
    """``boundary_density`` by its definition: a KD-tree of the roots queried
    by every boundary-pixel centre, and a KD-tree of the centres queried by
    every root."""
    centers = np.array([grid.center_at(r, c) for r, c in boundary_pixels(grid)])
    roots = np.concatenate([rs.roots for rs in rootsets])
    cpts = np.column_stack([centers.real, centers.imag])
    rpts = np.column_stack([roots.real, roots.imag])
    sup = cKDTree(rpts).query(cpts)[0].max()
    near = cKDTree(cpts).query(rpts)[0] <= 2.0 * grid.pixel_diag()
    return float(sup), float(np.mean(near))


def float_hex(pair):
    return [float(x).hex() for x in pair]


def band_grid(sysm, res):
    return render(sysm, DEFAULT_WINDOW, (res, res), band_depth((res, res)))


def system(preset):
    return FiberedSystem(parse_base_spec(PRESETS[preset][0]), parse_probs_spec(PRESETS[preset][1]))


# Roots per ring about a boundary centre.  Where a ring passes just beyond
# two diagonals through a pixel whose centre lies within reach, it must stay
# uncovered; 256 roots put one there for most rings that cross such a pixel.
RING = 256


@st.composite
def lattice_cases(draw):
    """A grid of at most 9 x 9 pixels, square or not, whose bounded pixels are
    drawn, with rings of roots at 2 diagonals +- 4 ulps from boundary
    centres, roots in and around the window, and roots near 1e300."""
    height, width = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    re_min, im_min = draw(st.floats(-3, 3)), draw(st.floats(-3, 3))
    span_re, span_im = draw(st.floats(0.01, 4)), draw(st.floats(0.01, 4))
    if draw(st.booleans()):  # square pixels
        span_im = span_re * height / width
    bounded = draw(st.sets(st.tuples(st.integers(0, height - 1), st.integers(0, width - 1)),
                           min_size=1, max_size=draw(st.sampled_from([2, 81]))))  # sparse or not
    escaped = np.ones((height, width), dtype=bool)
    for row, col in bounded:
        escaped[row, col] = False
    window = (re_min, re_min + span_re, im_min, im_min + span_im)
    grid = MembershipGrid(window, width, height, 1, escaped, np.zeros((height, width), np.int32))
    pix = boundary_pixels(grid)
    assume(pix.size > 0)
    diag = grid.pixel_diag()
    roots = []
    for k, turn, ulps in draw(st.lists(st.tuples(st.integers(0, len(pix) - 1),
                                                 st.floats(0, 2 * math.pi / RING),
                                                 st.integers(-4, 4)), min_size=1, max_size=4)):
        dist = 2.0 * diag
        for _ in range(abs(ulps)):
            dist = float(np.nextafter(dist, math.copysign(math.inf, ulps)))
        center = grid.center_at(*pix[k])
        roots += [center + cmath.rect(dist, turn + 2 * math.pi * i / RING) for i in range(RING)]
    pad = 2.0 * diag
    roots += [complex(x, y) for x, y in draw(st.lists(st.tuples(
        st.floats(window[0] - pad, window[1] + pad), st.floats(window[2] - pad, window[3] + pad)),
        max_size=16))]
    roots += [complex(x, y) for x, y in draw(st.lists(st.tuples(
        st.sampled_from([-1e300, 0.0, 1e300]), st.sampled_from([-1e300, 0.0, 1.7e308])),
        max_size=2))]
    cut = draw(st.integers(0, len(roots)))
    return grid, [RootSet(1, np.array(roots[:cut], dtype=complex)),
                  RootSet(2, np.array(roots[cut:], dtype=complex))]


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
        rs = RootSet(1, np.array([1.0 + 0j]))
        sup, cov = boundary_density(grid, [rs])
        centers = np.array([grid.center_at(r, c) for r, c in boundary_pixels(grid)])
        assert sup == pytest.approx(np.abs(centers - 1.0).max())

    @pytest.mark.parametrize("preset, depth", [("fig3a", 8), ("fig6a", 5), ("fig8a", 5),
                                               ("fig10a", 7)])
    def test_matches_balanced_tree_bit_for_bit(self, preset, depth):
        sysm = system(preset)
        grid = band_grid(sysm, 256)
        rootsets = list(point_spectrum(sysm, depth).levels)
        assert float_hex(boundary_density(grid, rootsets)) == float_hex(
            two_tree_density(grid, rootsets))

    @pytest.mark.parametrize("preset, depth", [("fig3a", 8), ("fig6a", 5), ("fig8a", 5),
                                               ("fig10a", 7)])
    def test_sup_distance_does_not_depend_on_leaf_size(self, preset, depth):
        sysm = system(preset)
        grid = band_grid(sysm, 256)
        rootsets = list(point_spectrum(sysm, depth).levels)
        roots = np.concatenate([rs.roots for rs in rootsets])
        centers = grid.center_at(*boundary_pixels(grid).T)
        cpts = np.column_stack([centers.real, centers.imag])
        rpts = np.column_stack([roots.real, roots.imag])
        want = cKDTree(rpts).query(cpts)[0].max().hex()
        assert boundary_density(grid, rootsets)[0].hex() == want
        for leafsize in (1, 16, 64, spectrum.ROOT_LEAFSIZE, 256, 4096):
            tree = cKDTree(rpts, leafsize=leafsize, balanced_tree=False, compact_nodes=False)
            assert tree.query(cpts)[0].max().hex() == want

    @pytest.mark.parametrize("res", [256, 512])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets_match_two_trees(self, preset, res):
        sysm = system(preset)
        grid = band_grid(sysm, res)
        rootsets = list(point_spectrum(sysm, len(levels(sysm.base, 20_000))).levels)
        if boundary_pixels(grid).size == 0:
            with pytest.raises(ValueError, match="grid has no boundary pixels"):
                boundary_density(grid, rootsets)
        else:
            assert float_hex(boundary_density(grid, rootsets)) == float_hex(
                two_tree_density(grid, rootsets))

    @settings(max_examples=150, deadline=None)
    @given(lattice_cases())
    def test_lattice_matches_two_trees(self, case):
        grid, rootsets = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = boundary_density(grid, rootsets)
        assert float_hex(got) == float_hex(two_tree_density(grid, rootsets))

    @pytest.mark.parametrize("preset, depth", [("fig3a", 8), ("fig10a", 7)])
    def test_lattice_decides_preset_roots(self, preset, depth, monkeypatch):
        # The centre tree may be asked about at most 1% of the roots; the
        # root tree, asked by the centres, shows the recording works.
        sysm = system(preset)
        grid = band_grid(sysm, 256)
        rootsets = list(point_spectrum(sysm, depth).levels)
        n_roots = sum(rs.roots.size for rs in rootsets)
        n_centers = len(boundary_pixels(grid))
        asked = []  # (tree size, points asked about) per query

        class Recording(cKDTree):
            def query(self, x, *args, **kwargs):
                asked.append((self.n, len(x)))
                return super().query(x, *args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", Recording)
        boundary_density(grid, rootsets)
        assert (n_roots, n_centers) in asked
        assert sum(k for n, k in asked if n == n_centers) <= 0.01 * n_roots

    def test_far_window_goes_to_the_tree(self):
        # The doubles near 2**52 are the integers, so the boundary centre
        # 2**52 + 0.75 is stored as 2**52 + 1, half a pixel diagonal away.
        # The root's pixel is within reach of it, yet the root lies just past
        # two diagonals from the stored centre: only the tree can say so.
        escaped = np.ones((3, 2), dtype=bool)
        escaped[2, 1] = False
        grid = MembershipGrid((2.0**52, 2.0**52 + 1, 0.0, 0.25), 2, 3, 1, escaped,
                              np.zeros((3, 2), np.int32))
        rootsets = [RootSet(1, np.array([complex(2.0**52, 0.2109375)]))]
        want = two_tree_density(grid, rootsets)
        assert want[1] == 0.0
        assert float_hex(boundary_density(grid, rootsets)) == float_hex(want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf), complex(np.nan, 0)])
    def test_non_finite_roots_raise(self, bad):
        grid = render(SYS_DISK, (-1.5, 1.5, -1.5, 1.5), (32, 32), 60)
        with pytest.raises(ValueError, match="data must be finite"):
            boundary_density(grid, [RootSet(1, np.array([1.0, bad, 0.5j], dtype=complex))])

    @pytest.mark.parametrize("rootsets", [[], [RootSet(1, np.zeros(0, dtype=complex))]])
    def test_no_roots_raise(self, rootsets):
        grid = render(SYS_DISK, (-1.5, 1.5, -1.5, 1.5), (32, 32), 60)
        with pytest.raises(ValueError, match="no roots supplied"):
            boundary_density(grid, rootsets)

    def test_empty_boundary_raises(self):
        grid = render(SYS_DISK, (-0.2, 0.2, -0.2, 0.2), (16, 16), 10)
        with pytest.raises(ValueError):
            boundary_density(grid, [RootSet(1, np.array([1.0 + 0j]))])


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
        with pytest.raises(ValueError, match="requires a positive probability product"):
            transient_limit_check(SYS_37, grid, 5, 30)

    def test_underflowing_product_rejected_with_its_reason(self):
        tiny = FiberedSystem(BaseSeq("const", (3,)), parse_probs_spec("plist:1e-200,1e-200;tail=1"))
        grid = render(SYS_37, (-1.6, 1.6, -1.6, 1.6), (64, 64), 30)
        with pytest.raises(ValueError, match="positive but below double precision"):
            transient_limit_check(tiny, grid, 5, 30)

    @pytest.mark.parametrize("sample_count, r_probe, message", [
        (0, 60, "sample_count must be >= 1"),
        (10, 0, "r_probe must be >= 1"),
    ])
    def test_bad_arguments_raise(self, sample_count, r_probe, message):
        grid = render(SYS_DISK, (-1.5, 1.5, -1.5, 1.5), (64, 64), 100)
        with pytest.raises(ValueError, match=message):
            transient_limit_check(SYS_DISK, grid, sample_count, r_probe)


def reference_preimage(d, p, c, w, rng):
    """One uniformly chosen solution of f(z) = w for the stage map with table
    entries d, p, c: one ``rng.integers`` draw for the branch, then one Newton
    step in numpy-scalar arithmetic."""
    if d > CHAIN_DEGREE_LIMIT:
        raise ValueError(f"stage degree {d} too large for chain sampling")
    branch = int(rng.integers(0, d))
    z = c + p * w ** (1.0 / d) * np.exp(2j * np.pi * branch / d)
    fz, fpz = _jet(z, d, p, c)
    if abs(fpz) > 1e-12:
        z = z - (fz - w) / fpz
    return complex(z)


def reference_chain(sysm, depth, rng):
    """``_boundary_chain`` drawing its branch word one stage at a time."""
    d, p, c = sysm.stages(depth)
    vals = [0j] * (depth + 1)
    vals[depth] = 1.0 + 0.0j
    for j in range(depth, 0, -1):
        vals[j - 1] = reference_preimage(d[j], p[j], c[j], vals[j], rng)
    worst = 0.0
    for j in range(1, depth + 1):
        worst = max(worst, abs(stage_map(sysm, j, vals[j - 1]) - vals[j]))
    return vals[0], vals[1:], worst


def chain_bits(chain):
    """A chain's parameter, values and residual as hex strings, bit for bit."""
    lam, vals, resid = chain
    return [(z.real.hex(), z.imag.hex()) for z in (lam, *vals)], resid.hex()


class TestBoundaryChain:
    @pytest.mark.parametrize("depth", [0, 1, 7, 60])
    @pytest.mark.parametrize("base_spec", ["const:3", "periodic:3,5", "fib", "even",
                                           "list:2,3,4;tail=5"])
    def test_matches_per_stage_oracle(self, base_spec, depth):
        sysm = FiberedSystem(parse_base_spec(base_spec),
                             parse_probs_spec("plist:0.55,1,0.5;tail=0.7"))
        for seed in range(6):
            rngs = [np.random.default_rng(seed) for _ in range(2)]
            if seed % 2:
                # One 32-bit draw leaves half of a 64-bit word buffered.
                for rng in rngs:
                    rng.integers(0, 7)
                assert rngs[0].bit_generator.state["has_uint32"] == 1
            results = []
            for rng, chain in zip(rngs, (reference_chain, _boundary_chain)):
                try:
                    results.append(chain_bits(chain(sysm, depth, rng)))
                except ValueError as exc:
                    results.append(str(exc))
            assert results[0] == results[1], seed
            if isinstance(results[0], str):
                assert (base_spec, depth) == ("fib", 60)
                assert "too large for chain sampling" in results[0]
                continue
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
            # A lost or extra buffered half-word moves the next 32-bit draw.
            assert len({int(rng.integers(0, 2**31)) for rng in rngs}) == 1


def reference_sample(sysm, count, depth, seed, rejection_budget=None):
    """One draw pair and one scalar orbit at a time, then the chain fill, one
    stage draw at a time.

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
    d = sysm.stages(depth)[0]
    chain_depth = next((j - 1 for j in range(1, depth + 1) if d[j] > CHAIN_DEGREE_LIMIT), depth)
    while len(out) < count:
        lam, _, resid = reference_chain(sysm, chain_depth, rng)
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

    def test_chain_fill_stops_at_the_budget(self):
        with pytest.raises(ValueError, match="4 backward chains failed certification"):
            sample_bounded(SYS_TINY_P, 3, depth=200, seed=0, rejection_budget=4)

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


SYS_FIG10A = FiberedSystem(parse_base_spec(PRESETS["fig10a"][0]),
                           parse_probs_spec(PRESETS["fig10a"][1]))


def nan_at_call(monkeypatch, call):
    """Make the ``call``-th scalar ``spectrum._stage`` return NaN: one
    forward step of the residual check of one backward chain."""
    calls = []
    real = spectrum._stage

    def stage(z, d, p, c):
        if not isinstance(z, np.ndarray):
            calls.append(z)
            if len(calls) == call:
                return complex(math.nan, 0.0)
        return real(z, d, p, c)

    monkeypatch.setattr(spectrum, "_stage", stage)
    return calls


class TestNanChainStep:
    """A chain with a NaN step is not certified: Python's max(x, nan) is x,
    so such a chain once had the residual of its other steps."""

    def test_chain_residual_is_nan(self, monkeypatch):
        honest = _boundary_chain(SYS_FIG10A, 60, np.random.default_rng(5))
        assert honest[2] < 1e-9
        nan_at_call(monkeypatch, 7)
        lam, vals, resid = _boundary_chain(SYS_FIG10A, 60, np.random.default_rng(5))
        assert math.isnan(resid) and (lam, vals) == honest[:2]

    def test_sample_bounded_rejects_the_chain(self, monkeypatch):
        # fig10a's set is dust, so rejection keeps nothing and chains of 60
        # steps fill the sample; the NaN falls in the second chain.
        honest = sample_bounded(SYS_FIG10A, 3, depth=60, seed=2)
        calls = nan_at_call(monkeypatch, 70)
        got = sample_bounded(SYS_FIG10A, 3, depth=60, seed=2)
        assert len(calls) == 4 * 60
        assert got[:2] == [honest[0], honest[2]] and got[2] not in honest

    def test_transient_check_fails(self, monkeypatch):
        grid = render(SYS_GEO, (-1.6, 1.6, -1.6, 1.6), (96, 96), 200)
        assert transient_limit_check(SYS_GEO, grid, 5, 60, seed=2).ok
        nan_at_call(monkeypatch, 130)
        rep = transient_limit_check(SYS_GEO, grid, 5, 60, seed=2)
        assert math.isnan(rep.chain_step_residual) and not rep.boundary_ok and not rep.ok


class TestClassifySpectrum:
    def test_recurrent_claims_full_set(self):
        rep = classify_spectrum(SYS_37, 3, resolution=128)
        assert rep.regime == "null_recurrent_like"
        assert rep.claimed_spectrum == "E"
        assert rep.ok and rep.evidence["eigen_max_residual"] <= 1e-8

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
        # q_1 = 2 and q_2 = 4 rows; the double root 0.5 of depth 2 is listed twice
        assert len(lines) == 1 + 2 + 4

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
