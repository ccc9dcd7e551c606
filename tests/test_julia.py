import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochadd import julia
from stochadd.cli import PRESETS
from stochadd.julia import (
    DEFAULT_WINDOW,
    FiberedSystem,
    _render_band,
    _trap_radii,
    band_depth,
    boundary_pixels,
    eigvec,
    factorization_check,
    orbit,
    render,
    stage_map,
    stage_values,
    witness,
    write_metadata,
    write_pbm,
    write_pgm,
)
from stochadd.machine import build_matrix
from stochadd.numeration import (
    BaseSeq,
    ProbSeq,
    base_product,
    parse_base_spec,
    parse_probs_spec,
)

SYS_HALF = FiberedSystem(BaseSeq("const", (2,)), ProbSeq("const", (0.5,)))
SYS_DISK = FiberedSystem(BaseSeq("const", (2,)), ProbSeq("const", (1.0,)))
SYS_37 = FiberedSystem(BaseSeq("const", (3,)), ProbSeq("const", (0.7,)))

unit_box = st.tuples(st.floats(-1, 1), st.floats(-1, 1)).map(lambda t: complex(*t))


class TestStageMap:
    def test_one_is_fixed(self):
        for sysm in (SYS_HALF, SYS_DISK, SYS_37):
            assert stage_map(sysm, 1, 1.0) == 1.0
            assert stage_map(sysm, 5, 1.0) == 1.0

    def test_hand_values(self):
        assert stage_map(SYS_HALF, 1, 0.0) == pytest.approx(1.0)
        assert stage_map(SYS_HALF, 1, 2.0) == pytest.approx(9.0)

    def test_pow_int(self):
        z = np.array([0.3 + 0.4j, -1.1 + 0.2j, 0.0, 1.0])
        assert julia._pow_int(z, 0) == 1 and julia._pow_int(0.5 + 0.5j, 0) == 1
        assert julia._pow_int(z, 1) is z
        for d in (2, 3, 6, 12, 13, 64):
            assert np.allclose(julia._pow_int(z, d), z ** d, rtol=1e-13, atol=0)
            assert julia._pow_int(complex(z[0]), d) == pytest.approx(complex(z[0]) ** d, rel=1e-13)


class TestOrbit:
    def test_escape_at_first_stage(self):
        res = orbit(SYS_HALF, 2.0, 50)
        assert res.escaped and res.stage == 1 and res.final == pytest.approx(9.0)

    def test_bounded_cycle_through_one(self):
        res = orbit(SYS_HALF, 0.0, 30, keep_trace=True)
        assert not res.escaped
        assert all(abs(v - 1.0) < 1e-14 for v in res.trace)

    def test_fixed_point_everywhere(self):
        for sysm in (SYS_HALF, SYS_DISK, SYS_37,
                     FiberedSystem(BaseSeq("fib"), ProbSeq("const", (0.8,)))):
            assert not orbit(sysm, 1.0, 100).escaped

    def test_escape_stage_certifies(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            res = orbit(SYS_37, lam, 60, keep_trace=True)
            if res.escaped:
                assert abs(res.trace[res.stage - 1]) > 1.0
                assert all(abs(v) <= 1.0 for v in res.trace[:res.stage - 1])

    def test_bailout_one_matches_large_bailout(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            tight = orbit(SYS_HALF, lam, 200).escaped
            v = lam
            loose = False
            for r in range(1, 201):
                v = stage_map(SYS_HALF, r, v)
                if not abs(v) <= 1e6:
                    loose = True
                    break
            assert tight == loose


    def test_nan_stage_escapes(self):
        # At d = 17 711 the power of a rescaled value of modulus 1.5 overflows
        # to inf * inf - inf * inf: the stage value is nan+nanj, whose modulus
        # compares False with the bailout either way.
        sysm = FiberedSystem(parse_base_spec("list:17711;tail=2"), parse_probs_spec("pconst:0.55"))
        lam = 0.45 + 0.55 * 1.5 * cmath.exp(1j * math.pi / 4)
        with np.errstate(invalid="ignore", over="ignore"):
            assert cmath.isnan(stage_map(sysm, 1, lam))
        res = orbit(sysm, lam, 3)
        assert (res.escaped, res.stage) == (True, 1)
        escaped, stage = _render_band(sysm, np.array([lam]), 3)
        assert (escaped.tolist(), stage.tolist()) == ([True], [1])


class TestStageValues:
    def test_binary_recurrence_start(self):
        assert stage_values(SYS_HALF, 0.0, 1)[-1] == -1.0
        assert stage_values(SYS_HALF, 0.0, 2)[-1] == 1.0

    def test_one_everywhere(self):
        assert stage_values(SYS_37, 1.0, 7)[-1] == 1.0

    @given(unit_box)
    @settings(max_examples=100)
    def test_power_consistency(self, lam):
        # composed stage value equals the normalized value to the d_r, while bounded
        vals = stage_values(SYS_37, lam, 20)
        v = complex(lam)
        for r, i in enumerate(vals, start=1):
            f = stage_map(SYS_37, r, v)
            rel = abs(f - i ** SYS_37.d(r)) / max(1.0, abs(f))
            assert rel < 1e-12
            v = f
            if abs(v) > 1.0:
                break


class TestEigvec:
    def test_all_ones_at_one(self):
        assert np.allclose(eigvec(SYS_37, 1.0, 27), 1.0)

    def test_alternating_at_zero(self):
        assert np.allclose(eigvec(SYS_HALF, 0.0, 4), [1, -1, 1, -1])

    def test_zero_power_convention(self):
        lam = 1.0 - 0.5  # stage-1 value is exactly 0
        assert np.allclose(eigvec(SYS_HALF, lam, 2), [1.0, 0.0])

    def test_bounded_lambda_keeps_unit_bound(self):
        n = base_product(SYS_HALF.base, 6)
        for lam in (0.0, 0.25, 0.5 + 0.4j):
            if orbit(SYS_HALF, lam, 200).escaped:
                continue
            assert np.abs(eigvec(SYS_HALF, lam, n)).max() <= 1.0 + 1e-9

    def test_escaped_lambda_grows(self):
        rng = np.random.default_rng(3)
        grown = 0
        trials = 0
        while trials < 10:
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            res = orbit(SYS_HALF, lam, 200)
            if not (res.escaped and res.stage <= 10):
                continue
            trials += 1
            vals = stage_values(SYS_HALF, lam, res.stage + 13)
            prod = 1.0 + 0j
            for j in range(1, 12):
                prod *= vals[res.stage + j]
                if abs(prod) > 10:
                    grown += 1
                    break
        assert grown == trials


class TestWitness:
    def test_equals_eigvec_when_depth_covers(self):
        n = 27
        lam = 0.2 + 0.1j
        assert np.allclose(witness(SYS_37, lam, 10, n), eigvec(SYS_37, lam, n))

    def test_all_ones_at_one(self):
        assert np.allclose(witness(SYS_37, 1.0, 3, 81), 1.0)

    def test_residual_bound_example(self):
        n = 27
        mat = build_matrix(n, SYS_37.base, SYS_37.probs)
        csr = mat.to_csr()
        mask = mat.unclipped_mask()
        g = witness(SYS_37, 0.4, 2, n)
        resid = np.abs((csr @ g - 0.4 * g)[mask]).max()
        assert resid <= 3 * 0.7**2 + 1e-12

    def test_residual_bound_depth_sweep(self):
        from stochadd.spectrum import sample_bounded
        configs = [
            FiberedSystem(BaseSeq("const", (2,)), ProbSeq("const", (0.5,))),
            FiberedSystem(BaseSeq("const", (3,)), ProbSeq("const", (0.7,))),
            FiberedSystem(BaseSeq("periodic", (3, 5)),
                          ProbSeq("list", (0.6, 0.9), 0.7)),
        ]
        for sysm in configs:
            n = min(base_product(sysm.base, 6), 2048)
            mat = build_matrix(n, sysm.base, sysm.probs)
            csr = mat.to_csr()
            mask = mat.unclipped_mask()
            for lam in sample_bounded(sysm, 5, depth=200, seed=8):
                for t in range(1, 9):
                    g = witness(sysm, lam, t, n)
                    resid = float(np.abs((csr @ g - lam * g)[mask]).max())
                    assert resid <= 3.0 * sysm.probs.prefix_product(t) + 1e-12


class TestFactorization:
    def test_fixed_point_zero_residual(self):
        assert factorization_check(SYS_HALF, 1.0, 6, 3) == 0.0

    def test_hand_case(self):
        assert factorization_check(SYS_HALF, 0.3, 4, 2) < 1e-10

    @given(unit_box, st.integers(2, 12))
    @settings(max_examples=150)
    def test_random_sweep(self, lam, r):
        if abs(lam) > 1 or orbit(SYS_HALF, lam, r).escaped:
            return
        k = max(1, r // 2)
        assert factorization_check(SYS_HALF, lam, r, k) < 1e-9

    def test_bad_k(self):
        with pytest.raises(ValueError):
            factorization_check(SYS_HALF, 0.1, 3, 3)


class TestRender:
    def test_unit_disk_membership(self):
        grid = render(SYS_DISK, (-1.5, 1.5, -1.5, 1.5), (128, 128), 60)
        centers = grid.center_at(*np.indices(grid.escaped.shape))
        inside = np.abs(centers) <= 1.0
        mismatch = inside != ~grid.escaped
        band = np.abs(np.abs(centers) - 1.0) <= grid.pixel_diag()
        assert not (mismatch & ~band).any()

    def test_pixel_one_is_bounded(self):
        grid = render(SYS_37, (0.9, 1.1, -0.1, 0.1), (21, 21), 100)
        row, col = 10, 10
        assert abs(grid.center_at(row, col) - 1.0) < 1e-12
        assert not grid.escaped[row, col]

    def test_matches_scalar_orbit(self):
        grid = render(SYS_37, (-1.6, 1.6, -1.6, 1.6), (64, 64), 50)
        rng = np.random.default_rng(2)
        for _ in range(60):
            r = int(rng.integers(0, 64))
            c = int(rng.integers(0, 64))
            res = orbit(SYS_37, grid.center_at(r, c), 50)
            assert res.escaped == grid.escaped[r, c]
            assert res.stage == grid.stage[r, c]

    def test_thread_count_does_not_change_output(self):
        a = render(SYS_37, (-1.6, 1.6, -1.6, 1.6), (96, 64), 60, threads=1)
        b = render(SYS_37, (-1.6, 1.6, -1.6, 1.6), (96, 64), 60, threads=4)
        assert (a.escaped == b.escaped).all() and (a.stage == b.stage).all()
        c = render(SYS_37, (-1.6, 1.6, -1.6, 1.6), (96, 64), 60, threads=0)
        assert (a.escaped == c.escaped).all() and (a.stage == c.stage).all()

    def test_conjugacy_with_classical_quadratic(self):
        # every stage is the same quadratic; conjugating by
        # u = (z - 1/2) / (1/4) turns it into u -> u^2 - 2 (escape radius 2)
        grid = render(SYS_HALF, (-1.2, 1.8, -1.2, 1.2), (160, 128), 200)
        c = -0.5 / 0.25
        u = (grid.center_at(*np.indices(grid.escaped.shape)) - 0.5) / 0.25
        member = np.ones(u.shape, dtype=bool)
        active = member.copy()
        for _ in range(200):
            u = np.where(active, u * u + c, u)
            esc = active & (np.abs(u) > 2.0)
            member[esc] = False
            active &= ~esc
            u = np.where(active, u, 2.0)
        mismatch = member != ~grid.escaped
        edge = np.zeros_like(member)
        for mask in (member, ~grid.escaped):
            edge[1:, :] |= mask[1:, :] != mask[:-1, :]
            edge[:-1, :] |= mask[1:, :] != mask[:-1, :]
            edge[:, 1:] |= mask[:, 1:] != mask[:, :-1]
            edge[:, :-1] |= mask[:, 1:] != mask[:, :-1]
        assert not (mismatch & ~edge).any()

    def test_containment_in_stage_one_disk(self):
        grid = render(SYS_37, (-1.6, 1.6, -1.6, 1.6), (128, 128), 100)
        centers = grid.center_at(*np.indices(grid.escaped.shape))
        bounded = ~grid.escaped
        dist = np.abs(centers - (1 - 0.7))
        assert (dist[bounded] <= 0.7 + grid.pixel_diag()).all()

    def test_zero_area_window(self):
        with pytest.raises(ValueError):
            render(SYS_DISK, (1.0, 1.0, 0.0, 1.0), (8, 8), 5)

    def test_band_depth_scales(self):
        assert band_depth((256, 256)) == 12
        assert band_depth((1024, 1024)) == 15
        assert band_depth((4, 4)) == 8


class TestBoundaryPixels:
    def test_disk_annulus(self):
        grid = render(SYS_DISK, (-1.5, 1.5, -1.5, 1.5), (128, 128), 60)
        pix = boundary_pixels(grid)
        mods = np.abs(np.array([grid.center_at(r, c) for r, c in pix]))
        assert len(pix) > 100
        assert (np.abs(mods - 1.0) <= 2 * grid.pixel_diag()).all()

    def test_all_escaped_empty(self):
        grid = render(SYS_DISK, (2.0, 3.0, 2.0, 3.0), (16, 16), 10)
        assert grid.escaped.all()
        assert len(boundary_pixels(grid)) == 0

    def test_all_bounded_empty(self):
        grid = render(SYS_DISK, (-0.2, 0.2, -0.2, 0.2), (16, 16), 10)
        assert not grid.escaped.any()
        assert len(boundary_pixels(grid)) == 0

    @pytest.mark.parametrize("preset", ["fig3a", "fig6a"])
    def test_center_at_arrays_match_scalar_formula(self, preset):
        base_spec, probs_spec = PRESETS[preset]
        sysm = FiberedSystem(parse_base_spec(base_spec), parse_probs_spec(probs_spec))
        grid = render(sysm, DEFAULT_WINDOW, (256, 256), band_depth((256, 256)))
        pix = boundary_pixels(grid)
        re_min, _, _, im_max = grid.window
        dx, dy = grid.pixel_size()
        want = [(re_min + (c + 0.5) * dx, im_max - (r + 0.5) * dy) for r, c in pix.tolist()]
        got = grid.center_at(pix[:, 0], pix[:, 1])
        assert np.column_stack([got.real, got.imag]).tobytes() == np.array(want).tobytes()
        scalar = [grid.center_at(r, c) for r, c in pix.tolist()]
        assert all(type(z) is complex for z in scalar)
        assert np.array(scalar).tobytes() == got.tobytes()


class TestImageFiles:
    def test_pgm_pbm_meta(self, tmp_path):
        grid = render(SYS_DISK, (-1.5, 1.5, -1.5, 1.5), (32, 20), 40)
        pgm = tmp_path / "g.pgm"
        pbm = tmp_path / "g.pbm"
        meta = tmp_path / "g.meta"
        write_pgm(grid, pgm)
        write_pbm(grid, pbm)
        write_metadata(grid, meta, "const:2", "pconst:1")
        raw = pgm.read_bytes()
        assert raw.startswith(b"P5\n32 20\n255\n")
        pixels = np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8).reshape(20, 32)
        assert ((pixels == 255) == ~grid.escaped).all()
        assert (pixels[grid.escaped] < 255).all()
        braw = pbm.read_bytes()
        assert braw.startswith(b"P4\n32 20\n")
        bits = np.unpackbits(
            np.frombuffer(braw.split(b"\n", 2)[2], dtype=np.uint8).reshape(20, -1),
            axis=1)[:, :32]
        assert (bits.astype(bool) == ~grid.escaped).all()
        text = meta.read_text()
        assert "base=const:2" in text and "width=32" in text and "depth=40" in text

    def test_byte_determinism(self, tmp_path):
        grid = render(SYS_37, (-1.6, 1.6, -1.6, 1.6), (48, 48), 30)
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(grid, a)
        write_pgm(render(SYS_37, (-1.6, 1.6, -1.6, 1.6), (48, 48), 30), b)
        assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# Trapping radii in the escape kernel
# ---------------------------------------------------------------------------

U = 2.0 ** -53
PRESET_SYSTEMS = {name: FiberedSystem(parse_base_spec(b), parse_probs_spec(p))
                  for name, (b, p) in PRESETS.items()}


def untrapped_band(sysm, lam_flat, depth, bailout=1.0):
    """The escape kernel without trapping radii: every parameter runs until it
    escapes or reaches ``depth``.  The oracle for ``_render_band``."""
    n = lam_flat.size
    escaped = np.zeros(n, dtype=bool)
    stage = np.full(n, depth, dtype=np.int32)
    active = np.arange(n)
    v = lam_flat.astype(complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(1, depth + 1):
            v = stage_map(sysm, r, v)
            esc = ~(np.abs(v) <= bailout)  # a NaN modulus escapes too
            if esc.any():
                hit = active[esc]
                escaped[hit] = True
                stage[hit] = r
                active = active[~esc]
                v = v[~esc]
                if active.size == 0:
                    break
    return escaped, stage


def assert_matches_oracle(sysm, lam, depth, bailout=1.0):
    got_esc, got_stage = _render_band(sysm, lam, depth, bailout)
    want_esc, want_stage = untrapped_band(sysm, lam, depth, bailout)
    assert np.array_equal(got_esc, want_esc)
    assert np.array_equal(got_stage, want_stage)
    return want_esc


def unit_circle(rng, count):
    """Doubles on the unit circle whose np.abs is <= 1."""
    lam = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))
    return lam[np.abs(lam) <= 1.0]


def near_modulus(rng, mod, count, ulps=40):
    """Points whose modulus is within about ``ulps`` ulp of ``mod``."""
    m = mod + rng.integers(-ulps, ulps + 1, count) * np.spacing(mod)
    return m * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))


def near_radius(sysm, depth, rng, count, k, ulps=40):
    """Parameters whose stage-k value lies near tau_k: stage-k points within
    ``ulps`` ulp of that modulus, pulled back through stages k..1 on random
    branches.  For k = 1 the stage-1 value stays within a few ulp of the
    target; deeper pull-backs spread wider but still straddle tau_k."""
    tau_k = _trap_radii(sysm, depth, 1.0)[k]
    if tau_k <= 0.0:
        return np.empty(0, dtype=complex)
    w = near_modulus(rng, tau_k, count, ulps)
    for r in range(k, 0, -1):
        d = sysm.d(r)
        branch = np.exp(2j * np.pi * rng.integers(0, d, count) / d)
        w = sysm.center(r) + sysm.p(r) * (np.abs(w) ** (1.0 / d)
                                          * np.exp(1j * np.angle(w) / d) * branch)
    return w


def first_radius(sysm, depth):
    """First stage >= 1 with a positive radius."""
    return min(r for r, t in enumerate(_trap_radii(sysm, depth, 1.0)) if r >= 1 and t > 0.0)


def probe_parameters(sysm, depth, rng):
    tau0 = _trap_radii(sysm, depth, 1.0)[0]
    parts = [rng.uniform(-1.6, 1.6, (120, 2)).view(complex)[:, 0],
             unit_circle(rng, 60),
             near_radius(sysm, depth, rng, 60, min(first_radius(sysm, depth), 5)),
             np.array([sysm.center(1), 1.0, 0.0])]
    if tau0 > 0.0:
        parts.append(near_modulus(rng, tau0, 60))
    return np.concatenate(parts)


class TestTrapRadii:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_radii_are_sentinel_or_usable(self, name):
        tau = _trap_radii(PRESET_SYSTEMS[name], 200, 1.0)
        assert len(tau) == 201 and tau[200] == 1.0
        assert all(t == -1.0 or 2.0 ** -900 <= t <= 1.0 for t in tau)
        # once a stage traps nothing, no earlier stage does
        first = min(r for r, t in enumerate(tau) if t > 0.0)
        assert all(t > 0.0 for t in tau[first:])

    def test_bailout_below_one_traps_nothing(self):
        assert _trap_radii(SYS_DISK, 50, 0.999) == [-1.0] * 51
        assert _trap_radii(SYS_DISK, 50, float("nan")) == [-1.0] * 51

    def test_any_bailout_from_one_gives_the_same_radii(self):
        for sysm in (SYS_DISK, SYS_37, PRESET_SYSTEMS["fig8a"]):
            assert _trap_radii(sysm, 120, 1.0) == _trap_radii(sysm, 120, 1e6)

    def test_disk_radii_stay_just_below_one(self):
        tau = _trap_radii(SYS_DISK, 200, 1.0)
        assert all(1.0 - 1e-13 < t < 1.0 - 8 * U for t in tau[:200])


class TestHostRounding:
    """The per-operation error bounds that ``_trap_radii`` relies on, checked
    against exact rational arithmetic on this numpy build."""

    @staticmethod
    def draws(count, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-300, 2, count)
        return rng.uniform(-2, 2, (count, 2)).view(complex)[:, 0] * scale

    def test_abs_within_four_units(self):
        z = self.draws(2000, 0)
        for lam, a in zip(z.tolist(), np.abs(z).tolist()):
            exact = Fraction(lam.real) ** 2 + Fraction(lam.imag) ** 2
            assert Fraction(a) ** 2 <= (1 + 4 * Fraction(U)) ** 2 * exact
            assert Fraction(a) ** 2 >= (1 - 4 * Fraction(U)) ** 2 * exact

    @pytest.mark.parametrize("p", [0.7, 0.55, 0.3, 0.81, 0.695, 0.704, 1.0])
    def test_subtract_and_divide_by_real(self, p):
        z = self.draws(1000, 1)
        c = 1.0 - p
        x = z - c
        assert np.array_equal(x.imag, z.imag)
        w = julia._rescale(FiberedSystem(BaseSeq("const", (2,)), ProbSeq("const", (p,))), 1, z)
        assert np.array_equal(w, x * (1.0 / p))
        assert np.array_equal(w, x / p)  # numpy's Smith division, up to the sign of a zero
        bound = (1 + Fraction(U)) ** 2
        for xk, wk in zip(np.concatenate([x.real, x.imag]).tolist(),
                          np.concatenate([w.real, w.imag]).tolist()):
            exact = Fraction(xk) / Fraction(p)
            assert abs(Fraction(wk)) <= bound * abs(exact) + Fraction(2.0 ** -1074)

    @pytest.mark.parametrize("size", [1, 2, 1000])
    def test_complex_multiply_within_three_units(self, size):
        rng = np.random.default_rng(size)
        a = rng.uniform(-1, 1, (1000, 2)).view(complex)[:, 0]
        b = rng.uniform(-1, 1, (1000, 2)).view(complex)[:, 0]
        for j in range(0, 1000, size):
            for x, y, o in zip(a[j:j + size].tolist(), b[j:j + size].tolist(),
                               (a[j:j + size] * b[j:j + size]).tolist()):
                er = Fraction(x.real) * Fraction(y.real) - Fraction(x.imag) * Fraction(y.imag)
                ei = Fraction(x.real) * Fraction(y.imag) + Fraction(x.imag) * Fraction(y.real)
                err2 = (Fraction(o.real) - er) ** 2 + (Fraction(o.imag) - ei) ** 2
                assert err2 <= (3 * Fraction(U)) ** 2 * (er ** 2 + ei ** 2)


class TestTrappedKernel:
    @given(st.sampled_from(sorted(PRESETS)), st.sampled_from([1, 7, 60, 200]),
           st.sampled_from([1.0, 1e6]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_untrapped_kernel(self, name, depth, bailout, seed):
        sysm = PRESET_SYSTEMS[name]
        lam = probe_parameters(sysm, depth, np.random.default_rng(seed))
        assert_matches_oracle(sysm, lam, depth, bailout)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_render_matches_untrapped_kernel(self, name):
        sysm = PRESET_SYSTEMS[name]
        grid = render(sysm, DEFAULT_WINDOW, (96, 96), 200, threads=2)
        lam = grid.center_at(*np.indices(grid.escaped.shape)).reshape(-1)
        esc, stage = untrapped_band(sysm, lam, 200)
        assert np.array_equal(grid.escaped.reshape(-1), esc)
        assert np.array_equal(grid.stage.reshape(-1), stage)

    @pytest.mark.parametrize("depth", [1, 60])
    def test_unit_circle_rounding_escapes(self, depth):
        # on the closed unit disk every stage value stays on it in exact
        # arithmetic, yet about half of these doubles escape by rounding
        lam = unit_circle(np.random.default_rng(7), 20_000)
        esc = assert_matches_oracle(SYS_DISK, lam, depth)
        if depth == 60:
            assert 0.3 < esc.mean() < 0.7

    def test_just_outside_the_unit_circle(self):
        rng = np.random.default_rng(8)
        lam = near_modulus(rng, 1.0, 4000, ulps=10 ** 7)
        esc = assert_matches_oracle(SYS_DISK, lam, 60)
        assert esc[np.abs(lam) > 1.0].all()

    @pytest.mark.parametrize("name", ["fig3a", "fig4a", "fig4c", "fig6a", "fig6b", "fig8a",
                                      "fig8b", "fig10c"])
    @pytest.mark.parametrize("bailout", [1.0, 1e6])
    def test_first_radius_neighbourhood(self, name, bailout):
        sysm = PRESET_SYSTEMS[name]
        k = first_radius(sysm, 200)
        lam = near_radius(sysm, 200, np.random.default_rng(9), 3000, k)
        v = lam
        for r in range(1, k + 1):
            v = stage_map(sysm, r, v)
        tau_k = _trap_radii(sysm, 200, 1.0)[k]
        assert (np.abs(v) <= tau_k).any() and (np.abs(v) > tau_k).any()
        assert_matches_oracle(sysm, lam, 200, bailout)

    def test_zero_stage_value_is_not_trapped(self):
        # lam = 1 - p_1 makes v_1 exactly 0; stage 2 maps it to (-0.7/0.3)**2
        sysm = FiberedSystem(BaseSeq("const", (2,)), parse_probs_spec("plist:0.5,0.3;tail=0.3"))
        lam = np.array([0.5 + 0j])
        assert stage_map(sysm, 1, lam)[0] == 0
        esc, stage = _render_band(sysm, lam, 200)
        assert esc[0] and stage[0] == 2
        assert_matches_oracle(sysm, lam, 200)

    def test_bailout_below_one(self):
        rng = np.random.default_rng(10)
        lam = np.concatenate([unit_circle(rng, 500), 0.9 * unit_circle(rng, 500),
                              rng.uniform(-1, 1, (500, 2)).view(complex)[:, 0]])
        for sysm in (SYS_DISK, SYS_HALF, PRESET_SYSTEMS["fig3a"]):
            assert_matches_oracle(sysm, lam, 40, bailout=0.5)


class TestBlockedKernel:
    """The stage loop runs over slices of ``julia._BLOCK`` parameters and
    compacts the survivors in place; grids that span several slices must
    still match the untrapped oracle."""

    # 300 x 130 is two full slices and a ragged third, with slice boundaries
    # mid-row; a 40 000-wide row spans three slices on its own
    @pytest.mark.parametrize("name, window, resolution", [
        ("fig3a", DEFAULT_WINDOW, (300, 130)),
        ("fig8a", DEFAULT_WINDOW, (300, 130)),
        ("fig10c", DEFAULT_WINDOW, (300, 130)),
        ("fig3a", (-1.6, 1.6, -0.1, 0.1), (40_000, 2)),
    ])
    @pytest.mark.parametrize("threads", [0, 1, 2, 3, 7])
    def test_render_across_blocks(self, name, window, resolution, threads):
        width, height = resolution
        assert width * height > 2 * julia._BLOCK and (width * height) % julia._BLOCK
        assert julia._BLOCK % width or width > julia._BLOCK
        sysm = PRESET_SYSTEMS[name]
        grid = render(sysm, window, resolution, 200, threads=threads)
        lam = grid.center_at(*np.indices(grid.escaped.shape)).reshape(-1)
        esc, stage = untrapped_band(sysm, lam, 200)
        assert 0 < esc.sum() < esc.size
        assert np.array_equal(grid.escaped.reshape(-1), esc)
        assert np.array_equal(grid.stage.reshape(-1), stage)

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("name", ["fig3a", "fig6a", "fig8b", "fig10a"])
    def test_small_blocks(self, monkeypatch, block, name):
        monkeypatch.setattr(julia, "_BLOCK", block)
        sysm = PRESET_SYSTEMS[name]
        lam = probe_parameters(sysm, 200, np.random.default_rng(11))
        assert_matches_oracle(sysm, lam, 200)
        assert_matches_oracle(sysm, lam, 60, bailout=1e6)

    def test_input_is_left_unchanged(self):
        sysm = PRESET_SYSTEMS["fig3a"]
        rng = np.random.default_rng(12)
        lam = rng.uniform(-1.6, 1.6, (3 * julia._BLOCK + 5, 2)).view(complex)[:, 0]
        before = lam.copy()
        lam.setflags(write=False)
        esc = assert_matches_oracle(sysm, lam, 200)
        assert 0 < esc.sum() < esc.size
        assert lam.tobytes() == before.tobytes()
        writable = before.copy()
        _render_band(sysm, writable, 200)
        assert writable.tobytes() == before.tobytes()
