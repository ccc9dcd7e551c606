import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochadd.cli import PRESETS
from stochadd.julia import (
    DEFAULT_WINDOW,
    FiberedSystem,
    band_depth,
    boundary_pixels,
    eigvec,
    factorization_check,
    orbit,
    render,
    stage_map,
    stage_value,
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
                if abs(v) > 1e6:
                    loose = True
                    break
            assert tight == loose


class TestStageValues:
    def test_binary_recurrence_start(self):
        assert stage_value(SYS_HALF, 0.0, 1) == -1.0
        assert stage_value(SYS_HALF, 0.0, 2) == 1.0

    def test_one_everywhere(self):
        assert stage_value(SYS_37, 1.0, 7) == 1.0

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
        centers = grid.pixel_centers()
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

    def test_conjugacy_with_classical_quadratic(self):
        # every stage is the same quadratic; conjugating by
        # u = (z - 1/2) / (1/4) turns it into u -> u^2 - 2 (escape radius 2)
        grid = render(SYS_HALF, (-1.2, 1.8, -1.2, 1.2), (160, 128), 200)
        c = -0.5 / 0.25
        u = (grid.pixel_centers() - 0.5) / 0.25
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
        centers = grid.pixel_centers()
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
