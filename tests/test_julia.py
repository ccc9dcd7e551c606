import cmath
import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
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
    orbit,
    render,
    stage_map,
    witness,
    witnesses,
    write_metadata,
    write_pbm,
    write_pgm,
)
from stochadd.machine import build_matrix
from stochadd.numeration import (
    BaseSeq,
    ProbSeq,
    base_product,
    largest_level,
    levels,
    parse_base_spec,
    parse_probs_spec,
    to_digits,
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


STAGE_TABLE_BASES = [BaseSeq("const", (3,)), BaseSeq("periodic", (3, 5)),
                     BaseSeq("list", (2, 7, 4), 5), BaseSeq("even"), BaseSeq("fib")]
STAGE_TABLE_PROBS = [ProbSeq("const", (0.7,)), ProbSeq("list", (0.55, 1.0, 0.3), 0.695),
                     ProbSeq("geo", c=0.25, gamma=0.5)]


def assert_stage_table(sysm, table, depth):
    """Entries 1..depth of ``table`` are the ``at`` oracles, bit for bit."""
    d, p, c = table
    assert len(d) == len(p) == len(c) > depth and d[0] is p[0] is c[0] is None
    for r in range(1, depth + 1):
        assert d[r] == sysm.base.at(r) and type(d[r]) is int
        assert p[r].hex() == sysm.probs.at(r).hex()
        assert c[r].hex() == (1.0 - sysm.probs.at(r)).hex()


class TestStageTable:
    @pytest.mark.parametrize("shift", [0, 3])
    @pytest.mark.parametrize("probs", STAGE_TABLE_PROBS, ids=lambda q: q.kind)
    @pytest.mark.parametrize("base", STAGE_TABLE_BASES, ids=lambda b: b.kind)
    def test_matches_at_oracles(self, base, probs, shift):
        sysm = FiberedSystem(base.shift(shift), probs.shift(shift))
        for depth in (1, 7, 40, 200):
            assert_stage_table(sysm, sysm.stages(depth), depth)

    def test_grows_by_whole_rebuilds(self):
        sysm = FiberedSystem(BaseSeq("even"), ProbSeq("const", (0.8,)))
        first = sysm.stages(5)
        size = len(first[0])
        deeper = sysm.stages(size)
        assert deeper is not first and len(first[0]) == size  # the old table is untouched
        assert len(deeper[0]) - 1 >= 2 * (size - 1)
        assert sysm.stages(size) is deeper  # no rebuild while deep enough
        assert sysm == FiberedSystem(BaseSeq("even"), ProbSeq("const", (0.8,)))

    def test_two_threads_grow_one_fresh_table(self):
        depths = (64, 300)
        for _ in range(20):
            sysm = FiberedSystem(BaseSeq("even"), ProbSeq("geo", c=0.25, gamma=0.5))
            start = threading.Barrier(2)

            def grow(depth, sysm=sysm, start=start):
                start.wait()
                return sysm.stages(depth)

            with ThreadPoolExecutor(max_workers=2) as pool:
                tables = list(pool.map(grow, depths))
            for depth, table in zip(depths, tables):
                assert_stage_table(sysm, table, depth)
            assert_stage_table(sysm, sysm.stages(300), 300)


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


def stage_values(sysm, lam, r_max):
    """Normalized stage values i_1..i_r_max of lam in Python complex scalars:
    the oracle of ``julia._bounded_stage_values``, of the array kernel
    ``julia._c_*`` and of ``julia.witnesses``."""
    d, p, c = sysm.stages(r_max)
    out = []
    v = complex(lam)
    for r in range(1, r_max + 1):
        i = julia._rescale(v, p[r], c[r])
        out.append(i)
        v = julia._pow_int(i, d[r])
    return out


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
        d = SYS_37.stages(20)[0]
        v = complex(lam)
        for r, i in enumerate(vals, start=1):
            f = stage_map(SYS_37, r, v)
            rel = abs(f - i ** d[r]) / max(1.0, abs(f))
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


def witness_oracle(sysm, lam, t, n):
    """Entry m multiplies v_r ** a_r(m) left to right over the digits of m
    up to position t, each power a product of a_r factors v_r."""
    vals = stage_values(sysm, lam, t)
    out = []
    for m in range(n):
        acc = 1.0 + 0.0j
        for v, a in zip(vals, to_digits(m, sysm.base).digits):
            power = 1.0 + 0.0j
            for _ in range(a):
                power *= v
            acc *= power
        out.append(acc)
    return np.array(out)


class TestWitnessEntries:
    """Entry by entry against ``witness_oracle``, at sizes that are not levels
    and depths around the digit count L of n - 1.  rtol, not bit equality:
    array multiplies may fuse a multiply-add that the scalar oracle rounds
    twice."""

    @pytest.mark.parametrize("spec", [("periodic:3,5", "pconst:0.7"),
                                      ("fib", "plist:0.55,1;tail=0.55"),
                                      ("list:5,2;tail=3", "plist:0.7,0.85,0.6;tail=0.75")])
    @pytest.mark.parametrize("n", [1, 2, 100, 1000])
    def test_matches_scalar_oracle(self, spec, n):
        from stochadd.spectrum import point_spectrum, sample_bounded
        sysm = FiberedSystem(parse_base_spec(spec[0]), parse_probs_spec(spec[1]))
        depth = len(to_digits(n - 1, sysm.base).digits)
        # 1 - p_1 has stage value 0, so 0**0 = 1 shows.
        lams = [sysm.stages(1)[2][1], point_spectrum(sysm, 2).all_roots()[1],
                *sample_bounded(sysm, 2, depth=200, seed=1)]
        for lam in lams:
            for t in sorted({1, 2, depth - 1, depth, depth + 3} - {-1, 0}):
                want = witness_oracle(sysm, lam, t, n)
                assert np.isfinite(want).all()
                got = witness(sysm, lam, t, n)
                assert got.shape == (n,)
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_blocks_stay_within_twice_n(self):
        # d_2 = 10**6, but below n = 3 only digits 0 and 1 occur at position 2.
        sysm = FiberedSystem(parse_base_spec("list:2;tail=1000000"),
                             parse_probs_spec("pconst:0.7"))
        tracemalloc.start()
        try:
            got = witness(sysm, 0.3 + 0.2j, 5, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        np.testing.assert_allclose(got, witness_oracle(sysm, 0.3 + 0.2j, 5, 3),
                                   rtol=1e-13, atol=0)


def single_witness(sysm, lam, t, n):
    """The witness of one lam as it was built alone, before ``witnesses``:
    each level block one multiply of a 1-D block by a 1-D power table."""
    cut = min(t, len(levels(sysm.base, n - 1)) + 1)
    d = sysm.stages(cut)[0]
    out = np.ones(1, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for r, i in enumerate(stage_values(sysm, lam, cut), start=1):
            table = np.empty(min(d[r], -(-n // out.size)), dtype=complex)
            table[0] = 1.0 + 0.0j
            for e in range(1, table.size):
                table[e] = table[e - 1] * i
            out = (out[None, :] * table[:, None]).reshape(-1)[:n]
    return np.tile(out, -(-n // out.size))[:n]


def bits(a):
    """The bits of a complex array, so that NaN equals NaN and -0 differs from 0."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestWitnesses:
    """Each row of ``witnesses`` has the bits of the one-lam oracle
    ``single_witness``: the batch changes how the blocks are multiplied, not
    what."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_rows_match_single_witness(self, name):
        from stochadd.spectrum import point_spectrum, sample_bounded
        sysm = PRESET_SYSTEMS[name]
        roots = point_spectrum(sysm, 3).all_roots()
        # 1 - p_1 has stage value 0, so 0**0 = 1 shows; 3 + 2j escapes, and
        # its powers overflow to inf and NaN.
        lams = [sysm.stages(1)[2][1], 3 + 2j, 1e30j, *roots[::7],
                *sample_bounded(sysm, 3, depth=200, seed=2)]
        for n in (1, 7, 100, largest_level(sysm.base, 2048), 2048):
            for t in (1, 2, 5, n):
                got = witnesses(sysm, lams, t, n)
                assert got.shape == (len(lams), n)
                for lam, row in zip(lams, got):
                    assert np.array_equal(bits(row), bits(single_witness(sysm, lam, t, n)))

    def test_no_rows(self):
        assert witnesses(SYS_37, [], 3, 10).shape == (0, 10)

    @pytest.mark.parametrize("t, n", [(1, 1), (2, 7), (50, 1000)])
    def test_no_rows_from_an_empty_array(self, t, n):
        got = witnesses(PRESET_SYSTEMS["fig8a"], np.zeros(0, dtype=complex), t, n)
        assert got.shape == (0, n) and got.dtype == complex

    @pytest.mark.parametrize("t, n", [(0, 5), (3, 0)])
    def test_bad_arguments_raise(self, t, n):
        with pytest.raises(ValueError, match="t and n must be >= 1"):
            witnesses(SYS_37, [0.5], t, n)


def parts_bits(x, y):
    """The bits of parallel real and imaginary parts: NaN equals NaN, -0 differs from 0."""
    return np.stack([np.asarray(x, dtype=float), np.asarray(y, dtype=float)]).view(np.uint64)


def complex_bits(zs):
    return parts_bits([z.real for z in zs], [z.imag for z in zs])


INF, NAN = math.inf, math.nan
EDGE_LAMS = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1 + 0j,
             50 + 10j, 1e8 * (1 + 1j), complex(INF, 0.5), complex(-INF, -0.0),
             complex(0.3, INF), complex(NAN, 0.2), complex(0.2, NAN), complex(INF, NAN),
             complex(-1e308, 1e308), complex(1e-310, -1e-320)]
# A subnormal p_1 scales stage 1 by 1e310: most of its values overflow.
SYS_SUBNORMAL = FiberedSystem(parse_base_spec("fib"),
                              parse_probs_spec("plist:1e-310,0.7;tail=0.55"))


def kernel_lams(sysm, seed):
    """Edge values, 1 - p_1 (stage value 0), and random lam from 1e-300 to 1e300 in modulus."""
    rng = np.random.default_rng(seed)
    wide = 10.0 ** rng.uniform(-300, 300, 100) * np.exp(1j * rng.uniform(0, 2 * np.pi, 100))
    return [*EDGE_LAMS, complex(sysm.stages(1)[2][1]),
            *rng.uniform(-1.6, 1.6, (400, 2)).view(complex)[:, 0].tolist(), *wide.tolist()]


class TestArrayKernel:
    """``_c_rescale``, ``_c_pow``, ``_c_mul`` and ``_c_abs`` give the bits of
    ``_rescale``, ``_pow_int``, the product and ``abs`` of Python complex
    numbers, element by element.  numpy's complex multiply (which may fuse a
    multiply-add) and ``np.abs`` differ from them on about a third of random
    values, so a kernel that used either fails here."""

    @pytest.mark.parametrize("name", [*sorted(PRESETS), "subnormal"])
    def test_stage_loop_matches_scalars(self, name):
        sysm = PRESET_SYSTEMS.get(name, SYS_SUBNORMAL)
        lams = kernel_lams(sysm, len(name))
        d, p, c = sysm.stages(12)
        vals = [stage_values(sysm, lam, 12) for lam in lams]
        x = np.array([z.real for z in lams])
        y = np.array([z.imag for z in lams])
        with np.errstate(over="ignore", invalid="ignore"):
            for r in range(1, 13):
                x, y = julia._c_rescale(x, y, p[r], c[r])
                assert np.array_equal(parts_bits(x, y), complex_bits([v[r - 1] for v in vals])), r
                x, y = julia._c_pow(x, y, d[r])
                powers = [julia._pow_int(v[r - 1], d[r]) for v in vals]
                assert np.array_equal(parts_bits(x, y), complex_bits(powers)), r
                for z, mod in zip(powers, julia._c_abs(x, y).tolist()):
                    try:
                        want = abs(z)
                    except OverflowError:
                        assert mod == INF and math.isfinite(z.real) and math.isfinite(z.imag)
                    else:
                        assert mod == want or math.isnan(mod) and math.isnan(want)

    @pytest.mark.parametrize("size", [2, 7, 1000])
    def test_products_match_python(self, size):
        rng = np.random.default_rng(size)
        scale = 10.0 ** rng.integers(-150, 150, (2, 3000))
        a = rng.uniform(-1, 1, (3000, 2)).view(complex)[:, 0] * scale[0]
        b = rng.uniform(-1, 1, (3000, 2)).view(complex)[:, 0] * scale[1]
        a[:len(EDGE_LAMS)] = EDGE_LAMS
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(0, 3000, size):
                x, y = julia._c_mul(a.real[j:j + size], a.imag[j:j + size],
                                    b.real[j:j + size], b.imag[j:j + size])
                want = [u * v for u, v in zip(a[j:j + size].tolist(), b[j:j + size].tolist())]
                assert np.array_equal(parts_bits(x, y), complex_bits(want))

    def test_moduli_match_python(self):
        rng = np.random.default_rng(4)
        scale = 10.0 ** rng.integers(-300, 300, 20_000)
        z = rng.uniform(-1, 1, (20_000, 2)).view(complex)[:, 0] * scale
        z[:len(EDGE_LAMS)] = EDGE_LAMS
        got = julia._c_abs(z.real, z.imag)
        assert np.array_equal(got, [abs(w) for w in z.tolist()], equal_nan=True)

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 12, 233])
    def test_powers_of_every_degree(self, d):
        lams = kernel_lams(SYS_37, d)
        with np.errstate(over="ignore", invalid="ignore"):
            x, y = julia._c_pow(np.array([z.real for z in lams]),
                                np.array([z.imag for z in lams]), d)
        assert np.array_equal(parts_bits(x, y), complex_bits([julia._pow_int(z, d) for z in lams]))


def factorization_oracle(sysm, lam, r, k):
    """Both sides of the factorization identity from ``stage_values``, in one body."""
    vals = stage_values(sysm, lam, r)
    d, p, _ = sysm.stages(r)
    lhs = vals[r - 1] - 1.0
    factor = complex(1.0)
    for j in range(r - k + 1, r + 1):
        prev = vals[j - 2]
        zsum = complex(0.0)
        term = complex(1.0)
        for _ in range(d[j - 1]):
            zsum += term
            term *= prev
        factor *= zsum / p[j]
    rhs = (vals[r - k - 1] - 1.0) * factor
    return abs(lhs - rhs)


def factorization_check(sysm, lam, r, k):
    """``julia._factorization_residual`` of the stage values of lam."""
    if not 1 <= k <= r - 1:
        raise ValueError("need 1 <= k <= r-1")
    return julia._factorization_residual(sysm, stage_values(sysm, lam, r), r, k)


def residual_or_error(check, *args):
    """A residual's bits, or the error it raised: escaping parameters may overflow."""
    try:
        return check(*args).hex()
    except OverflowError as exc:
        return str(exc)


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

    @pytest.mark.parametrize("preset", ["fig3a", "fig5a", "fig8a", "fig10a"])
    def test_matches_direct_evaluation(self, preset):
        base_spec, probs_spec = PRESETS[preset]
        sysm = FiberedSystem(parse_base_spec(base_spec), parse_probs_spec(probs_spec))
        rng = np.random.default_rng(3)
        for _ in range(300):
            lam = complex(*rng.uniform(-1.2, 1.2, size=2))
            r = int(rng.integers(2, 13))
            k = int(rng.integers(1, r))
            assert (residual_or_error(factorization_check, sysm, lam, r, k)
                    == residual_or_error(factorization_oracle, sysm, lam, r, k))


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

    def test_thread_count_does_not_change_output(self, monkeypatch):
        # ``threads`` is accepted and ignored: render starts no thread.
        def start(thread):
            raise AssertionError("render started a thread")

        monkeypatch.setattr(threading.Thread, "start", start)
        sysm = PRESET_SYSTEMS["fig6a"]
        a = render(sysm, DEFAULT_WINDOW, (96, 64), 60, threads=1)
        assert 0 < a.escaped.sum() < a.escaped.size
        for threads in (0, 7):
            b = render(sysm, DEFAULT_WINDOW, (96, 64), 60, threads=threads)
            assert np.array_equal(a.escaped, b.escaped) and np.array_equal(a.stage, b.stage)

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

    @pytest.mark.parametrize("window", [(-1.0, 1.0, -1.0, 1e400), (-1e308, 1e308, -1.0, 1.0),
                                        (-1.0, 1.0, float("-inf"), 1.0),
                                        (float("nan"), 1.0, -1.0, 1.0)])
    def test_non_finite_window(self, window):
        with pytest.raises(ValueError, match="finite"):
            render(SYS_DISK, window, (8, 8), 5)

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

    @staticmethod
    def per_pixel_shades(grid):
        """The shading formula evaluated on every pixel in float64."""
        shade = np.floor(254.0 * grid.stage / grid.depth).astype(np.uint8)
        return np.where(grid.escaped, shade, np.uint8(255))

    @staticmethod
    def pgm_pixels(grid, path):
        write_pgm(grid, path)
        raw = path.read_bytes()
        return np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8).reshape(grid.stage.shape)

    @pytest.mark.parametrize("depth", [1, 2, 7, 14, 200, 4999])
    def test_shade_table_matches_per_pixel_formula(self, tmp_path, depth):
        # One escaped pixel at every stage 1..depth and a bounded one after them.
        stage = np.append(np.arange(1, depth + 1), depth).astype(np.int32)[None, :]
        escaped = np.arange(depth + 1)[None, :] < depth
        grid = julia.MembershipGrid((-1.0, 1.0, -1.0, 1.0), depth + 1, 1, depth,
                                    escaped, stage)
        assert self.pgm_pixels(grid, tmp_path / "t.pgm").tobytes() == \
            self.per_pixel_shades(grid).tobytes()

    def test_rendered_shades_match_per_pixel_formula(self, tmp_path):
        grid = render(PRESET_SYSTEMS["fig6a"], (-1.6, 1.6, -1.6, 1.6), (48, 40), 7)
        assert grid.escaped.any() and not grid.escaped.all()
        assert self.pgm_pixels(grid, tmp_path / "r.pgm").tobytes() == \
            self.per_pixel_shades(grid).tobytes()

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


def stage_map_calls(monkeypatch):
    """Record (r, z) for every ``julia.stage_map`` call, z as passed."""
    calls = []
    real = julia.stage_map

    def recording(sysm, r, z):
        calls.append((r, z))
        return real(sysm, r, z)

    monkeypatch.setattr(julia, "stage_map", recording)
    return calls


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
    tau_k = _trap_radii(sysm, depth)[k]
    if tau_k <= 0.0:
        return np.empty(0, dtype=complex)
    w = near_modulus(rng, tau_k, count, ulps)
    d, p, c = sysm.stages(k)
    for r in range(k, 0, -1):
        branch = np.exp(2j * np.pi * rng.integers(0, d[r], count) / d[r])
        w = c[r] + p[r] * (np.abs(w) ** (1.0 / d[r]) * np.exp(1j * np.angle(w) / d[r]) * branch)
    return w


def first_radius(sysm, depth):
    """First stage >= 1 with a positive radius."""
    return min(r for r, t in enumerate(_trap_radii(sysm, depth)) if r >= 1 and t > 0.0)


def probe_parameters(sysm, depth, rng):
    tau0 = _trap_radii(sysm, depth)[0]
    parts = [rng.uniform(-1.6, 1.6, (120, 2)).view(complex)[:, 0],
             unit_circle(rng, 60),
             near_radius(sysm, depth, rng, 60, min(first_radius(sysm, depth), 5)),
             np.array([sysm.stages(1)[2][1], 1.0, 0.0])]
    if tau0 > 0.0:
        parts.append(near_modulus(rng, tau0, 60))
    return np.concatenate(parts)


class TestTrapRadii:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_radii_are_sentinel_or_usable(self, name):
        tau = _trap_radii(PRESET_SYSTEMS[name], 200)
        assert len(tau) == 201 and tau[200] == 1.0
        assert all(t == -1.0 or 2.0 ** -900 <= t <= 1.0 for t in tau)
        # once a stage traps nothing, no earlier stage does
        first = min(r for r, t in enumerate(tau) if t > 0.0)
        assert all(t > 0.0 for t in tau[first:])

    # On the unit disk, |lam| = 0.5 stays far inside every radius: a bailout
    # from 1 traps it after stage 1, a smaller one maps it through every
    # stage, and a NaN bailout lets every parameter escape at stage 1.
    LAM_HALF = 0.5 * unit_circle(np.random.default_rng(19), 100)

    def stages_mapped(self, calls, bailout):
        calls.clear()
        esc, stage = _render_band(SYS_DISK, self.LAM_HALF, 50, bailout)
        return [(r, z.size) for r, z in calls], esc, stage

    def test_bailout_below_one_traps_nothing(self, monkeypatch):
        calls = stage_map_calls(monkeypatch)
        n = self.LAM_HALF.size
        for bailout in (0.999, 0.5):
            mapped, esc, stage = self.stages_mapped(calls, bailout)
            assert mapped == [(r, n) for r in range(1, 51)]
            assert not esc.any() and (stage == 50).all()
        mapped, esc, stage = self.stages_mapped(calls, float("nan"))
        assert mapped == [(1, n)] and esc.all() and (stage == 1).all()

    def test_any_bailout_from_one_gives_the_same_radii(self, monkeypatch):
        calls = stage_map_calls(monkeypatch)
        for bailout in (1.0, 7.0, 1e6, float("inf")):
            mapped, esc, stage = self.stages_mapped(calls, bailout)
            assert mapped == [(1, self.LAM_HALF.size)]
            assert not esc.any() and (stage == 50).all()

    def test_computed_once_per_system_and_depth(self, monkeypatch):
        radii = []

        def trap_radii(sysm, depth):
            radii.append(real(sysm, depth))
            return radii[-1]

        real = julia._trap_radii
        monkeypatch.setattr(julia, "_trap_radii", trap_radii)
        sysm = FiberedSystem(parse_base_spec("fib"), parse_probs_spec("pconst:0.55"))
        fresh = FiberedSystem(sysm.base, sysm.probs)
        lam = np.random.default_rng(0).uniform(-1, 1, (50, 2)).view(complex)[:, 0]
        for _ in range(2):
            render(sysm, DEFAULT_WINDOW, (24, 24), 200)
            _render_band(sysm, lam, 200)
            _render_band(sysm, lam, 200, bailout=1e6)
            _render_band(sysm, lam, 12, bailout=0.5)
            _render_band(sysm, lam, 12)
        # render reads tau_0 for its chords and the kernel reads the radii;
        # every call of one depth reads the one list the first call computed.
        assert sorted(sysm._radii) == [12, 200]
        assert all(tau is sysm._radii[len(tau) - 1] for tau in radii) and len(radii) == 12
        assert sysm._radii[200] == real(fresh, 200)
        assert sysm == fresh and hash(sysm) == hash(fresh)

    def test_disk_radii_stay_just_below_one(self):
        tau = _trap_radii(SYS_DISK, 200)
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
        w = julia._rescale(z, p, c)
        assert np.array_equal(w, x * (1.0 / p))
        assert np.array_equal(w, x / p)  # numpy's Smith division, up to the sign of a zero
        bound = (1 + Fraction(U)) ** 2
        lower = (1 - Fraction(U)) ** 2  # used by _escape_radius
        for xk, wk in zip(np.concatenate([x.real, x.imag]).tolist(),
                          np.concatenate([w.real, w.imag]).tolist()):
            exact = Fraction(xk) / Fraction(p)
            assert abs(Fraction(wk)) <= bound * abs(exact) + Fraction(2.0 ** -1074)
            assert abs(Fraction(wk)) >= lower * abs(exact) - Fraction(2.0 ** -1074)

    def test_python_complex_rules(self):
        # julia._c_mul and julia._c_rescale replay these rules.
        # _Py_c_prod rounds each product on its own: a fused multiply-add
        # would leave -2**-60 or 2**-60 in the real part.
        assert complex(1 + 2**-30, 1.0) * complex(1 - 2**-30, 1.0) == 2j
        assert complex(1.0, 1 + 2**-30) * complex(1.0, 1 - 2**-30) == 2j
        # Python 3.11 makes the float of ``complex - float`` and
        # ``complex / float`` a complex with imaginary part 0.0 (later
        # releases compute with the float itself).  complex / p is then
        # _Py_c_quot: ((x + y * 0) / p, (y - x * 0) / p).
        q = complex(1.0, INF) / 2.0
        assert math.isnan(q.real) and q.imag == INF
        q = complex(-0.0, 1.0) / 2.0
        assert math.copysign(1.0, q.real) == 1.0 and q.imag == 0.5
        q = complex(NAN, -0.0) / 4.0
        assert math.isnan(q.real) and math.isnan(q.imag)
        h = complex(0.5, -0.0) - 0.25
        assert h == 0.25 and math.copysign(1.0, h.imag) == -1.0
        for z, p in [(complex(1.0, INF), 2.0), (complex(-0.0, 1.0), 2.0),
                     (complex(NAN, -0.0), 4.0), (complex(0.5, -0.0), 0.75)]:
            with np.errstate(invalid="ignore"):
                got = julia._c_rescale(np.array([z.real]), np.array([z.imag]), p, 1.0 - p)
            assert np.array_equal(parts_bits(*got), complex_bits([(z - (1.0 - p)) / p]))

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

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 13])
    def test_power_stays_above_three_units(self, d):
        # the powering bound of _escape_radius: |g| >= 1 gives a computed g ** d
        # of modulus >= (1 - 3u)**(d-1) |g|**d, or an infinite or NaN part
        rng = np.random.default_rng(d)
        mod = np.concatenate([1.0 + rng.uniform(0.0, 1e-3, 300), 10.0 ** rng.uniform(0, 60, 300)])
        g = mod * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, mod.size))
        with np.errstate(over="ignore", invalid="ignore"):
            power = julia._pow_int(g, d)
        factor = (1 - 3 * Fraction(U)) ** (2 * (d - 1))
        checked = overflowed = 0
        for x, o in zip(g.tolist(), power.tolist()):
            g2 = Fraction(x.real) ** 2 + Fraction(x.imag) ** 2
            if g2 < 1:
                continue
            if not (math.isfinite(o.real) and math.isfinite(o.imag)):
                overflowed += 1
                continue
            checked += 1
            assert Fraction(o.real) ** 2 + Fraction(o.imag) ** 2 >= factor * g2 ** d
        assert checked > 300
        assert (overflowed > 0) == (d > 5)  # moduli up to 1e60 overflow from d = 8 on


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
        grid = render(sysm, DEFAULT_WINDOW, (96, 96), 200)
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
        tau_k = _trap_radii(sysm, 200)[k]
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


def near_escape_circle(sysm, bailout, rng, count, ulps=40):
    """Parameters lam with |lam - c_1| within about ``ulps`` ulp of
    p_1 bailout ** (1/d_1), the circle that stage 1 maps onto the bailout."""
    d, p, c = sysm.stages(1)
    return c[1] + near_modulus(rng, p[1] * bailout ** (1.0 / d[1]), count, ulps)


# 1 / p_1 overflows, so stage 1 maps every parameter to an infinite or NaN value
SYS_TINY_P = FiberedSystem(BaseSeq("const", (3,)), parse_probs_spec("plist:1e-310;tail=0.5"))
TAU0_CASES = [(name, depth) for name in (*sorted(PRESETS), "unit") for depth in (1, 2, 12, 200)
              if _trap_radii(PRESET_SYSTEMS.get(name, SYS_DISK), depth)[0] > 0.0]


class TestEscapeRadius:
    """A parameter with np.abs(lam - c_1) > R_1 escapes at stage 1
    (``julia._escape_radius``); ``render``'s outer chord rests on this, while
    the kernel powers every parameter it gets."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    @pytest.mark.parametrize("bailout", [1.0, 1e6])
    def test_circle_neighbourhood(self, name, bailout):
        # R_1 lies 16 to 32 ulps outside the circle that stage 1 maps onto
        # the unit circle; that circle's neighbourhood fails a radius without
        # margin, and a wider ring samples both sides of R_1.  The ring of
        # bailout 1e6 lies wholly outside R_1.
        sysm = PRESET_SYSTEMS[name]
        rng = np.random.default_rng(15)
        lam = np.concatenate([near_escape_circle(sysm, bailout, rng, 5000),
                              near_escape_circle(sysm, bailout, rng, 1000, ulps=400)])
        out = np.abs(lam - sysm.stages(1)[2][1]) > julia._escape_radius(sysm)
        assert out.any() and (~out).any() == (bailout == 1.0)
        assert untrapped_band(sysm, lam[out], 1)[0].all()
        assert_matches_oracle(sysm, lam, 200, bailout)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_radius_is_just_outside_the_circle(self, name):
        p = PRESET_SYSTEMS[name].stages(1)[1][1]
        assert p < julia._escape_radius(PRESET_SYSTEMS[name]) < p * (1 + 2.0 ** -42)

    @pytest.mark.parametrize("name, depth", TAU0_CASES)
    def test_tau0_trap_is_the_stage_one_trap(self, name, depth):
        # The kernel has no tau_0 compare: np.abs(lam) <= tau_0 must give
        # np.abs(f_1(lam)) <= tau_1 (tau_1 = 1 at depth 1, the last stage).
        sysm = PRESET_SYSTEMS.get(name, SYS_DISK)
        tau = _trap_radii(sysm, depth)
        lam = near_modulus(np.random.default_rng(16), tau[0], 20_000, ulps=4)
        inside = np.abs(lam) <= tau[0]
        assert inside.any() and not inside.all()
        assert (np.abs(stage_map(sysm, 1, lam[inside])) <= tau[1]).all()

    def test_tau0_cases(self):
        assert {("fig3a", 200), ("unit", 200), ("fig8a", 1)} <= set(TAU0_CASES)

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("bailout", [0.5, 1.0, 1e6, float("inf"), float("nan")])
    @pytest.mark.parametrize("name", ["fig3a", "fig5c", "fig8a", "tiny"])
    def test_edge_parameters(self, monkeypatch, block, bailout, name):
        monkeypatch.setattr(julia, "_BLOCK", block)
        sysm = SYS_TINY_P if name == "tiny" else PRESET_SYSTEMS[name]
        c1 = sysm.stages(1)[2][1]
        inf, nan = math.inf, math.nan
        rng = np.random.default_rng(17)
        lam = np.concatenate([
            np.array([c1, complex(c1, -0.0), complex(inf, 0.0), complex(-inf, 1.0), complex(0.0, inf),
                      complex(nan, 0.0), complex(0.0, nan), complex(inf, nan), complex(nan, nan)]),
            near_escape_circle(sysm, 1.0, rng, 100),
            near_escape_circle(sysm, 1e6, rng, 100),
            rng.uniform(-1.6, 1.6, (100, 2)).view(complex)[:, 0],
        ])
        esc = assert_matches_oracle(sysm, lam, 60, bailout)
        assert esc[5:9].all()  # a NaN parameter escapes at any bailout
        if name == "tiny":
            assert 1.0 / sysm.stages(1)[1][1] == inf and esc.all()


class TestBlockedKernel:
    """The stage loop runs over slices of ``julia._BLOCK`` parameters, reads
    stage 1's straight from the input and compacts the survivors in place;
    grids that span several slices must still match the untrapped oracle."""

    # 300 x 130 is two full slices and a ragged third, with slice boundaries
    # mid-row; a 40 000-wide row spans three slices on its own
    @pytest.mark.parametrize("name, window, resolution", [
        ("fig3a", DEFAULT_WINDOW, (300, 130)),
        ("fig8a", DEFAULT_WINDOW, (300, 130)),
        ("fig10c", DEFAULT_WINDOW, (300, 130)),
        ("fig3a", (-1.6, 1.6, -0.1, 0.1), (40_000, 2)),
    ])
    def test_render_across_blocks(self, name, window, resolution):
        width, height = resolution
        assert width * height > 2 * julia._BLOCK and (width * height) % julia._BLOCK
        assert julia._BLOCK % width or width > julia._BLOCK
        sysm = PRESET_SYSTEMS[name]
        grid = render(sysm, window, resolution, 200)
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

    # Stage 1 reads the parameters in place and powers every one of them; at
    # depth 1 it is the last stage, at depth 2 the next to last.  tau_0 has
    # no compare of its own (the stage-1 trap catches it); it is positive
    # for fig3a and the unit disk, and for fig8a at depth 1 only.
    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("bailout", [0.5, 1.0, 1e6])
    @pytest.mark.parametrize("name", ["fig3a", "unit", "fig8a"])
    def test_first_stages(self, monkeypatch, block, depth, bailout, name):
        monkeypatch.setattr(julia, "_BLOCK", block)
        sysm = SYS_DISK if name == "unit" else PRESET_SYSTEMS[name]
        assert (_trap_radii(sysm, depth)[0] > 0.0) == (name != "fig8a" or depth == 1)
        lam = probe_parameters(sysm, depth, np.random.default_rng(13))
        assert_matches_oracle(sysm, lam, depth, bailout)

    @pytest.mark.parametrize("block", [7, julia._BLOCK])
    def test_every_stage_runs_through_stage_map(self, monkeypatch, block):
        # Stage 1 too: it maps the parameters in place, slice by slice, with
        # no escape test before their powers.
        monkeypatch.setattr(julia, "_BLOCK", block)
        calls = stage_map_calls(monkeypatch)
        sysm = PRESET_SYSTEMS["fig3a"]
        lam = probe_parameters(sysm, 200, np.random.default_rng(18))
        assert_matches_oracle(sysm, lam, 200)
        first = [z for r, z in calls if r == 1]
        sizes = [min(block, lam.size - k) for k in range(0, lam.size, block)]
        assert [z.size for z in first] == sizes
        assert all(np.shares_memory(z, lam) for z in first)
        assert np.concatenate(first).tobytes() == lam.tobytes()
        stages = [r for r, _ in calls]
        assert stages == sorted(stages) and set(stages) == set(range(1, stages[-1] + 1))

    def test_input_is_left_unchanged(self):
        sysm = PRESET_SYSTEMS["fig3a"]
        rng = np.random.default_rng(12)
        # sample_bounded's (re, im) rows read as complex, and a view that
        # skips every other complex value
        for columns, pick in ((2, 0), (4, 1)):
            lam = rng.uniform(-1.6, 1.6, (3 * julia._BLOCK + 5, columns)).view(complex)[:, pick]
            assert lam.flags.c_contiguous == (columns == 2)
            before = lam.copy()
            lam.setflags(write=False)
            esc = assert_matches_oracle(sysm, lam, 200)
            assert 0 < esc.sum() < esc.size
            assert lam.tobytes() == before.tobytes()
            writable = before.copy()
            _render_band(sysm, writable, 200)
            assert writable.tobytes() == before.tobytes()

    @pytest.mark.parametrize("block", [7, julia._BLOCK])
    @pytest.mark.parametrize("name", ["fig3a", "fig8a", "unit"])
    def test_input_is_converted_to_complex(self, monkeypatch, block, name):
        # Each slice is converted to complex128, so the flags and stages are
        # those of the same values passed as complex.  Mapped in complex64,
        # the unit circle's points would escape by other roundings.
        monkeypatch.setattr(julia, "_BLOCK", block)
        sysm = SYS_DISK if name == "unit" else PRESET_SYSTEMS[name]
        rng = np.random.default_rng(14)
        reals = rng.uniform(-1.6, 1.6, 3000)
        reals[:4] = [0.0, 1.0, -1.0, sysm.stages(1)[2][1]]
        single = np.concatenate([reals + 1j * reals[::-1],
                                 unit_circle(rng, 3000)]).astype(np.complex64)
        for lam in (reals, np.arange(-3, 4), np.arange(-3, 4, dtype=np.int32), single):
            want = _render_band(sysm, lam.astype(complex), 200)
            got = _render_band(sysm, lam, 200)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert 0 < want[0].sum() < want[0].size


def with_imag(re, im):
    """Complex array with the given parts, stored as they are (signed zeros kept)."""
    z = np.empty(np.broadcast(re, im).shape, dtype=complex)
    z.real = re
    z.imag = im
    return z


# Two rows on fig3a's boundary circle |lam - 0.3| = 0.7, where stages 2.. are
# z -> z**3 and the last bits of a centre decide its escape.  The window is
# symmetric, but the rows' imaginary parts are 0.6999999999999998 and -0.7.
ONE_ULP_WINDOW = (0.3 - 2e-8, 0.3 + 2e-8, -1.3999999999999997, 1.3999999999999997)


class TestMirrorRows:
    """``render`` copies a row whose centres are the exact conjugates of an
    earlier row's instead of running it through the kernel."""

    @given(st.sampled_from(sorted(PRESETS)), st.sampled_from([12, 200]),
           st.sampled_from([1.0, 1e6, float("inf")]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_kernel_commutes_with_conjugation(self, name, depth, bailout, seed):
        # With an infinite bailout the orbits that leave the disk run on until
        # their powers overflow to inf and then NaN at deep stages.
        sysm = PRESET_SYSTEMS[name]
        rng = np.random.default_rng(seed)
        probe = probe_parameters(sysm, depth, rng)
        axis = rng.uniform(-1.6, 1.6, 40)
        huge = rng.uniform(-1, 1, (40, 2)) * 10.0 ** rng.integers(0, 309, (40, 1))
        lam = np.concatenate([probe, with_imag(axis, 0.0), with_imag(axis, -0.0),
                              with_imag(probe.real, -0.0), huge.view(complex)[:, 0]])
        esc, stage = _render_band(sysm, lam, depth, bailout)
        conj_esc, conj_stage = _render_band(sysm, np.conj(lam), depth, bailout)
        assert np.array_equal(esc, conj_esc)
        assert np.array_equal(stage, conj_stage)

    @pytest.mark.parametrize("window, resolution", [
        (DEFAULT_WINDOW, (64, 64)),
        (DEFAULT_WINDOW, (192, 192)),
        (DEFAULT_WINDOW, (256, 256)),
        ((-1.5, 1.5, -1.25, 1.75), (192, 192)),  # 80 rows pair, off the window's centre
        ((-1.6, 1.6, -1.2, 1.6), (192, 192)),  # no row pairs
        (ONE_ULP_WINDOW, (64, 2)),  # no row pairs; a one-ulp pairing fails fig3a
    ])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_render_matches_untrapped_kernel(self, name, window, resolution):
        sysm = PRESET_SYSTEMS[name]
        assert_grid_matches_oracle(sysm, render(sysm, window, resolution, 200))

    def test_rows_one_ulp_from_mirrors_differ(self):
        grid = render(PRESET_SYSTEMS["fig3a"], ONE_ULP_WINDOW, (64, 2), 200)
        im = grid.center_at(np.arange(2), 0).imag
        assert abs(im[0] + im[1]) == math.ulp(im[0])
        assert (grid.stage[0] != grid.stage[1]).any()

    def test_kernel_runs_computed_rows_only(self, monkeypatch):
        # Of fig3a's 512 rows 162 are copies; the kernel sees only the
        # annulus centres of the other 350, 17 110 of their 179 200.
        calls = kernel_inputs(monkeypatch)
        sysm = PRESET_SYSTEMS["fig3a"]
        grid = render(sysm, DEFAULT_WINDOW, (512, 512), 12)
        assert assert_kernel_gets_the_annulus(sysm, grid, calls) == (350, 17_110)
        calls.clear()
        grid = render(sysm, (-1.6, 1.6, -1.2, 1.6), (192, 192), 12)
        assert assert_kernel_gets_the_annulus(sysm, grid, calls) == (192, 4266)

    # Rows of (-1.5, 1.5, -1.5, 1.5): [0]; [0.75, -0.75]; [1, 0, -1].  The
    # unit disk's chords decide every centre, and so do fig3a's on the rows
    # +-0.75, which pass above its disk |lam - 0.3| <= 0.7; its other rows
    # keep a few centres for the kernel.
    @pytest.mark.parametrize("height, computed", [(1, 1), (2, 1), (3, 2)])
    def test_few_rows(self, monkeypatch, height, computed):
        calls = kernel_inputs(monkeypatch)
        for sysm in (SYS_DISK, PRESET_SYSTEMS["fig3a"]):
            calls.clear()
            grid = render(sysm, (-1.5, 1.5, -1.5, 1.5), (40, height), 200)
            rows, run = assert_kernel_gets_the_annulus(sysm, grid, calls)
            above = sysm is not SYS_DISK and height == 2
            assert rows == computed and (run > 0) == (sysm is not SYS_DISK and not above)
            assert grid.escaped.any() and grid.escaped.all() == above


def kernel_inputs(monkeypatch):
    """Record a copy of the parameters of every ``_render_band`` call that
    ``render`` makes."""
    calls = []
    kernel = julia._render_band

    def recording(sysm, lam_flat, *args, **kwargs):
        calls.append(lam_flat.copy())
        return kernel(sysm, lam_flat, *args, **kwargs)

    monkeypatch.setattr(julia, "_render_band", recording)
    return calls


def assert_kernel_gets_the_annulus(sysm, grid, calls):
    """Check one ``render`` against the kernel calls it made (``calls``) and
    the untrapped oracle; returns (computed rows, annulus centres).

    The kernel gets exactly the centres of the computed rows between the
    chords of ``_row_chords``, in one call, or in none when that annulus is
    empty.  Every other centre of a computed row is certified by the test
    that the chord stands for: np.abs(lam - c_1) > R_1 with the grid at
    (escaped, 1), or np.abs(lam) <= tau_0 with the grid at (bounded, depth).
    The grid equals the untrapped kernel's.
    """
    height, width = grid.escaped.shape
    lam = grid.center_at(*np.indices((height, width)))
    im = lam[:, 0].imag
    rows = [j for j in range(height) if not (im[j] and (im[:j] == -im[j]).any())]
    c1 = sysm.stages(1)[2][1]
    radius = julia._escape_radius(sysm)
    tau0 = _trap_radii(sysm, grid.depth)[0]
    lo, hi, tlo, thi = julia._row_chords(lam[0].real, im[rows], c1, radius, tau0)
    cols = np.arange(width)
    ring = np.zeros((height, width), dtype=bool)
    ring[rows] = (((lo[:, None] <= cols) & (cols < tlo[:, None]))
                  | ((thi[:, None] <= cols) & (cols < hi[:, None])))
    assert len(calls) == ring.any()
    got = calls[0] if calls else np.empty(0, dtype=complex)
    assert np.array_equal(np.sort_complex(got), np.sort_complex(lam[ring]))

    decided = np.zeros((height, width), dtype=bool)
    decided[rows] = ~ring[rows]
    out = decided & (np.abs(lam - c1) > radius)
    inside = decided & (np.abs(lam) <= tau0)
    assert not (out & inside).any() and np.array_equal(out | inside, decided)
    assert grid.escaped[out].all() and (grid.stage[out] == 1).all()
    assert not grid.escaped[inside].any() and (grid.stage[inside] == grid.depth).all()

    assert_grid_matches_oracle(sysm, grid)
    return len(rows), int(ring.sum())


def assert_grid_matches_oracle(sysm, grid):
    lam = grid.center_at(*np.indices(grid.escaped.shape)).reshape(-1)
    esc, stage = untrapped_band(sysm, lam, grid.depth)
    assert np.array_equal(grid.escaped.reshape(-1), esc)
    assert np.array_equal(grid.stage.reshape(-1), stage)


ETA = 2.0 ** -990


def chord_windows(sysm, depth):
    """Windows whose centres lie within 3 ulp of the R_1 circle about c_1 or
    of the tau_0 circle about 0, of half-width 1e-11 to 1e-7: at the top and
    bottom, where the squares of the chords cancel, near the top, at the
    sides and in between.  Near the top a window is flattened to the slope
    of the circle, so that the chord ends cross its rows."""
    circles = [(sysm.stages(1)[2][1], julia._escape_radius(sysm))]
    tau0 = _trap_radii(sysm, depth)[0]
    if tau0 > 0.0:
        circles.append((0.0, tau0))
    windows = []
    for centre, radius in circles:
        for theta, aspect in ((math.pi / 2, 1.0), (-math.pi / 2, 1.0), (math.pi / 2 + 1e-3, 1e-3),
                              (-math.pi / 2 + 1e-2, 1e-2), (0.9, 0.8), (math.pi, 1.0), (0.0, 1.0)):
            for k in (-3, 0, 3):
                r = radius + k * math.ulp(radius)
                x, y = centre + r * math.cos(theta), r * math.sin(theta)
                windows.extend((x - w, x + w, y - w * aspect, y + w * aspect)
                               for w in (1e-11, 1e-9, 1e-7))
    return windows


# fig3a and the unit disk have tau_0 > 0 at depth 200, fig8a at depth 1 only
CHORD_CASES = [("fig3a", 200), ("unit", 200), ("fig8a", 1), ("fig8a", 200), ("fig10a", 12)]


class TestRowChords:
    """``render`` decides the centres outside the R_1 chord and inside the
    tau_0 chord of each row without the kernel (``julia._row_chords``)."""

    @staticmethod
    def chords(sysm, depth, window, resolution=(48, 48)):
        grid = julia.MembershipGrid(window, *resolution, depth, None, None)
        lam = grid.center_at(*np.indices(resolution[::-1]))
        c1 = sysm.stages(1)[2][1]
        radius = julia._escape_radius(sysm)
        tau0 = _trap_radii(sysm, depth)[0]
        lo, hi, tlo, thi = julia._row_chords(lam[0].real, lam[:, 0].imag, c1, radius, tau0)
        assert ((0 <= lo) & (lo <= tlo) & (tlo <= thi) & (thi <= hi) & (hi <= resolution[0])).all()
        cols = np.arange(resolution[0])
        out = (cols < lo[:, None]) | (cols >= hi[:, None])
        inside = (tlo[:, None] <= cols) & (cols < thi[:, None])
        return lam, c1, radius, tau0, (lo, hi, tlo, thi), out, inside

    @pytest.mark.parametrize("name, depth", CHORD_CASES)
    def test_chords_certify_their_centres(self, name, depth):
        # What each chord stands for: np.abs(lam - c_1) > R_1 outside the
        # outer chord, np.abs(lam) <= tau_0 inside the inner one.
        sysm = SYS_DISK if name == "unit" else PRESET_SYSTEMS[name]
        counts = np.zeros(3, dtype=int)
        for window in chord_windows(sysm, depth):
            lam, c1, radius, tau0, _, out, inside = self.chords(sysm, depth, window)
            assert (np.abs(lam[out] - c1) > radius).all()
            assert (np.abs(lam[inside]) <= tau0).all()
            counts += out.sum(), inside.sum(), (~out & ~inside).sum()
        assert counts[0] > 0 and counts[2] > 0 and (counts[1] > 0) == (tau0 > 0.0)

    @pytest.mark.parametrize("name, depth", CHORD_CASES)
    def test_chords_keep_the_bounds_of_their_proof(self, name, depth):
        # In exact arithmetic, at the last certified column of each side of
        # each chord: |h| > S >= (R_1 + eta) / (1 - 4u) outside and
        # |lam| <= t <= (tau_0 - eta) / (1 + 4u) inside, with S and t the
        # doubles of the docstring.  The margins of np.abs sit on top.
        sysm = SYS_DISK if name == "unit" else PRESET_SYSTEMS[name]
        u = Fraction(U)
        for window in chord_windows(sysm, depth):
            lam, c1, radius, tau0, (lo, hi, tlo, thi), _, _ = self.chords(sysm, depth, window)
            s = Fraction((radius + ETA) * (1.0 + 8 * U))
            assert s * (1 - 4 * u) >= Fraction(radius) + Fraction(ETA)
            t = Fraction((tau0 - ETA) * (1.0 - 8 * U))
            if tau0 > 0.0:
                assert t * (1 + 4 * u) <= Fraction(tau0) - Fraction(ETA)
            h = (lam[0].real - c1).tolist()
            for row, y in enumerate(lam[:, 0].imag.tolist()):
                y2 = Fraction(y) ** 2
                for col in (lo[row] - 1, hi[row]):
                    if 0 <= col < len(h):
                        assert Fraction(h[col]) ** 2 + y2 > s * s
                for col in (tlo[row], thi[row] - 1):
                    if thi[row] > tlo[row]:
                        assert Fraction(lam[0, col].real) ** 2 + y2 <= t * t

    @pytest.mark.parametrize("name, depth", CHORD_CASES)
    def test_zoomed_renders_match_untrapped_kernel(self, monkeypatch, name, depth):
        sysm = SYS_DISK if name == "unit" else PRESET_SYSTEMS[name]
        calls = kernel_inputs(monkeypatch)
        mixed = named = 0
        for window in chord_windows(sysm, depth):
            calls.clear()
            grid = render(sysm, window, (24, 16), depth)
            lam = grid.center_at(*np.indices((16, 24)))
            if len(set(lam[0].real.tolist())) == 24 and len(set(lam[:, 0].imag.tolist())) == 16:
                assert_kernel_gets_the_annulus(sysm, grid, calls)
                named += 1
            else:  # centres less than an ulp apart: kernel inputs do not name their rows
                assert_grid_matches_oracle(sysm, grid)
            mixed += 0 < grid.escaped.sum() < grid.escaped.size
        assert named > 0 and mixed > 0

    # Rows far above the disks, some so far that y**2 overflows to inf
    @pytest.mark.parametrize("window", [(-1.0, 1.0, 1e200, 1e201), (-1e300, 1e300, -1e300, 1e300),
                                        (1e307, 1.7e308, -1.0, 1.0), (2.0, 3.0, 2.0, 3.0)])
    def test_far_windows_need_no_kernel(self, monkeypatch, window):
        calls = kernel_inputs(monkeypatch)
        grid = render(PRESET_SYSTEMS["fig3a"], window, (16, 8), 50)
        assert grid.escaped.all() and (grid.stage == 1).all() and calls == []
        assert_grid_matches_oracle(PRESET_SYSTEMS["fig3a"], grid)
