"""Fibered escape-time dynamics and membership grids.

Stage r applies f_r(z) = ((z - (1-p_r)) / p_r) ** d_r; the composed orbit of a
parameter lam is bounded exactly when every composed value has modulus <= 1,
so the escape bailout radius is 1 (not the conventional 2) and an escape at
any stage certifies the parameter outside the bounded set.  Pixels are only
ever classified "escaped at stage r" or "bounded up to the probed depth";
no pixel is certified inside.  The escape kernel may decide "bounded" before
the last stage, once a parameter's composed value lies inside a trapping
radius (see ``_trap_radii``) that proves it stays in the unit disk through
the probed depth; the result still only means "bounded up to that depth".
It may also decide "escaped at stage 1" before computing the first stage's
power: the bounded set lies in the disk |lam - (1-p_1)| <= p_1, and a
parameter whose distance from its centre exceeds the radius of
``_escape_radius``, a few dozen ulps outside the circle that f_1 maps onto
the bailout circle, provably escapes there.  ``render`` applies both
certificates to whole rows of pixel centres before the kernel: one chord per
row of the escape disk and one of the trapping disk |lam| <= tau_0
(``_row_chords``) decide most centres, and only the annulus between them
runs through the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numeration import BaseSeq, ProbSeq, levels

DEFAULT_DEPTH = 200
DEFAULT_WINDOW = (-1.6, 1.6, -1.6, 1.6)


@dataclass(frozen=True)
class FiberedSystem:
    """Base and probability sequences driving the stage maps.

    ``stages(depth)`` is the stage table: tuples d, p and c indexed by
    r = 1..depth (entry 0 is None), with d[r] = base.at(r), p[r] = probs.at(r)
    and c[r] = 1.0 - probs.at(r), bit for bit.  The scalar stage loops fetch it
    once and index it.  It is built once per system; a deeper request
    rebuilds it whole, at least twice as deep, and swaps it in with one
    attribute store.  It is never extended in place, so threads sharing a
    system each read a complete table, whichever build they see.
    ``_trap_radii`` keeps its radii per depth in ``_radii`` the same way:
    computed once, then read.
    """

    base: BaseSeq
    probs: ProbSeq
    _table: tuple = field(default=((None,), (None,), (None,)), init=False, repr=False,
                          compare=False)
    _radii: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def stages(self, depth: int) -> tuple[tuple, tuple, tuple]:
        """(d, p, c) with entries for at least r = 1..depth."""
        table = self._table
        if len(table[0]) <= depth:
            rs = range(1, max(depth, 2 * (len(table[0]) - 1)) + 1)
            p = (None, *(self.probs.at(r) for r in rs))
            table = ((None, *(self.base.at(r) for r in rs)), p,
                     (None, *(1.0 - x for x in p[1:])))
            object.__setattr__(self, "_table", table)
        return table


@dataclass(frozen=True)
class OrbitResult:
    escaped: bool
    stage: int  # escape stage, or the probed depth when bounded
    final: complex
    trace: tuple[complex, ...] | None = None


@dataclass(frozen=True)
class MembershipGrid:
    """Per-pixel escape data on a rectangular window.

    Pixel centers are sampled row-major with the top row at maximal imaginary
    part.  ``stage`` holds the escape stage for escaped pixels and ``depth``
    for bounded ones.
    """

    window: tuple[float, float, float, float]
    width: int
    height: int
    depth: int
    escaped: np.ndarray  # (height, width) bool
    stage: np.ndarray  # (height, width) int32

    def pixel_size(self) -> tuple[float, float]:
        re_min, re_max, im_min, im_max = self.window
        return (re_max - re_min) / self.width, (im_max - im_min) / self.height

    def pixel_diag(self) -> float:
        dx, dy = self.pixel_size()
        return math.hypot(dx, dy)

    def center_at(self, row, col):
        """Center of pixel (row, col): a complex for ints, an array for index arrays.

        The parts are stored as computed, not summed as ``re + 1j * im``, so
        every pixel gets the same bits either way.
        """
        re_min, re_max, im_min, im_max = self.window
        dx, dy = self.pixel_size()
        re = re_min + (col + 0.5) * dx
        im = im_max - (row + 0.5) * dy
        z = np.empty(np.broadcast(re, im).shape, dtype=complex)
        z.real = re
        z.imag = im
        return complex(z) if z.ndim == 0 else z


def _pow_int(z, d: int):
    """d-th power of a complex scalar or array by binary exponentiation.

    The powering starts from the lowest set bit of ``d``, so no factor 1 is
    multiplied in; ``_pow_int(z, 0)`` is 1.  Scalars and arrays share one op
    order, but not always the same bits: numpy's SIMD complex multiply may fuse
    a multiply-add that Python's scalar multiply rounds twice.  ``z`` is never
    written in place.
    """
    if d == 0:
        return complex(1.0)
    b = z
    e = d
    while not e & 1:
        b = b * b
        e >>= 1
    result = b
    e >>= 1
    while e:
        b = b * b
        if e & 1:
            result = result * b
        e >>= 1
    return result


def _rescale(z, p: float, c: float):
    """(z - c) / p with c = 1 - p, for a complex scalar or array.

    numpy divides a complex array by a real with Smith's formula, which
    multiplies each part by fl(1 / p); an array is multiplied by that factor
    directly, which differs only in the sign of a zero part and skips the
    scalar division loop.  Scalars keep their correctly rounded division.
    """
    h = z - c
    return h * (1.0 / p) if isinstance(h, np.ndarray) else h / p


def _stage(z, d: int, p: float, c: float):
    """((z - c) / p) ** d: one stage map from its table entries d_r, p_r, c_r."""
    return _pow_int(_rescale(z, p, c), d)


def _jet(z, d: int, p: float, c: float):
    """(f(z), f'(z)) for the stage map with table entries d, p, c; f(z) has ``_stage``'s bits.

    For an array the derivative d h ** (d-1) is multiplied by fl(1 / p), not
    divided by p, and the two differ only in the sign of a zero part.  numpy
    divides a complex array by p + 0j with Smith's formula: rat = 0 / p = 0,
    scl = fl(1 / (p + 0 rat)) = fl(1 / p), and the parts are
    (x + y rat) scl and (y - x rat) scl.  Multiplying by fl(1 / p) + 0j gives
    x scl - y 0 and x 0 + y scl.  A product with a zero factor is a signed
    zero, or NaN when the other factor is infinite or NaN, and adding a signed
    zero changes nothing but the sign of a zero; a NaN lands in the same part
    either way.  Scalars keep their correctly rounded division.
    """
    h = _rescale(z, p, c)
    if isinstance(h, np.ndarray):
        return _pow_int(h, d), d * _pow_int(h, d - 1) * (1.0 / p)
    return _pow_int(h, d), d * _pow_int(h, d - 1) / p


# CPython's complex scalar arithmetic, replayed on float64 arrays of real and
# imaginary parts.  A Python complex rounds every real operation on its own,
# and numpy's complex arrays do not always give its bits: the SIMD multiply may
# fuse a multiply-add, and ``np.abs`` is not libm ``hypot``.  These functions
# compute each element with the operations, in the order and with the
# roundings, of Python 3.11's scalar arithmetic (``_rescale``, ``_pow_int``,
# ``abs``), so every element has the bits of its own scalar computation; the
# tests compare the two with their scalar oracle ``stage_values``.


def _c_mul(a, b, c, d):
    """(a + bi)(c + di) as ``_Py_c_prod`` computes it: (ac - bd, ad + bc),
    each product, the difference and the sum rounded on its own, with no
    fused multiply-add (``TestHostRounding`` pins that on this interpreter)."""
    return a * c - b * d, a * d + b * c


def _c_pow(x, y, d: int):
    """``_pow_int`` of x + yi: the same products in the same order, each by ``_c_mul``."""
    if d == 0:
        return np.ones_like(x), np.zeros_like(x)
    bx, by = x, y
    e = d
    while not e & 1:
        bx, by = _c_mul(bx, by, bx, by)
        e >>= 1
    rx, ry = bx, by
    e >>= 1
    while e:
        bx, by = _c_mul(bx, by, bx, by)
        if e & 1:
            rx, ry = _c_mul(rx, ry, bx, by)
        e >>= 1
    return rx, ry


def _c_rescale(x, y, p: float, c: float):
    """(z - c) / p of z = x + yi and floats c and p > 0 by CPython 3.11's
    rules, which first make each float a complex with imaginary part 0.

    z - c is then (x - c, y - 0.0), and y - 0.0 is y, bit for bit.  z / p is
    ``_Py_c_quot`` with ratio 0 / p = 0 and denominator p + 0 * 0 = p:
    ((x + y * 0) / p, (y - x * 0) / p).  A product with zero is a signed zero,
    or NaN beside an infinite or NaN part, so this differs from dividing each
    part by p in the sign of a zero and in such NaNs.
    """
    x = x - c
    return (x + y * 0.0) / p, (y - x * 0.0) / p


def _c_abs(x, y):
    """abs of x + yi as ``_Py_c_abs`` computes it: libm ``hypot``, which is inf
    when a part is infinite, even beside a NaN.  Where both parts are finite
    and the modulus overflows, ``abs`` raises ``OverflowError``; this is inf.
    A NaN modulus may have another sign bit than the NaN of ``abs``, which no
    comparison sees."""
    return np.hypot(x, y)


def stage_map(sys: FiberedSystem, r: int, z):
    """f_r(z) = ((z - (1-p_r)) / p_r) ** d_r, for a complex scalar or array."""
    if r < 1:
        raise ValueError("stages are 1-based")
    d, p, c = sys.stages(r)
    return _stage(z, d[r], p[r], c[r])


def orbit(sys: FiberedSystem, lam: complex, r_max: int, keep_trace: bool = False) -> OrbitResult:
    """Composed orbit of lam, stopping at the first stage whose modulus is not
    <= 1: above 1, or NaN once a power has overflowed.

    An escape certifies divergence; a bounded result only says "bounded up to
    r_max".  This is the public scalar oracle: the library's own loops
    (``_render_band``, ``_bounded_stage_values``) are tested against it.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    d, p, c = sys.stages(r_max)
    v = complex(lam)
    trace = [] if keep_trace else None
    for r in range(1, r_max + 1):
        v = _stage(v, d[r], p[r], c[r])
        if trace is not None:
            trace.append(v)
        if not abs(v) <= 1.0:  # a NaN modulus escapes too
            return OrbitResult(True, r, v, tuple(trace) if trace is not None else None)
    return OrbitResult(False, r_max, v, tuple(trace) if trace is not None else None)


def eigvec(sys: FiberedSystem, lam: complex, n: int) -> np.ndarray:
    """Candidate eigenvector: entry m is the product of stage values raised to
    the digits of m.  Zero stage values contribute 1 at digit 0."""
    return witness(sys, lam, n, n)  # n exceeds the digit count of every state < n


def witness(sys: FiberedSystem, lam: complex, t: int, n: int) -> np.ndarray:
    """Depth-t truncated eigen-witness of lam: the one row of ``witnesses``."""
    return witnesses(sys, [lam], t, n)[0]


def witnesses(sys: FiberedSystem, lams, t: int, n: int) -> np.ndarray:
    """Depth-t truncated eigen-witnesses, one row of length n per lam: entry m
    is prod_{r<=t} v_r ** a_r(m) over the stage values v_r of lam and the
    digits a_r(m) of m, with 0**0 = 1.

    Built one level block at a time: the block of states below q_r is d_r
    copies of the block below q_{r-1}, copy a times v_r ** a, so each product
    still runs in digit order.  Blocks are cut at n; past stage t the entries
    repeat with period q_t, tiled only when the last block is shorter than n
    (otherwise the cut block itself is returned).  The stage values and the power tables
    (entry e = entry e-1 times v_r, as a Python complex computes it) are
    computed for all lam at once by ``_c_rescale``, ``_c_pow`` and
    ``_c_mul``, with the bits of the scalar stage values (the tests' oracle
    ``stage_values``) and of the scalar tables;
    each block is one broadcast multiply over all rows, and every row gets
    the bits that lam alone would.
    """
    if t < 1 or n < 1:
        raise ValueError("t and n must be >= 1")
    cut = min(t, len(levels(sys.base, n - 1)) + 1)
    d, p, c = sys.stages(cut)
    lam = np.asarray(lams, dtype=complex)
    x, y = lam.real, lam.imag
    out = np.ones((lam.size, 1), dtype=complex)
    # Powers of a large stage value may overflow; the inf and NaN entries stay
    # in the witness, for the eigen-residual to report.
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(1, cut + 1):
            ix, iy = _c_rescale(x, y, p[r], c[r])
            # Below n, digit r stays under n / q_{r-1}: a block is at most 2n long.
            tables = np.empty((lam.size, min(d[r], -(-n // out.shape[1]))), dtype=complex)
            tables[:, 0] = 1.0 + 0.0j
            tx, ty = tables.real, tables.imag
            for e in range(1, tables.shape[1]):
                tx[:, e], ty[:, e] = _c_mul(tx[:, e - 1], ty[:, e - 1], ix, iy)
            block = out[:, None, :] * tables[:, :, None]
            out = block.reshape(lam.size, block.shape[1] * block.shape[2])[:, :n]
            if r < cut:
                x, y = _c_pow(ix, iy, d[r])
    repeats = -(-n // out.shape[1])
    return out if repeats == 1 else np.tile(out, (1, repeats))[:, :n]


def _bounded_stage_values(sys: FiberedSystem, lam: complex, r_max: int) -> list[complex] | None:
    """Normalized stage values i_r = (v_{r-1} - c_r) / p_r for r = 1..r_max,
    with v_0 = lam and v_r = i_r ** d_r, or None as soon as a composed value
    is not <= 1: ``orbit``'s escape test and the stage values in one pass,
    with the same arithmetic as each.  The tests compare it with ``orbit``
    and with their scalar oracle ``stage_values``."""
    d, p, c = sys.stages(r_max)
    out = []
    v = complex(lam)
    for r in range(1, r_max + 1):
        i = _rescale(v, p[r], c[r])
        out.append(i)
        v = _pow_int(i, d[r])
        if not abs(v) <= 1.0:  # a NaN modulus escapes too
            return None
    return out


def _factorization_residual(sys: FiberedSystem, vals: list[complex], r: int, k: int) -> float:
    """Residual of the telescoped stage-value difference identity, from the
    stage values ``vals`` = i_1..i_r and 1 <= k <= r - 1.

    The deviation of the stage-r value from 1 factors through the stage-(r-k)
    deviation times a product of digit-sum terms over probabilities; both
    sides are evaluated directly and the absolute difference returned.  The
    tests check it against an oracle that computes both sides in one body.
    """
    d, p, _ = sys.stages(r)
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


_U = 2.0 ** -53  # unit roundoff of double precision
_ETA = 2.0 ** -990  # bounds every underflow term of one stage
_TAU_FLOOR = 2.0 ** -900  # smaller radii are not kept
_NO_TRAP = -1.0  # radius of a stage that traps nothing; below every modulus


def _trap_radii(sys: FiberedSystem, depth: int, bailout: float) -> list[float]:
    """Radii tau_0..tau_depth: if ``np.abs`` of the composed value after stage
    r (the parameter itself for r = 0) is <= tau_r, then ``_render_band``
    computes no modulus above 1 at any stage up to ``depth``.

    Exactly, a disk of radius t maps under f_r into the disk of radius
    ((t + 1 - p_r) / p_r) ** d_r, so tau_{r-1} = p_r * tau_r ** (1/d_r) - (1 - p_r)
    with tau_depth = 1.  The radii below bound the moduli that ``np.abs``
    returns for the orbit as ``stage_map`` computes it in doubles (u = 2**-53,
    eta = 2**-990 for every underflow term, c = the double 1 - p_r):

    - ``np.abs``: |np.abs(v) - |v|| <= 4u |v| + eta.  libm ``hypot`` is within
      one ulp; numpy's SIMD loop takes a scaled square root of the sum of
      squares in a few roundings.  ``tests/test_julia.py`` checks this bound
      and those below for ``- c``, ``/ p`` and complex products in exact
      arithmetic.
    - ``z - c``: numpy subtracts c + 0j, so the imaginary part is exact and
      |fl(z - c)| <= (1 + u) |z - c| <= (1 + u) (|z| + c).  No underflow term:
      a subtraction that lands below the normal range is exact.
    - ``/ p``: ``_rescale`` multiplies each part of an array by fl(1 / p), as
      numpy's Smith division by p + 0j would: two roundings,
      |w| <= (1 + u)**2 |x| / p + eta.
    - ``_pow_int``: the powering starts from w itself, so every complex
      product multiplies two computed powers of w and has
      |fl(ab)| <= max((1 + 3u) |a| |b|, 2**-999), since its
      normwise error is <= sqrt(5) u without FMA and 2u with it, plus at most
      2**-1070 of underflow.  By induction over the binary powering, the
      computed w ** m has modulus <= max((1 + 3u)**(m-1) |w|**m, 2**-999) while
      (1 + 3u) |w| <= 1: the whole power costs one factor (1 + 3u) inside the
      d-th root.

    Chaining the four (np.abs of v, then of f_r(v)), np.abs(v) <= t implies
    np.abs(f_r(v)) <= tau_r when
        t <= (1-4u) [p (T**(1/d) / (1+3u) - eta) / (1+u)**3 - c] - eta,
        T = (tau_r - eta) / (1 + 4u) >= 2**-999,
    and the right side is >= (1 - 10u) Y - c - 2 eta with Y = p T**(1/d).  The
    radius is then evaluated in doubles, each step rounded the safe way:

    - x = fl(fl(tau_r - eta) (1 - 8u)) <= T (two roundings up at most);
    - z = fl(x ** fl(1/d)) (1 - (8 + ceil(-log z)) u) <= x ** (1/d): libm ``pow``
      is within one ulp, and rounding 1/d moves the root by a relative
      |log z| u at most;
    - y = fl(p z) <= Y (1 + u), so (1 - 10u) Y >= (1 - 11u) y;
    - tau_{r-1} = fl(fl(y - c) - fl(16u fl(y + c))).  The rounding of the
      cancelling difference is absolute, at most (2u + u**2) (y + c) over
      both subtractions, so the cut of 16u (y + c) covers it, the 11u y and,
      as tau_{r-1} >= 2**-900, the 2 eta.

    A radius below 2**-900 (in particular one <= 0) and every radius before it
    is the sentinel -1, so no modulus, not even 0, is trapped there.  With
    ``bailout < 1`` nothing is trapped; with any ``bailout >= 1`` the radii
    hold unchanged, since a modulus <= 1 never escapes.  Those radii are
    computed once per system and depth and kept in ``sys._radii``: the list
    returned is shared, and its readers never write it.
    """
    if not bailout >= 1.0:
        return [_NO_TRAP] * (depth + 1)
    tau = sys._radii.get(depth)
    if tau is not None:
        return tau
    tau = [_NO_TRAP] * (depth + 1)
    d, p, c = sys.stages(depth)
    t = tau[depth] = 1.0
    for r in range(depth, 0, -1):
        x = (t - _ETA) * (1.0 - 8 * _U)
        z = x ** (1 / d[r])  # int division: no overflow for huge degrees
        z *= 1.0 - (8 + math.ceil(-math.log(z))) * _U
        y = p[r] * z
        t = (y - c[r]) - 16 * _U * (y + c[r])
        if not t >= _TAU_FLOOR:
            break
        tau[r - 1] = t
    sys._radii[depth] = tau
    return tau


def _escape_radius(sys: FiberedSystem, bailout: float) -> float:
    """Radius R_1 about c_1 = the double 1 - p_1: if ``np.abs(fl(lam - c_1))``
    is > R_1, then stage 1 of ``_render_band`` computes a modulus that is not
    <= ``bailout``, so lam escapes at stage 1.

    Exactly, f_1 maps the circle |lam - c_1| = p_1 b ** (1/d_1) onto the
    circle of radius b = ``bailout``, so lam escapes at stage 1 just outside
    it.  The radius below bounds the moduli that ``np.abs`` returns from
    below, for the stage-1 value as ``stage_map`` computes it from
    h = fl(lam - c_1) (u = 2**-53, eta = 2**-990; d, p, c the stage-1 entries
    d_1, p_1 and the double c_1).  ``tests/test_julia.py`` checks each bound
    in exact arithmetic:

    - ``np.abs``: np.abs(x) >= (1 - 4u) |x| - eta, and
      np.abs(h) <= (1 + 4u) |h| + eta, as in ``_trap_radii``.
    - ``/ p``: each part of w = h fl(1 / p) is two roundings from the exact
      part over p, so it is >= (1 - u)**2 |h_k| / p - 2**-1074 in modulus, and
      |w| >= (1 - u)**2 |h| / p - eta.
    - ``_pow_int``: each complex product has |fl(ab)| >= (1 - 3u) |a| |b| while
      |a| |b| >= 1 (normwise error <= sqrt(5) u, and the underflow term is far
      below the other 0.7u).  By induction over the binary powering, the
      computed w ** m has modulus >= (1 - 3u)**(m-1) |w|**m, which stays
      >= 1 / (1 - 3u) when |w| >= 1 / (1 - 3u).
    - Overflow: once a part is inf or NaN, every later part is, since each
      part of a complex product reads both parts of both factors, and
      ``np.abs`` of the power is inf or NaN.  Both escape a finite bailout.
      So does the whole stage when fl(1 / p) overflows: h fl(1 / p) then
      has an infinite or a NaN part.

    Chaining them, |w| >= W = (b (1 + u))**(1/d) / ((1 - 4u) (1 - 3u)) gives a
    power of modulus >= (1 - 3u)**(d-1) W**d >= b (1 + u) / (1 - 4u), whose
    ``np.abs`` is >= b (1 + u) - eta > b (b + eta <= b (1 + u) as b >= 1).
    And np.abs(h) >= eta + (1 + 4u) p (W + eta) / (1 - u)**2 gives
    |w| >= W.  As p <= 1, the right side is <= p b**(1/d) (1 + 15u) + 3 eta,
    so any R_1 at least that certifies.  It is evaluated in doubles, each
    step rounded the safe way (L = log b):

    - z = fl(b ** fl(1/d)) (1 + (L + 5) u) >= b ** (1/d): libm ``pow`` is
      within one ulp, and rounding 1/d moves the root by a relative
      L u / d at most;
    - y = fl(p z), so p z <= y (1 + 2u) + 2**-1074 (a subnormal product
      rounds by an absolute 2**-1075), and
      p b**(1/d) (1 + 15u) + 3 eta <= y (1 + (L + 24) u) + 4 eta;
    - R_1 = fl(fl(y fl(1 + (32 + ceil(L)) u)) + 8 eta): rounding the factor,
      the product and the sum keeps R_1 >= y (1 + (L + 27) u) + 7 eta.  The
      8 eta covers a subnormal p_1, whose y is tiny.

    R_1 is +inf, so nothing is certified, unless 1 <= ``bailout`` < inf: the
    rule of ``_trap_radii``.  An infinite bailout does not let an infinite
    modulus escape.
    """
    if not 1.0 <= bailout < math.inf:
        return math.inf
    d, p, _ = sys.stages(1)
    z = bailout ** (1 / d[1])  # int division: no overflow for huge degrees
    y = p[1] * z
    return y * (1.0 + (32 + math.ceil(math.log(bailout))) * _U) + 8 * _ETA


# Parameters per slice of the stage loop: each per-stage temporary (a complex
# slice is 256 KB) stays small enough for the allocator to reuse its memory
# instead of returning it to the system and faulting it back in.
_BLOCK = 16_384


def _render_band(sys: FiberedSystem, lam_flat: np.ndarray, depth: int,
                 bailout: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Escape flags and stages of the orbits of ``lam_flat``, leaving once the
    modulus is not <= ``bailout``: above it, or NaN, which a power of large
    degree can give once it overflows (inf * inf - inf * inf).

    A parameter whose modulus after stage r >= 1 is <= tau_r provably never
    escapes through ``depth``, so it leaves the loop with the default
    result, not escaped at stage ``depth``.  The
    radii follow tau_depth = 1, tau_{r-1} = p_r tau_r ** (1/d_r) - (1 - p_r),
    shrunk by margins that cover every rounding of ``stage_map``, of
    ``np.abs`` and of the recursion itself; ``_trap_radii`` gives the proof.
    Stage 1 first tests ``np.abs(lam - c_1)`` against the radius R_1 of
    ``_escape_radius``: a parameter outside it provably escapes at stage 1
    and is flagged without its power being computed.  So flags and stages
    are those of iterating every parameter through every stage.
    ``lam_flat`` is read, never written.
    """
    return _band_kernel(sys, lam_flat, depth, bailout, _trap_radii(sys, depth, bailout),
                        _escape_radius(sys, bailout))


def _band_kernel(sys: FiberedSystem, lam_flat: np.ndarray, depth: int, bailout: float,
                 tau: list[float], radius: float) -> tuple[np.ndarray, np.ndarray]:
    """``_render_band`` with the radii ``tau`` and R_1 = ``radius`` already computed.

    Each stage runs over its parameters in slices of ``_BLOCK``.  Stage 1
    reads ``lam_flat`` in place, converting one slice at a time to complex
    (``np.asarray``: a complex slice is not copied), and takes
    h = fl(lam - c_1) and ``np.abs(h)``.  Where that is > R_1 the parameter
    escapes at stage 1 (``_escape_radius`` gives the proof): the slice's
    flags are written whole, and its stages where the flag is set.  The rest
    (the parameters inside the circle that f_1 maps onto the bailout circle,
    and a band a few dozen ulps wide outside it) is gathered, and
    ``h * (1 / p_1)`` is powered and tested as at any stage; the position
    of a parameter is ``start`` plus its offset in the slice.
    Only stage 1's survivors are stored: their values at the front of ``v``
    and their positions at the front of ``index``.  Each later stage maps
    that live prefix and moves every survivor of a slice to the front of
    both arrays, in order.  Stages without a positive radius skip the trap
    compare.  tau_0 needs no test of its own: by ``_trap_radii``'s proof
    ``np.abs(lam) <= tau_0`` implies ``np.abs(f_1(lam)) <= tau_1``, which
    the stage-1 trap catches, and at depth 1 stage 1 is the last stage.

    No bit depends on the slicing or on R_1.  Each uncertified parameter
    sees the same elementwise operations on the same values as when every
    stage maps the whole live set at once: ``z - c``, the product with
    1 / p, the complex products of ``_pow_int`` and ``np.abs``.  numpy's
    complex multiply and ``np.abs`` give each element the same bits
    whatever its position in the array: on numpy 2.4.6, slices of 1 to 100
    elements at 430 offsets matched the whole array's results.  The test
    against R_1 only needs ``np.abs`` within the error bound of its proof.
    """
    n = lam_flat.size
    escaped = np.zeros(n, dtype=bool)
    stage = np.full(n, depth, dtype=np.int32)
    v = np.empty(n, dtype=complex)  # orbit values; the first ``live`` are in play
    index = np.empty(n, dtype=np.intp)  # position in lam_flat of each value in v
    d, p, c = sys.stages(1)
    live = n
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(1, depth + 1):
            if live == 0:
                break
            trap = tau[r] if r < depth else _NO_TRAP
            kept = 0
            for start in range(0, live, _BLOCK):
                stop = min(start + _BLOCK, live)
                if r == 1:
                    h = np.asarray(lam_flat[start:stop], dtype=complex) - c[1]
                    out = np.abs(h) > radius
                    escaped[start:stop] = out
                    stage[start:stop][out] = 1
                    rest = np.flatnonzero(~out)
                    pos = start + rest
                    w = _pow_int(h[rest] * (1.0 / p[1]), d[1])
                else:
                    pos = index[start:stop]
                    w = stage_map(sys, r, v[start:stop])
                mod = np.abs(w)
                gone = ~(mod <= bailout)  # a NaN modulus escapes too
                if gone.any():
                    hit = pos[gone]
                    escaped[hit] = True
                    stage[hit] = r
                if trap > 0.0:
                    gone |= mod <= trap
                keep = ~gone
                moved = w[keep]
                index[kept:kept + moved.size] = pos[keep]
                v[kept:kept + moved.size] = moved
                kept += moved.size
            live = kept
    return escaped, stage


def _row_chords(re: np.ndarray, im: np.ndarray, c1: float, radius: float,
                tau0: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per row i of pixel centres re_j + i im_i, the columns that
    ``_band_kernel`` provably decides at stage 1: (lo, hi, tlo, thi), with
    lo <= tlo <= thi <= hi.

    - Outside [lo_i, hi_i): np.abs(lam - c_1) > R_1 = ``radius``, so the
      kernel flags lam escaped at stage 1 (``_escape_radius``).
    - In [tlo_i, thi_i): np.abs(lam) <= tau_0 = ``tau0``, so the kernel
      leaves lam unescaped at its depth: by ``_trap_radii``'s proof the
      stage-1 modulus is <= tau_1 <= 1, so the R_1 test does not flag it
      either.  The chord is empty when ``tau0`` is not positive.

    Only the annulus [lo, tlo) and [thi, hi) needs the kernel.  ``re`` holds
    one row's real parts as ``center_at`` computes them, re_min + (j + 0.5)
    dx: rounding is monotone, so ``re`` is nondecreasing and so is
    ``re - c1``.  The kernel's lam has exactly these parts, and numpy takes
    lam - c_1 as lam - (c_1 + 0j), whose parts are fl(re_j - c_1) and
    im_i - 0 = im_i.  So the R_1 chord searches ``re - c1``, which holds
    the kernel's real parts of h = fl(lam - c_1) bit for bit, and the tau_0
    chord searches ``re``.  With u = 2**-53 and eta = 2**-990, a rounded
    product is within u of its value plus 2**-1075 of underflow, a rounded
    sum within u of its value, ``np.sqrt`` within u, and, as in
    ``_trap_radii``, (1 - 4u) |z| - eta <= np.abs(z) <= (1 + 4u) |z| + eta.
    Write y = im_i; the imaginary part of h is y too.

    Outer chord.  S = fl(fl(R_1 + eta) (1 + 8u)) >= (R_1 + eta) (1 - u)**2 (1 + 8u)
    >= (R_1 + eta) / (1 - 4u), so |h| > S gives np.abs(h) > R_1.  Let
    P = fl(S S), Q = fl(y y) and D = fl(P - Q).  When |y| <= S, Q <= P, and

    - S**2 - y**2 <= (P - Q) + u (S**2 + y**2) + 2**-1074 (the squares),
    - P - Q <= D + u P (the difference), and S**2 <= P (1 + 2u) + 2**-1074,

    so S**2 - y**2 <= D + 4u P + 2**-1073.  The additive slack
    K = fl(16u P) >= 16u P - 2**-1075 and eta covers it: the two sums of
    T = fl(fl(D + K) + eta) are at most 3P + eta in modulus and cost at most
    6u P + u eta, so T >= D + 10u P + eta / 2 >= S**2 - y**2.  The half-width
    A = fl(fl(sqrt(max(T, 0))) (1 + 4u)) >= sqrt(T) (1 - u)**2 (1 + 4u) >= sqrt(T),
    since T >= eta / 2 is far from underflow.  A real part |h_r| > A then
    gives |h|**2 = h_r**2 + y**2 > S**2.  When |y| > S, every A >= 0 holds
    (a row past the disk, or y**2 = inf, gives T <= 0 and A = 0).

    Inner chord.  t = fl(fl(tau_0 - eta) (1 - 8u)) <= (tau_0 - eta) (1 + u)**2 (1 - 8u)
    <= (tau_0 - eta) / (1 + 4u), so |lam| <= t gives np.abs(lam) <= tau_0.
    With P = fl(t t), Q = fl(y y), D = fl(P - Q) and K = fl(16u P), the same
    bounds turned round give t**2 - y**2 >= D - 4u P - 2**-1073 when
    |y| <= t, and T = fl(fl(D - K) - eta) <= D - 10u P - eta / 2 <= t**2 - y**2.
    When |y| > t, Q >= P, so D <= 0 and T < 0.  For T > 0,
    B = fl(fl(sqrt(T)) (1 - 4u)) <= sqrt(T) (1 + u)**2 (1 - 4u) <= sqrt(T),
    and |re_j| <= B gives |lam|**2 <= T + y**2 <= t**2.  A tau_0 below about
    2**-537 makes P underflow to 0, and the chord is empty.

    Near the top and bottom of a disk, y is close to S or t and D cancels:
    there the slack holds the outer chord at least sqrt(16u) S (about
    6e-8 S) wide and closes the inner one early.  A wider outer chord or a
    narrower inner one only sends more centres through the kernel.
    """
    with np.errstate(over="ignore"):  # y**2 of a huge window; T is then -inf
        y2 = im * im
    s = (radius + _ETA) * (1.0 + 8 * _U)
    s2 = s * s
    a = np.sqrt(np.maximum(((s2 - y2) + 16 * _U * s2) + _ETA, 0.0)) * (1.0 + 4 * _U)
    h = re - c1
    lo = np.searchsorted(h, -a, "left")
    hi = np.searchsorted(h, a, "right")
    if not tau0 > 0.0:
        return lo, hi, lo, lo
    t = (tau0 - _ETA) * (1.0 - 8 * _U)
    t2 = t * t
    b2 = ((t2 - y2) - 16 * _U * t2) - _ETA
    b = np.sqrt(np.maximum(b2, 0.0)) * (1.0 - 4 * _U)
    tlo = np.clip(np.searchsorted(re, -b, "left"), lo, hi)
    thi = np.where(b2 > 0.0, np.clip(np.searchsorted(re, b, "right"), tlo, hi), tlo)
    return lo, hi, tlo, thi


def _spans(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The integers of the ranges [starts[k], stops[k]) (at least one range), range after range."""
    lengths = stops - starts
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)


def render(sys: FiberedSystem, window, resolution, depth: int = DEFAULT_DEPTH,
           threads: int = 1) -> MembershipGrid:
    """Escape-time grid over pixel centers.

    Most centres of a row are decided without the escape kernel, by two
    chords of the row (``_row_chords`` gives the proof).  Centres farther
    from c_1 than the stage-1 escape radius R_1 are flagged escaped at
    stage 1, and centres inside the trapping radius tau_0 bounded at
    ``depth``: the kernel would give each of them exactly that.  Only the
    annulus between the chords, one or two runs of columns per row, goes
    through the kernel.

    A row whose centers are the exact conjugates of an earlier row's is not
    run through the kernel: it copies that row's flags and stages.  The copy
    is exact.  The centers of the two rows share their real parts, and their
    imaginary parts are negatives as doubles.  Each step of the kernel
    commutes with conjugation, because round-to-nearest commutes with
    negation:

    - ``z - c`` with c real;
    - ``np.abs(lam - c_1)``, tested against the escape radius R_1;
    - ``h * (1 / p)``;
    - the complex products of ``_pow_int``, with or without a fused
      multiply-add;
    - ``np.abs``.

    So the two orbits differ at most in the sign of a zero part, which no
    modulus sees, and a NaN shows up in both or in neither.  A centre that a
    chord decides gets the kernel's result, so the copy stays exact.  Rows
    are paired by value, not by bits; a row on the real axis (+0 or -0) is
    its own mirror and is computed.

    The annulus centres of all computed rows go through the escape kernel
    in one call, on the calling thread, and its results are scattered back
    by flat index.  ``threads`` is accepted and ignored: ``perfbench`` still
    passes it.
    """
    re_min, re_max, im_min, im_max = (float(x) for x in window)
    width, height = (int(x) for x in resolution)
    if width < 1 or height < 1:
        raise ValueError("resolution must be positive")
    if not all(map(math.isfinite, (re_min, re_max, im_min, im_max,
                                   re_max - re_min, im_max - im_min))):
        raise ValueError("window bounds, width and height must be finite")
    if not (re_max > re_min and im_max > im_min):
        raise ValueError("window has zero area")
    if depth < 1:
        raise ValueError("depth must be >= 1")

    # Every centre starts escaped at stage 1; the chords and the kernel set the rest.
    grid = MembershipGrid((re_min, re_max, im_min, im_max), width, height, depth,
                          np.ones((height, width), dtype=bool),
                          np.ones((height, width), dtype=np.int32))
    escaped, stage = grid.escaped.reshape(-1), grid.stage.reshape(-1)  # views

    tau = _trap_radii(sys, depth, 1.0)
    radius = _escape_radius(sys, 1.0)
    re = grid.center_at(0, np.arange(width)).real
    im = grid.center_at(np.arange(height), 0).imag

    # Row j copies the first computed row i whose imaginary part is -im[j].
    computed, mirrors, sources = [], [], []
    first = {}
    for j, y in enumerate(im.tolist()):
        i = first.get(-y) if y else None
        if i is None:
            first.setdefault(y, j)
            computed.append(j)
        else:
            mirrors.append(j)
            sources.append(i)

    rows = np.array(computed)
    lo, hi, tlo, thi = _row_chords(re, im[rows], sys.stages(1)[2][1], radius, tau[0])
    start = rows * width
    inside = _spans(start + tlo, start + thi)
    escaped[inside] = False
    stage[inside] = depth
    # The annulus centres in flat index order, row by row.
    annulus = _spans(np.column_stack([start + lo, start + thi]).reshape(-1),
                     np.column_stack([start + tlo, start + hi]).reshape(-1))

    if annulus.size:
        # Only the annulus parameters are built: no full parameter grid is held.
        row, col = np.divmod(annulus, width)
        lam = np.empty(annulus.size, dtype=complex)
        lam.real = re[col]
        lam.imag = im[row]
        escaped[annulus], stage[annulus] = _band_kernel(sys, lam, depth, 1.0, tau, radius)
    grid.escaped[mirrors] = grid.escaped[sources]
    grid.stage[mirrors] = grid.stage[sources]
    return grid


def band_depth(resolution) -> int:
    """Probe depth matched to pixel scale for boundary extraction.

    When the bounded set has empty interior, the depth-R survivor set shrinks
    onto it as R grows and eventually falls below pixel width, emptying the
    detected boundary.  Scaling the depth with log2 of the resolution aims to
    keep a survivor band about a pixel wide, but nothing guarantees one: for
    the dust-like presets fig9a and fig9c no pixel survives at 64², 256² or
    512², and ``stochadd report`` then prints ``boundary_density=skipped``.
    Membership certification should still use deep probes; this is only for
    locating the boundary.
    """
    width, height = (int(x) for x in resolution)
    return max(8, round(1.5 * math.log2(min(width, height))))


def _has_neighbor(mask: np.ndarray) -> np.ndarray:
    """Pixels with a True 4-neighbor inside the grid."""
    out = np.zeros_like(mask)
    out[1:, :] |= mask[:-1, :]
    out[:-1, :] |= mask[1:, :]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    return out


def boundary_pixels(grid: MembershipGrid) -> np.ndarray:
    """(row, col) pairs of bounded pixels with an escaped 4-neighbor."""
    return np.argwhere(~grid.escaped & _has_neighbor(grid.escaped))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def write_pgm(grid: MembershipGrid, path) -> None:
    """Binary PGM: 255 for bounded pixels, else floor(254 * stage / depth),
    read from a table of depth + 1 shades indexed by stage."""
    shade = np.floor(254.0 * np.arange(grid.depth + 1) / grid.depth).astype(np.uint8)
    img = np.take(shade, grid.stage)
    img[~grid.escaped] = 255
    with open(path, "wb") as fh:
        fh.write(f"P5\n{grid.width} {grid.height}\n255\n".encode("ascii"))
        fh.write(img)


def write_pbm(grid: MembershipGrid, path) -> None:
    """Binary PBM membership mask; 1-bits mark bounded (member) pixels."""
    bits = np.packbits(~grid.escaped, axis=1)
    with open(path, "wb") as fh:
        fh.write(f"P4\n{grid.width} {grid.height}\n".encode("ascii"))
        fh.write(bits.tobytes())


def write_metadata(grid: MembershipGrid, path, base_spec: str, probs_spec: str) -> None:
    """Flat key=value sidecar describing the render."""
    re_min, re_max, im_min, im_max = grid.window
    lines = [
        f"base={base_spec}",
        f"probs={probs_spec}",
        f"re_min={re_min:.17g}",
        f"re_max={re_max:.17g}",
        f"im_min={im_min:.17g}",
        f"im_max={im_max:.17g}",
        f"width={grid.width}",
        f"height={grid.height}",
        f"depth={grid.depth}",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
