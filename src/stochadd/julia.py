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
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .numeration import BaseSeq, ProbSeq, digits_matrix

DEFAULT_DEPTH = 200
DEFAULT_WINDOW = (-1.6, 1.6, -1.6, 1.6)


@dataclass(frozen=True)
class FiberedSystem:
    """Base and probability sequences driving the stage maps."""

    base: BaseSeq
    probs: ProbSeq

    def d(self, r: int) -> int:
        return self.base.at(r)

    def p(self, r: int) -> float:
        return self.probs.at(r)

    def center(self, r: int) -> float:
        return 1.0 - self.probs.at(r)


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


def _rescale(sys: FiberedSystem, r: int, z):
    """(z - (1-p_r)) / p_r for a complex scalar or array.

    numpy divides a complex array by a real with Smith's formula, which
    multiplies each part by fl(1 / p_r); an array is multiplied by that factor
    directly, which differs only in the sign of a zero part and skips the
    scalar division loop.  Scalars keep their correctly rounded division.
    """
    h = z - sys.center(r)
    return h * (1.0 / sys.p(r)) if isinstance(h, np.ndarray) else h / sys.p(r)


def stage_map(sys: FiberedSystem, r: int, z):
    """f_r(z) = ((z - (1-p_r)) / p_r) ** d_r, for a complex scalar or array."""
    if r < 1:
        raise ValueError("stages are 1-based")
    return _pow_int(_rescale(sys, r, z), sys.d(r))


def stage_jet(sys: FiberedSystem, r: int, z):
    """(f_r(z), f_r'(z)) for a complex scalar or array; f_r(z) has ``stage_map``'s bits."""
    d = sys.d(r)
    h = _rescale(sys, r, z)
    return _pow_int(h, d), d * _pow_int(h, d - 1) / sys.p(r)


def orbit(sys: FiberedSystem, lam: complex, r_max: int, keep_trace: bool = False) -> OrbitResult:
    """Composed orbit of lam, stopping at the first stage whose modulus is not
    <= 1: above 1, or NaN once a power has overflowed.

    An escape certifies divergence; a bounded result only says "bounded up to
    r_max".
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    v = complex(lam)
    trace = [] if keep_trace else None
    for r in range(1, r_max + 1):
        v = stage_map(sys, r, v)
        if trace is not None:
            trace.append(v)
        if not abs(v) <= 1.0:  # a NaN modulus escapes too
            return OrbitResult(True, r, v, tuple(trace) if trace is not None else None)
    return OrbitResult(False, r_max, v, tuple(trace) if trace is not None else None)


def stage_values(sys: FiberedSystem, lam: complex, r_max: int) -> list[complex]:
    """Normalized stage values for stages 1..r_max."""
    out = []
    v = complex(lam)
    for r in range(1, r_max + 1):
        i = _rescale(sys, r, v)
        out.append(i)
        v = _pow_int(i, sys.d(r))
    return out


def _digit_power_product(sys: FiberedSystem, stage_vals: list[complex], digits: np.ndarray) -> np.ndarray:
    """prod_r stage_vals[r] ** digit_r per row of ``digits``, with 0**0 = 1."""
    n = digits.shape[0]
    out = np.ones(n, dtype=complex)
    for r in range(1, digits.shape[1] + 1):
        i = stage_vals[r - 1]
        table = np.empty(sys.d(r), dtype=complex)
        table[0] = 1.0 + 0.0j
        for e in range(1, sys.d(r)):
            table[e] = table[e - 1] * i
        out *= table[digits[:, r - 1]]
    return out


def eigvec(sys: FiberedSystem, lam: complex, n: int) -> np.ndarray:
    """Candidate eigenvector: entry m is the product of stage values raised to
    the digits of m.  Zero stage values contribute 1 at digit 0."""
    return witness(sys, lam, n, n)  # n exceeds the digit count of every state < n


def witness(sys: FiberedSystem, lam: complex, t: int, n: int) -> np.ndarray:
    """Depth-t truncated eigen-witness: only the first t digit positions count."""
    if t < 1 or n < 1:
        raise ValueError("t and n must be >= 1")
    digits = digits_matrix(sys.base, n)
    cut = min(t, digits.shape[1])
    vals = stage_values(sys, lam, cut) if cut else []
    return _digit_power_product(sys, vals, digits[:, :cut])


def factorization_check(sys: FiberedSystem, lam: complex, r: int, k: int) -> float:
    """Residual of the telescoped stage-value difference identity.

    The deviation of the stage-r value from 1 factors through the stage-(r-k)
    deviation times a product of digit-sum terms over probabilities; both
    sides are evaluated directly and the absolute difference returned.
    """
    if not 1 <= k <= r - 1:
        raise ValueError("need 1 <= k <= r-1")
    vals = stage_values(sys, lam, r)
    lhs = vals[r - 1] - 1.0
    factor = complex(1.0)
    for j in range(r - k + 1, r + 1):
        prev = vals[j - 2]
        zsum = complex(0.0)
        term = complex(1.0)
        for _ in range(sys.d(j - 1)):
            zsum += term
            term *= prev
        factor *= zsum / sys.p(j)
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
    hold unchanged, since a modulus <= 1 never escapes.
    """
    tau = [_NO_TRAP] * (depth + 1)
    if not bailout >= 1.0:
        return tau
    t = tau[depth] = 1.0
    for r in range(depth, 0, -1):
        x = (t - _ETA) * (1.0 - 8 * _U)
        z = x ** (1 / sys.d(r))  # int division: no overflow for huge degrees
        z *= 1.0 - (8 + math.ceil(-math.log(z))) * _U
        y = sys.p(r) * z
        c = sys.center(r)
        t = (y - c) - 16 * _U * (y + c)
        if not t >= _TAU_FLOOR:
            break
        tau[r - 1] = t
    return tau


# Parameters per slice of the stage loop: each per-stage temporary (a complex
# slice is 256 KB) stays small enough for the allocator to reuse its memory
# instead of returning it to the system and faulting it back in.
_BLOCK = 16_384


def _render_band(sys: FiberedSystem, lam_flat: np.ndarray, depth: int,
                 bailout: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Escape flags and stages of the orbits of ``lam_flat``, leaving once the
    modulus is not <= ``bailout``: above it, or NaN, which a power of large
    degree can give once it overflows (inf * inf - inf * inf).

    A parameter whose modulus after stage r is <= tau_r (r = 0 tests the
    parameter itself) provably never escapes through ``depth``, so it leaves
    the loop with the default result, not escaped at stage ``depth``.  The
    radii follow tau_depth = 1, tau_{r-1} = p_r tau_r ** (1/d_r) - (1 - p_r),
    shrunk by margins that cover every rounding of ``stage_map``, of
    ``np.abs`` and of the recursion itself; ``_trap_radii`` gives the proof.
    So flags and stages are those of iterating every parameter through every
    stage.  ``lam_flat`` is read, never written.
    """
    return _band_kernel(sys, lam_flat, depth, bailout, _trap_radii(sys, depth, bailout))


def _band_kernel(sys: FiberedSystem, lam_flat: np.ndarray, depth: int, bailout: float,
                 tau: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """``_render_band`` with the radii ``tau`` already computed.

    The orbit values and the positions of the live parameters are one copy of
    ``lam_flat`` and one index array, made once.  Each stage runs over the
    live prefix in slices of ``_BLOCK`` parameters and moves every survivor
    of a slice to the front of both arrays, in order, so that each parameter
    sees the same elementwise operations as when the whole prefix is mapped
    at once.  Stages without a positive radius skip the compare.
    """
    n = lam_flat.size
    escaped = np.zeros(n, dtype=bool)
    stage = np.full(n, depth, dtype=np.int32)
    v = np.array(lam_flat, dtype=complex)  # orbit values; the first ``live`` are in play
    index = np.arange(n)  # position in lam_flat of each value in v
    live = n
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(depth + 1):
            if live == 0:
                break
            trap = tau[r] if r < depth else _NO_TRAP
            if r == 0 and not trap > 0.0:
                continue  # stage 0 maps nothing and only traps
            kept = 0
            for start in range(0, live, _BLOCK):
                stop = min(start + _BLOCK, live)
                w = stage_map(sys, r, v[start:stop]) if r else v[start:stop]
                mod = np.abs(w)
                # Nothing escapes at stage 0; later a NaN modulus escapes too.
                gone = ~(mod <= bailout) if r else np.zeros(mod.size, dtype=bool)
                if gone.any():
                    hit = index[start:stop][gone]
                    escaped[hit] = True
                    stage[hit] = r
                if trap > 0.0:
                    gone |= mod <= trap
                keep = ~gone
                moved = w[keep]
                index[kept:kept + moved.size] = index[start:stop][keep]
                v[kept:kept + moved.size] = moved
                kept += moved.size
            live = kept
    return escaped, stage


def render(sys: FiberedSystem, window, resolution, depth: int = DEFAULT_DEPTH,
           threads: int = 1) -> MembershipGrid:
    """Escape-time grid over pixel centers.

    The rows are split into ``threads`` bands (one when ``threads < 1``), each
    run through the escape kernel on its own thread; the grid is the same for
    any thread count.  The trapping radii are computed once per call and
    shared by the bands; each band builds only its own parameters.
    """
    re_min, re_max, im_min, im_max = (float(x) for x in window)
    width, height = (int(x) for x in resolution)
    if width < 1 or height < 1:
        raise ValueError("resolution must be positive")
    if not (re_max > re_min and im_max > im_min):
        raise ValueError("window has zero area")
    if depth < 1:
        raise ValueError("depth must be >= 1")

    grid = MembershipGrid((re_min, re_max, im_min, im_max), width, height, depth,
                          np.empty((height, width), dtype=bool),
                          np.empty((height, width), dtype=np.int32))

    tau = _trap_radii(sys, depth, 1.0)

    def band(rows):
        # Each band builds and fills only its own rows: no full parameter grid is held.
        lam = grid.center_at(rows[:, None], np.arange(width)).reshape(-1)
        escaped, stage = _band_kernel(sys, lam, depth, 1.0, tau)
        grid.escaped[rows] = escaped.reshape(-1, width)
        grid.stage[rows] = stage.reshape(-1, width)

    # Whole rows per band, at least one band; the bands cover every row once.
    bands = np.array_split(np.arange(height), max(1, min(threads, height)))
    with ThreadPoolExecutor(max_workers=len(bands)) as pool:
        list(pool.map(band, bands))  # reading the results re-raises a band's error
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
    """Binary PGM: 255 for bounded pixels, else floor(254 * stage / depth)."""
    shade = 254.0 * grid.stage  # one float temporary, rounded in place
    shade /= grid.depth
    np.floor(shade, out=shade)
    img = np.where(grid.escaped, shade.astype(np.uint8), np.uint8(255))
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
