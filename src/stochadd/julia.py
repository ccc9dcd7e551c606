"""Fibered escape-time dynamics and membership grids.

Stage r applies f_r(z) = ((z - (1-p_r)) / p_r) ** d_r; the composed orbit of a
parameter lam is bounded exactly when every composed value has modulus <= 1,
so the escape bailout radius is 1 (not the conventional 2) and an escape at
any stage certifies the parameter outside the bounded set.  Pixels are only
ever classified "escaped at stage r" or "bounded up to the probed depth";
no pixel is certified inside.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .numeration import BaseSeq, ProbSeq, to_digits

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

    Scalars and arrays share one op order, but not always the same bits:
    numpy's SIMD complex multiply may fuse a multiply-add that Python's
    scalar multiply rounds twice.  ``z`` is never written in place.
    """
    result = complex(1.0)
    b = z
    e = d
    while e:
        if e & 1:
            result = result * b
        e >>= 1
        if e:
            b = b * b
    return result


def stage_map(sys: FiberedSystem, r: int, z):
    """f_r(z) = ((z - (1-p_r)) / p_r) ** d_r, for a complex scalar or array."""
    if r < 1:
        raise ValueError("stages are 1-based")
    return _pow_int((z - sys.center(r)) / sys.p(r), sys.d(r))


def orbit(sys: FiberedSystem, lam: complex, r_max: int, keep_trace: bool = False) -> OrbitResult:
    """Composed orbit of lam, stopping at the first stage with modulus > 1.

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
        if abs(v) > 1.0:
            return OrbitResult(True, r, v, tuple(trace) if trace is not None else None)
    return OrbitResult(False, r_max, v, tuple(trace) if trace is not None else None)


def stage_values(sys: FiberedSystem, lam: complex, r_max: int) -> list[complex]:
    """Normalized stage values for stages 1..r_max."""
    out = []
    v = complex(lam)
    for r in range(1, r_max + 1):
        i = (v - sys.center(r)) / sys.p(r)
        out.append(i)
        v = _pow_int(i, sys.d(r))
    return out


@functools.lru_cache(maxsize=64)
def _digits_matrix(base: BaseSeq, n: int) -> np.ndarray:
    """Digit expansions of 0..n-1 as an (n, L) int array, read-only."""
    length = len(to_digits(n - 1, base).digits) if n > 1 else 0
    out = np.zeros((n, length), dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)
    place = 1
    for r in range(1, length + 1):
        d = base.at(r)
        out[:, r - 1] = (idx // place) % d
        place *= d
    out.setflags(write=False)
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
    if n < 1:
        raise ValueError("n must be >= 1")
    return witness(sys, lam, max(1, _digits_matrix(sys.base, n).shape[1]), n)


def witness(sys: FiberedSystem, lam: complex, t: int, n: int) -> np.ndarray:
    """Depth-t truncated eigen-witness: only the first t digit positions count."""
    if t < 1 or n < 1:
        raise ValueError("t and n must be >= 1")
    digits = _digits_matrix(sys.base, n)
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


def _render_band(sys: FiberedSystem, lam_flat: np.ndarray, depth: int,
                 bailout: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Escape flags and stages of the orbits of ``lam_flat``, leaving at modulus
    > ``bailout``.  Values may overflow once past the unit disk; that is ignored."""
    n = lam_flat.size
    escaped = np.zeros(n, dtype=bool)
    stage = np.full(n, depth, dtype=np.int32)
    active = np.arange(n)
    v = lam_flat.astype(complex)  # orbit values of the active parameters
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(1, depth + 1):
            v = stage_map(sys, r, v)
            esc = np.abs(v) > bailout
            if esc.any():
                hit = active[esc]
                escaped[hit] = True
                stage[hit] = r
                active = active[~esc]
                v = v[~esc]
                if active.size == 0:
                    break
    return escaped, stage


def render(sys: FiberedSystem, window, resolution, depth: int = DEFAULT_DEPTH,
           threads: int = 1) -> MembershipGrid:
    """Escape-time grid over pixel centers.

    The rows are split into ``threads`` bands (one when ``threads < 1``), each
    run through the escape kernel on its own thread; the grid is the same for
    any thread count.
    """
    re_min, re_max, im_min, im_max = (float(x) for x in window)
    width, height = (int(x) for x in resolution)
    if width < 1 or height < 1:
        raise ValueError("resolution must be positive")
    if not (re_max > re_min and im_max > im_min):
        raise ValueError("window has zero area")
    if depth < 1:
        raise ValueError("depth must be >= 1")

    dx = (re_max - re_min) / width
    dy = (im_max - im_min) / height
    xs = re_min + (np.arange(width) + 0.5) * dx
    ys = im_max - (np.arange(height) + 0.5) * dy
    lam = (xs[None, :] + 1j * ys[:, None]).reshape(-1)

    # Whole rows per band, at least one band; the bands are contiguous and in
    # order, so their concatenation is the grid.
    bands = np.array_split(np.arange(height), max(1, min(threads, height)))
    with ThreadPoolExecutor(max_workers=len(bands)) as pool:
        parts = list(pool.map(
            lambda rows: _render_band(sys, lam[rows[0] * width:(rows[-1] + 1) * width], depth),
            bands))
    escaped = np.concatenate([e for e, _ in parts])
    stage = np.concatenate([s for _, s in parts])

    return MembershipGrid((re_min, re_max, im_min, im_max), width, height, depth,
                          escaped.reshape(height, width), stage.reshape(height, width))


def band_depth(resolution) -> int:
    """Probe depth matched to pixel scale for boundary extraction.

    When the bounded set has empty interior, the depth-R survivor set shrinks
    onto it as R grows and eventually falls below pixel width, emptying the
    detected boundary.  Scaling the depth with log2 of the resolution keeps
    the survivor band roughly a pixel wide.  Membership certification should
    still use deep probes; this is only for locating the boundary.
    """
    width, height = (int(x) for x in resolution)
    return max(8, round(1.5 * math.log2(min(width, height))))


def boundary_pixels(grid: MembershipGrid) -> np.ndarray:
    """(row, col) pairs of bounded pixels with an escaped 4-neighbor."""
    esc = grid.escaped
    neighbor = np.zeros_like(esc)
    neighbor[1:, :] |= esc[:-1, :]
    neighbor[:-1, :] |= esc[1:, :]
    neighbor[:, 1:] |= esc[:, :-1]
    neighbor[:, :-1] |= esc[:, 1:]
    return np.argwhere(~esc & neighbor)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def write_pgm(grid: MembershipGrid, path) -> None:
    """Binary PGM: 255 for bounded pixels, else floor(254 * stage / depth)."""
    shade = np.floor(254.0 * grid.stage / grid.depth).astype(np.uint8)
    img = np.where(grid.escaped, shade, np.uint8(255)).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{grid.width} {grid.height}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


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
