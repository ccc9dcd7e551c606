"""Output checks computed apart from the program.

Every check here derives its expectation from the definitions of the adding
machine and its stage maps (closed-form transition rows, digit counters, a
scalar escape loop, an mpmath evaluation of the composed map), never from a
stored copy of earlier output and never through the program's own helpers.
A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
from scipy.spatial import cKDTree

# Pixels whose orbit modulus comes within this relative distance of the bailout
# radius 1 at some probed stage are borderline: one rounding difference may
# decide them either way, so they are counted and not compared.
BORDERLINE_MARGIN = 1e-9
# For the unit-disk case f_r(z) = z**2 the rounding error of z**(2**r) grows
# like |lam|**(2**r) / (1 - |lam|) ulps, so only |lam| within ~sqrt(eps) of 1
# is undecidable; 1e-6 leaves two orders of magnitude of room.
UNIT_DISK_MARGIN = 1e-6
# Most asymmetric pixels a render may show before the symmetry check stops
# looking for borderline explanations.
MAX_ASYMMETRIC = 64
ROOT_TOL = 1e-10  # the program's dedup tolerance
BACKWARD_ULPS = 32  # worst over every deepest-level root of the spectrum presets: 19.5 (fig8a)


class CheckFailed(AssertionError):
    """An output disagrees with the independent computation."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Sequences, parsed here rather than through stochadd.numeration
# ---------------------------------------------------------------------------


def base_seq(spec: str):
    """d_r as a function of r for the base spec kinds the benchmark uses."""
    if spec == "even":
        return lambda r: 2 * r
    if spec == "fib":
        fib = [2, 3]

        def d(r):
            while len(fib) < r:
                fib.append(fib[-1] + fib[-2])
            return fib[r - 1]

        return d
    kind, _, rest = spec.partition(":")
    if kind == "const":
        value = int(rest)
        return lambda r: value
    if kind == "periodic":
        values = [int(t) for t in rest.split(",")]
        return lambda r: values[(r - 1) % len(values)]
    raise ValueError(f"base spec {spec!r} not known to the benchmark")


def prob_seq(spec: str):
    """p_r as a function of r for the probability spec kinds the benchmark uses."""
    kind, _, rest = spec.partition(":")
    if kind == "pconst":
        value = float(rest)
        return lambda r: value
    if kind == "plist":
        body, _, tail = rest.partition(";tail=")
        values = [float(t) for t in body.split(",")]
        tail_value = float(tail)
        return lambda r: values[r - 1] if r <= len(values) else tail_value
    raise ValueError(f"probability spec {spec!r} not known to the benchmark")


def level_size(d, k: int) -> int:
    """q_k = d_1 * ... * d_k."""
    return math.prod(d(r) for r in range(1, k + 1))


# ---------------------------------------------------------------------------
# Transition operator
# ---------------------------------------------------------------------------


def counter_of(n: int, d) -> int:
    """s_n: one more than the number of leading maximal digits of n."""
    s = 1
    while True:
        n, a = divmod(n, d(s))
        if a != d(s) - 1:
            return s
        s += 1


def closed_form_row(n: int, d, p) -> dict[int, float]:
    """Row n of the infinite operator: n+1 with prod_{r<=s_n} p_r, n with
    1 - p_1, and n - (q_s - 1) with (1 - p_{s+1}) prod_{r<=s} p_r for s < s_n.
    Zero-probability entries are left out."""
    s_n = counter_of(n, d)
    row = {}
    prod, q = 1.0, 1
    for s in range(1, s_n):
        prod *= p(s)
        q *= d(s)
        w = (1.0 - p(s + 1)) * prod
        if w > 0.0:
            row[n - (q - 1)] = w
    if p(1) < 1.0:
        row[n] = 1.0 - p(1)
    row[n + 1] = prod * p(s_n)
    return row


def complete_columns(n_states: int, d) -> np.ndarray:
    """Column m is complete when every row feeding it is inside the truncation:
    m >= 1 and m + q_z - 1 < n_states, z the number of leading zero digits."""
    m = np.arange(n_states, dtype=np.int64)
    rem = m.copy()
    q = np.ones(n_states, dtype=np.int64)
    alive = m > 0
    r = 1
    while alive.any():
        dr = d(r)
        alive &= rem % dr == 0
        q[alive] *= dr
        rem //= dr
        r += 1
    return (m > 0) & (m + q - 1 < n_states)


def check_operator(csr, clipped_rows, column_report, d, p, sample_rows,
                   tol: float = 1e-12, row_tol: float = 1e-14) -> None:
    """Stochasticity from the CSR arrays, clipped rows, the program's column
    report, and a sample of rows against the closed form."""
    n_states = csr.shape[0]
    require(csr.shape == (n_states, n_states), f"matrix shape {csr.shape}")
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    rows = np.repeat(np.arange(n_states), np.diff(indptr))
    row_sums = np.bincount(rows, weights=data, minlength=n_states)
    col_sums = np.bincount(indices, weights=data, minlength=n_states)

    # Only n+1 can leave the truncation, so exactly the last row is clipped.
    require(set(clipped_rows) == {n_states - 1}, f"clipped rows {sorted(clipped_rows)[:8]}")
    dev = float(np.abs(row_sums[:-1] - 1.0).max())
    require(dev <= tol, f"unclipped row sum off by {dev:.3g}")

    complete = complete_columns(n_states, d)
    dev = float(np.abs(col_sums[complete] - 1.0).max())
    require(dev <= tol, f"complete column sum off by {dev:.3g}")
    require(len(column_report) == n_states, "column report length")
    flags = np.array([c for _, _, c in column_report], dtype=bool)
    sums = np.array([t for _, t, _ in column_report])
    require(np.array_equal(flags, complete), "column completeness flags differ")
    dev = float(np.abs(sums - col_sums).max())
    require(dev <= tol, f"column report sums differ by {dev:.3g}")

    for n in sample_rows:
        want = {t: w for t, w in closed_form_row(int(n), d, p).items() if t < n_states}
        lo, hi = indptr[n], indptr[n + 1]
        got = dict(zip(indices[lo:hi].tolist(), data[lo:hi].tolist()))
        require(got.keys() == want.keys(), f"row {n} targets {sorted(got)} != {sorted(want)}")
        for t, w in want.items():
            require(abs(got[t] - w) <= row_tol, f"row {n} entry {t}: {got[t]!r} != {w!r}")


def counters(states: np.ndarray, d) -> np.ndarray:
    """s_n for every entry of ``states`` (vectorized counter_of)."""
    s = np.ones(states.shape, dtype=np.int64)
    rem = states.copy()
    alive = np.ones(states.shape, dtype=bool)
    r = 1
    while alive.any():
        dr = d(r)
        alive &= rem % dr == dr - 1
        s += alive
        rem //= dr
        r += 1
    return s


def check_trajectory(states, start: int, steps: int, d, p, sigmas: float = 5.0) -> None:
    """Every step is a legal transition; the share of stays is within
    ``sigmas`` standard deviations of 1 - p_1."""
    s = np.asarray(states, dtype=np.int64)
    require(s.shape == (steps + 1,) and s[0] == start, "trajectory length or start")
    a, b = s[:-1], s[1:]
    delta = a - b
    stay = delta == 0
    jump = ~stay & (delta != -1)
    require(p(1) < 1.0 or not stay.any(), "stay step although p_1 = 1")
    if jump.any():
        # A jump from n lands on n - (q_s - 1) for a stage s < s_n with p_{s+1} < 1.
        s_n = counters(a[jump], d)
        stage_of = {}
        q = 1
        for stage in range(1, int(s_n.max())):
            q *= d(stage)
            if p(stage + 1) < 1.0:
                stage_of[q] = stage
        stage = np.array([stage_of.get(int(x), 0) for x in delta[jump] + 1], dtype=np.int64)
        bad = np.flatnonzero(jump)[(stage < 1) | (stage >= s_n)]
        if bad.size:
            raise CheckFailed(f"illegal step {a[bad[0]]} -> {b[bad[0]]}")
    share = float(stay.mean())
    want = 1.0 - p(1)
    sigma = math.sqrt(want * (1.0 - want) / steps)
    require(abs(share - want) <= sigmas * sigma,
            f"stay share {share:.4f}, expected {want:.4f} +- {sigmas}x{sigma:.4f}")


# ---------------------------------------------------------------------------
# Escape-time grids
# ---------------------------------------------------------------------------


def pixel_centers(window, width: int, height: int) -> np.ndarray:
    """Row-major pixel centers, top row at maximal imaginary part."""
    re_min, re_max, im_min, im_max = window
    dx = (re_max - re_min) / width
    dy = (im_max - im_min) / height
    xs = re_min + (np.arange(width) + 0.5) * dx
    ys = im_max - (np.arange(height) + 0.5) * dy
    return xs[None, :] + 1j * ys[:, None]


def _pow(z: complex, e: int) -> complex:
    result = complex(1.0)
    while e:
        if e & 1:
            result = result * z
        e >>= 1
        if e:
            z = z * z
    return result


def scalar_escape(lam: complex, d, p, depth: int) -> tuple[bool, int, float]:
    """(escaped, stage, closest): the first stage whose composed value leaves
    the closed unit disk (or ``depth``), and the least | |v_r| - 1 | seen."""
    v = complex(lam)
    closest = math.inf
    for r in range(1, depth + 1):
        pr = p(r)
        v = _pow((v - (1.0 - pr)) / pr, d(r))
        m = abs(v)
        closest = min(closest, abs(m - 1.0))
        if m > 1.0:
            return True, r, closest
    return False, depth, closest


def read_pnm(path) -> tuple[bytes, np.ndarray]:
    """(magic, pixel array) of a binary PGM (P5) or PBM (P4) file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    # Header lines: magic, "width height", and for PGM the maxval; then raw bytes.
    magic = raw[:2]
    fields = raw.split(b"\n", 3 if magic == b"P5" else 2)
    width, height = (int(x) for x in fields[1].split())
    body = fields[-1]
    if magic == b"P5":
        return magic, np.frombuffer(body, dtype=np.uint8).reshape(height, width)
    packed = np.frombuffer(body, dtype=np.uint8).reshape(height, -1)
    return magic, np.unpackbits(packed, axis=1)[:, :width].astype(bool)


def check_render(escaped, stage, window, depth: int, d, p, sample, pgm_path=None,
                 pbm_path=None) -> int:
    """Check a render; returns the number of borderline pixels met.

    * PBM bits equal the bounded mask; PGM is 255 exactly on bounded pixels.
    * The mask and stages are symmetric under conjugation (row i <-> h-1-i),
      except for mirror pairs holding a borderline pixel, whose other pixel
      the scalar loop confirms.
    * Sampled pixels (row, col) give the same flag and stage in the scalar loop.
    """
    height, width = escaped.shape
    centers = pixel_centers(window, width, height)
    if pbm_path is not None:
        magic, bits = read_pnm(pbm_path)
        require(magic == b"P4" and np.array_equal(bits, ~escaped), "PBM bits differ from mask")
    if pgm_path is not None:
        magic, img = read_pnm(pgm_path)
        require(magic == b"P5" and np.array_equal(img == 255, ~escaped),
                "PGM 255-pixels differ from mask")

    borderline = 0

    def confirm(row, col) -> float:
        esc, st, closest = scalar_escape(complex(centers[row, col]), d, p, depth)
        if closest < BORDERLINE_MARGIN:
            return closest
        require(esc == bool(escaped[row, col]) and st == int(stage[row, col]),
                f"pixel ({row},{col}): render says ({bool(escaped[row, col])},"
                f"{int(stage[row, col])}), scalar loop ({esc},{st})")
        return closest

    require(window[2] == -window[3], "window not symmetric about the real axis")
    asym = np.argwhere((escaped != escaped[::-1]) | (stage != stage[::-1]))
    require(len(asym) <= MAX_ASYMMETRIC, f"{len(asym)} pixels break conjugation symmetry")
    for row, col in asym:
        if row < height - 1 - row:
            near = min(confirm(row, col), confirm(height - 1 - row, col))
            require(near < BORDERLINE_MARGIN, f"pixel ({row},{col}) breaks conjugation symmetry")
            borderline += 1
    for row, col in sample:
        borderline += confirm(int(row), int(col)) < BORDERLINE_MARGIN
    return borderline


def check_unit_disk(escaped, window) -> int:
    """For f_r(z) = z**2 the bounded set is the closed unit disk; returns the
    number of borderline pixels (|lam| within UNIT_DISK_MARGIN of 1)."""
    height, width = escaped.shape
    modulus = np.abs(pixel_centers(window, width, height))
    decided = np.abs(modulus - 1.0) >= UNIT_DISK_MARGIN
    wrong = decided & (escaped != (modulus > 1.0))
    require(not wrong.any(), f"{int(wrong.sum())} pixels disagree with |lam| <= 1")
    return int((~decided).sum())


# ---------------------------------------------------------------------------
# Point spectrum
# ---------------------------------------------------------------------------


def _points(z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    return np.column_stack([z.real, z.imag])


def _max_gap(points, reference) -> float:
    """Largest distance from a point of ``points`` to its nearest ``reference``."""
    if len(points) == 0:
        return 0.0
    dist, _ = cKDTree(_points(reference)).query(_points(points))
    return float(dist.max())


def backward_error(z: complex, depth: int, d, p, prec: int = 160) -> float:
    """|f~_depth(z) - 1| / |f~_depth'(z)|, evaluated in mpmath at ``prec`` bits."""
    import mpmath

    with mpmath.workprec(prec):
        v = mpmath.mpc(z.real, z.imag)
        deriv = mpmath.mpc(1)
        for r in range(1, depth + 1):
            pr = mpmath.mpf(p(r))
            h = (v - (1 - pr)) / pr
            deriv *= d(r) * h ** (d(r) - 1) / pr
            v = h ** d(r)
        return float(abs(v - 1) / abs(deriv))


def check_spectrum(levels, all_roots, d, p, sample, tol: float = ROOT_TOL,
                   ulps: float = BACKWARD_ULPS) -> None:
    """Root counts, nesting, conjugation closure, ``all_roots`` and mpmath
    backward errors of a sample of deepest-level roots (indices ``sample``)."""
    for k, roots in enumerate(levels, start=1):
        want = level_size(d, k)
        require(len(roots) == want, f"level {k} holds {len(roots)} roots, expected {want}")
        gap = _max_gap(np.conj(roots), roots)
        require(gap <= tol, f"level {k} not closed under conjugation (gap {gap:.3g})")
    # f_r(1) = 1, so every depth-k root is also a depth-(k+1) root.
    for k in range(1, len(levels)):
        gap = _max_gap(levels[k - 1], levels[k])
        require(gap <= tol, f"level {k} not inside level {k + 1} (gap {gap:.3g})")
    top = levels[-1]
    require(len(all_roots) == len(top), f"all_roots holds {len(all_roots)}, expected {len(top)}")
    gap = max(_max_gap(all_roots, top), _max_gap(top, all_roots))
    require(gap <= tol, f"all_roots differs from the deepest level (gap {gap:.3g})")
    depth = len(levels)
    for i in sample:
        z = complex(top[i])
        err = backward_error(z, depth, d, p)
        require(err <= ulps * np.spacing(abs(z)),
                f"root {z!r}: backward error {err:.3g} over {ulps} ulps of |z|")


# ---------------------------------------------------------------------------
# verify command output
# ---------------------------------------------------------------------------


def check_verify_output(exit_codes, text: str, suites, presets) -> None:
    """Exit code 0 and exactly one PASS line per suite and preset."""
    require(all(rc == 0 for rc in exit_codes), f"exit codes {list(exit_codes)}")
    verdicts = [line.split() for line in text.splitlines()
                if line.startswith(("PASS ", "FAIL "))]
    failing = [" ".join(v[:3]) for v in verdicts if v[0] == "FAIL"]
    require(not failing, f"failing suites: {failing}")
    seen = Counter((v[1], v[2]) for v in verdicts)
    want = Counter((s, name) for s in suites for name in presets)
    require(seen == want, f"PASS lines {sum(seen.values())}, expected one per suite and "
                          f"preset ({len(want)})")
