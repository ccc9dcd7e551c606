"""Point-spectrum enumeration and spectral verification at finite truncation.

Eigenvalues of the transition operator are exactly the parameters some
composed stage map sends to 1; they are enumerated by backward iteration
(stage-wise d-th roots pulled from 1) and polished by Newton steps on the
composed map.  Depth r yields the q_r roots of f~_r - 1 with multiplicity:
a multiple root is a multiple eigenvalue, not a duplicate, and is listed as
often as it counts.  Backward iteration is the numerically stable direction
near the repelling boundary of the bounded set, which is also why the transient
limit probe reads stage moduli off verified backward chains rather than
re-running the (exponentially ill-conditioned) forward orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .julia import (
    DEFAULT_DEPTH,
    DEFAULT_WINDOW,
    FiberedSystem,
    MembershipGrid,
    _has_neighbor,
    _jet,
    _render_band,
    _stage,
    band_depth,
    boundary_pixels,
    render,
    witnesses,
)
from .machine import RECURRENT, TRANSIENT, SparseTransitionMatrix, build_matrix, classify_chain
from .numeration import ProbSeq, largest_level, levels

ROOT_CAP = 200_000
NEWTON_STEPS = 3  # composed Newton steps per depth
INTERIOR_EROSION = 3  # 4-neighbor erosions that leave the deep interior
INTERIOR_THRESHOLD = 0.1  # deep-interior moduli must collapse below this
BAND_SLACK = 0.05  # allowance below 2 * prod p - 1 for boundary stage moduli


@dataclass(frozen=True)
class RootSet:
    """The q_r depth-r preimages of 1 under the composed stage map, with
    multiplicity, sorted by (real, imag)."""

    depth: int
    roots: np.ndarray


@dataclass(frozen=True)
class PointSpectrum:
    """Root sets per depth; ``capped`` marks an early stop at the root budget."""

    levels: tuple[RootSet, ...]
    capped: bool

    def all_roots(self) -> np.ndarray:
        """The union of the levels: the deepest, since every f_r fixes 1."""
        if not self.levels:
            return np.zeros(0, dtype=complex)
        return self.levels[-1].roots


def _preimage_array(sys: FiberedSystem, r: int, w: np.ndarray) -> np.ndarray:
    """The d_r solutions of f_r(z) = w for every w, as a (d_r, len(w)) array
    (with multiplicity at the critical value).

    Uses the principal d-th root (argument in (-pi/d, pi/d]) times all d-th
    roots of unity, then one Newton polish step on f_r.
    """
    d, p, c = (x[r] for x in sys.stages(r))
    zetas = np.exp(2j * np.pi * np.arange(d) / d)
    root = np.power(w, 1.0 / d)
    z = c + p * root[None, :] * zetas[:, None]  # (d, len(w))
    fz, fpz = _jet(z, d, p, c)
    safe = np.abs(fpz) > 1e-12
    z = np.where(safe, z - (fz - w[None, :]) / np.where(safe, fpz, 1.0), z)
    return z


def _composed_newton(sys: FiberedSystem, z: np.ndarray, depth: int) -> np.ndarray:
    """Newton refinement of f~_depth(z) = 1 with the chain-rule derivative."""
    d, p, c = sys.stages(depth)
    z = z.astype(complex)
    for _ in range(NEWTON_STEPS):
        v = z.copy()
        deriv = np.ones_like(z)
        for r in range(1, depth + 1):
            v, fp = _jet(v, d[r], p[r], c[r])
            deriv = deriv * fp
        resid = v - 1.0
        if np.abs(resid).max() < 1e-13:
            break
        safe = np.abs(deriv) > 1e-12
        z = np.where(safe, z - resid / np.where(safe, deriv, 1.0), z)
    return z


def point_spectrum(sys: FiberedSystem, r_max: int, cap: int = ROOT_CAP) -> PointSpectrum:
    """Depth-by-depth preimages of 1 under the composed maps, polished: the
    q_r roots of f~_r - 1, with multiplicity, so a root of multiplicity m is
    listed m times.  Stops with partial results once a depth would exceed
    ``cap``; non-finite roots raise ``ValueError``."""
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    # Depth r has q_r = prod_{i<=r} d_i candidate roots, so it fits the cap
    # exactly when q_r is a level <= cap.
    depth_max = min(r_max, len(levels(sys.base, cap)))
    sets = []
    for depth in range(1, depth_max + 1):
        w = np.asarray([1.0 + 0.0j])
        for j in range(depth, 0, -1):
            w = _preimage_array(sys, j, w).reshape(-1)
        w = _composed_newton(sys, w, depth)
        if not np.isfinite(w).all():
            raise ValueError("roots must be finite, check for nan or inf values")
        # Complex order is (real, imag), and a stable sort keeps ties in place,
        # as lexsort((imag, real)) would.
        sets.append(RootSet(depth, np.sort(w, kind="stable")))
    return PointSpectrum(tuple(sets), depth_max < r_max)


@dataclass(frozen=True)
class EigenReport:
    n_states: int
    residuals: tuple[tuple[complex, float], ...]
    max_residual: float
    ok: bool


# Witness entries per batch of the eigen check, about 2**18 / n roots of n
# states: an (n, batch) complex array takes 4 MiB, a witness block before its
# cut at n at most 8 MiB, and a batch holds a few such arrays at once.
EIGEN_BATCH = 2**18


def eigen_residuals(mat: SparseTransitionMatrix, csr, lams, vecs: np.ndarray) -> np.ndarray:
    """max |((S - lam I) v)_m| over the unclipped rows m of the truncation S,
    for each lam and its row v of ``vecs``.

    The columns of ``vecs.T`` are multiplied in one scipy CSR product by
    ``csr``, which is ``mat.to_csr()`` built once by the caller for all its
    batches: numpy forms of the product that keep these bits were 5-14
    times slower on a report-size batch.  Each
    residual has the bits of one matrix-vector product per root: the CSR
    product adds the same terms in the same order, and lam multiplies v with
    lam as the first operand (numpy's complex multiply is not bitwise
    commutative).  The maximum propagates a NaN residual.
    """
    v = vecs.T
    resid = csr @ v - np.asarray(lams, dtype=complex)[None, :] * v
    return np.abs(resid[mat.unclipped_mask()]).max(axis=0)


def verify_eigenpairs(sys: FiberedSystem, roots, n: int, tol: float = 1e-9) -> EigenReport:
    """Residual of the eigen-equation over unclipped rows of the n-truncation.

    For each candidate eigenvalue lam the candidate eigenvector is built and
    the sup-norm of (S - lam I) v over unclipped rows compared to ``tol``.
    The truncation is built once; the roots go through ``witnesses`` and
    ``eigen_residuals`` in batches of ``EIGEN_BATCH // n``.  A report over no
    roots is not ``ok``: it checked nothing.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    mat = build_matrix(n, sys.base, sys.probs)
    csr = mat.to_csr()
    lams = np.asarray(roots, dtype=complex)
    step = max(1, EIGEN_BATCH // n)
    resid = np.empty(lams.size)
    for start in range(0, lams.size, step):
        batch = lams[start:start + step]
        resid[start:start + step] = eigen_residuals(mat, csr, batch,
                                                      witnesses(sys, batch, n, n))
    items = tuple(zip(lams.tolist(), resid.tolist()))
    # np.max, unlike max, propagates a NaN residual, which then fails ``ok``.
    worst = float(np.max(resid, initial=0.0))
    return EigenReport(n, items, worst, bool(items) and worst <= tol)


ROOT_LEAFSIZE = 128  # points per leaf of the root KD-tree: a shallower tree builds faster
LATTICE_REACH = 1.4  # pixel diagonals between centres that decide coverage on the lattice
LATTICE_SPAN = 2.0**40  # window coordinates, in pixel diagonals, up to which the lattice decides


def _lattice_covered(grid: MembershipGrid, boundary: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Roots that lie within two pixel diagonals of a boundary pixel's centre,
    decided on the pixel lattice: True means covered, False means undecided.

    Proof.  Let D be the pixel diagonal and x a root in pixel P, so
    |x - c_P| <= D/2.  If a boundary pixel Q has |c_P - c_Q| <= 1.4 D, then
    |x - c_Q| <= 1.9 D, which is within 2 D with a margin of 0.1 D.  The
    offsets (i, j) with |(i dy, j dx)| <= 1.4 D are the ones within reach,
    so dilating the ``boundary`` mask by them marks every such P, and a root
    whose floor pixel is marked is covered.  Rounding stays far inside the
    margin.  The floor index reads x - re_min (or im_max - x.imag), rounded
    relative to the window's width, so it names a neighbour of P only for a
    root within a few ulps of that width from their shared edge, and that
    neighbour's centre, too, is within D/2 plus those ulps of x.
    ``center_at`` and the KD-tree's distance are off by a few ulps of the
    window's coordinates, below 2**-10 D while those coordinates stay within
    ``LATTICE_SPAN`` diagonals; past that span every root is left undecided
    (at 2**52 a centre can move by half a diagonal).  So every root marked
    here is one that the KD-tree query of the centres finds within 2 D.
    """
    re_min, re_max, im_min, im_max = grid.window
    dx, dy = grid.pixel_size()
    diag = grid.pixel_diag()
    covered = np.zeros(roots.shape, dtype=bool)
    if max(abs(x) for x in grid.window) > LATTICE_SPAN * diag:
        return covered
    reach = LATTICE_REACH * diag
    height, width = boundary.shape
    near = np.zeros_like(boundary)
    ki = int(min(reach / dy, height - 1))
    kj = int(min(reach / dx, width - 1))
    for i in range(-ki, ki + 1):
        for j in range(-kj, kj + 1):
            if math.hypot(i * dy, j * dx) <= reach:
                near[max(i, 0):height + min(i, 0), max(j, 0):width + min(j, 0)] |= \
                    boundary[max(-i, 0):height + min(-i, 0), max(-j, 0):width + min(-j, 0)]
    inside = ((roots.real >= re_min) & (roots.real <= re_max)
              & (roots.imag >= im_min) & (roots.imag <= im_max))
    z = roots[inside]
    col = np.minimum(((z.real - re_min) / dx).astype(np.intp), width - 1)
    row = np.minimum(((im_max - z.imag) / dy).astype(np.intp), height - 1)
    covered[inside] = near[row, col]
    return covered


def boundary_density(grid: MembershipGrid, rootsets) -> tuple[float, float]:
    """(sup over boundary pixels of distance to the nearest root,
    fraction of roots within two pixel diagonals of a boundary pixel) over
    the roots of every root set; coverage counts each root with its
    multiplicity.

    The sup is a KD-tree query of the roots by the boundary-pixel centres.
    Coverage is decided on the pixel lattice where it can be
    (``_lattice_covered``); only the other roots, off the window or beyond
    its reach, go to a KD-tree query of the centres, which answers each root
    on its own.  Either way a root's verdict is the one that query would give.
    """
    pix = boundary_pixels(grid)
    if pix.size == 0:
        raise ValueError("grid has no boundary pixels")
    roots = np.concatenate([np.zeros(0, dtype=complex)]
                           + [np.asarray(rs.roots, dtype=complex) for rs in rootsets])
    if roots.size == 0:
        raise ValueError("no roots supplied")
    # Imported where it is used, so that importing stochadd does not load it.
    from scipy.spatial import cKDTree

    centers = grid.center_at(pix[:, 0], pix[:, 1])
    cpts = np.column_stack([centers.real, centers.imag])
    rpts = np.column_stack([roots.real, roots.imag])
    # Each tree answers one query, so balancing it costs more than it saves;
    # a nearest distance does not depend on the tree's shape, nor on its
    # leaf size.  The root tree comes first: it rejects non-finite roots.
    unbalanced = {"balanced_tree": False, "compact_nodes": False}
    dist_to_root, _ = cKDTree(rpts, leafsize=ROOT_LEAFSIZE, **unbalanced).query(cpts)
    boundary = np.zeros(grid.escaped.shape, dtype=bool)
    boundary[pix[:, 0], pix[:, 1]] = True
    near = _lattice_covered(grid, boundary, roots)
    rest = ~near
    if rest.any():
        dist_to_boundary, _ = cKDTree(cpts, **unbalanced).query(rpts[rest])
        near[rest] = dist_to_boundary <= 2.0 * grid.pixel_diag()
    return float(dist_to_root.max()), float(np.mean(near))


@dataclass(frozen=True)
class TransientReport:
    tail_product: float
    lower_bound: float
    interior_max_mod: float
    interior_ok: bool
    boundary_min_mod: float
    boundary_max_mod: float
    boundary_ok: bool
    chain_step_residual: float

    @property
    def ok(self) -> bool:
        return self.interior_ok and self.boundary_ok


def _deep_interior_mask(grid: MembershipGrid) -> np.ndarray:
    """Bounded pixels left by ``INTERIOR_EROSION`` erosions, each clearing the edge."""
    mask = ~grid.escaped
    for _ in range(INTERIOR_EROSION):
        mask = mask & ~_has_neighbor(~mask)
        mask[0, :] = mask[-1, :] = False
        mask[:, 0] = mask[:, -1] = False
    return mask


CHAIN_DEGREE_LIMIT = 1_000_000


def _boundary_chain(sys: FiberedSystem, depth: int, rng) -> tuple[complex, list[complex], float]:
    """One backward chain from 1 at stage ``depth`` down to the parameter plane.

    Returns (parameter, composed values v_1..v_depth, max one-step forward
    residual |f_j(v_{j-1}) - v_j|).  Backward steps contract, so the chain is
    a certified pseudo-orbit ending exactly at 1.

    The branch word b_depth..b_1 (0 <= b_j < d_j) is drawn as one block of
    bounded integers.  numpy takes a bounded integer below 2**32 from the
    generator's 32-bit words by the same rule (Lemire's), alone or in an
    array, so the block gives the letters, and leaves the generator state
    (PCG64's buffered half-word included), that one draw per stage would.  Step j takes the principal
    d_j-th root of v_j times the root of unity of b_j, then one Newton step on
    f_j, in numpy-scalar arithmetic: a uniformly chosen preimage of v_j.
    """
    d, p, c = sys.stages(depth)
    degrees = d[depth:0:-1]
    too_large = next((x for x in degrees if x > CHAIN_DEGREE_LIMIT), None)
    if too_large is not None:
        raise ValueError(f"stage degree {too_large} too large for chain sampling")
    letters = rng.integers(0, degrees).tolist()
    zetas = {}  # root of unity per (degree, letter)
    vals = [0j] * (depth + 1)
    w = vals[depth] = 1.0 + 0.0j
    for j, branch in zip(range(depth, 0, -1), letters):
        dj, pj, cj = d[j], p[j], c[j]
        zeta = zetas.get((dj, branch))
        if zeta is None:
            zeta = zetas[dj, branch] = np.exp(2j * np.pi * branch / dj)
        z = cj + pj * w ** (1.0 / dj) * zeta
        fz, fpz = _jet(z, dj, pj, cj)
        if abs(fpz) > 1e-12:
            z = z - (fz - w) / fpz
        w = vals[j - 1] = complex(z)
    # np.max, unlike max, propagates a NaN step, which then fails certification.
    worst = float(np.max([0.0, *(abs(_stage(vals[j - 1], d[j], p[j], c[j]) - vals[j])
                                 for j in range(1, depth + 1))]))
    return vals[0], vals[1:], worst


def sample_bounded(sys: FiberedSystem, count: int, depth: int = DEFAULT_DEPTH, seed: int = 0,
                   rejection_budget: int | None = None) -> list[complex]:
    """Random parameters certified bounded through ``depth``.

    ``rejection_budget`` uniform draws from ``DEFAULT_WINDOW`` (40 * count by default)
    go through the escape kernel as one block, and the first ``count`` whose
    orbits stay bounded are kept in draw order.  When the bounded set has
    (numerically) empty interior, rejection never hits, so the remainder is
    filled with random inverse-orbit points whose backward chains certify
    modulus <= 1 at every probed stage.  The fill, too, may reject only
    ``rejection_budget`` chains: at that many uncertified chains it raises
    ``ValueError``.  A fill that stops at ``count`` draws no chain, and one
    that falls short used the whole budget, so this is the PCG64 stream of
    one draw pair at a time, then of one chain at a time, whose block of
    branch letters takes the words that one draw per stage would
    (``_boundary_chain``).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rng = np.random.default_rng(seed)
    budget = rejection_budget if rejection_budget is not None else 40 * count
    re_min, re_max, im_min, im_max = DEFAULT_WINDOW
    # Rows of (re, im) pairs read as complex values: the parts stay as drawn.
    lam = rng.uniform((re_min, im_min), (re_max, im_max), size=(budget, 2)).view(complex)[:, 0]
    escaped, _ = _render_band(sys, lam, depth)
    out = lam[~escaped][:count].tolist()
    d = sys.stages(depth)[0]
    chain_depth = depth
    for j in range(1, depth + 1):
        if d[j] > CHAIN_DEGREE_LIMIT:
            chain_depth = j - 1
            break
    rejected = 0
    while len(out) < count:
        lam, _, resid = _boundary_chain(sys, chain_depth, rng)
        if resid < 1e-9:
            out.append(lam)
        else:
            rejected += 1
            if rejected >= budget:
                raise ValueError(f"{rejected} backward chains failed certification with "
                                 f"{len(out)} of {count} parameters found")
    return out


def transient_skip_reason(probs: ProbSeq) -> str | None:
    """Why the transient limits cannot be probed, or None when they can: the
    probe needs a probability product that is positive in double precision."""
    if probs.infinite_product() > 0.0:
        return None
    if classify_chain(probs) == TRANSIENT:
        return "probability product positive but below double precision"
    return "vanishing probability product"


def transient_limit_check(sys: FiberedSystem, grid: MembershipGrid, sample_count: int,
                          r_probe: int, seed: int = 0) -> TransientReport:
    """Probe the transient-regime limits at stage ``r_probe``.

    Deep-interior pixel centers are iterated forward and must have collapsed
    below ``INTERIOR_THRESHOLD``.  Near-boundary samples are depth-``r_probe``
    preimages of 1 built by backward iteration; their stage moduli are read
    off the verified chain and must stay within
    [2 * prod p - 1 - BAND_SLACK, 1].  Forward re-iteration is not used for
    the boundary samples: parameter error is amplified by roughly the product
    of d_r / p_r per stage, which swamps double precision near the boundary.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    if r_probe < 1:
        raise ValueError("r_probe must be >= 1")
    reason = transient_skip_reason(sys.probs)
    if reason is not None:
        raise ValueError(f"transient limit check requires a positive probability product ({reason})")
    tail = sys.probs.infinite_product()
    rng = np.random.default_rng(seed)
    lower = 2.0 * tail - 1.0 - BAND_SLACK

    interior = np.argwhere(_deep_interior_mask(grid))
    if interior.shape[0] == 0:
        raise ValueError("grid has no deep-interior pixels")
    take = min(sample_count, interior.shape[0])
    pick = rng.choice(interior.shape[0], size=take, replace=False)
    v = grid.center_at(interior[pick, 0], interior[pick, 1])
    d, p, c = sys.stages(r_probe)
    for r in range(1, r_probe + 1):
        v = _stage(v, d[r], p[r], c[r])
    interior_max = float(np.abs(v).max())

    boundary_mods = []
    resids = []
    for _ in range(sample_count):
        _, vals, resid = _boundary_chain(sys, r_probe, rng)
        resids.append(resid)
        boundary_mods.append(abs(vals[r_probe - 1]))
    chain_resid = float(np.max(resids))  # a NaN residual stays NaN and fails the check
    b_min = min(boundary_mods)
    b_max = max(boundary_mods)

    return TransientReport(
        tail_product=tail,
        lower_bound=lower,
        interior_max_mod=interior_max,
        interior_ok=interior_max < INTERIOR_THRESHOLD,
        boundary_min_mod=b_min,
        boundary_max_mod=b_max,
        boundary_ok=(b_min >= lower and b_max <= 1.0 + 1e-12 and chain_resid < 1e-9),
        chain_step_residual=chain_resid,
    )


@dataclass(frozen=True)
class SpectrumReport:
    """The claim and its evidence: printed key to plain value (str, int,
    float or bool), in the order the checks ran."""

    regime: str
    claimed_spectrum: str  # "E" or "boundary_of_E"
    evidence: dict
    ok: bool


def classify_spectrum(sys: FiberedSystem, depth: int, resolution: int = 256,
                      seed: int = 0) -> SpectrumReport:
    """Regime classification with attached numerical evidence.

    The vanishing-product regime claims the whole bounded set as spectrum;
    the positive-product regime claims only its boundary (and additionally
    must pass the transient limit probe).  Boundary density is reported as
    evidence from a pixel-matched band render, or skipped with its reason
    (a dust-like set can leave that grid without boundary pixels); only the
    eigen-equation residuals and (in the transient regime) the limit probe
    gate ``ok``.  The probe is skipped with ``transient_skip_reason``'s
    reason, leaving ``ok`` as it is, and a probe that raises ``ValueError``
    is failed evidence, recorded with its message.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    regime = classify_chain(sys.probs)
    claimed = "E" if regime == RECURRENT else "boundary_of_E"

    res = (resolution, resolution)
    band_grid = render(sys, DEFAULT_WINDOW, res, band_depth(res))
    ps = point_spectrum(sys, depth, cap=ROOT_CAP)
    n = largest_level(sys.base, 2048)
    eig = verify_eigenpairs(sys, ps.all_roots(), n, tol=1e-8)
    evidence: dict = {"eigen_max_residual": eig.max_residual, "eigen_states": eig.n_states,
                      "point_spectrum_capped": ps.capped}
    try:
        sup_dist, coverage = boundary_density(band_grid, list(ps.levels))
    except ValueError as exc:
        evidence["boundary_density"] = f"skipped ({exc})"
    else:
        evidence["boundary_sup_min_dist"] = sup_dist
        evidence["boundary_coverage"] = coverage
    ok = eig.ok
    if claimed == "boundary_of_E":
        reason = transient_skip_reason(sys.probs)
        if reason is not None:
            evidence["transient_limits"] = f"skipped ({reason})"
        else:
            deep_grid = render(sys, DEFAULT_WINDOW, res)
            try:
                trep = transient_limit_check(sys, deep_grid, sample_count=20,
                                             r_probe=60, seed=seed)
            except ValueError as exc:
                evidence["transient_limits"] = f"error ({exc})"
                ok = False
            else:
                evidence["transient_interior_max"] = trep.interior_max_mod
                evidence["transient_boundary_min"] = trep.boundary_min_mod
                evidence["transient_boundary_max"] = trep.boundary_max_mod
                ok = ok and trep.ok
    return SpectrumReport(regime, claimed, evidence, ok)


def write_roots_csv(ps: PointSpectrum, path) -> None:
    """CSV with a ``depth,re,im`` header; a leading comment flags capped output."""
    lines = []
    if ps.capped:
        lines.append("# partial: root cap exceeded")
    lines.append("depth,re,im")
    for level in ps.levels:
        for z in level.roots:
            lines.append(f"{level.depth},{z.real:.17g},{z.imag:.17g}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
