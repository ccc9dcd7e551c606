"""Point-spectrum enumeration and spectral verification at finite truncation.

Eigenvalues of the transition operator are exactly the parameters some
composed stage map sends to 1; they are enumerated by backward iteration
(stage-wise d-th roots pulled from 1) and polished by Newton steps on the
composed map.  Backward iteration is the numerically stable direction near
the repelling boundary of the bounded set, which is also why the transient
limit probe reads stage moduli off verified backward chains rather than
re-running the (exponentially ill-conditioned) forward orbit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .julia import (
    DEFAULT_WINDOW,
    FiberedSystem,
    MembershipGrid,
    _pow_int,
    _render_band,
    band_depth,
    boundary_pixels,
    eigvec,
    render,
    stage_map,
)
from .machine import (
    RECURRENT,
    SparseTransitionMatrix,
    build_matrix,
    classify_chain,
)
from .numeration import largest_level

DEDUP_TOL = 1e-10
ROOT_CAP = 200_000


@dataclass(frozen=True)
class RootSet:
    """Distinct depth-r preimages of 1 under the composed stage map."""

    depth: int
    roots: np.ndarray
    dedup_tol: float = DEDUP_TOL


@dataclass(frozen=True)
class PointSpectrum:
    """Root sets per depth; ``capped`` marks an early stop at the root budget."""

    levels: tuple[RootSet, ...]
    capped: bool

    def all_roots(self) -> np.ndarray:
        if not self.levels:
            return np.zeros(0, dtype=complex)
        return _dedup(np.concatenate([ls.roots for ls in self.levels]), DEDUP_TOL)


def _preimage_array(sys: FiberedSystem, r: int, w: np.ndarray) -> np.ndarray:
    """The d_r solutions of f_r(z) = w for every w, as a (d_r, len(w)) array
    (with multiplicity at the critical value).

    Uses the principal d-th root (argument in (-pi/d, pi/d]) times all d-th
    roots of unity, then one Newton polish step on f_r.
    """
    d = sys.d(r)
    p = sys.p(r)
    c = sys.center(r)
    zetas = np.exp(2j * np.pi * np.arange(d) / d)
    root = np.power(w, 1.0 / d)
    z = c + p * root[None, :] * zetas[:, None]  # (d, len(w))
    h = (z - c) / p
    fz = _pow_int(h, d)
    fpz = d * _pow_int(h, d - 1) / p
    safe = np.abs(fpz) > 1e-12
    z = np.where(safe, z - (fz - w[None, :]) / np.where(safe, fpz, 1.0), z)
    return z


def _composed_newton(sys: FiberedSystem, z: np.ndarray, depth: int, steps: int = 3) -> np.ndarray:
    """Newton refinement of f~_depth(z) = 1 with the chain-rule derivative."""
    z = z.astype(complex)
    for _ in range(steps):
        v = z.copy()
        deriv = np.ones_like(z)
        for r in range(1, depth + 1):
            h = (v - sys.center(r)) / sys.p(r)
            deriv = deriv * (sys.d(r) * _pow_int(h, sys.d(r) - 1) / sys.p(r))
            v = _pow_int(h, sys.d(r))
        resid = v - 1.0
        if np.abs(resid).max() < 1e-13:
            break
        safe = np.abs(deriv) > 1e-12
        z = np.where(safe, z - resid / np.where(safe, deriv, 1.0), z)
    return z


def _dedup(roots: np.ndarray, tol: float) -> np.ndarray:
    """Roots with near-duplicates removed, sorted by (real, imag).

    Greedy in input order: a root z is dropped exactly when some earlier kept
    root a has ``abs(a - z) <= tol``, with Python's ``abs`` of a complex.
    Candidate pairs come from a KD-tree at radius ``2 * tol``, so a pair the
    tree's own distance rounds past ``tol`` is still found; the predicate then
    decides.  It is evaluated as ``np.hypot``, which is the libm ``hypot``
    behind ``abs``; ``np.abs`` of a complex array can differ in the last bit.
    """
    z = np.asarray(roots, dtype=complex).reshape(-1)
    pairs = cKDTree(np.column_stack([z.real, z.imag])).query_pairs(2 * tol, output_type="ndarray")
    diff = z[pairs[:, 0]] - z[pairs[:, 1]]
    pairs = pairs[np.hypot(diff.real, diff.imag) <= tol]
    keep = np.ones(z.size, dtype=bool)
    # by (later, earlier) index, so keep[i] is final before a pair reads it
    for i, j in pairs[np.lexsort((pairs[:, 0], pairs[:, 1]))].tolist():
        if keep[i]:
            keep[j] = False
    kept = z[keep]
    return kept[np.lexsort((kept.imag, kept.real))]


def point_spectrum(sys: FiberedSystem, r_max: int, cap: int = ROOT_CAP) -> PointSpectrum:
    """Depth-by-depth preimages of 1 under the composed maps, polished and
    deduplicated; stops with partial results once a depth would exceed ``cap``."""
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    levels = []
    capped = False
    for depth in range(1, r_max + 1):
        count = 1
        for j in range(1, depth + 1):
            count *= sys.d(j)
        if count > cap:
            capped = True
            break
        w = np.asarray([1.0 + 0.0j])
        for j in range(depth, 0, -1):
            w = _preimage_array(sys, j, w).reshape(-1)
        w = _composed_newton(sys, w, depth)
        levels.append(RootSet(depth, _dedup(w, DEDUP_TOL)))
    return PointSpectrum(tuple(levels), capped)


@dataclass(frozen=True)
class EigenReport:
    n_states: int
    tol: float
    residuals: tuple[tuple[complex, float], ...]
    max_residual: float
    ok: bool


def verify_eigenpairs(sys: FiberedSystem, roots, n: int, tol: float = 1e-9,
                      mat: SparseTransitionMatrix | None = None) -> EigenReport:
    """Residual of the eigen-equation over unclipped rows of the n-truncation.

    For each candidate eigenvalue lam the candidate eigenvector is built and
    the sup-norm of (S - lam I) v over unclipped rows compared to ``tol``.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if isinstance(roots, RootSet):
        roots = roots.roots
    if mat is None:
        mat = build_matrix(n, sys.base, sys.probs)
    csr = mat.to_csr()
    mask = mat.unclipped_mask()
    items = []
    worst = 0.0
    for lam in np.asarray(roots, dtype=complex):
        v = eigvec(sys, complex(lam), n)
        resid = float(np.abs((csr @ v - lam * v)[mask]).max())
        items.append((complex(lam), resid))
        worst = max(worst, resid)
    return EigenReport(n, tol, tuple(items), worst, worst <= tol)


def boundary_density(grid: MembershipGrid, rootsets) -> tuple[float, float]:
    """(sup over boundary pixels of distance to the nearest root,
    fraction of roots within two pixel diagonals of a boundary pixel)."""
    pix = boundary_pixels(grid)
    if pix.size == 0:
        raise ValueError("grid has no boundary pixels")
    if isinstance(rootsets, RootSet):
        rootsets = [rootsets]
    roots = np.concatenate([np.asarray(rs.roots, dtype=complex) for rs in rootsets])
    if roots.size == 0:
        raise ValueError("no roots supplied")
    centers = grid.center_at(pix[:, 0], pix[:, 1])
    cpts = np.column_stack([centers.real, centers.imag])
    rpts = np.column_stack([roots.real, roots.imag])
    dist_to_root, _ = cKDTree(rpts).query(cpts)
    dist_to_boundary, _ = cKDTree(cpts).query(rpts)
    coverage = float(np.mean(dist_to_boundary <= 2.0 * grid.pixel_diag()))
    return float(dist_to_root.max()), coverage


@dataclass(frozen=True)
class TransientReport:
    r_probe: int
    tail_product: float
    lower_bound: float
    interior_count: int
    interior_max_mod: float
    interior_ok: bool
    boundary_count: int
    boundary_min_mod: float
    boundary_max_mod: float
    boundary_ok: bool
    chain_step_residual: float
    boundary_samples: tuple[complex, ...] = field(default=(), repr=False)

    @property
    def ok(self) -> bool:
        return self.interior_ok and self.boundary_ok


def _deep_interior_mask(grid: MembershipGrid, erosion: int = 3) -> np.ndarray:
    mask = ~grid.escaped
    for _ in range(erosion):
        inner = mask.copy()
        inner[1:, :] &= mask[:-1, :]
        inner[:-1, :] &= mask[1:, :]
        inner[:, 1:] &= mask[:, :-1]
        inner[:, :-1] &= mask[:, 1:]
        inner[0, :] = inner[-1, :] = False
        inner[:, 0] = inner[:, -1] = False
        mask = inner
    return mask


CHAIN_DEGREE_LIMIT = 1_000_000


def _random_preimage(sys: FiberedSystem, r: int, w: complex, rng) -> complex:
    """One uniformly chosen solution of f_r(z) = w, Newton-polished."""
    d = sys.d(r)
    if d > CHAIN_DEGREE_LIMIT:
        raise ValueError(f"stage degree {d} too large for chain sampling")
    p = sys.p(r)
    c = sys.center(r)
    branch = int(rng.integers(0, d))
    z = c + p * w ** (1.0 / d) * np.exp(2j * np.pi * branch / d)
    h = (z - c) / p
    fpz = d * _pow_int(h, d - 1) / p
    if abs(fpz) > 1e-12:
        z = z - (_pow_int(h, d) - w) / fpz
    return complex(z)


def _boundary_chain(sys: FiberedSystem, depth: int, rng) -> tuple[complex, list[complex], float]:
    """One backward chain from 1 at stage ``depth`` down to the parameter plane.

    Returns (parameter, composed values v_1..v_depth, max one-step forward
    residual |f_j(v_{j-1}) - v_j|).  Backward steps contract, so the chain is
    a certified pseudo-orbit ending exactly at 1.
    """
    vals = [0j] * (depth + 1)
    vals[depth] = 1.0 + 0.0j
    for j in range(depth, 0, -1):
        vals[j - 1] = _random_preimage(sys, j, vals[j], rng)
    worst = 0.0
    for j in range(1, depth + 1):
        worst = max(worst, abs(stage_map(sys, j, vals[j - 1]) - vals[j]))
    return vals[0], vals[1:], worst


def sample_bounded(sys: FiberedSystem, count: int, depth: int = 200, seed: int = 0,
                   window=DEFAULT_WINDOW, rejection_budget: int | None = None) -> list[complex]:
    """Random parameters certified bounded through ``depth``.

    ``rejection_budget`` uniform draws from the window (40 * count by default)
    go through the escape kernel as one block, and the first ``count`` whose
    orbits stay bounded are kept in draw order.  When the bounded set has
    (numerically) empty interior, rejection never hits, so the remainder is
    filled with random inverse-orbit points whose backward chains certify
    modulus <= 1 at every probed stage.  A fill that stops at ``count`` draws
    no chain, and one that falls short used the whole budget, so this is the
    PCG64 stream of one draw pair at a time.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rng = np.random.default_rng(seed)
    budget = rejection_budget if rejection_budget is not None else 40 * count
    re_min, re_max, im_min, im_max = window
    # Rows of (re, im) pairs read as complex values: the parts stay as drawn.
    lam = rng.uniform((re_min, im_min), (re_max, im_max), size=(budget, 2)).view(complex)[:, 0]
    escaped, _ = _render_band(sys, lam, depth)
    out = lam[~escaped][:count].tolist()
    chain_depth = depth
    for j in range(1, depth + 1):
        if sys.d(j) > CHAIN_DEGREE_LIMIT:
            chain_depth = j - 1
            break
    while len(out) < count:
        lam, _, resid = _boundary_chain(sys, chain_depth, rng)
        if resid < 1e-9:
            out.append(lam)
    return out


def transient_limit_check(sys: FiberedSystem, grid: MembershipGrid, sample_count: int,
                          r_probe: int, seed: int = 0, interior_threshold: float = 0.1,
                          band_slack: float = 0.05) -> TransientReport:
    """Probe the transient-regime limits at stage ``r_probe``.

    Deep-interior pixel centers are iterated forward and must have collapsed
    below ``interior_threshold``.  Near-boundary samples are depth-``r_probe``
    preimages of 1 built by backward iteration; their stage moduli are read
    off the verified chain and must stay within
    [2 * prod p - 1 - band_slack, 1].  Forward re-iteration is not used for
    the boundary samples: parameter error is amplified by roughly the product
    of d_r / p_r per stage, which swamps double precision near the boundary.
    """
    tail = sys.probs.infinite_product()
    if tail <= 0.0:
        raise ValueError("transient limit check requires a positive probability product")
    rng = np.random.default_rng(seed)
    lower = 2.0 * tail - 1.0 - band_slack

    interior = np.argwhere(_deep_interior_mask(grid))
    if interior.shape[0] == 0:
        raise ValueError("grid has no deep-interior pixels")
    take = min(sample_count, interior.shape[0])
    pick = rng.choice(interior.shape[0], size=take, replace=False)
    v = grid.center_at(interior[pick, 0], interior[pick, 1])
    for r in range(1, r_probe + 1):
        v = stage_map(sys, r, v)
    interior_max = float(np.abs(v).max())

    boundary_mods = []
    samples = []
    chain_resid = 0.0
    for _ in range(sample_count):
        lam, vals, resid = _boundary_chain(sys, r_probe, rng)
        samples.append(lam)
        chain_resid = max(chain_resid, resid)
        boundary_mods.append(abs(vals[r_probe - 1]))
    b_min = min(boundary_mods)
    b_max = max(boundary_mods)

    return TransientReport(
        r_probe=r_probe,
        tail_product=tail,
        lower_bound=lower,
        interior_count=take,
        interior_max_mod=interior_max,
        interior_ok=interior_max < interior_threshold,
        boundary_count=sample_count,
        boundary_min_mod=b_min,
        boundary_max_mod=b_max,
        boundary_ok=(b_min >= lower and b_max <= 1.0 + 1e-12 and chain_resid < 1e-9),
        chain_step_residual=chain_resid,
        boundary_samples=tuple(samples),
    )


@dataclass(frozen=True)
class SpectrumReport:
    regime: str
    claimed_spectrum: str  # "E" or "boundary_of_E"
    evidence: dict
    ok: bool


def classify_spectrum(sys: FiberedSystem, depth: int, resolution: int = 256,
                      render_depth: int = 200, seed: int = 0) -> SpectrumReport:
    """Regime classification with attached numerical evidence.

    The vanishing-product regime claims the whole bounded set as spectrum;
    the positive-product regime claims only its boundary (and additionally
    must pass the transient limit probe).  Boundary density is reported as
    evidence from a pixel-matched band render; only the eigen-equation
    residuals and (in the transient regime) the limit probe gate ``ok``.
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
    sup_dist, coverage = boundary_density(band_grid, list(ps.levels))

    evidence: dict = {
        "eigenpairs": eig,
        "boundary_sup_min_dist": sup_dist,
        "boundary_coverage": coverage,
        "point_spectrum_capped": ps.capped,
    }
    ok = eig.ok
    if claimed == "boundary_of_E":
        deep_grid = render(sys, DEFAULT_WINDOW, res, render_depth)
        trep = transient_limit_check(sys, deep_grid, sample_count=20, r_probe=60,
                                     seed=seed)
        evidence["transient_limits"] = trep
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
