"""Stochastic adding machine: transition rows, truncated matrices, simulation.

From state n the machine tries to add 1 digit-by-digit.  With probability
1 - p_1 nothing happens; with probability prod_{r<=s_n} p_r the addition
completes (state n+1); halting after stage s instead lands on the truncation
of n (first s maximal digits zeroed) with probability (1 - p_{s+1}) *
prod_{r<=s} p_r.  Rows of the induced infinite matrix are therefore sparse:
at most s_n + 1 entries.

Finite truncations keep only in-range targets; rows that lost an entry are
flagged clipped rather than renormalized, so an unclipped row of the
truncation is exactly the corresponding row of the infinite matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .numeration import (
    BaseSeq,
    ProbSeq,
    base_product,
    counter,
    from_digits,
    to_digits,
    truncate_digits,
)

RECURRENT = "null_recurrent_like"
TRANSIENT = "transient_like"

# Infinite products below this are treated as vanishing (guards explicit
# numerical prefixes; closed-form tails are decided analytically).
PRODUCT_THRESHOLD = 1e-9


@dataclass(frozen=True)
class TransitionRow:
    """One row of the transition matrix: (target, probability) pairs, sorted."""

    source: int
    entries: tuple[tuple[int, float], ...]

    def total(self) -> float:
        return math.fsum(p for _, p in self.entries)


@dataclass(frozen=True)
class SparseTransitionMatrix:
    """Rows 0..dim-1 with targets >= dim dropped; such rows are ``clipped``."""

    dim: int
    rows: tuple[TransitionRow, ...]
    base: BaseSeq
    probs: ProbSeq
    clipped_rows: frozenset[int]

    def to_csr(self) -> sp.csr_matrix:
        data, rr, cc = [], [], []
        for row in self.rows:
            for target, p in row.entries:
                rr.append(row.source)
                cc.append(target)
                data.append(p)
        return sp.csr_matrix((data, (rr, cc)), shape=(self.dim, self.dim))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        for row in self.rows:
            for target, p in row.entries:
                out[row.source, target] = p
        return out

    def unclipped_mask(self) -> np.ndarray:
        mask = np.ones(self.dim, dtype=bool)
        if self.clipped_rows:
            mask[list(self.clipped_rows)] = False
        return mask


@dataclass(frozen=True)
class Trajectory:
    """A sampled state path; ``algorithm`` records the PRNG for reproducibility."""

    states: tuple[int, ...]
    seed: int
    steps: int
    algorithm: str = "pcg64"


def transition_row(n: int, base: BaseSeq, probs: ProbSeq) -> TransitionRow:
    """Exact transition row of state n; zero-probability entries are omitted.

    Targets are distinct by construction (each halting stage zeroes a
    different maximal prefix), so entries never merge.
    """
    if n < 0:
        raise ValueError("state must be >= 0")
    dv = to_digits(n, base)
    s_n = counter(dv)
    prefix = [1.0]
    for r in range(1, s_n + 1):
        prefix.append(prefix[-1] * probs.at(r))

    entries: list[tuple[int, float]] = []
    for s in range(s_n - 1, 0, -1):  # deepest truncation first: targets ascend
        q = (1.0 - probs.at(s + 1)) * prefix[s]
        if q > 0.0:
            entries.append((from_digits(truncate_digits(dv, s)), q))
    if probs.at(1) < 1.0:
        entries.append((n, 1.0 - probs.at(1)))
    entries.append((n + 1, prefix[s_n]))
    return TransitionRow(n, tuple(entries))


def build_matrix(n_states: int, base: BaseSeq, probs: ProbSeq) -> SparseTransitionMatrix:
    """Truncation to states 0..n_states-1 (targets past the edge dropped)."""
    if n_states < 2:
        raise ValueError("need at least 2 states")
    rows = []
    clipped = set()
    for n in range(n_states):
        full = transition_row(n, base, probs)
        kept = tuple((t, p) for t, p in full.entries if t < n_states)
        if len(kept) < len(full.entries):
            clipped.add(n)
        rows.append(TransitionRow(n, kept))
    return SparseTransitionMatrix(n_states, tuple(rows), base, probs, frozenset(clipped))


def apply_operator(mat: SparseTransitionMatrix, v) -> tuple[np.ndarray, np.ndarray]:
    """Image of v under the truncated operator; returns (values, valid_mask).

    Clipped rows are computed from the kept entries but flagged invalid: they
    are missing out-of-truncation contributions.
    """
    vec = np.asarray(v, dtype=complex)
    if vec.shape != (mat.dim,):
        raise ValueError(f"vector of length {mat.dim} expected, got shape {vec.shape}")
    return mat.to_csr() @ vec, mat.unclipped_mask()


def column_sum_report(mat: SparseTransitionMatrix) -> list[tuple[int, float, bool]]:
    """Per-column (index, in-truncation sum, complete) triples.

    A column is complete when every row of the infinite matrix that feeds it
    lies inside the truncation.  Column m is fed by rows m and m-1 plus, for
    each s >= 1 with the first s digits of m all zero, row m + q_s - 1; column
    0 is fed by infinitely many rows and is never complete.
    """
    sums = np.zeros(mat.dim)
    for row in mat.rows:
        for target, p in row.entries:
            sums[target] += p
    report = []
    for m in range(mat.dim):
        if m == 0:
            complete = False
        else:
            digits = to_digits(m, mat.base).digits
            lead_zeros = 0
            for a in digits:
                if a != 0:
                    break
                lead_zeros += 1
            if lead_zeros == 0:
                complete = True
            else:
                complete = m + base_product(mat.base, lead_zeros) - 1 < mat.dim
        report.append((m, float(sums[m]), complete))
    return report


def stochasticity_deviation(mat: SparseTransitionMatrix) -> tuple[float, float]:
    """(max |row sum - 1| over unclipped rows, max |column sum - 1| over
    complete columns); both are 0 for an exactly stochastic truncation."""
    mask = mat.unclipped_mask()
    row_dev = max((abs(row.total() - 1.0) for row in mat.rows if mask[row.source]),
                  default=0.0)
    col_dev = max((abs(total - 1.0) for _, total, complete in column_sum_report(mat)
                   if complete), default=0.0)
    return row_dev, col_dev


def simulate(base: BaseSeq, probs: ProbSeq, start: int, steps: int, seed: int) -> Trajectory:
    """Sample a Markov path of the adding machine; reproducible per seed."""
    if start < 0 or steps < 0:
        raise ValueError("start and steps must be >= 0")
    rng = np.random.default_rng(seed)
    cache: dict[int, tuple[list[int], np.ndarray]] = {}
    state = start
    states = [start]
    for _ in range(steps):
        hit = cache.get(state)
        if hit is None:
            row = transition_row(state, base, probs)
            targets = [t for t, _ in row.entries]
            cum = np.cumsum([p for _, p in row.entries])
            cache[state] = hit = (targets, cum)
        targets, cum = hit
        u = rng.random()
        idx = int(np.searchsorted(cum, u, side="right"))
        if idx >= len(targets):
            idx = len(targets) - 1
        state = targets[idx]
        states.append(state)
    return Trajectory(tuple(states), seed, steps)


def classify_chain(probs: ProbSeq, depth: int) -> str:
    """``null_recurrent_like`` when the probability product vanishes, else
    ``transient_like``.  Closed-form tails are decided analytically; the
    threshold only guards explicit numerical prefixes."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if probs.prefix_product(depth) < PRODUCT_THRESHOLD:
        return RECURRENT
    return RECURRENT if probs.infinite_product() < PRODUCT_THRESHOLD else TRANSIENT


def projection_matrix(k: int, r: int, n_rows: int, n_cols: int, base: BaseSeq) -> sp.csr_matrix:
    """0/1 matrix placing coarse coordinate m at fine state k + m*d_r.

    Each column has exactly one entry; rows not congruent to k mod d_r are
    empty.
    """
    d = base.at(r)
    if not 0 <= k <= d - 1:
        raise ValueError(f"k must be in [0, {d - 1}]")
    rows, cols = [], []
    for m in range(n_cols):
        l = k + m * d
        if l >= n_rows:
            break
        rows.append(l)
        cols.append(m)
    data = np.ones(len(rows))
    return sp.csr_matrix((data, (rows, cols)), shape=(n_rows, n_cols))


@dataclass(frozen=True)
class RenormReport:
    """Interior-window discrepancies of the level-r renormalization identities."""

    r: int
    n1: int
    n2: int
    margin: int
    part1_max_diff: float
    part2_max_diff: float

    def max_diff(self) -> float:
        return max(self.part1_max_diff, self.part2_max_diff)


def renorm_check(r: int, n2: int, base: BaseSeq, probs: ProbSeq) -> RenormReport:
    """Check that one machine level composes into the next.

    With S_r the machine over the sequences shifted to start at position r and
    R_r = (S_r - (1-p_r) I) / p_r, the d_r-th power of R_r equals the next
    machine S_{r+1} conjugated through the d_r residue-class embeddings, and
    R_r maps the class-k embedding to the class-(k-1) one (the class-0 case
    wraps through S_{r+1}).

    Both sides are exact on rows/columns far enough from the truncation edge;
    the interior margin of two base levels is conservative for the spread of a
    d_r-fold composition.
    """
    if r < 1 or n2 < 2:
        raise ValueError("need r >= 1 and n2 >= 2")
    d1 = base.at(r)
    d2 = base.at(r + 1)
    n1 = d1 * n2
    margin = d1 * d2
    win = n1 - margin
    if win <= 0:
        raise ValueError(f"interior window empty: n1={n1}, margin={margin}")

    s_fine = build_matrix(n1, base.shift(r - 1), probs.shift(r - 1)).to_dense()
    s_coarse = build_matrix(n2, base.shift(r), probs.shift(r)).to_dense()
    p_r = probs.at(r)
    renorm = (s_fine - (1.0 - p_r) * np.eye(n1)) / p_r

    embeds = [projection_matrix(k, r, n1, n2, base).toarray() for k in range(d1)]
    restricts = [e.T for e in embeds]

    lhs = np.linalg.matrix_power(renorm, d1)
    rhs = np.zeros_like(lhs)
    for k in range(d1):
        rhs += embeds[k] @ s_coarse @ restricts[k]
    part2 = float(np.abs(lhs[:win, :win] - rhs[:win, :win]).max())

    colwin = max(1, win // d1)
    part1 = 0.0
    for k in range(1, d1):
        diff = renorm @ embeds[k] - embeds[k - 1]
        part1 = max(part1, float(np.abs(diff[:win, :colwin]).max()))
    wrap = renorm @ embeds[0] - embeds[d1 - 1] @ s_coarse
    part1 = max(part1, float(np.abs(wrap[:win, :colwin]).max()))

    return RenormReport(r, n1, n2, margin, part1, part2)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def write_matrix_coordinate(mat: SparseTransitionMatrix, path) -> None:
    """Coordinate text format: an ``m n nnz`` header, then ``row col value`` triples."""
    lines = []
    nnz = sum(len(row.entries) for row in mat.rows)
    lines.append(f"{mat.dim} {mat.dim} {nnz}")
    for row in mat.rows:
        for target, p in row.entries:
            lines.append(f"{row.source} {target} {p:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV with a ``step,state`` header, one row per visited state."""
    with open(path, "w", newline="") as fh:
        fh.write("step,state\n")
        for step, state in enumerate(traj.states):
            fh.write(f"{step},{state}\n")
