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

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .numeration import (
    INT64_MAX,
    BaseSeq,
    ProbSeq,
    counter,
    digits_matrix,
    from_digits,
    to_digits,
    truncate_digits,
)

RECURRENT = "null_recurrent_like"
TRANSIENT = "transient_like"


@dataclass(frozen=True)
class TransitionRow:
    """One row of the transition matrix: (target, probability) pairs, sorted."""

    source: int
    entries: tuple[tuple[int, float], ...]

    def total(self) -> float:
        return math.fsum(p for _, p in self.entries)


@dataclass(frozen=True, eq=False)
class SparseTransitionMatrix:
    """Rows 0..dim-1 as a read-only CSR matrix, targets >= dim dropped; rows
    that lost an entry are ``clipped``."""

    dim: int
    csr: sp.csr_matrix
    base: BaseSeq
    probs: ProbSeq
    clipped_rows: frozenset[int]

    @functools.cached_property
    def rows(self) -> tuple[TransitionRow, ...]:
        """Per-row view of the CSR arrays (built on first access)."""
        bounds = self.csr.indptr.tolist()
        pairs = list(zip(self.csr.indices.tolist(), self.csr.data.tolist()))
        return tuple(TransitionRow(n, tuple(pairs[lo:hi]))
                     for n, (lo, hi) in enumerate(zip(bounds, bounds[1:])))

    def to_csr(self) -> sp.csr_matrix:
        return self.csr

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()

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


def _row_table(base: BaseSeq, probs: ProbSeq,
               depth: int) -> tuple[list[float], list[tuple[int, int, float]], float]:
    """The closed form of every row with counter s_n <= ``depth``.

    Returns ``prefix`` (prefix[s] = prod_{r<=s} p_r, the probability of n+1
    from a row with counter s), the halts ``(s, drop, q)`` with q > 0 in
    ascending s (a row with counter s_n halts at each s < s_n, landing on
    n - drop with drop = prod_{i<=s} d_i - 1), and the stay probability
    1 - p_1 (0.0 when p_1 = 1).  The products run in the same order as in
    ``transition_row``, so every probability has the same bits.
    """
    prefix = [1.0]
    for r in range(1, depth + 1):
        prefix.append(prefix[-1] * probs.at(r))
    halts = []
    place = 1
    for s in range(1, depth):
        place *= base.at(s)
        q = (1.0 - probs.at(s + 1)) * prefix[s]
        if q > 0.0:
            halts.append((s, place - 1, q))
    return prefix, halts, 1.0 - probs.at(1)


def build_matrix(n_states: int, base: BaseSeq, probs: ProbSeq) -> SparseTransitionMatrix:
    """Truncation to states 0..n_states-1 (targets past the edge dropped).

    The CSR arrays come straight from the row table of every counter at once;
    row for row they equal ``transition_row`` cut below ``n_states``.
    """
    if n_states < 2:
        raise ValueError("need at least 2 states")
    states = np.arange(n_states, dtype=np.int64)
    s_n = 1 + _leading_run(n_states, base, maximal=True)[0]
    prefix, halts, stay = _row_table(base, probs, int(s_n.max()))
    stays = stay > 0.0

    # Row n holds its halts s < s_n deepest first, then the stay n, then n+1.
    n_halts = np.searchsorted(np.array([s for s, _, _ in halts], dtype=np.int64), s_n)
    counts = n_halts + stays + 1
    indptr = np.zeros(n_states + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1])
    first = indptr[:-1]
    for j, (s, drop, q) in enumerate(halts):
        rows = np.flatnonzero(s_n > s)
        at = first[rows] + n_halts[rows] - 1 - j
        indices[at] = rows - drop
        data[at] = q
    at = first + n_halts
    if stays:
        indices[at] = states
        data[at] = stay
        at = at + 1
    indices[at] = states + 1
    data[at] = np.array(prefix)[s_n]

    kept = indices < n_states
    lost = np.bincount(np.repeat(states, counts)[~kept], minlength=n_states)
    np.cumsum(counts - lost, out=indptr[1:])
    csr = sp.csr_matrix((data[kept], indices[kept], indptr), shape=(n_states, n_states))
    for arr in (csr.data, csr.indices, csr.indptr):
        arr.setflags(write=False)
    clipped = frozenset(np.flatnonzero(lost).tolist())
    return SparseTransitionMatrix(n_states, csr, base, probs, clipped)


def _leading_run(n: int, base: BaseSeq, maximal: bool) -> tuple[np.ndarray, np.ndarray]:
    """Length z of the leading run of maximal (or of zero) digits of every
    state 0..n-1, and its place value prod_{i<=z} d_i; state 0 has an empty run."""
    digits = digits_matrix(base, n)
    d = np.array([base.at(r) for r in range(1, digits.shape[1] + 1)], dtype=np.int64)
    run = np.logical_and.accumulate(digits == (d - 1 if maximal else 0), axis=1)
    run[:1] = False  # state 0, all digits zero, has an empty run
    length = run.sum(axis=1)
    # A run's place value is at most n, so these products stay in int64.
    return length, np.concatenate(([1], np.cumprod(d[:length.max()])))[length]


def column_sum_report(mat: SparseTransitionMatrix) -> list[tuple[int, float, bool]]:
    """Per-column (index, in-truncation sum, complete) triples.

    A column is complete when every row of the infinite matrix that feeds it
    lies inside the truncation.  Column m is fed by rows m and m-1 plus, for
    each s >= 1 with the first s digits of m all zero, row m + q_s - 1; column
    0 is fed by infinitely many rows and is never complete.
    """
    csr = mat.to_csr()
    # bincount adds in CSR (row-major) order, like a loop over the rows.
    sums = np.bincount(csr.indices, weights=csr.data, minlength=mat.dim)
    cols = np.arange(mat.dim, dtype=np.int64)
    zero_place = _leading_run(mat.dim, mat.base, maximal=False)[1]
    complete = (cols > 0) & (cols + zero_place - 1 < mat.dim)
    return list(zip(range(mat.dim), sums.tolist(), complete.tolist()))


def stochasticity_deviation(mat: SparseTransitionMatrix) -> tuple[float, float]:
    """(max |row sum - 1| over unclipped rows, max |column sum - 1| over
    complete columns); both are 0 for an exactly stochastic truncation."""
    csr = mat.to_csr()
    data, bounds = csr.data.tolist(), csr.indptr.tolist()
    row_dev = max((abs(math.fsum(data[bounds[n]:bounds[n + 1]]) - 1.0)
                   for n in range(mat.dim) if n not in mat.clipped_rows), default=0.0)
    col_dev = max((abs(total - 1.0) for _, total, complete in column_sum_report(mat)
                   if complete), default=0.0)
    return row_dev, col_dev


def simulate(base: BaseSeq, probs: ProbSeq, start: int, steps: int, seed: int) -> Trajectory:
    """Sample a Markov path of the adding machine; reproducible per seed.

    A row depends on its state n only through the counter s_n, so the path
    reads one (offsets, cumulative sums) pair per counter from the row table
    and moves n by the offset that the draw picks.
    """
    if start < 0 or steps < 0:
        raise ValueError("start and steps must be >= 0")
    # One block of uniforms is the same PCG64 stream as one draw per step.
    draws = np.random.default_rng(seed).random(steps).tolist()
    table: dict[int, tuple[list[int], list[float]]] = {}
    state = start
    states = [start]
    for u in draws:
        if state > INT64_MAX:
            raise OverflowError("n exceeds int64")
        s, rem = 1, state
        while True:
            rem, a = divmod(rem, d := base.at(s))
            if a != d - 1:
                break
            s += 1
        hit = table.get(s)
        if hit is None:
            prefix, halts, stay = _row_table(base, probs, s)
            moves = [(-drop, q) for _, drop, q in reversed(halts)]
            if stay > 0.0:
                moves.append((0, stay))
            moves.append((1, prefix[s]))
            # The last offset repeats: a draw at or past a rounded-down final
            # cumulative sum lands on it.
            offsets = [o for o, _ in moves] + [1]
            table[s] = hit = (offsets, list(itertools.accumulate(q for _, q in moves)))
        offsets, cum = hit
        state += offsets[bisect.bisect_right(cum, u)]
        states.append(state)
    return Trajectory(tuple(states), seed, steps)


def classify_chain(probs: ProbSeq) -> str:
    """``null_recurrent_like`` when the probability product prod_r p_r
    vanishes, else ``transient_like``; decided from the kind of the sequence.

    The product is 0 exactly when a probability below 1 repeats forever (a
    ``const`` below 1, or a ``list`` tail below 1).  It is positive for a
    ``list`` with tail 1, even when its double-precision value underflows,
    and for ``geo``, whose every p_r is positive and whose 1 - p_r decay
    geometrically.
    """
    if probs.kind == "const":
        return RECURRENT if probs.values[0] < 1.0 else TRANSIENT
    if probs.kind == "list":
        return RECURRENT if probs.tail < 1.0 else TRANSIENT
    return TRANSIENT


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
    csr = mat.to_csr()
    sources = np.repeat(np.arange(mat.dim), np.diff(csr.indptr)).tolist()
    lines = [f"{mat.dim} {mat.dim} {csr.nnz}"]
    lines.extend(f"{n} {t} {p:.17g}" for n, t, p in
                 zip(sources, csr.indices.tolist(), csr.data.tolist()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV with a ``step,state`` header, one row per visited state."""
    with open(path, "w", newline="") as fh:
        fh.write("step,state\n")
        for step, state in enumerate(traj.states):
            fh.write(f"{step},{state}\n")
