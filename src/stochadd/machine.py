"""Stochastic adding machine: transition rows, truncated matrices, simulation.

From state n the machine tries to add 1 digit-by-digit.  With probability
1 - p_1 nothing happens; with probability prod_{r<=s_n} p_r the addition
completes (state n+1); halting after stage s instead lands on the truncation
of n (first s maximal digits zeroed) with probability (1 - p_{s+1}) *
prod_{r<=s} p_r.  Rows of the induced infinite matrix are therefore sparse:
at most s_n + 1 entries, and they depend on n only through s_n: one row of
offsets and probabilities per counter (``_row_table``) gives every row, for
the matrix build and for simulation alike.

A halt lands on n - (prod_{i<=s} d_i - 1) >= 0, so the truncation to states
0..N-1 loses exactly one entry, the N of row N-1.  That row is flagged
clipped rather than renormalized, so every other row of the truncation is
exactly the corresponding row of the infinite matrix.  The renormalization
check reads the residue classes mod d_r of the states as strided slices.
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
               depth: int) -> list[tuple[list[int], list[float]]]:
    """The row of every counter s = 1..``depth``, at index s - 1.

    A row depends on its state n only through the counter s_n, so it is one
    (offsets, probabilities) pair, in CSR order: the halts at s < s_n deepest
    first (n - drop with drop = prod_{i<=s} d_i - 1, probability
    (1 - p_{s+1}) prod_{r<=s} p_r, omitted when 0), then the stay n
    (probability 1 - p_1, omitted when p_1 = 1), then n+1 (probability
    prod_{r<=s_n} p_r).  The products run in the same order as in
    ``transition_row``, so every probability has the same bits.
    """
    stay = [(0, 1.0 - probs.at(1))] if probs.at(1) < 1.0 else []
    halts: list[tuple[int, float]] = []  # ascending s
    table = []
    prefix, place = 1.0, 1
    for s in range(1, depth + 1):
        prefix *= probs.at(s)
        row = halts[::-1] + stay + [(1, prefix)]
        table.append(([o for o, _ in row], [q for _, q in row]))
        place *= base.at(s)
        q = (1.0 - probs.at(s + 1)) * prefix
        if q > 0.0:
            halts.append((1 - place, q))
    return table


def build_matrix(n_states: int, base: BaseSeq, probs: ProbSeq) -> SparseTransitionMatrix:
    """Truncation to states 0..n_states-1 (targets past the edge dropped).

    Row n is its counter's row from ``_row_table`` moved to n, so row for row
    the CSR arrays equal ``transition_row`` cut below ``n_states``.
    """
    if n_states < 2:
        raise ValueError("need at least 2 states")
    # Row n is table[s_n - 1], s_n - 1 being the run of maximal leading digits.
    run = _leading_run(n_states, base, maximal=True)[0]
    table = _row_table(base, probs, int(run.max()) + 1)
    lengths = np.array([len(row) for row, _ in table])
    offsets = np.array([o for row, _ in table for o in row], dtype=np.int64)
    weights = np.array([q for _, row in table for q in row])
    counts = lengths[run]
    indptr = np.zeros(n_states + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    # Entry j of row n is entry j - indptr[n] of its counter's row.
    at = np.arange(indptr[-1]) + np.repeat(np.cumsum(lengths)[run] - counts - indptr[:-1], counts)
    indices = np.repeat(np.arange(n_states, dtype=np.int64), counts) + offsets[at]
    data = weights[at]

    # A halt lands on n - drop >= 0, so only the last row's n+1 leaves the truncation.
    indptr[-1] -= 1
    csr = sp.csr_matrix((data[:-1], indices[:-1], indptr), shape=(n_states, n_states))
    for arr in (csr.data, csr.indices, csr.indptr):
        arr.setflags(write=False)
    return SparseTransitionMatrix(n_states, csr, base, probs, frozenset({n_states - 1}))


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

    The path reads the row of each state's counter from ``_row_table``, as
    (offsets, cumulative sums), and moves n by the offset that the draw picks.
    """
    if start < 0 or steps < 0:
        raise ValueError("start and steps must be >= 0")
    # One block of uniforms is the same PCG64 stream as one draw per step.
    draws = np.random.default_rng(seed).random(steps).tolist()
    table: list[tuple[list[int], list[float]]] = []
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
        if s > len(table):
            # The last offset repeats: a draw at or past a rounded-down final
            # cumulative sum lands on it.
            table = [(offsets + offsets[-1:], list(itertools.accumulate(row)))
                     for offsets, row in _row_table(base, probs, s)]
        offsets, cum = table[s - 1]
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

    # Residue class k of the fine states is the slice [k::d1]; n1 = d1 * n2.
    lhs = np.linalg.matrix_power(renorm, d1)
    rhs = np.zeros_like(lhs)
    for k in range(d1):
        rhs[k::d1, k::d1] = s_coarse
    part2 = float(np.abs(lhs[:win, :win] - rhs[:win, :win]).max())

    # The columns of class k (k = 1..d1, class d1 being class 0) are the
    # class-(k-1) embedding, of the identity or, for class 0, of S_{r+1}.
    colwin = max(1, win // d1)
    part1 = 0.0
    for k in range(1, d1 + 1):
        want = np.zeros((n1, n2))
        want[k - 1::d1] = s_coarse if k == d1 else np.eye(n2)
        diff = renorm[:win, k % d1::d1][:, :colwin] - want[:win, :colwin]
        part1 = max(part1, float(np.abs(diff).max()))

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
