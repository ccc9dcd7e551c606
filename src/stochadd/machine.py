"""Stochastic adding machine: transition rows, truncated matrices, simulation.

From state n the machine tries to add 1 digit-by-digit.  With probability
1 - p_1 nothing happens; with probability prod_{r<=s_n} p_r the addition
completes (state n+1); halting after stage s instead lands on the truncation
of n (first s maximal digits zeroed) with probability (1 - p_{s+1}) *
prod_{r<=s} p_r.  Rows of the induced infinite matrix are therefore sparse:
at most s_n + 1 entries, and they depend on n only through s_n: one row of
offsets and probabilities per counter (``_row_table``) gives every row, for
the matrix build and for simulation alike.

Both the counter and the truncations are divisibility by the levels
q_s = prod_{i<=s} d_i (``numeration.levels``): the first s digits of n are all
maximal exactly when q_s divides n + 1, so s_n - 1 is the number of levels
dividing n + 1, and the first s digits of m are all zero exactly when q_s
divides m.  Over states 0..N-1 each level is a strided slice.

A halt lands on n - (q_s - 1) >= 0, so the truncation to states
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
from typing import NamedTuple

import numpy as np

from .numeration import (
    BaseSeq,
    ProbSeq,
    counter,
    from_digits,
    levels,
    to_digits,
    truncate_digits,
)

RECURRENT = "null_recurrent_like"
TRANSIENT = "transient_like"


class TransitionRow(NamedTuple):
    """One row of the transition matrix: (target, probability) pairs, sorted,
    and their exact (``math.fsum``) sum.

    A named tuple: immutable, so a row of the cached ``rows`` view cannot
    drift from its sum, and cheaper to build than a frozen dataclass.  Rows
    compare as tuples; the sum is a function of the entries, so rows with
    equal source and entries are equal.
    """

    source: int
    entries: tuple[tuple[int, float], ...]
    row_sum: float

    def total(self) -> float:
        return self.row_sum


@dataclass(frozen=True, eq=False)
class SparseTransitionMatrix:
    """Rows 0..dim-1 as read-only CSR arrays (``indptr``, ``indices``,
    ``data``), targets >= dim dropped; rows that lost an entry are
    ``clipped``."""

    dim: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    base: BaseSeq
    probs: ProbSeq
    clipped_rows: frozenset[int]

    @functools.cached_property
    def rows(self) -> tuple[TransitionRow, ...]:
        """Per-row view of the CSR arrays, with each row's exact sum (built on
        first access)."""
        bounds = self.indptr.tolist()
        pairs = list(zip(self.indices.tolist(), self.data.tolist()))
        entries = (tuple(pairs[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
        return tuple(map(TransitionRow, range(self.dim), entries, _row_sums(self).tolist()))

    def _row_ids(self) -> np.ndarray:
        """The row of every stored entry, in CSR order."""
        return np.repeat(np.arange(self.dim), np.diff(self.indptr))

    def to_csr(self):
        """The arrays as a ``scipy.sparse.csr_matrix``, built on each call.
        Their index dtype is the one scipy picks, so it copies none of them
        and they stay read-only."""
        import scipy.sparse as sp  # here, so that importing stochadd does not load it

        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(self.dim, self.dim))

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.dim, self.dim))
        dense[self._row_ids(), self.indices] = self.data
        return dense

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
    return TransitionRow(n, tuple(entries), math.fsum(q for _, q in entries))


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
    # Row n is table[s_n - 1], s_n - 1 being the number of levels dividing n + 1.
    run = np.zeros(n_states, dtype=np.intp)
    for q in levels(base, n_states):
        run[q - 1::q] += 1
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
    # scipy's index dtype: int32 unless the size or an index passes its range.
    index = np.int32 if max(n_states, int(indptr[-1])) <= np.iinfo(np.int32).max else np.int64
    indptr, indices, data = indptr.astype(index), indices[:-1].astype(index), data[:-1]
    for arr in (indptr, indices, data):
        arr.setflags(write=False)
    return SparseTransitionMatrix(n_states, indptr, indices, data, base, probs,
                                  frozenset({n_states - 1}))


def _row_sums(mat: SparseTransitionMatrix) -> np.ndarray:
    """``math.fsum`` of every row's data, bit for bit, one fsum per distinct row.

    A row depends on its state only through the counter, so a truncation has
    few distinct rows.  Rows of one length are grouped by their raw bytes,
    not by counter: a perturbed entry, a -0.0 or a one-ulp change makes its
    own group.  fsum is correctly rounded, so equal bytes give equal sums.
    """
    starts, lengths = mat.indptr[:-1], np.diff(mat.indptr)
    sums = np.zeros(len(lengths))  # an empty row sums to 0.0, as fsum([]) does
    for k in np.unique(lengths[lengths > 0]).tolist():
        rows = np.flatnonzero(lengths == k)
        block = mat.data[starts[rows, None] + np.arange(k)]
        keys = block.view(np.dtype((np.void, block.itemsize * k))).ravel()
        _, first, group = np.unique(keys, return_index=True, return_inverse=True)
        sums[rows] = np.array([math.fsum(block[i].tolist()) for i in first.tolist()])[group]
    return sums


def _column_sums(mat: SparseTransitionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(in-truncation sum, complete) of every column, as arrays.

    A column is complete when every row of the infinite matrix that feeds it
    lies inside the truncation.  Column m is fed by rows m and m-1 plus, for
    each s >= 1 with the first s digits of m all zero, row m + q_s - 1; column
    0 is fed by infinitely many rows and is never complete.
    """
    # bincount adds in CSR (row-major) order, like a loop over the rows.
    sums = np.bincount(mat.indices, weights=mat.data, minlength=mat.dim)
    cols = np.arange(mat.dim, dtype=np.int64)
    # zero_place[m] is the largest level dividing m (1 if none): the place
    # value of the run of zero leading digits of m.
    zero_place = np.ones(mat.dim, dtype=np.int64)
    for q in levels(mat.base, mat.dim - 1):
        zero_place[::q] = q
    return sums, (cols > 0) & (cols + zero_place - 1 < mat.dim)


def column_sum_report(mat: SparseTransitionMatrix) -> list[tuple[int, float, bool]]:
    """Per-column (index, in-truncation sum, complete) triples (``_column_sums``)."""
    sums, complete = _column_sums(mat)
    return list(zip(range(mat.dim), sums.tolist(), complete.tolist()))


def stochasticity_deviation(mat: SparseTransitionMatrix) -> tuple[float, float]:
    """(max |row sum - 1| over unclipped rows, max |column sum - 1| over
    complete columns); both are 0 for an exactly stochastic truncation and
    NaN when any of those sums is NaN."""
    rows = _row_sums(mat)[mat.unclipped_mask()]
    cols, complete = _column_sums(mat)
    # np.max propagates a NaN from any position; Python's max only from the first.
    return (float(np.max(np.abs(rows - 1.0), initial=0.0)),
            float(np.max(np.abs(cols[complete] - 1.0), initial=0.0)))


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
    # Every state + 1 is at most start + steps + 1, so that plus one divides
    # none of them and ends the counter loop.
    q = levels(base, start + steps + 1) + [start + steps + 2]
    state = start
    states = [start]
    for u in draws:
        s = 1  # s_n - 1 is the number of levels dividing n + 1
        while (state + 1) % q[s - 1] == 0:
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
        """The larger part, or NaN when either part is NaN (``max`` would drop it)."""
        return float(np.max([self.part1_max_diff, self.part2_max_diff]))


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
    part1s = []
    for k in range(1, d1 + 1):
        want = np.zeros((n1, n2))
        want[k - 1::d1] = s_coarse if k == d1 else np.eye(n2)
        diff = renorm[:win, k % d1::d1][:, :colwin] - want[:win, :colwin]
        part1s.append(np.abs(diff).max())
    part1 = float(np.max(part1s))  # np.max, unlike max, keeps a NaN class

    return RenormReport(r, n1, n2, margin, part1, part2)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def write_matrix_coordinate(mat: SparseTransitionMatrix, path) -> None:
    """Coordinate text format: an ``m n nnz`` header, then ``row col value`` triples."""
    lines = [f"{mat.dim} {mat.dim} {mat.data.size}"]
    lines.extend(f"{n} {t} {p:.17g}" for n, t, p in
                 zip(mat._row_ids().tolist(), mat.indices.tolist(), mat.data.tolist()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV with a ``step,state`` header, one row per visited state."""
    with open(path, "w", newline="") as fh:
        fh.write("step,state\n")
        for step, state in enumerate(traj.states):
            fh.write(f"{step},{state}\n")
