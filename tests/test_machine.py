import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochadd import machine
from stochadd.machine import (
    RECURRENT,
    TRANSIENT,
    build_matrix,
    classify_chain,
    column_sum_report,
    renorm_check,
    simulate,
    stochasticity_deviation,
    transition_row,
    write_matrix_coordinate,
    write_trajectory_csv,
)
from stochadd.numeration import INT64_MAX, BaseSeq, ProbSeq, base_product, to_digits

from test_numeration import base_seqs, prob_seqs

B2 = BaseSeq("const", (2,))
B3 = BaseSeq("const", (3,))
P_HALF = ProbSeq("const", (0.5,))
P_ONE = ProbSeq("const", (1.0,))


def symbolic_probs(p1, p2, p3):
    return ProbSeq("list", (p1, p2, p3), 0.5)


class TestTransitionRow:
    def test_row_two_of_base3_block(self):
        p1, p2 = 0.3, 0.6
        row = transition_row(2, B3, symbolic_probs(p1, p2, 0.9))
        assert row.entries == ((0, pytest.approx(p1 * (1 - p2))),
                               (2, pytest.approx(1 - p1)),
                               (3, pytest.approx(p1 * p2)))

    def test_row_eight_of_base3_block(self):
        p1, p2, p3 = 0.3, 0.6, 0.9
        row = transition_row(8, B3, symbolic_probs(p1, p2, p3))
        assert row.entries == ((0, pytest.approx(p1 * p2 * (1 - p3))),
                               (6, pytest.approx(p1 * (1 - p2))),
                               (8, pytest.approx(1 - p1)),
                               (9, pytest.approx(p1 * p2 * p3)))

    def test_row_zero_has_no_fallback(self):
        row = transition_row(0, B3, P_HALF)
        assert row.entries == ((0, 0.5), (1, 0.5))

    def test_certain_transitions_are_omitted(self):
        row = transition_row(2, B3, P_ONE)
        assert row.entries == ((3, 1.0),)

    @given(base_seqs(), prob_seqs(), st.integers(0, 5000))
    @settings(max_examples=200)
    def test_rows_stochastic_sorted_positive(self, base, probs, n):
        row = transition_row(n, base, probs)
        assert abs(row.total() - 1.0) <= 1e-12
        targets = [t for t, _ in row.entries]
        assert targets == sorted(targets)
        assert len(set(targets)) == len(targets)
        assert all(0.0 < p <= 1.0 for _, p in row.entries)

    def test_halting_split_telescopes(self):
        # (1-p1) + prod_{r<=t} p_r + sum_{s<t} (1-p_{s+1}) prod_{r<=s} p_r == 1
        rng = np.random.default_rng(1)
        for _ in range(20):
            vals = tuple(rng.uniform(0.05, 1.0, size=40))
            probs = ProbSeq("list", vals, 0.5)
            for t in range(1, 41):
                total = (1 - probs.at(1)) + probs.prefix_product(t) + math.fsum(
                    (1 - probs.at(s + 1)) * probs.prefix_product(s)
                    for s in range(1, t))
                assert abs(total - 1.0) < 1e-12


def list_bases():
    return st.tuples(st.lists(st.integers(2, 6), min_size=1, max_size=8),
                     st.integers(2, 6)).map(lambda t: BaseSeq("list", tuple(t[0]), t[1]))


def list_probs():
    # Certain stages (p = 1), tiny ones and products that underflow to 0.0.
    unit = st.one_of(st.sampled_from([1.0, 1e-200]), st.floats(1e-300, 1e-3),
                     st.floats(1e-3, 1.0))
    return st.tuples(st.lists(unit, min_size=1, max_size=8), unit).map(
        lambda t: ProbSeq("list", tuple(t[0]), t[1]))


class TestBuildMatrix:
    def test_deterministic_tiny(self):
        mat = build_matrix(3, B3, P_ONE)
        assert mat.rows[0].entries == ((1, 1.0),)
        assert mat.rows[1].entries == ((2, 1.0),)
        assert mat.rows[2].entries == ()
        assert mat.clipped_rows == frozenset({2})

    def test_only_last_successor_clips(self):
        mat = build_matrix(10, B3, symbolic_probs(0.3, 0.6, 0.9))
        assert mat.clipped_rows == frozenset({9})

    def test_unclipped_row_sums(self):
        base = BaseSeq("list", (2, 3), 3)
        mat = build_matrix(base_product(base, 2), base, P_HALF)
        mask = mat.unclipped_mask()
        for row in mat.rows:
            if mask[row.source]:
                assert abs(row.total() - 1.0) <= 1e-12

    @given(list_bases(), list_probs(), st.integers(2, 500))
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_rows_and_columns(self, base, probs, n):
        """The arrays built from the closed form equal the scalar oracle."""
        mat = build_matrix(n, base, probs)
        lost = set()
        sums = [0.0] * n
        for m, row in enumerate(mat.rows):
            full = transition_row(m, base, probs).entries
            kept = tuple((t, p) for t, p in full if t < n)
            assert row.source == m
            assert row.entries == kept
            if len(kept) < len(full):
                lost.add(m)
            for t, p in kept:
                sums[t] += p
        assert mat.clipped_rows == lost

        report = column_sum_report(mat)
        assert [m for m, _, _ in report] == list(range(n))
        for m, total, complete in report:
            digits = to_digits(m, base).digits
            zeros = next((i for i, a in enumerate(digits) if a), len(digits))
            assert total == sums[m]
            assert complete is (m > 0 and m + base_product(base, zeros) - 1 < n)

    def test_operator_arrays_are_read_only(self):
        csr = build_matrix(9, B3, P_HALF).to_csr()
        with pytest.raises(ValueError):
            csr.data[0] = 0.0


class TestApplyOperator:
    """The operator is applied as ``csr @ v``; rows flagged by
    ``unclipped_mask`` are exact rows of the infinite matrix."""

    def test_ones_fixed_on_unclipped(self):
        mat = build_matrix(27, B3, P_HALF)
        out, valid = mat.to_csr() @ np.ones(27), mat.unclipped_mask()
        assert np.allclose(out[valid], 1.0, atol=1e-12)

    def test_hand_evaluated_two_state(self):
        mat = build_matrix(2, B2, P_HALF)
        out, valid = mat.to_csr() @ np.array([1.0, -1.0]), mat.unclipped_mask()
        assert abs(out[0]) < 1e-15
        assert valid[0] and not valid[1]

    def test_dimension_mismatch(self):
        mat = build_matrix(4, B2, P_HALF)
        with pytest.raises(ValueError):
            mat.to_csr() @ np.ones(5)

    def test_enumerated_eigenvector_is_fixed_direction(self):
        # preimages of 1 give eigenvalues; the candidate eigenvector must be
        # scaled by exactly that value on every unclipped row
        from stochadd.julia import FiberedSystem, eigvec
        from stochadd.spectrum import point_spectrum
        sysm = FiberedSystem(B2, P_HALF)
        mat = build_matrix(256, B2, P_HALF)
        for level in point_spectrum(sysm, 3).levels:
            for lam in level.roots:
                v = eigvec(sysm, complex(lam), 256)
                out, valid = mat.to_csr() @ v, mat.unclipped_mask()
                assert np.abs((out - lam * v)[valid]).max() < 1e-9


class TestColumnSums:
    def test_complete_columns_sum_to_one(self):
        base = BaseSeq("list", (2, 3, 4), 3)
        probs = ProbSeq("list", (0.4, 1.0, 0.8), 0.9)
        mat = build_matrix(base_product(base, 4), base, probs)
        for m, total, complete in column_sum_report(mat):
            if complete and m >= 1:
                assert abs(total - 1.0) <= 1e-12

    def test_column_zero_partial_sums(self):
        probs = symbolic_probs(0.3, 0.6, 0.9)
        mat = build_matrix(81, B3, probs)
        col0 = np.zeros(81)
        for row in mat.rows:
            for tgt, pr in row.entries:
                if tgt == 0:
                    col0[row.source] += pr
        for t in range(1, 5):
            qt = base_product(B3, t)
            expected = 1.0 - probs.prefix_product(t + 1)
            assert abs(col0[:qt].sum() - expected) <= 1e-12

    def test_column_zero_never_complete(self):
        mat = build_matrix(9, B3, P_HALF)
        assert column_sum_report(mat)[0][2] is False

    def test_deterministic_machine_column_zero_empty(self):
        mat = build_matrix(9, B3, P_ONE)
        assert column_sum_report(mat)[0][1] == 0.0

    def test_stochasticity_deviation_of_truncation(self):
        base = BaseSeq("list", (2, 3, 4), 3)
        probs = ProbSeq("list", (0.4, 1.0, 0.8), 0.9)
        row_dev, col_dev = stochasticity_deviation(build_matrix(100, base, probs))
        assert row_dev <= 1e-12 and col_dev <= 1e-12

    def test_stochasticity_deviation_sees_a_bad_row(self):
        mat = build_matrix(9, B3, P_HALF)
        bad = mat.to_csr().copy()
        bad.data[bad.indptr[4]] += 0.25
        row_dev, col_dev = stochasticity_deviation(dataclasses.replace(mat, csr=bad))
        assert row_dev == pytest.approx(0.25)
        assert col_dev == pytest.approx(0.25)


def reference_path(base, probs, start, steps, seed):
    """One scalar draw per step against a freshly built row."""
    rng = np.random.default_rng(seed)
    state, states = start, [start]
    for _ in range(steps):
        entries = transition_row(state, base, probs).entries
        cum = np.cumsum([p for _, p in entries])
        idx = int(np.searchsorted(cum, rng.random(), side="right"))
        state = entries[min(idx, len(entries) - 1)][0]
        states.append(state)
    return tuple(states)


class TopDraws:
    """Stands in for ``default_rng``: every draw is the largest double below 1."""

    def __init__(self, seed):
        self.top = np.nextafter(1.0, 0.0)

    def random(self, size=None):
        return self.top if size is None else np.full(size, self.top)


class TestSimulate:
    def test_certain_machine_counts_up(self):
        traj = simulate(B3, P_ONE, 0, 5, seed=0)
        assert traj.states == (0, 1, 2, 3, 4, 5)

    def test_reproducible(self):
        a = simulate(B2, P_HALF, 0, 500, seed=42)
        b = simulate(B2, P_HALF, 0, 500, seed=42)
        assert a.states == b.states
        assert a.algorithm == "pcg64"

    def test_transitions_have_positive_probability(self):
        traj = simulate(B3, ProbSeq("const", (0.6,)), 0, 2000, seed=9)
        for n, m in zip(traj.states, traj.states[1:]):
            row = dict(transition_row(n, B3, ProbSeq("const", (0.6,))).entries)
            assert m in row

    def test_one_step_frequencies(self):
        # the self-loop indicator is Bernoulli(1 - p_1) from every state, so a
        # long trajectory gives 1e5 iid samples of that row entry
        probs = ProbSeq("const", (0.6,))
        traj = simulate(B2, probs, 0, 100_000, seed=4)
        states = np.array(traj.states)
        loop_freq = np.mean(states[1:] == states[:-1])
        sigma = math.sqrt(0.4 * 0.6 / 100_000)
        assert abs(loop_freq - 0.4) <= 3 * sigma

        # full-row outcome frequencies out of the most visited state
        visited, counts = np.unique(states[:-1], return_counts=True)
        s_star = int(visited[np.argmax(counts)])
        idx = np.flatnonzero(states[:-1] == s_star)
        outcomes = states[idx + 1]
        row = transition_row(s_star, B2, probs)
        n_vis = len(idx)
        assert n_vis >= 100
        for target, p in row.entries:
            freq = np.mean(outcomes == target)
            sigma = math.sqrt(p * (1 - p) / n_vis)
            assert abs(freq - p) <= 3 * sigma + 1e-12

    @pytest.mark.parametrize("probs", [P_HALF, ProbSeq("list", (0.7, 1.0, 0.4), 0.55), P_ONE,
                                       ProbSeq("list", (0.6, 1e-200, 1.0, 1e-200), 0.8),
                                       ProbSeq("const", (0.3,))])
    @pytest.mark.parametrize("start", [0, 10**12, 3**20 - 5])
    def test_paths_match_scalar_loop(self, probs, start, monkeypatch):
        # 3**20 - 5 reaches twenty maximal base-3 digits within four steps,
        # where a halt at stage 20 drops the state to 0; the fourth list makes
        # halts with q = 0 (p_3 = 1) and a prefix product that underflows.
        bases = (BaseSeq("list", (2, 3, 4), 3), B3, BaseSeq("fib"))
        for base in bases:
            for seed in range(5):
                assert simulate(base, probs, start, 300, seed).states == \
                    reference_path(base, probs, start, 300, seed)
        # The largest draw lies past the rounded-down cumulative sum of some
        # rows (rows 2, 5, 11, ... of const:3 with p = 0.3) and must still
        # land on the last target.
        monkeypatch.setattr(np.random, "default_rng", TopDraws)
        for base in bases:
            assert simulate(base, probs, start, 30, 0).states == \
                reference_path(base, probs, start, 30, 0)

    def test_path_past_int64_raises(self):
        # A step from a state past int64 fails as to_digits does; reaching
        # that state on the last step does not.
        assert simulate(B3, P_ONE, INT64_MAX - 1, 2, seed=0).states[-1] == INT64_MAX + 1
        with pytest.raises(OverflowError):
            simulate(B3, P_ONE, INT64_MAX - 1, 3, seed=0)


class TestClassify:
    def test_paper_regimes(self):
        assert classify_chain(ProbSeq("const", (0.7,))) == RECURRENT
        assert classify_chain(P_ONE) == TRANSIENT
        assert classify_chain(ProbSeq("geo", c=0.25, gamma=0.5)) == TRANSIENT

    def test_prefix_guard(self):
        # A finite prefix followed by tail 1 has a positive product, however
        # small its double-precision value (1e-15, 1e-10, or 0.0 here).
        tiny = ProbSeq("list", (1e-5, 1e-5, 1e-5), 1.0)
        assert classify_chain(tiny) == TRANSIENT
        assert classify_chain(ProbSeq("list", (0.01,) * 5, 1.0)) == TRANSIENT
        underflow = ProbSeq("list", (1e-200, 1e-200), 1.0)
        assert underflow.infinite_product() == 0.0
        assert classify_chain(underflow) == TRANSIENT


class TestRenorm:
    def test_binary_half(self):
        rep = renorm_check(1, 16, B2, P_HALF)
        assert rep.max_diff() < 1e-12

    def test_certain_machine_exact(self):
        rep = renorm_check(1, 9, B3, P_ONE)
        assert rep.max_diff() == 0.0

    def test_shifted_level(self):
        base = BaseSeq("periodic", (3, 5))
        probs = ProbSeq("list", (0.4, 0.8), 0.7)
        rep = renorm_check(2, 10, base, probs)
        assert rep.max_diff() < 1e-12

    def test_interior_window_empty(self):
        with pytest.raises(ValueError):
            renorm_check(1, 2, B3, P_HALF)

    @pytest.mark.parametrize("r, n2, base, probs", [
        (1, 16, B2, P_HALF),
        (1, 9, B3, P_ONE),
        (2, 10, BaseSeq("periodic", (3, 5)), ProbSeq("list", (0.4, 0.8), 0.7)),
    ])
    def test_perturbed_coarse_row_fails(self, r, n2, base, probs, monkeypatch):
        # Moving 0.5 onto the n+1 entry of one interior row of the coarse
        # (n2-state) matrix must show in the report.
        build = machine.build_matrix

        def perturbed(n_states, base, probs):
            mat = build(n_states, base, probs)
            if n_states != n2:
                return mat
            bad = mat.to_csr().copy()
            bad.data[bad.indptr[n2 // 2 + 1] - 1] += 0.5
            return dataclasses.replace(mat, csr=bad)

        assert renorm_check(r, n2, base, probs).max_diff() < 1e-12
        monkeypatch.setattr(machine, "build_matrix", perturbed)
        assert renorm_check(r, n2, base, probs).max_diff() >= 0.1

    def test_random_config_sweep(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            plen = int(rng.integers(1, 5))
            base = BaseSeq("list",
                           tuple(int(rng.integers(2, 6)) for _ in range(plen)),
                           int(rng.integers(2, 6)))
            probs = ProbSeq("list",
                            tuple(float(rng.uniform(0.2, 1.0)) for _ in range(plen)),
                            float(rng.uniform(0.2, 1.0)))
            r = int(rng.integers(1, 4))
            n2 = 4 * base.at(r + 1)
            rep = renorm_check(r, n2, base, probs)
            assert rep.max_diff() < 1e-12, (base, probs, r, n2)


class TestFileFormats:
    def test_matrix_coordinate_round_trip(self, tmp_path):
        mat = build_matrix(10, B3, symbolic_probs(0.3, 0.6, 0.9))
        path = tmp_path / "mat.txt"
        write_matrix_coordinate(mat, path)
        lines = path.read_text().splitlines()
        nrows, ncols, nnz = (int(x) for x in lines[0].split())
        assert (nrows, ncols) == (10, 10)
        assert nnz == len(lines) - 1
        rebuilt = np.zeros((10, 10))
        for line in lines[1:]:
            i, j, v = line.split()
            rebuilt[int(i), int(j)] = float(v)
        assert np.allclose(rebuilt, mat.to_dense(), atol=0)

    def test_trajectory_csv(self, tmp_path):
        traj = simulate(B3, P_ONE, 3, 2, seed=0)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        assert path.read_text() == "step,state\n0,3\n1,4\n2,5\n"
