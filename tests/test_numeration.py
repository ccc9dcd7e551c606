import itertools
import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochadd.numeration import (
    BaseSeq,
    DigitVec,
    ProbSeq,
    SpecError,
    base_product,
    counter,
    from_digits,
    largest_level,
    levels,
    parse_base_spec,
    parse_probs_spec,
    successor,
    to_digits,
    truncate_digits,
)

B3 = BaseSeq("const", (3,))
B234 = BaseSeq("list", (2, 3, 4), 4)


def base_seqs():
    return st.one_of(
        st.integers(2, 6).map(lambda d: BaseSeq("const", (d,))),
        st.lists(st.integers(2, 6), min_size=1, max_size=4).map(
            lambda v: BaseSeq("periodic", tuple(v))),
        st.tuples(st.lists(st.integers(2, 6), min_size=1, max_size=5),
                  st.integers(2, 6)).map(lambda t: BaseSeq("list", tuple(t[0]), t[1])),
        st.just(BaseSeq("even")),
        st.just(BaseSeq("fib")),
    )


def prob_seqs():
    unit = st.floats(0.05, 1.0)
    return st.one_of(
        unit.map(lambda p: ProbSeq("const", (p,))),
        st.tuples(st.lists(unit, min_size=1, max_size=5), unit).map(
            lambda t: ProbSeq("list", tuple(t[0]), t[1])),
        st.tuples(st.floats(0.0, 0.9), st.floats(0.1, 0.9)).map(
            lambda t: ProbSeq("geo", c=t[0], gamma=t[1])),
    )


class TestBaseProduct:
    def test_empty_product(self):
        assert base_product(B3, 0) == 1

    def test_base3_level2(self):
        assert base_product(B3, 2) == 9

    def test_mixed_prefix(self):
        assert base_product(B234, 3) == 24

    def test_fib_product_past_int64(self):
        entries = [2, 3]
        while len(entries) < 200:
            entries.append(entries[-1] + entries[-2])
        assert base_product(BaseSeq("fib"), 200) == math.prod(entries) > 2**63

    def test_even_and_fib_values(self):
        even = BaseSeq("even")
        assert [even.at(r) for r in range(1, 5)] == [2, 4, 6, 8]
        fib = BaseSeq("fib")
        assert [fib.at(r) for r in range(1, 7)] == [2, 3, 5, 8, 13, 21]


class TestLargestLevel:
    def test_constant_base(self):
        assert largest_level(B3, 2048) == 729

    def test_cap_on_a_level(self):
        assert largest_level(B3, 729) == 729
        assert largest_level(B234, 24) == 24

    def test_growing_bases(self):
        assert largest_level(BaseSeq("even"), 2048) == 384
        assert largest_level(BaseSeq("fib"), 1024) == 240

    def test_floor_of_two(self):
        assert largest_level(B3, 2) == 2

    @given(base_seqs(), st.integers(2, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_is_the_largest_level_under_cap(self, base, cap):
        # d_r >= 2, so every level past the 20th exceeds 2**20 > cap.
        levels = itertools.accumulate((base.at(r) for r in range(1, 21)), operator.mul)
        under = [q for q in levels if q <= cap]
        assert largest_level(base, cap) == max(under + [2])


@st.composite
def bases_and_states(draw):
    """A base and a state m >= 0, half the time a multiple of a level or one off it."""
    base = draw(base_seqs())
    if draw(st.booleans()):
        return base, draw(st.integers(0, 10**6))
    q = base_product(base, draw(st.integers(1, 5)))
    return base, max(0, draw(st.integers(1, 40)) * q + draw(st.integers(-1, 1)))


class TestLevels:
    """``levels`` is where q_s lives; the counter and the zero run are
    divisibility by it."""

    @given(bases_and_states())
    @settings(max_examples=200, deadline=None)
    def test_are_the_base_products_up_to_n(self, case):
        base, n = case
        products = (base_product(base, s) for s in itertools.count(1))
        assert levels(base, n) == list(itertools.takewhile(lambda q: q <= n, products))

    @given(bases_and_states())
    @settings(max_examples=200, deadline=None)
    def test_counter_counts_levels_dividing_the_successor(self, case):
        base, m = case
        dividing = [q for q in levels(base, m + 1) if (m + 1) % q == 0]
        assert counter(to_digits(m, base)) - 1 == len(dividing)

    @given(bases_and_states())
    @settings(max_examples=200, deadline=None)
    def test_zero_run_place_is_the_largest_level_dividing(self, case):
        base, m = case
        if m == 0:
            return
        digits = to_digits(m, base).digits
        zeros = next(r for r, a in enumerate(digits) if a)
        dividing = [q for q in levels(base, m) if m % q == 0]
        assert base_product(base, zeros) == max(dividing, default=1)


class TestDigits:
    def test_base3_five(self):
        assert to_digits(5, B3).digits == (2, 1)

    def test_zero_is_empty(self):
        assert to_digits(0, BaseSeq("even")).digits == ()

    def test_mixed_17(self):
        # greedy oracle: 17 = 1*1 + 2*2 + 2*6
        assert to_digits(17, B234).digits == (1, 2, 2)

    def test_from_digits_inverse(self):
        assert from_digits(DigitVec((2, 1), B3)) == 5
        assert from_digits(DigitVec((), B3)) == 0
        assert from_digits(DigitVec((1, 2, 2), B234)) == 17

    def test_digitvec_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DigitVec((3,), B3)

    def test_digitvec_rejects_trailing_zero(self):
        with pytest.raises(ValueError):
            DigitVec((1, 0), B3)


class TestCounter:
    def test_first_non_maximal(self):
        assert counter(to_digits(2, B3)) == 2
        assert counter(to_digits(0, B3)) == 1
        assert counter(to_digits(8, B3)) == 3

    def test_counter_congruence_bruteforce(self):
        # counter == t+1 exactly between consecutive full levels
        for base in (B3, B234, BaseSeq("even")):
            q4 = base_product(base, 4)
            for n in range(q4):
                s = counter(to_digits(n, base))
                t = s - 1
                qt = base_product(base, t)
                qt1 = base_product(base, t + 1)
                assert n % qt == qt - 1 or t == 0
                if t > 0:
                    assert n % qt == qt - 1
                assert n % qt1 != qt1 - 1


class TestSuccessor:
    def test_carry_to_new_position(self):
        assert successor(to_digits(8, B3)).digits == (0, 0, 1)

    def test_zero(self):
        assert successor(to_digits(0, B3)).digits == (1,)

    def test_mixed(self):
        assert from_digits(successor(to_digits(17, B234))) == 18

    def test_chain_matches_to_digits(self):
        # independent oracle: repeated +1 from zero
        for base in (B3, B234, BaseSeq("fib")):
            dv = to_digits(0, base)
            for n in range(1, 300):
                dv = successor(dv)
                assert dv == to_digits(n, base)


class TestTruncation:
    def test_base3_examples(self):
        assert truncate_digits(to_digits(8, B3), 1).digits == (0, 2)
        assert from_digits(truncate_digits(to_digits(8, B3), 1)) == 6
        assert truncate_digits(to_digits(8, B3), 2).digits == ()
        assert from_digits(truncate_digits(to_digits(5, B3), 1)) == 3

    def test_rejects_non_maximal_prefix(self):
        with pytest.raises(ValueError):
            truncate_digits(to_digits(3, B3), 1)  # digit 1 is 0, not maximal
        with pytest.raises(ValueError):
            truncate_digits(to_digits(8, B3), 3)

    @given(base_seqs(), st.integers(1, 3), st.integers(0, 10**4))
    def test_drop_equals_level_minus_one(self, base, s, m):
        qs = base_product(base, s)
        n = (qs - 1) + qs * m
        dv = to_digits(n, base)
        if counter(dv) - 1 < s:
            return
        assert from_digits(truncate_digits(dv, s)) == n - (qs - 1)


@st.composite
def bases_and_big_states(draw):
    """A base and a state up to 2**200, half the time one below a multiple of
    a level, so that the successor carries through every digit below it."""
    base = draw(base_seqs())
    if draw(st.booleans()):
        return base, draw(st.integers(0, 2**200))
    q = draw(st.sampled_from(levels(base, 2**200)))
    return base, draw(st.integers(1, 2**200 // q)) * q - 1


class TestRoundTrip:
    @given(bases_and_big_states())
    @settings(max_examples=300)
    def test_round_trip(self, case):
        base, n = case
        dv = to_digits(n, base)
        assert from_digits(dv) == n
        if dv.digits:
            assert dv.digits[-1] != 0
        for r, a in enumerate(dv.digits, start=1):
            assert 0 <= a < base.at(r)

    @given(bases_and_big_states())
    @settings(max_examples=300)
    def test_successor_coherence(self, case):
        base, n = case
        assert from_digits(successor(to_digits(n, base))) == n + 1


class TestSequences:
    def test_base_validation(self):
        with pytest.raises(SpecError):
            BaseSeq("const", (1,))
        with pytest.raises(SpecError):
            BaseSeq("list", (2, 1), 3)

    def test_probs_validation(self):
        with pytest.raises(SpecError):
            ProbSeq("const", (0.0,))
        with pytest.raises(SpecError):
            ProbSeq("const", (1.5,))
        with pytest.raises(SpecError):
            ProbSeq("geo", c=3.0, gamma=0.5)

    def test_shift_values(self):
        base = BaseSeq("even").shift(2)
        assert [base.at(r) for r in (1, 2, 3)] == [6, 8, 10]
        probs = ProbSeq("list", (0.3, 0.6, 0.9), 0.5).shift(1)
        assert probs.at(1) == 0.6
        assert probs.at(3) == 0.5

    def test_infinite_products(self):
        assert ProbSeq("const", (0.7,)).infinite_product() == 0.0
        assert ProbSeq("const", (1.0,)).infinite_product() == 1.0
        assert ProbSeq("list", (0.5,), 1.0).infinite_product() == 0.5
        assert ProbSeq("list", (0.5,), 0.9).infinite_product() == 0.0
        geo = ProbSeq("geo", c=0.25, gamma=0.5).infinite_product()
        direct = 1.0
        for r in range(1, 200):
            direct *= 1.0 - 0.25 * 0.5**r
        assert abs(geo - direct) < 1e-14

    @given(prob_seqs(), st.integers(1, 40))
    def test_probs_in_unit_interval(self, probs, r):
        assert 0.0 < probs.at(r) <= 1.0


class TestGrammar:
    CASES = {
        "const:3": BaseSeq("const", (3,)),
        "periodic:3,5": BaseSeq("periodic", (3, 5)),
        "list:2,3,4;tail=4": BaseSeq("list", (2, 3, 4), 4),
        "even": BaseSeq("even"),
        "fib": BaseSeq("fib"),
    }
    PCASES = {
        "pconst:0.7": ProbSeq("const", (0.7,)),
        "plist:0.7,1,0.5;tail=0.55": ProbSeq("list", (0.7, 1.0, 0.5), 0.55),
        "pgeo:c=0.25,gamma=0.5": ProbSeq("geo", c=0.25, gamma=0.5),
    }

    @pytest.mark.parametrize("text", CASES)
    def test_base_parses(self, text):
        assert parse_base_spec(text) == self.CASES[text]

    @pytest.mark.parametrize("text", PCASES)
    def test_probs_parses(self, text):
        assert parse_probs_spec(text) == self.PCASES[text]

    def test_parse_errors(self):
        for bad in ("triangular:3", "const:x", "list:2,3", "const"):
            with pytest.raises(SpecError):
                parse_base_spec(bad)
        for bad in ("pconst:2", "plist:0.5", "pgeo:c=0.25", "0.7"):
            with pytest.raises(SpecError):
                parse_probs_spec(bad)
