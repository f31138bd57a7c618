import math
import tracemalloc
from collections import deque
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothdigits.bounds import log_tower
from smoothdigits.digits import nz_count, decompose
from smoothdigits.factor import PrimeSet, is_s_unit
from smoothdigits import sequences
from smoothdigits.sequences import (
    PowerSumSpec,
    constant_budget,
    loglog_budget,
    parse_budget_spec,
    power_sum_sequence,
    smooth_sequence,
    sparse_sequence,
    sparse_sequence_f,
    sqrt_budget,
    take,
)


def brute_force_sparse(base, k, limit):
    return [
        n
        for n in range(1, limit + 1)
        if n % base != 0 and nz_count(n, base) <= k
    ]


class TestSparseSequence:
    def test_first_terms_base2(self):
        assert take(sparse_sequence(2, 2), 6) == [1, 3, 5, 9, 17, 33]

    def test_tenth_term_base10(self):
        assert take(sparse_sequence(10, 2), 10)[-1] == 11

    def test_multiples_of_base_absent(self):
        assert 10 not in take(sparse_sequence(2, 2), 50)
        assert all(v % 10 != 0 for v in take(sparse_sequence(10, 3), 500))

    @pytest.mark.parametrize("base,k", [(2, 2), (2, 3), (3, 2), (3, 4), (10, 2)])
    def test_matches_brute_force(self, base, k):
        limit = 3000
        expected = brute_force_sparse(base, k, limit)
        got = list(sparse_sequence(base, k, max_value=limit))
        assert got == expected

    def test_strictly_increasing_no_duplicates(self):
        terms = take(sparse_sequence(3, 3), 2000)
        assert all(a < b for a, b in zip(terms, terms[1:]))

    def test_round_order(self):
        # values with larger top exponent always come later
        terms = take(sparse_sequence(2, 4), 500)
        tops = [decompose(t, 2).top_exponent for t in terms]
        assert tops == sorted(tops)

    def test_validation(self):
        with pytest.raises(ValueError):
            next(sparse_sequence(1, 2))
        with pytest.raises(ValueError):
            next(sparse_sequence(2, 1))


class TestSparseSequenceF:
    def test_constant_reduces_to_fixed_k(self):
        f = constant_budget(2)
        assert take(sparse_sequence_f(2, f), 6) == [1, 3, 5, 9, 17, 33]

    def test_finite_tail_terminates(self):
        # budget 1 in base 10: only 1..9 qualify; everything later in any
        # round is divisible by 10 or has two nonzero digits
        f = constant_budget(1)
        got = list(sparse_sequence_f(10, f, max_value=10**6))
        assert got == list(range(1, 10))

    def test_membership_respects_f_at_the_value(self):
        f = loglog_budget(1.0)
        got = list(sparse_sequence_f(2, f, max_value=100000))
        for n in got:
            assert nz_count(n, 2) <= f(n)
        # and nothing valid was skipped
        expected = [
            n
            for n in range(1, 100001)
            if n % 2 and nz_count(n, 2) <= f(n)
        ]
        assert got == expected

    def test_falling_budget_matches_brute_force(self):
        # sqrtll falls from about 7506 at 3814281 to about 17 at 2**22, so
        # the allowance at the top of the round is not its largest.
        f = sqrt_budget(0.5)
        got = list(sparse_sequence_f(2, f, max_value=2**22 - 1))
        expected = [1] + [
            n for n in range(3814281, 2**22, 2) if nz_count(n, 2) <= f(n)
        ]
        assert got == expected

    def test_loglog_below_sixteen_matches_brute_force(self):
        # loglog n is positive from n = 3; c = 3 allows two digits from 9 on
        got = list(sparse_sequence_f(2, loglog_budget(3.0), max_value=10**4))
        expected = [1] + [
            n for n in range(3, 10**4 + 1, 2)
            if nz_count(n, 2) <= max(1.0, 3.0 * math.log(math.log(n)))
        ]
        assert got == expected
        assert 9 in got

    def test_sqrtll_first_fourth_level_matches_brute_force(self):
        # loglogloglog n turns positive just above e^(e^e), at 3814280
        def f(n):
            l2 = math.log(math.log(n))
            l3 = math.log(l2)
            l4 = math.log(l3)
            return max(1.0, 0.5 * math.sqrt(l2 * l3 / l4)) if l4 > 0 else 1.0

        lo, hi = 3814270, 3814300
        stream = sparse_sequence_f(3, sqrt_budget(0.5), max_value=hi)
        got = [n for n in stream if n >= lo]
        expected = [n for n in range(lo, hi + 1) if n % 3 and nz_count(n, 3) <= f(n)]
        assert got == expected
        assert 3814280 in got

    def test_budget_below_two_ends_by_itself(self):
        assert list(sparse_sequence_f(3, constant_budget(1))) == [1, 2]
        assert list(sparse_sequence_f(10, constant_budget(1.5))) == list(range(1, 10))

    def test_no_sparse_stream_counts_digits(self, monkeypatch):
        # digit counts are known by construction, under any budget
        calls = []

        def counting(n, base, *bound):
            calls.append(n)
            return nz_count(n, base, *bound)

        monkeypatch.setattr(sequences, "nz_count", counting)
        take(sparse_sequence(10, 3), 2000)
        assert calls == []
        take(sparse_sequence_f(2, loglog_budget(1.0)), 200)
        assert calls == []

    def test_spike_round_holds_only_its_path(self):
        # the round [3**13, 3**14) holds 2 125 764 members under the spike's
        # allowance; only the 14 from 3814270 on are wanted
        tracemalloc.start()
        try:
            got = list(sparse_sequence_f(3, sqrt_budget(0.5), max_value=3814300))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got[-1] <= 3814300 and 3814280 in got
        assert peak < 5 * 2**20

    @given(
        base=st.sampled_from([2, 3, 10]),
        family=st.sampled_from(["const", "loglog", "sqrtll"]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_filter(self, base, family, data):
        # whole scales put the const allowance exactly on a digit count
        low = 1.0 if family == "const" else 0.1
        c = data.draw(
            st.integers(min_value=1, max_value=6).map(float)
            | st.floats(min_value=low, max_value=6.0),
            label="scale",
        )
        near_spike = st.integers(min_value=3814000, max_value=3818000)
        max_value = data.draw(
            st.integers(min_value=1, max_value=30000)
            | (near_spike if family == "sqrtll" else st.nothing()),
            label="max_value",
        )

        def f(n):
            if family == "const":
                return c
            if family == "loglog":
                return max(1.0, c * math.log(math.log(n))) if n >= 3 else 1.0
            if n < 16:
                return 1.0
            l2 = math.log(math.log(n))
            l3 = math.log(l2)
            l4 = math.log(l3)
            return max(1.0, c * math.sqrt(l2 * l3 / l4)) if l4 > 0 else 1.0

        budget = parse_budget_spec(f"{family}:{c!r}")
        # near the spike, filter only the last 20000 integers below the cutoff
        lo = max(1, max_value - 20000)
        got = [n for n in sparse_sequence_f(base, budget, max_value=max_value) if n >= lo]
        expected = [
            n for n in range(lo, max_value + 1) if n % base and nz_count(n, base) <= f(n)
        ]
        assert got == expected


class TestBudgetFamilies:
    def test_parse(self):
        assert parse_budget_spec("const:3")(100) == 3.0
        assert parse_budget_spec("loglog:2").delta0 is None
        assert parse_budget_spec("sqrtll:0.5").delta0 == 1.0
        with pytest.raises(ValueError):
            parse_budget_spec("nope:1")

    def test_budgets_at_least_one(self):
        for spec in ("const:1", "loglog:0.1", "sqrtll:0.01"):
            f = parse_budget_spec(spec)
            for n in (1, 2, 10, 10**6, 10**9):
                assert f(n) >= 1.0

    def test_sqrt_start_is_the_first_fourth_level(self):
        start = sequences._SQRT_START
        assert log_tower(start - 1, 4) is None
        assert log_tower(start, 4) is not None

    def test_sqrt_budget_grows(self):
        f = sqrt_budget(1.0)
        assert f(10**9) > 1.0

    @pytest.mark.parametrize("spec", ["const:3", "loglog:1", "sqrtll:0.5", "sqrtll:2"])
    def test_peak_bounds_the_budget(self, spec):
        f = parse_budget_spec(spec)
        for lo, hi in [(1, 100), (3 * 10**6, 4 * 10**6), (3814281, 3814300),
                       (2**21, 2**22 - 1), (2**22, 2**23 - 1), (10**9, 10**12)]:
            step = max(1, (hi - lo) // 5000)
            sampled = max(f(n) for n in range(lo, hi + 1, step))
            assert f.peak(lo, hi) >= max(sampled, f(hi))
        assert f.peak(10**9, None) >= f(10**30)

    @pytest.mark.parametrize(
        "spec", ["const:3", "loglog:1", "sqrtll:0.3", "sqrtll:0.5", "sqrtll:2"]
    )
    def test_least_bounds_the_budget(self, spec):
        f = parse_budget_spec(spec)
        for lo, hi in [(1, 100), (3 * 10**6, 4 * 10**6), (3814281, 3814300),
                       (2**21, 2**22 - 1), (2**22, 2**23 - 1), (10**9, 10**12),
                       (2**120, 2**135)]:
            step = max(1, (hi - lo) // 5000)
            sampled = min(f(n) for n in range(lo, hi + 1, step))
            assert f.least(lo, hi) <= min(sampled, f(hi))
        # sqrtll rises again past its trough near 2**127
        assert f.least(10**9, None) <= min(f(n) for n in (10**9, 2**127, 2**128, 10**60))


class TestRoundJump:
    @pytest.mark.parametrize("start", [10, 40])
    @pytest.mark.parametrize("base", [2, 3, 10])
    @pytest.mark.parametrize("spec", ["loglog:0.3", "sqrtll:0.42", "sqrtll:0.45"])
    def test_jump_lands_on_the_first_round_that_may_hold_a_member(self, spec, base, start):
        # The first round from base**start on whose peak allows two digits,
        # by reading every round's peak, against the jump to it.  sqrtll
        # with c below about 0.49 falls under 2 past 3814280 and rises back
        # far later: from base**40 these skip up to 4174 rounds.
        f = parse_budget_spec(spec)
        lo = base**start
        while f.peak(lo, base * lo - 1) < 2:
            lo *= base
        assert sequences._next_round(base, f, base**start, None) == lo

    def test_out_of_reach_raises(self):
        with pytest.raises(ValueError, match="out of reach"):
            sequences._next_round(2, loglog_budget(0.1), 2, None)
        stream = sparse_sequence_f(2, loglog_budget(0.1))
        assert next(stream) == 1
        with pytest.raises(ValueError, match="out of reach"):
            next(stream)
        # below a max_value the stream just ends
        assert list(sparse_sequence_f(2, loglog_budget(0.1), max_value=2**100)) == [1]
        # sqrtll:1e-6 stays below 2 even at 3814281, where it peaks
        assert list(sparse_sequence_f(10, sqrt_budget(1e-6), max_value=10**50)) == list(range(1, 10))
        with pytest.raises(ValueError, match="out of reach"):
            list(sparse_sequence_f(10, sqrt_budget(1e-6)))

    @pytest.mark.parametrize(
        "spec, base",
        [(spec, base) for spec in ("const:3", "loglog:1") for base in (2, 3, 10)]
        + [(spec, base) for spec in ("sqrtll:0.1", "sqrtll:0.3", "sqrtll:0.5")
           for base in (2, 3)],
    )
    def test_round_members_counts_the_stream(self, spec, base):
        # every round below 2**23, counted whole against the stream's own;
        # sqrtll's first round holds its spike at 3814280
        f = parse_budget_spec(spec)
        limit = 2**23
        lo = sequences._next_round(base, f, base, limit)
        rounds = 0
        while lo is not None and lo * base <= limit:
            stream = sparse_sequence_f(base, f, max_value=base * lo - 1)
            assert sequences._round_members(base, f, lo) == sum(1 for v in stream if v >= lo)
            lo = sequences._next_round(base, f, base * lo, limit)
            rounds += 1
        assert rounds

    @pytest.mark.parametrize("spec, base", [("sqrtll:0.1", 2), ("sqrtll:0.2", 3)])
    def test_reach_check_meets_the_gap(self, spec, base):
        # The stream's members before it runs out of reach are exactly what
        # the check lets through: one more is refused before any is drawn.
        f = parse_budget_spec(spec)
        stream = sparse_sequence_f(base, f)
        members = 0
        with pytest.raises(ValueError, match="out of reach"):
            for _ in stream:
                members += 1
        sequences._check_reach(base, f, members, None)
        with pytest.raises(ValueError, match="out of reach"):
            sequences._check_reach(base, f, members + 1, None)
        with pytest.raises(ValueError, match="out of reach"):
            sequences._check_reach(base, f, None, 2 ** (2**20 + 1))
        sequences._check_reach(base, f, None, 2 ** (2**20 - 1))


class TestPowerSum:
    def test_first_terms(self):
        spec = PowerSumSpec(bases=(2, 2))
        assert take(power_sum_sequence(spec), 4) == [5, 7, 9, 11]

    def test_smallest_term(self):
        spec = PowerSumSpec(bases=(2, 4))
        assert take(power_sum_sequence(spec), 1) == [7]

    def test_deduplication(self):
        spec = PowerSumSpec(bases=(2, 2))
        terms = take(power_sum_sequence(spec), 50)
        assert len(terms) == len(set(terms))
        assert 11 in terms  # 2^1+2^3+1 == 2^3+2^1+1, emitted once

    def test_shared_divisor_checked(self):
        with pytest.raises(ValueError):
            PowerSumSpec(bases=(2, 3))
        PowerSumSpec(bases=(2, 3), shared_divisor_check=False)

    @pytest.mark.parametrize("bases", [(1, 2), (2, 1), (2, 0)])
    def test_base_below_two_rejected(self, bases):
        # 1**n adds no growth: the stream would repeat one value forever
        with pytest.raises(ValueError):
            PowerSumSpec(bases=bases, shared_divisor_check=False)

    def test_residue_invariant(self):
        spec = PowerSumSpec(bases=(6, 10, 14))
        g = math.gcd(6, 10, 14)
        for v in take(power_sum_sequence(spec), 200):
            assert v % g == 1

    def test_strictly_increasing(self):
        spec = PowerSumSpec(bases=(3, 9))
        terms = take(power_sum_sequence(spec), 500)
        assert all(a < b for a, b in zip(terms, terms[1:]))

    @pytest.mark.parametrize("bases", [(2, 4), (3, 9), (2, 4, 8)])
    def test_colliding_tuples_over_a_box(self, bases):
        # powers of one number: 2**4 + 4**1 == 2**2 + 4**2, and many more;
        # a**e <= limit with a >= 2 puts every exponent inside the box
        limit = 10**12
        box = range(1, limit.bit_length() + 1)
        expected = sorted(
            {
                v
                for tup in product(box, repeat=len(bases))
                if (v := sum(a**e for a, e in zip(bases, tup)) + 1) <= limit
            }
        )
        got = list(power_sum_sequence(PowerSumSpec(bases=bases), max_value=limit))
        assert got == expected

    def test_holds_only_its_frontier(self):
        tracemalloc.start()
        try:
            deque(islice(power_sum_sequence(PowerSumSpec(bases=(2, 4))), 20000), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_brute_force_agreement(self):
        spec = PowerSumSpec(bases=(2, 6))
        got = list(power_sum_sequence(spec, max_value=5000))
        expected = sorted(
            {
                2**i + 6**j + 1
                for i in range(1, 14)
                for j in range(1, 6)
                if 2**i + 6**j + 1 <= 5000
            }
        )
        assert got == expected


class TestSmoothSequence:
    def test_classic_example(self):
        assert list(smooth_sequence([2, 3, 5], 12)) == [1, 2, 3, 4, 5, 6, 8, 9, 10, 12]

    def test_powers_of_two(self):
        assert list(smooth_sequence([2], 16)) == [1, 2, 4, 8, 16]

    def test_odd_primes(self):
        assert list(smooth_sequence([3, 5], 15)) == [1, 3, 5, 9, 15]

    @pytest.mark.parametrize("primes", [[2], [3, 7], [2, 3, 5], [5, 7, 11, 13]])
    @pytest.mark.parametrize("limit", [0, 1, 10**6])
    def test_equals_all_products(self, primes, limit):
        # every product of prime powers up to the limit, built without a heap
        products = {1}
        for p in primes:
            products |= {
                v * p**e
                for v in products
                for e in range(1, limit.bit_length() + 1)
                if v * p**e <= limit
            }
        expected = sorted(v for v in products if v <= limit)
        assert list(smooth_sequence(primes, limit)) == expected

    def test_brute_force_agreement(self):
        s = PrimeSet((2, 3, 5))
        got = list(smooth_sequence(s, 10000))
        expected = [n for n in range(1, 10001) if is_s_unit(n, s)]
        assert got == expected

    def test_all_emissions_are_s_units(self):
        s = PrimeSet((2, 7))
        for v in smooth_sequence(s, 5000):
            assert is_s_unit(v, s)

    @given(limit=st.integers(min_value=1, max_value=2000))
    @settings(max_examples=30, deadline=None)
    def test_monotone_unique(self, limit):
        terms = list(smooth_sequence([2, 3], limit))
        assert all(a < b for a, b in zip(terms, terms[1:]))
        assert terms[0] == 1


class TestLongStreams:
    """Monotone and duplicate-free over the first 1e4 emissions."""

    def test_sparse_long(self):
        terms = take(sparse_sequence(2, 4), 10**4)
        assert len(terms) == 10**4
        assert all(a < b for a, b in zip(terms, terms[1:]))

    def test_power_sum_long(self):
        spec = PowerSumSpec(bases=(2, 2))
        terms = take(power_sum_sequence(spec), 10**4)
        assert len(terms) == 10**4
        assert all(a < b for a, b in zip(terms, terms[1:]))

    def test_smooth_long(self):
        terms = take(smooth_sequence([2, 3, 5], 10**19), 10**4)
        assert len(terms) == 10**4
        assert all(a < b for a, b in zip(terms, terms[1:]))
