import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothdigits.digits import (
    DigitExpansion,
    _nz_chunk_table,
    block_count,
    condition_3_2,
    decompose,
    nz_count,
    power_nz_counts,
    recompose,
)

BASES = [2, 3, 10, 36]


class TestDecompose:
    def test_two_bit_value(self):
        e = decompose(4097, 2)
        assert e.exponents == (0, 12)
        assert e.digits == (1, 1)

    def test_single_digit(self):
        e = decompose(7, 10)
        assert e.terms == ((0, 7),)

    def test_decimal(self):
        e = decompose(105, 10)
        assert e.exponents == (0, 2)
        assert e.digits == (5, 1)

    def test_rejects_zero_and_bad_base(self):
        with pytest.raises(ValueError):
            decompose(0, 2)
        with pytest.raises(ValueError):
            decompose(5, 1)

    def test_no_zero_digits_stored(self):
        e = decompose(1000000, 10)
        assert all(d != 0 for d in e.digits)


class TestRecompose:
    def test_examples(self):
        assert recompose(DigitExpansion(2, ((0, 1), (12, 1)))) == 4097
        assert recompose(DigitExpansion(10, ((0, 7),))) == 7
        assert recompose(DigitExpansion(2, ((0, 1), (6, 1), (10, 1)))) == 1089

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            DigitExpansion(2, ((0, 1), (0, 1)))  # repeated exponent
        with pytest.raises(ValueError):
            DigitExpansion(2, ((0, 2),))  # digit out of range
        with pytest.raises(ValueError):
            DigitExpansion(2, ())  # empty


@given(
    n=st.integers(min_value=1, max_value=2**256 - 1),
    base=st.sampled_from(BASES),
)
def test_round_trip(n, base):
    e = decompose(n, base)
    assert recompose(e) == n
    assert base ** e.top_exponent <= n < base ** (e.top_exponent + 1)
    assert (n % base != 0) == (e.exponents[0] == 0)


@given(
    n=st.integers(min_value=1, max_value=2**128),
    base=st.sampled_from(BASES),
)
def test_nz_count_matches_expansion_and_zero_append(n, base):
    assert nz_count(n, base) == decompose(n, base).k
    assert nz_count(n * base, base) == nz_count(n, base)
    assert nz_count(n, base) <= math.floor(math.log(n) / math.log(base)) + 1


@given(
    n=st.integers(min_value=1, max_value=2**256),
    base=st.one_of(
        st.integers(min_value=2, max_value=2**17),
        st.integers(min_value=2, max_value=2**64),
    ),
)
def test_nz_count_matches_expansion_any_base(n, base):
    # covers bit counting (base 2), whole-chunk tables (up to 2**16) and the
    # digit-by-digit loop above that
    assert nz_count(n, base) == decompose(n, base).k


@given(
    n=st.integers(min_value=1, max_value=2**256),
    base=st.sampled_from([2, 3, 10, 2**16, 2**16 + 1]),
    bound=st.integers(min_value=0, max_value=40),
)
def test_bounded_nz_count(n, base, bound):
    # exact up to the bound, and past it only known to be past it
    full = nz_count(n, base)
    got = nz_count(n, base, bound)
    if full <= bound:
        assert got == full
    else:
        assert got > bound


@settings(max_examples=60, deadline=None)
@given(
    a=st.one_of(st.integers(min_value=2, max_value=2**17), st.integers(min_value=2, max_value=2**64)),
    base=st.sampled_from([2, 3, 10, 2**16 - 1, 2**16, 2**16 + 1, 10**12]),
    start=st.integers(min_value=0, max_value=200),
    rows=st.integers(min_value=1, max_value=80),
)
def test_power_nz_counts_match_nz_count(a, base, start, rows):
    # up to 80 rows cross several steps of s rows (s <= 23 on these bases)
    got = list(itertools.islice(power_nz_counts(a, base, start), rows))
    assert got == [nz_count(a**n, base) for n in range(start, start + rows)]


class TestNzCount:
    def test_examples(self):
        assert nz_count(1024, 2) == 1
        assert nz_count(4097, 2) == 2
        assert nz_count(105, 10) == 2
        assert nz_count(2**16 * 3 + 1, 2**16) == 2
        assert nz_count(2**17 + 5, 2**16 + 1) == 2

    @pytest.mark.parametrize("base", [2, 3, 5, 7, 10, 255, 256, 2**16 - 1, 2**16])
    def test_chunk_table_equals_the_digit_loop(self, base):
        size, table, counts = _nz_chunk_table(base)
        expected = [0]
        for c in range(1, size):
            expected.append(expected[c // base] + (c % base != 0))
        assert size <= 2**16 < size * base
        assert size == base ** round(math.log(size, base))
        assert counts == tuple(expected)
        assert table.tolist() == expected
        assert not table.flags.writeable  # one cached array serves every caller


class TestBlockCount:
    def test_examples(self):
        assert block_count(11, 2) == 3  # 1011 -> "1", "0", "11"
        assert block_count(7, 2) == 1
        assert block_count(4097, 2) == 3  # 1, 0*11, 1

    @given(n=st.integers(min_value=1, max_value=2**64), base=st.sampled_from(BASES))
    def test_at_least_one_block(self, n, base):
        assert block_count(n, base) >= 1

    @given(base=st.sampled_from(BASES), d=st.integers(1, 35), width=st.integers(1, 12))
    def test_single_block_iff_constant_string(self, base, d, width):
        if d >= base:
            d = d % (base - 1) + 1
        n = sum(d * base**i for i in range(width))
        assert block_count(n, base) == 1

    def test_multi_block_examples(self):
        assert block_count(0b1010, 2) == 4  # runs 1, 0, 1, 0
        assert block_count(0b1100111, 2) == 3


class TestCondition32:
    def test_examples(self):
        assert condition_3_2(2**1100, 2, 3) is True
        assert condition_3_2(10**6, 2, 3) is False
        # exact boundary: log(2**1024) equals the right side; tie -> False
        assert condition_3_2(2**1024, 2, 3) is False

    @given(
        exp=st.integers(min_value=1, max_value=4000),
        delta=st.integers(min_value=1, max_value=500),
    )
    def test_monotone_in_n(self, exp, delta):
        if condition_3_2(2**exp, 2, 3):
            assert condition_3_2(2**exp + delta, 2, 3)
            assert condition_3_2(2 ** (exp + delta), 2, 3)
