import itertools
import math
import sys
import time

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

# Bases of every limb kind: bit counting (2), chunk tables (up to 2**16),
# one digit per limb in uint32 or int64, and Python-int limbs above 2**63.
CONVERSION_BASES = [2, 3, 10, 2**16 - 1, 2**16, 2**16 + 1, 10**12, 2**61 - 1, 2**64 + 13]


def digit_loop(n, base):
    """The digits of n, lowest first, one divmod at a time: the reference
    the conversion through _to_limbs must agree with."""
    digits = []
    while n:
        n, d = divmod(n, base)
        digits.append(d)
    return digits


def assert_conversions_match_the_loop(n, base):
    digits = digit_loop(n, base)
    assert nz_count(n, base) == len(digits) - digits.count(0)
    assert decompose(n, base).terms == tuple((e, d) for e, d in enumerate(digits) if d)
    assert block_count(n, base) == sum(1 for _ in itertools.groupby(digits))


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


@st.composite
def digit_runs(draw):
    """(n, base) with n drawn as runs of equal digits, up to 721 digits:
    long runs of zeros leave whole halves of a split empty, and the lengths
    cross the 32-limb leaves of _to_limbs and the splits above them."""
    base = draw(st.sampled_from(CONVERSION_BASES))
    digit = st.one_of(st.just(0), st.just(base - 1), st.integers(0, base - 1))
    runs = draw(st.lists(st.tuples(digit, st.integers(1, 60)), min_size=1, max_size=12))
    n = draw(st.integers(1, base - 1))  # the top digit
    for d, length in reversed(runs):
        n = n * base**length + d * (base**length - 1) // (base - 1)
    return n, base


class TestConversion:
    @settings(max_examples=100, deadline=None)
    @given(digit_runs())
    def test_matches_the_digit_loop(self, case):
        assert_conversions_match_the_loop(*case)

    @pytest.mark.parametrize("base", CONVERSION_BASES)
    def test_leaf_edges(self, base):
        # A leaf of _to_limbs holds 32 limbs: 32 digits for decompose and
        # block_count, and 32 chunks (w digits each) for nz_count.
        w = round(math.log(_nz_chunk_table(base)[0], base)) if base <= 2**16 else 1
        for limbs in (32, 64, 128):
            for e in {limbs, limbs * w}:
                for n in (base**e - 1, base**e, base**e + 1, base ** (e - 1) * (base - 1)):
                    assert_conversions_match_the_loop(n, base)

    @pytest.mark.parametrize("base", [3, 10, 2**16 - 1, 2**16])
    def test_counts_past_255(self, base):
        # table counts are uint8; their sum must not wrap at 256
        assert nz_count(base**300 - 1, base) == 300
        assert nz_count((base**600 - 1) // (base + 1), base) == 300

    def test_million_bit_input(self):
        # 3**630000 + 1 has 998 527 bits.  One divmod per digit is quadratic
        # in the length: nz_count in base 10 took about 10 s, and decompose
        # in base 2 would take about 2 min.  The four conversions take about
        # 5 s on 2 shared cores; the bound leaves 3x.
        n = 3**630000 + 1
        t0 = time.perf_counter()
        binary = decompose(n, 2)
        hex_count, hex_blocks = nz_count(n, 16), block_count(n, 16)
        decimal_count = nz_count(n, 10)
        elapsed = time.perf_counter() - t0
        bits = bin(n)[:1:-1]
        assert binary.exponents == tuple(e for e, c in enumerate(bits) if c == "1")
        assert set(binary.digits) == {1}
        hex_digits = hex(n)[2:]
        assert hex_count == len(hex_digits) - hex_digits.count("0")
        assert hex_blocks == sum(1 for _ in itertools.groupby(hex_digits))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            decimal = str(n)
        finally:
            sys.set_int_max_str_digits(limit)
        assert decimal_count == len(decimal) - decimal.count("0")
        assert elapsed < 15.0, f"took {elapsed:.1f}s"


class TestNzCount:
    def test_examples(self):
        assert nz_count(1024, 2) == 1
        assert nz_count(4097, 2) == 2
        assert nz_count(105, 10) == 2
        assert nz_count(2**16 * 3 + 1, 2**16) == 2
        assert nz_count(2**17 + 5, 2**16 + 1) == 2

    @pytest.mark.parametrize("base", [2, 3, 5, 7, 10, 255, 256, 2**16 - 1, 2**16])
    def test_chunk_table_equals_the_digit_loop(self, base):
        size, table = _nz_chunk_table(base)
        expected = [0]
        for c in range(1, size):
            expected.append(expected[c // base] + (c % base != 0))
        assert size <= 2**16 < size * base
        assert size == base ** round(math.log(size, base))
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
