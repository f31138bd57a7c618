import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothdigits import _fastfactor
from smoothdigits.factor import (
    Factorization,
    IncompleteFactorizationError,
    PrimeSet,
    factorize,
    greatest_prime_factor,
    is_prime,
    is_s_unit,
    is_smooth,
    omega,
    p_adic_valuation,
    primes_up_to,
    radical,
    s_part,
    smallest_prime_factor,
)


def oracle_pairs(n):
    """Plain trial division, used as the independent reference."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


class TestPrimality:
    def test_small(self):
        known = set(primes_up_to(2000))
        for n in range(2000):
            assert is_prime(n) == (n in known)

    def test_large_prime_and_carmichael(self):
        assert is_prime(2**89 - 1)  # Mersenne prime
        assert not is_prime(561)  # Carmichael
        assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


class TestFactorize:
    def test_examples(self):
        assert factorize(720).pairs == ((2, 4), (3, 2), (5, 1))
        assert factorize(4097).pairs == ((17, 1), (241, 1))
        assert factorize(1).pairs == ()
        assert factorize(1).complete

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_matches_oracle_window(self):
        for n in range(1, 20000):
            assert factorize(n).pairs == tuple(oracle_pairs(n))

    def test_big_semiprime(self):
        p, q = 1000000007, 999999937
        fact = factorize(p * q * 4)
        assert fact.complete
        assert fact.pairs == ((2, 2), (999999937, 1), (1000000007, 1))

    def test_perfect_power(self):
        p = 2**61 - 1
        fact = factorize(p * p)
        assert fact.pairs == ((p, 2),)

    def test_budget_exhaustion_is_honest(self):
        # two 128-bit primes: far beyond any tiny rho budget
        p = 2**127 - 1
        q = 170141183460469231731687303715884105757  # prime near 2**127
        n = p * q
        fact = factorize(n, budget=50)
        assert not fact.complete
        assert fact.reconstruct() == n
        with pytest.raises(IncompleteFactorizationError):
            fact.require_complete()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=2**96))
    def test_reconstruction(self, n):
        fact = factorize(n, budget=2000)
        assert fact.reconstruct() == n

    def test_type_invariants_enforced(self):
        with pytest.raises(ValueError):
            Factorization(n=12, pairs=((4, 1), (3, 1)))  # 4 not prime
        with pytest.raises(ValueError):
            Factorization(n=12, pairs=((3, 1), (2, 2)))  # order
        with pytest.raises(ValueError):
            Factorization(n=10, pairs=((2, 1),))  # product mismatch
        with pytest.raises(ValueError):
            Factorization(n=14, pairs=((2, 1),), cofactor=7)  # prime cofactor
        # composite cofactor is a legitimate partial state
        partial = Factorization(n=30, pairs=((2, 1),), cofactor=15)
        assert not partial.complete


class TestFactorSmall:
    """The machine-word core against sympy as an independent oracle."""

    EDGE_CASES = [
        2**31 - 1,  # largest n accepted, a Mersenne prime
        46337**2,  # square of the largest prime below sqrt(2**31)
        65521 * 32749,  # largest primes below 2**16 and 2**15
        65521,  # largest prime below 2**16
        2,
        2**16 - 1,
        2**16,
        2**16 + 1,
        2**30,
        2**31 - 2,
    ]

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(0x5A11)
        ns = [rng.randrange(2, 1 << 31) for _ in range(2000)]
        ns += [rng.randrange(2, 1 << rng.randrange(2, 32)) for _ in range(2000)]
        for n in ns + self.EDGE_CASES:
            assert _fastfactor.factor_small(n) == sorted(sympy.factorint(n).items()), n

    def test_one_and_range(self):
        assert _fastfactor.factor_small(1) == []
        for bad in (0, -5, _fastfactor.FAST_LIMIT):
            with pytest.raises(ValueError):
                _fastfactor.factor_small(bad)

    def test_stats_range_small(self):
        gpf, omg, rad = _fastfactor.factor_stats_range(12)
        assert gpf[1:].tolist() == [1, 2, 3, 2, 5, 3, 7, 2, 3, 5, 11, 3]
        assert omg[1:].tolist() == [0, 1, 1, 1, 1, 2, 1, 1, 1, 2, 1, 2]
        assert rad[1:].tolist() == [1, 2, 3, 2, 5, 6, 7, 2, 3, 10, 11, 6]
        with pytest.raises(ValueError):
            _fastfactor.factor_stats_range(0)


class TestDerivedQuantities:
    def test_greatest_prime_factor(self):
        assert greatest_prime_factor(1) == 1
        assert greatest_prime_factor(33) == 11
        assert greatest_prime_factor(4097) == 241

    def test_omega(self):
        assert omega(12) == 2
        assert omega(1) == 0
        assert omega(720) == 3

    def test_radical(self):
        assert radical(720) == 30
        assert radical(8) == 2
        assert radical(4097) == 4097

    def test_incomplete_signalled(self):
        p = 2**127 - 1
        q = 170141183460469231731687303715884105757
        with pytest.raises(IncompleteFactorizationError):
            greatest_prime_factor(p * q, budget=10)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=2, max_value=10**6))
    def test_smoothness_boundary(self, n):
        p_max = greatest_prime_factor(n)
        assert is_smooth(n, p_max)
        if n > 1:
            assert not is_smooth(n, p_max - 1)


class TestSPart:
    def test_examples(self):
        assert s_part(720, PrimeSet((2, 3))) == 144
        assert s_part(7, PrimeSet((2, 3))) == 1
        assert s_part(720, PrimeSet((2, 3, 5))) == 720

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=10**9))
    def test_divides_and_complement_coprime(self, n):
        s = PrimeSet((2, 3, 7))
        part = s_part(n, s)
        assert n % part == 0
        rest = n // part
        for q in s:
            assert rest % q != 0


class TestSmooth:
    def test_examples(self):
        assert is_smooth(1, 2)
        assert is_smooth(4097, 241)
        assert not is_smooth(4097, 240)

    def test_s_unit(self):
        assert is_s_unit(144, PrimeSet((2, 3)))
        assert not is_s_unit(145, PrimeSet((2, 3)))
        assert is_s_unit(1, PrimeSet((17,)))


class TestPadicValuation:
    def test_examples(self):
        assert p_adic_valuation(Fraction(45, 7), 3) == 2
        assert p_adic_valuation(Fraction(1, 8), 2) == -3
        assert p_adic_valuation(1088, 2) == 6

    def test_rejects_zero_and_composite_p(self):
        with pytest.raises(ValueError):
            p_adic_valuation(0, 2)
        with pytest.raises(ValueError):
            p_adic_valuation(5, 4)

    @given(
        a=st.fractions(
            min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=997
        ),
        b=st.fractions(
            min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=997
        ),
        p=st.sampled_from([2, 3, 5, 7]),
    )
    def test_valuation_algebra(self, a, b, p):
        if a == 0 or b == 0:
            return
        assert p_adic_valuation(a * b, p) == p_adic_valuation(a, p) + p_adic_valuation(b, p)
        if a + b != 0:
            assert p_adic_valuation(a + b, p) >= min(
                p_adic_valuation(a, p), p_adic_valuation(b, p)
            )


class TestSmallestPrimeFactor:
    def test_examples(self):
        assert smallest_prime_factor(2) == 2
        assert smallest_prime_factor(15) == 3
        assert smallest_prime_factor(91) == 7
        assert smallest_prime_factor(97) == 97


class TestTrialDivision:
    """is_smooth and smallest_prime_factor walk one trial-divisor order: the
    primes below 1000, then odd numbers.  Both against sympy."""

    NUMBERS = st.one_of(
        st.integers(min_value=1, max_value=2**40 - 1),
        st.lists(st.sampled_from([2, 3, 997, 1009, 1013, 65537, 999983]), max_size=3)
        .map(math.prod)
        .filter(lambda n: n < 2**40),
    )
    BOUNDS = st.one_of(
        st.sampled_from([0, 1, 1.5, 2, 996.5, 997, 998, 1008, 1009, 1009.5, 1013, math.inf]),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=2.0, max_value=1e7),
        st.integers(min_value=1000, max_value=10**7),
    )

    @settings(max_examples=300, deadline=None)
    @given(n=NUMBERS, bound=BOUNDS)
    def test_is_smooth_matches_sympy(self, n, bound):
        sympy = pytest.importorskip("sympy")
        assert is_smooth(n, bound) == (n == 1 or max(sympy.factorint(n)) <= bound)

    @settings(max_examples=300, deadline=None)
    @given(b=NUMBERS.filter(lambda n: n >= 2))
    def test_smallest_prime_factor_matches_sympy(self, b):
        sympy = pytest.importorskip("sympy")
        assert smallest_prime_factor(b) == min(sympy.factorint(b))


class TestPrimeSet:
    def test_validates(self):
        with pytest.raises(ValueError):
            PrimeSet((4,))
        with pytest.raises(ValueError):
            PrimeSet((3, 2))
        with pytest.raises(ValueError):
            PrimeSet(())
        assert PrimeSet((2, 3, 5)).largest == 5
