import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothdigits import _fastfactor, factor
from smoothdigits.factor import (
    Factorization,
    _brent_rho,
    _rho_power,
    IncompleteFactorizationError,
    PrimeSet,
    cyclotomic_value,
    factorize,
    greatest_prime_factor,
    is_prime,
    is_s_unit,
    is_smooth,
    mobius,
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

    def test_rho_budget_is_exact(self):
        # The budget used to be checked once per doubling round: this rho
        # gave up after 8191 iterations.
        d, used = _brent_rho((2**89 - 1) * (2**61 - 1), 5000)
        assert d is None
        assert used <= 5000

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=2**40, max_value=2**96).filter(lambda n: not is_prime(n)),
        budget=st.integers(min_value=0, max_value=3000),
        power=st.just(2) | st.integers(min_value=16, max_value=400).map(lambda h: 2 * h),
    )
    def test_rho_never_exceeds_budget(self, n, budget, power):
        d, used = _brent_rho(n, budget, power)
        assert used <= budget
        if d is not None:
            assert 1 < d < n and n % d == 0

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


class TestAlgebraicSplit:
    """x**m +- 1 is cut into cyclotomic (and for 2**(4k+2) + 1 Aurifeuillian)
    parts before rho; sympy is the independent oracle."""

    @settings(max_examples=150, deadline=None)
    @given(
        x=st.integers(min_value=2, max_value=12),
        m=st.integers(min_value=1, max_value=80),
        s=st.sampled_from([1, -1]),
    )
    def test_matches_sympy(self, x, m, s):
        sympy = pytest.importorskip("sympy")
        n = x**m + s
        fact = factorize(n, budget=20_000)
        assert fact.reconstruct() == n
        if fact.complete:
            # Primes that multiply out to n are sympy.factorint(n), by unique
            # factorization; factorint itself takes up to a minute on these
            # values (4**79 + 1), so it is called directly below 2**64 only.
            assert all(sympy.isprime(p) for p in fact.prime_factors)
            if n < 2**64:
                assert list(fact.pairs) == sorted(sympy.factorint(n).items())
        else:
            assert fact.cofactor > 1 and not sympy.isprime(fact.cofactor)

    @pytest.mark.parametrize("m", [110, 122, 129, 138, 142, 146])
    def test_two_digit_values_complete(self, m):
        # Partial at this budget without the algebraic split.
        assert factorize(2**m + 1).complete

    @pytest.mark.parametrize("m", [103, 144])
    def test_power_map_completes(self, m):
        # Partial at this budget with y**2 + c on every cofactor.
        assert factorize(2**m + 1).complete

    def test_rho_power_follows_the_form(self, monkeypatch):
        powers = []

        def spy(n, max_iter, power=2):
            powers.append(power)
            return _brent_rho(n, max_iter, power)

        monkeypatch.setattr(factor, "_brent_rho", spy)
        fact = factorize(2**70 + 2**33 + 1)
        assert fact.reconstruct() == 2**70 + 2**33 + 1
        assert powers and set(powers) == {2}
        powers.clear()
        # The rho cofactors of 2**103 + 1 are in Phi_206(2).
        factorize(2**103 + 1)
        assert powers and set(powers) == {206}

    def test_rho_power_rule(self):
        # k = lcm(2, e) where sqrt(k - 1) > k.bit_length() - 1, else 2.
        assert [_rho_power(e) for e in (1, 2, 4, 5, 8, 10, 16)] == [2] * 7
        assert [_rho_power(e) for e in (3, 6, 7, 9, 32, 206)] == [6, 6, 14, 18, 32, 206]

    @pytest.mark.parametrize("x", [2, 3, 10])
    @pytest.mark.parametrize("s", [1, -1])
    def test_complete_factorizations_are_prime(self, x, s):
        sympy = pytest.importorskip("sympy")
        for m in range(1, 151):
            n = x**m + s
            fact = factorize(n, budget=20_000)
            assert fact.reconstruct() == n
            if fact.complete:
                assert all(sympy.isprime(p) for p in fact.prime_factors), (x, m, s)

    def test_cyclotomic_and_aurifeuillian_identities(self):
        sympy = pytest.importorskip("sympy")
        for k in range(41):
            m = 4 * k + 2
            divisors = sympy.divisors(2 * m)
            for e in divisors:
                assert mobius(e) == sympy.mobius(e)
                assert cyclotomic_value(e, 2) == sympy.cyclotomic_poly(e, 2)
            parts = [cyclotomic_value(e, 2) for e in divisors if m % e]
            assert math.prod(parts) == 2**m + 1
            low = 2 ** (2 * k + 1) - 2 ** (k + 1) + 1
            high = 2 ** (2 * k + 1) + 2 ** (k + 1) + 1
            assert low * high == 2**m + 1
            assert math.gcd(low, high) == 1


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

    def test_no_prime_factor_below_1000(self):
        # the least prime comes from factorize, and a base that factorize
        # leaves partial (two primes near 2^50 outlast the default rho
        # budget) is an error; trial division to sqrt(b) would take 1e9
        # steps or more, hence a process of its own with a time limit
        code = (
            "from smoothdigits.factor import IncompleteFactorizationError, "
            "smallest_prime_factor as spf\n"
            "print(spf(2**61 - 1), spf((2**61 - 1) * (2**31 - 1)))\n"
            "try:\n"
            "    spf(1125899906842679 * 2251799813685269)\n"
            "except IncompleteFactorizationError:\n"
            "    print('partial')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=30
        )
        assert proc.stdout.split() == [str(2**61 - 1), str(2**31 - 1), "partial"]


class TestTrialDivision:
    """is_smooth walks one trial-divisor order: the primes below 1000, then
    odd numbers.  It and smallest_prime_factor, the least prime of
    factorize, are checked against sympy on the same numbers."""

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
