import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothdigits.bounds import (
    BoundInput,
    ThresholdParams,
    cor14_check,
    cor15_threshold,
    ell_select,
    lemma31_nk_bound,
    lemma31_trace,
    log_tower,
    matveev_lower_bound,
    psi,
    remark45_check,
    thm11_threshold,
    thm12_default_constants,
    thm12_gap,
    thm13_threshold,
    thm41_threshold,
    yu_valuation_bound,
)
from smoothdigits.digits import DigitExpansion, decompose
from smoothdigits.factor import PrimeSet, factorize, p_adic_valuation

E = math.e


def simple_input(**overrides):
    kwargs = dict(
        rationals=(Fraction(2), Fraction(3)),
        exponents=(1, 1),
        heights=(E, 3.0),
        exponent_bound=3.0,
    )
    kwargs.update(overrides)
    return BoundInput(**kwargs)


class TestBoundInput:
    def test_valid(self):
        inp = simple_input()
        assert inp.n == 2
        assert inp.power_product() == 6

    def test_rejects_short_list(self):
        with pytest.raises(ValueError):
            BoundInput(
                rationals=(Fraction(2),),
                exponents=(1,),
                heights=(E,),
                exponent_bound=3.0,
            )

    def test_rejects_low_height(self):
        with pytest.raises(ValueError):
            simple_input(heights=(E, 2.0))  # A_2 < 3

    def test_rejects_low_exponent_bound(self):
        with pytest.raises(ValueError):
            simple_input(exponents=(5, 1), exponent_bound=3.0)

    def test_rejects_trivial_product(self):
        with pytest.raises(ValueError):
            BoundInput(
                rationals=(Fraction(2), Fraction(1, 2)),
                exponents=(1, 1),
                heights=(E, E),
                exponent_bound=3.0,
            )

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            simple_input(rationals=(Fraction(0), Fraction(3)))

    def test_huge_product_needs_flag(self):
        with pytest.raises(ValueError):
            BoundInput(
                rationals=(Fraction(2), Fraction(3)),
                exponents=(2**23, 1),
                heights=(E, 3.0),
                exponent_bound=float(2**23),
            )
        BoundInput(
            rationals=(Fraction(2), Fraction(3)),
            exponents=(2**23, 1),
            heights=(E, 3.0),
            exponent_bound=float(2**23),
            assume_product_nontrivial=True,
        )


class TestMatveev:
    # frozen from a 60-digit evaluation of the magnitude formula
    EXPECTED = -10141633344.7562381305

    def test_reference_value(self):
        got = matveev_lower_bound(simple_input())
        assert math.isclose(got, self.EXPECTED, rel_tol=1e-12)
        assert got <= self.EXPECTED  # certified side

    def test_single_rational_rejected_at_construction(self):
        with pytest.raises(ValueError):
            BoundInput(
                rationals=(Fraction(2),),
                exponents=(1,),
                heights=(E,),
                exponent_bound=3.0,
            )

    def test_b_scaling_topology(self):
        base = matveev_lower_bound(simple_input())
        doubled = matveev_lower_bound(
            simple_input(exponent_bound=6.0)
        )
        expected_ratio = math.log(E * 6.0) / math.log(E * 3.0)
        assert math.isclose(doubled / base, expected_ratio, rel_tol=1e-9)

    def test_monotone_in_heights(self):
        low = matveev_lower_bound(simple_input())
        high = matveev_lower_bound(simple_input(heights=(E, 10.0)))
        assert high < low  # more negative


class TestYu:
    EXPECTED = 369692524321.156073906

    def test_reference_value(self):
        got = yu_valuation_bound(simple_input(), 2)
        assert math.isclose(got, self.EXPECTED, rel_tol=1e-12)
        assert got >= self.EXPECTED  # certified side

    def test_p_factor(self):
        assert math.isclose(2 / math.log(2) ** 2, 4.162737962011216, rel_tol=1e-12)
        ratio = yu_valuation_bound(simple_input(), 3) / yu_valuation_bound(
            simple_input(), 2
        )
        expected = (3 / math.log(3) ** 2) / (2 / math.log(2) ** 2)
        assert math.isclose(ratio, expected, rel_tol=1e-9)

    def test_n2_radix(self):
        assert math.isclose((16 * E) ** 6, 6768412009.047, rel_tol=1e-9)

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            yu_valuation_bound(simple_input(), 4)


class TestCertifiedDirection:
    """Bounds must bracket exactly computed small linear forms."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_brackets_exact_forms(self, data):
        rng = data.draw(st.randoms(use_true_random=False))
        while True:
            x1 = rng.randrange(2, 30)
            x2 = rng.randrange(2, 30)
            b1 = rng.choice([i for i in range(-12, 13) if i])
            b2 = rng.choice([i for i in range(-12, 13) if i])
            value = Fraction(x1) ** b1 * Fraction(x2) ** b2
            if value != 1:
                break
        inp = BoundInput(
            rationals=(Fraction(x1), Fraction(x2)),
            exponents=(b1, b2),
            heights=(max(x1, E), max(x2, E)),
            exponent_bound=float(max(3, abs(b1), abs(b2))),
        )
        lam = value - 1
        true_log = math.log(abs(lam.numerator)) - math.log(lam.denominator)
        assert matveev_lower_bound(inp) <= true_log
        for p in (2, 3, 5):
            assert yu_valuation_bound(inp, p) >= p_adic_valuation(lam, p)


class TestEllSelect:
    def test_k3_default(self):
        e = DigitExpansion(2, ((0, 1), (6, 1), (10, 1)))
        assert ell_select(e) == 1

    def test_found_at_one(self):
        e = DigitExpansion(2, ((0, 1), (9, 1), (10, 1), (16, 1)))
        assert ell_select(e) == 1  # 9 >= sqrt(16)

    def test_default_k4(self):
        e = DigitExpansion(2, ((0, 1), (1, 1), (10, 1), (16, 1)))
        assert ell_select(e) == 2  # 1 < sqrt(16)

    def test_rejects_k2(self):
        with pytest.raises(ValueError):
            ell_select(DigitExpansion(2, ((0, 1), (5, 1))))

    @settings(max_examples=200, deadline=None)
    @given(
        exps=st.lists(
            st.integers(min_value=1, max_value=60), min_size=2, max_size=8, unique=True
        )
    )
    def test_both_selection_inequalities(self, exps):
        exps = [0] + sorted(exps)
        k = len(exps)
        if k < 3:
            return
        n_k, n_km1 = exps[-1], exps[-2]
        if n_k >= 2 * n_km1:
            return  # archimedean branch; selection not used
        e = DigitExpansion(2, tuple((x, 1) for x in exps))
        ell = ell_select(e)
        assert 1 <= ell <= k - 2
        # 2*n_{ell+1} >= n_k**(ell/(k-2)), exactly in integers
        assert (2 * exps[ell]) ** (k - 2) >= n_k**ell
        # n_ell <= n_k**((ell-1)/(k-2)), exactly in integers
        assert exps[ell - 1] ** (k - 2) <= n_k ** (ell - 1)


class TestTrace:
    def test_archimedean_example(self):
        n = 2**20 + 2**3 + 1
        rep = lemma31_trace(n, 2, factorize(n))
        assert rep.branch == "lambda_a"
        assert rep.lambda_value == Fraction(9, 2**20)
        row = rep.row("3.4")
        assert math.isclose(row.lhs, -11.665719033862686, rel_tol=1e-12)
        assert math.isclose(row.rhs, -6.238324625039508, rel_tol=1e-12)
        assert row.holds
        assert rep.row("3.5").holds

    def test_p_adic_example(self):
        n = 2**10 + 2**6 + 1
        rep = lemma31_trace(n, 2, factorize(n))
        assert rep.branch == "lambda_u"
        assert rep.ell == 1  # k = 3 forces the default cut
        assert rep.lambda_value == Fraction(1088)
        assert rep.valuation == 6
        link1 = rep.row("3.7", "link 1")
        assert link1.lhs == 6.0 and link1.rhs == 5.0 and link1.holds
        assert rep.row("3.8").holds

    def test_k2_forces_archimedean(self):
        rep = lemma31_trace(3, 2, factorize(3))
        assert rep.branch == "lambda_a"
        assert rep.k == 2

    def test_branch_rule(self):
        # n_k < 2 n_{k-1} selects the p-adic branch
        n = 2**10 + 2**9 + 1
        rep = lemma31_trace(n, 2, factorize(n))
        assert rep.branch == "lambda_u"

    def test_base_above_float_precision(self):
        # 2**60 + 1 is not a float; its height must round up, not down
        base = 2**60 + 1
        rep = lemma31_trace(base + 1, base, factorize(base + 1))
        assert rep.branch == "lambda_a"
        assert rep.lambda_value == Fraction(1, base)
        assert rep.expected_rows_hold

    def test_rejects_single_digit(self):
        with pytest.raises(ValueError):
            lemma31_trace(8, 10, factorize(8))

    def test_rejects_partial_factorization(self):
        from smoothdigits.factor import IncompleteFactorizationError

        p = 2**127 - 1
        q = 170141183460469231731687303715884105757
        n = p * q
        partial = factorize(n, budget=10)
        assert not partial.complete
        with pytest.raises(IncompleteFactorizationError):
            lemma31_trace(n, 2, partial)

    def test_rejects_an_expansion_of_another_integer(self):
        n = 2**10 + 2**6 + 1
        with pytest.raises(ValueError):
            lemma31_trace(n, 2, factorize(n), decompose(n + 2, 2))
        with pytest.raises(ValueError):
            lemma31_trace(n, 2, factorize(n), decompose(n, 3))
        given = lemma31_trace(n, 2, factorize(n), decompose(n, 2))
        assert given == lemma31_trace(n, 2, factorize(n))

    def test_memos_are_bounded(self):
        from smoothdigits import bounds

        for memo in (bounds._term, bounds._log_up, bounds._least_prime):
            assert memo.cache_info().maxsize is not None

    def test_rejects_divisible_by_base(self):
        with pytest.raises(ValueError):
            lemma31_trace(10, 2, factorize(10))

    def test_exact_form_reconstruction(self):
        # archimedean form equals (sum of lower digits)/(top digit * b^n_k)
        for n in (2**20 + 2**3 + 1, 5 * 10**6 + 7, 3**9 + 3**2 + 2):
            base = 10 if n % 10 else 2
            if n % base == 0:
                continue
            rep = lemma31_trace(n, base, factorize(n))
            e = decompose(n, base)
            if rep.branch == "lambda_a":
                den = e.digits[-1] * base ** e.top_exponent
                assert rep.lambda_value == Fraction(n - den, den)


class TestTraceRowGuarantees:
    """Rows whose hypotheses hold must hold on live data: 3.4/3.5 on every
    archimedean instance, 3.8 on every p-adic instance, 3.7 link 1 always,
    the remaining 3.7 links whenever the size condition is met."""

    def test_survey_sweep(self):
        from smoothdigits.sequences import sparse_sequence, take

        for k in (3, 4):
            for n in take(sparse_sequence(2, k), 120):
                if n.bit_length() < 2 or nz_count_local(n) < 2:
                    continue
                rep = lemma31_trace(n, 2, factorize(n))
                if rep.branch == "lambda_a":
                    assert rep.row("3.4").holds, n
                    assert rep.row("3.5").holds, n
                else:
                    assert rep.row("3.7", "link 1").holds, n
                    assert rep.row("3.8").holds, n
                    if rep.size_condition_met:
                        for note in ("link 2", "link 3", "link 4"):
                            assert rep.row("3.7", note).holds, (n, note)
                assert rep.expected_rows_hold, n


def nz_count_local(n):
    return bin(n).count("1")


class TestNkBound:
    def test_monotone_in_prime_set(self):
        small = lemma31_nk_bound(2, 3, PrimeSet((2, 3)))
        large = lemma31_nk_bound(2, 3, PrimeSet((2, 3, 5)))
        assert large >= small

    def test_k2_uses_single_branch(self):
        b = lemma31_nk_bound(2, 2, PrimeSet((3,)))
        assert b > 0
        # k* = 1: no outer power is applied, the bound is the raw crossing
        assert b < lemma31_nk_bound(2, 4, PrimeSet((3,)))

    def test_self_consistency(self):
        n = 2**20 + 2**3 + 1
        fact = factorize(n)
        bound = lemma31_nk_bound(2, 3, PrimeSet(fact.prime_factors))
        assert 20 <= bound

    def test_survey_consistency(self):
        # the solved bound dominates the actual top exponent on live data
        for n in (2**15 + 2**3 + 1, 2**12 + 2**7 + 2**2 + 1, 10**6 + 10**2 + 3):
            base = 2 if n % 2 else 10
            fact = factorize(n)
            e = decompose(n, base)
            bound = lemma31_nk_bound(base, e.k, PrimeSet(fact.prime_factors))
            assert e.top_exponent <= bound


class TestThm11:
    # frozen from a 60-digit evaluation at u = 1e9
    EXPECTED_K3 = 32.4985500897139599

    def test_reference_value(self):
        got = thm11_threshold(10**9, 3, 0.0)
        assert math.isclose(got, self.EXPECTED_K3, rel_tol=1e-12)

    def test_k4_is_half(self):
        assert math.isclose(
            thm11_threshold(10**9, 4, 0.0), self.EXPECTED_K3 / 2, rel_tol=1e-12
        )

    def test_below_applicability(self):
        assert thm11_threshold(10**6, 3, 0.0) is None
        assert thm11_threshold(3814279, 3, 0.0) is None  # just below e^(e^e)

    def test_decreasing_in_k_and_eps(self):
        u = 10**9
        assert thm11_threshold(u, 3, 0.0) > thm11_threshold(u, 4, 0.0)
        assert thm11_threshold(u, 3, 0.0) > thm11_threshold(u, 3, 0.25)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            thm11_threshold(10**9, 2, 0.0)


class TestThm12Gap:
    def test_lhs_magnitude(self):
        # loglog(n)/k for n with log n ~ 710 and k = 3 sits near 2.19
        n = 2**1024 + 2**512 + 1
        lhs = math.log(math.log(n)) / 3
        assert math.isclose(lhs, 2.1889, rel_tol=1e-3)

    def test_k_scaling(self):
        n = 2**1024 + 2**512 + 1
        c, C = thm12_default_constants(2)
        params = ThresholdParams(c_thm12=c, C_thm12=C)
        g3 = thm12_gap(n, 3, 257, 2, params)
        g6 = thm12_gap(n, 6, 257, 2, params)
        lhs3 = math.log(math.log(n)) / 3
        lhs6 = math.log(math.log(n)) / 6
        # the only k-free part of the gap difference is the halved lhs
        assert math.isclose(
            (g6 - g3) - (lhs3 - lhs6), math.log(6) - math.log(3)
            + math.log(math.log(6 * math.log(257)))
            - math.log(math.log(3 * math.log(257))),
            rel_tol=1e-9,
        )

    def test_guard_for_tiny_p(self):
        c, C = thm12_default_constants(2)
        params = ThresholdParams(c_thm12=c, C_thm12=C)
        g = thm12_gap(2**20 + 1, 2, 2, 1, params)  # P = 2 lifted to 3
        assert math.isfinite(g)

    def test_requires_constants(self):
        with pytest.raises(ValueError):
            thm12_gap(10**6, 3, 7, 2, ThresholdParams())

    def test_default_constants_dominate_survey(self):
        from smoothdigits.experiments import sparse_survey

        c, C = thm12_default_constants(2)
        params = ThresholdParams(c_thm12=c, C_thm12=C)
        for rec in sparse_survey(2, 60, k=3):
            if rec.complete and rec.value >= 16:
                gap = thm12_gap(rec.value, rec.nz, rec.P, rec.omega, params)
                assert gap >= 0


class TestPsi:
    def test_cancellation(self):
        u = 10**9
        assert math.isclose(psi(u, math.log(math.log(u))), 1.0, rel_tol=1e-12)

    def test_value_four(self):
        u = math.exp(math.exp(4.0))
        assert math.isclose(psi(u, 2.0), 2.0, rel_tol=1e-9)

    def test_decreasing_in_f(self):
        assert psi(10**9, 1.0) > psi(10**9, 2.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            psi(2, 1.0)
        with pytest.raises(ValueError):
            psi(10, 0.0)


class TestThm13:
    def test_reference_value(self):
        # choose f so that the ratio is exactly e^e: threshold = e^(e+1)
        u = 10**9
        f_value = math.log(math.log(u)) / math.exp(E)
        got = thm13_threshold(u, f_value, delta0=1.0, eps=0.0)
        assert math.isclose(got, math.exp(E + 1), rel_tol=1e-9)

    def test_degenerate_eps(self):
        u = 10**9
        f_value = math.log(math.log(u)) / math.exp(E)
        got = thm13_threshold(u, f_value, delta0=0.5, eps=0.7)
        assert got is not None and got <= 0

    def test_not_applicable_small_ratio(self):
        # ratio <= e: undefined second log
        assert thm13_threshold(10**9, 2.0, delta0=1.0) is None

    def test_increasing_in_ratio(self):
        u = 10**9
        l2 = math.log(math.log(u))
        vals = [
            thm13_threshold(u, l2 / r, delta0=1.0)
            for r in (16.0, 20.0, 30.0)
        ]
        assert vals[0] < vals[1] < vals[2]


class TestCor14:
    def test_small_all_not_applicable(self):
        for n in (2, 100, 10**6):
            rows = cor14_check(n, 2)
            assert all(not r.applicable for r in rows)
            assert all(r.violated is None for r in rows)

    def test_fermat_number(self):
        rows = cor14_check(2**64 + 1, 2)
        assert rows[0].applicable and rows[1].applicable
        assert not rows[2].applicable  # needs a five-fold logarithm
        assert rows[0].violated is False  # P[2^64+1] is enormous
        assert rows[1].violated is False
        assert math.isclose(rows[0].smooth_bound, 6.5971373388827, rel_tol=1e-9)
        assert math.isclose(rows[0].digit_bound, 1.3329911963949, rel_tol=1e-9)
        assert math.isclose(rows[1].smooth_bound, 4.1937873084215, rel_tol=1e-9)

    def test_violation_monotone_in_nz(self):
        n = 2**64 + 1
        rows_low = cor14_check(n, 1)
        rows_high = cor14_check(n, 64)
        for lo, hi in zip(rows_low, rows_high):
            if lo.violated is not None and lo.violated is False:
                assert hi.violated is False

    def test_smooth_case_flags(self):
        # 2^96 is as smooth as it gets; with a single nonzero digit the
        # first assertion is violated (digit bound there is ~1.43)
        n = 2**96
        rows = cor14_check(n, 1)
        assert rows[0].applicable
        assert rows[0].violated is True


class TestCor15:
    EXPECTED = 2.7333803585866454

    def test_reference_value(self):
        assert math.isclose(cor15_threshold(10**9, 0.0), self.EXPECTED, rel_tol=1e-12)

    def test_full_eps(self):
        assert cor15_threshold(10**9, 1.0) == 0.0

    def test_increasing_in_n(self):
        assert cor15_threshold(10**10, 0.0) > cor15_threshold(10**9, 0.0)

    def test_not_applicable(self):
        # needs logloglog n > 0, i.e. n above e^e ~ 15.15
        assert cor15_threshold(15, 0.0) is None
        assert cor15_threshold(10, 0.0) is None
        assert cor15_threshold(16, 0.0) is not None


class TestThm41:
    def test_matches_thm11_shift(self):
        assert math.isclose(
            thm41_threshold(10**9, 2, 0.0),
            thm11_threshold(10**9, 3, 0.0),
            rel_tol=1e-12,
        )

    def test_k3_is_half(self):
        assert math.isclose(
            thm41_threshold(10**9, 3, 0.0),
            thm41_threshold(10**9, 2, 0.0) / 2,
            rel_tol=1e-12,
        )

    def test_large_k_with_eps_negative(self):
        assert thm41_threshold(10**9, 1000, 0.5) < 0

    def test_not_applicable(self):
        assert thm41_threshold(10**6, 2, 0.0) is None


class TestRemark45:
    def test_boundary_value(self):
        # for N = 4097, P = 241: passes iff c >= 0.494984...
        assert remark45_check(4097, 241, 0.4950) is True
        assert remark45_check(4097, 241, 0.4949) is False

    def test_monotone_in_c(self):
        assert remark45_check(4097, 241, 2.0) is True

    def test_tiny_p(self):
        # P = 2: holds for any c above the rearranged floor
        n = 2**64
        floor = math.log(2) * math.log(math.log(math.log(n))) / math.log(n)
        assert remark45_check(n, 2, floor * 1.01) is True

    def test_not_applicable(self):
        assert remark45_check(15, 5, 1.0) is None


class TestLogTower:
    def test_levels(self):
        t = log_tower(10**9, 4)
        assert len(t) == 4
        assert math.isclose(t[0], 9 * math.log(10), rel_tol=1e-12)

    def test_none_on_shallow(self):
        assert log_tower(2, 3) is None
        assert log_tower(1, 1) is None

    @given(st.integers(min_value=1, max_value=10**6))
    def test_never_nan_or_inf(self, n):
        for depth in (1, 2, 3, 4, 5):
            t = log_tower(n, depth)
            if t is not None:
                assert all(math.isfinite(v) for v in t)


# Where loglog, logloglog and loglogloglog turn positive: just above e, e^e
# and e^(e^e).
_EDGE_INTS = [n for c in (3, 16, 3814280) for n in range(c - 2, c + 3)]
_EDGE_FLOATS = [
    x
    for c in (E, math.exp(E), math.exp(math.exp(E)))
    for x in (math.nextafter(c, 0), c, math.nextafter(c, math.inf))
]
# loglog(1e9) / f for these f is e + 1 ulp, e and e - 1 ulp
_PSI_EDGE_F = (1.1151371395152763, 1.1151371395152765, 1.1151371395152767)


def _not_applicable(x, depth):
    return log_tower(x, depth) is None


def _assert_thresholds_follow_log_tower(x, f_value=1.0):
    """Each threshold at x is None exactly where log_tower at its depth
    is None; thm13 also needs loglog of Psi = loglog(x) / f_value."""
    assert (thm11_threshold(x, 3) is None) == _not_applicable(x, 4)
    assert (thm41_threshold(x, 2) is None) == _not_applicable(x, 4)
    assert (cor15_threshold(x) is None) == _not_applicable(x, 3)
    tower = log_tower(x, 2)
    psi_missing = tower is None or _not_applicable(tower[1] / f_value, 2)
    assert (thm13_threshold(x, f_value, 1.0) is None) == psi_missing
    if isinstance(x, int) and x >= 2:
        assert (remark45_check(x, 2, 1.0) is None) == _not_applicable(x, 3)
        rows = cor14_check(x, 1)
        for row, depth in zip(rows, (4, 4, 5)):
            assert (not row.applicable) == _not_applicable(x, depth)
            assert (row.smooth_bound is None) == _not_applicable(x, depth)


class TestApplicability:
    @pytest.mark.parametrize("x", _EDGE_INTS + _EDGE_FLOATS)
    def test_edges(self, x):
        _assert_thresholds_follow_log_tower(x)

    @pytest.mark.parametrize("f_value", _PSI_EDGE_F)
    def test_psi_next_to_e(self, f_value):
        u = 10**9
        psi_value = math.log(math.log(u)) / f_value
        assert abs(psi_value - E) <= math.ulp(E)
        assert thm13_threshold(u, f_value, 1.0) is None
        _assert_thresholds_follow_log_tower(u, f_value)

    @given(st.integers(min_value=1, max_value=10**40))
    def test_ints(self, n):
        _assert_thresholds_follow_log_tower(n)

    @given(
        st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_floats(self, x, f_value):
        _assert_thresholds_follow_log_tower(x, f_value)

    def test_thm13_rejects_negative_eps(self):
        with pytest.raises(ValueError, match="eps"):
            thm13_threshold(1e30, 1.0, 1.0, eps=-0.5)


@given(
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.floats(min_value=1e-3, max_value=1e3), max_size=8),
)
def test_rounding_helpers_step_outward(x, factors):
    # _up and _down move two ulps, _prod_up one ulp after each product:
    # the certified direction of every bound rests on these counts
    def steps(v, n, to):
        for _ in range(n):
            v = math.nextafter(v, to)
        return v

    from smoothdigits import bounds

    assert bounds._up(x) == steps(x, 2, math.inf)
    assert bounds._down(x) == steps(x, 2, -math.inf)
    if x > 0:
        assert bounds._log_up(x) == steps(math.log(x), 2, math.inf)
    product = 1.0
    for f in factors:
        product = steps(product * f, 1, math.inf)
    assert bounds._prod_up(factors) == product
