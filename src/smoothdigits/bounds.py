"""Explicit linear-form bound evaluation, proof-inequality tracing, and the
threshold functions for sparse-digit integers.

Conventions used throughout:

* Certified direction.  Lower bounds are rounded toward -inf and upper
  bounds toward +inf: every floating-point factor is nudged outward a few
  ulps after each operation, so returned values are safe to compare against
  exactly computed quantities.

* Partiality.  Threshold expressions built from iterated logarithms are
  defined only where every nested logarithm is positive; below that size
  they return None ("not applicable") rather than NaN or infinity.

* No magic constants.  Every derived constant is computed by instantiating
  the two explicit bound formulas (archimedean and p-adic) with the concrete
  rationals, heights and exponent bounds arising at the corresponding proof
  step; nothing is hard-coded from the literature.
"""

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .digits import DigitExpansion, condition_3_2, decompose
from .factor import (
    Factorization,
    PrimeSet,
    _as_prime_set,
    is_prime,
    is_smooth,
    p_adic_valuation,
    smallest_prime_factor,
)

__all__ = [
    "BoundInput",
    "TraceRow",
    "TraceReport",
    "ThresholdParams",
    "Cor14Row",
    "matveev_lower_bound",
    "yu_valuation_bound",
    "ell_select",
    "lemma31_trace",
    "lemma31_nk_bound",
    "thm12_default_constants",
    "thm11_threshold",
    "thm12_gap",
    "psi",
    "thm13_threshold",
    "cor14_check",
    "cor15_threshold",
    "thm41_threshold",
    "remark45_check",
    "log_tower",
]

E = math.e
LOG2 = math.log(2.0)

# Exact product verification is skipped above this many estimated bits; the
# caller must then vouch for the product being != 1.
_PRODUCT_CHECK_BIT_LIMIT = 1 << 22


# ---------------------------------------------------------------------------
# directed rounding helpers


def _up(x: float, steps: int = 2) -> float:
    for _ in range(steps):
        x = math.nextafter(x, math.inf)
    return x


def _down(x: float, steps: int = 2) -> float:
    for _ in range(steps):
        x = math.nextafter(x, -math.inf)
    return x


def _log_up(x) -> float:
    return _up(math.log(x))


def _float_at_least(n) -> float:
    """Smallest convenient float >= n for an arbitrary-precision integer."""
    f = float(n)
    if f < n:
        f = math.nextafter(f, math.inf)
    return f


def _height(x) -> float:
    """Height of the positive integer x: a float >= max(x, e)."""
    return max(_float_at_least(x), E)


def _prod_up(factors) -> float:
    out = 1.0
    for f in factors:
        out = _up(out * f, 1)
    return out


# ---------------------------------------------------------------------------
# iterated logarithms


def log_tower(x, depth: int):
    """(log x, log log x, ...) up to `depth` levels, or None if any level
    is <= 0 (the next log would leave the domain) -- including the last."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError("x must be finite")
    if x <= 0:
        return None
    levels = []
    v = math.log(x)
    levels.append(v)
    for _ in range(depth - 1):
        if v <= 0:
            return None
        v = math.log(v)
        levels.append(v)
    if levels[-1] <= 0:
        return None
    return tuple(levels)


# ---------------------------------------------------------------------------
# bound inputs and the two explicit estimates


@dataclass(frozen=True)
class BoundInput:
    """Data for the explicit linear-form estimates: rationals x_i/y_i raised
    to integer exponents b_i, with heights A_i and exponent bound B.

    Invariants checked at construction:
      * n >= 2 rationals, all nonzero;
      * A_i >= max(|x_i|, |y_i|, e) for each i;
      * B >= max(3, |b_1|, ..., |b_n|);
      * the power product differs from 1 -- verified with exact rational
        arithmetic when the estimated size is feasible, otherwise the caller
        must pass assume_product_nontrivial=True.
    """

    rationals: tuple[Fraction, ...]
    exponents: tuple[int, ...]
    heights: tuple[float, ...]
    exponent_bound: float
    assume_product_nontrivial: bool = field(default=False, compare=False)

    def __post_init__(self):
        n = len(self.rationals)
        if n < 2:
            raise ValueError(f"need at least 2 rationals, got {n}")
        if len(self.exponents) != n or len(self.heights) != n:
            raise ValueError("rationals, exponents and heights must align")
        for z in self.rationals:
            if z == 0:
                raise ValueError("rationals must be nonzero")
        for z, a in zip(self.rationals, self.heights):
            if not math.isfinite(a):
                raise ValueError("heights must be finite")
            least = max(abs(z.numerator), abs(z.denominator))
            if a < least or a < E:
                raise ValueError(
                    f"height {a} below max(|x|, |y|, e) for rational {z}"
                )
        big = max(3.0, *(abs(b) for b in self.exponents))
        if self.exponent_bound < big:
            raise ValueError(
                f"exponent bound {self.exponent_bound} below required {big}"
            )
        if not self.assume_product_nontrivial:
            bits = sum(
                abs(b)
                * max(
                    z.numerator.bit_length(), z.denominator.bit_length()
                )
                for z, b in zip(self.rationals, self.exponents)
            )
            if bits > _PRODUCT_CHECK_BIT_LIMIT:
                raise ValueError(
                    "product too large for exact verification; pass "
                    "assume_product_nontrivial=True if it is known to be != 1"
                )
            if self.power_product() == 1:
                raise ValueError("the power product equals 1")

    @property
    def n(self) -> int:
        return len(self.rationals)

    def power_product(self) -> Fraction:
        out = Fraction(1)
        for z, b in zip(self.rationals, self.exponents):
            out *= z**b
        return out


@functools.cache
def _matveev_head(n: int) -> tuple[float, ...]:
    """Matveev's constant factors 8, 30**(n+3), n**(9/2), rounded up."""
    return (8.0, _up(30.0 ** (n + 3)), _up(float(n) ** 4.5))


@functools.cache
def _yu_head(n: int, p: int) -> tuple[float, ...]:
    """Yu's constant factors (16e)**(2(n+1)), n**(5/2), (log 2n)**2, p/(log p)**2."""
    lp = _down(math.log(p))
    return (
        _up((16.0 * E) ** (2 * (n + 1))),
        _up(float(n) ** 2.5),
        _up(math.log(2.0 * n) ** 2),
        _up(p / (lp * lp)),
    )


def matveev_lower_bound(inp: BoundInput) -> float:
    """Certified lower bound for log |prod (x_i/y_i)^{b_i} - 1|:

        -8 * 30**(n+3) * n**(9/2) * log(e*B) * log A_1 * ... * log A_n,

    rounded so the returned value never exceeds the true logarithm.
    """
    factors = [*_matveev_head(inp.n), _log_up(_up(E * inp.exponent_bound))]
    factors.extend(_log_up(a) for a in inp.heights)
    return -_prod_up(factors)


def yu_valuation_bound(inp: BoundInput, p: int) -> float:
    """Certified upper bound for v_p(prod (x_i/y_i)^{b_i} - 1):

        (16e)**(2(n+1)) * n**(5/2) * (log 2n)**2 * (p/(log p)**2)
            * log A_1 * ... * log A_n * log B,

    rounded so the returned value is never below the true valuation.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    factors = [*_yu_head(inp.n, p), _log_up(inp.exponent_bound)]
    factors.extend(_log_up(a) for a in inp.heights)
    return _prod_up(factors)


# ---------------------------------------------------------------------------
# trace of the two proof branches


@dataclass(frozen=True)
class TraceRow:
    label: str  # one of "3.4", "3.5", "3.7", "3.8"
    lhs: float
    rhs: float
    holds: bool
    note: str = ""


@dataclass(frozen=True)
class TraceReport:
    """Concrete numbers for one integer's proof inequalities.

    branch is "lambda_a" (archimedean form, taken when n_k >= 2*n_{k-1},
    which covers k = 2) or "lambda_u" (p-adic form).  lambda_value is the
    exact rational value of the form; valuation its exact p-adic valuation
    on the p-adic branch.  Row labels follow the inequality numbering of
    the trace contract: 3.4/3.5 on the archimedean branch, 3.7 (one row per
    chain link) and 3.8 on the p-adic branch.
    """

    N: int
    base: int
    branch: str
    k: int
    k_star: int
    ell: Optional[int]
    p: Optional[int]
    lambda_value: Fraction
    valuation: Optional[int]
    size_condition_met: bool
    rows: tuple[TraceRow, ...]

    def row(self, label: str, note: str = "") -> TraceRow:
        for r in self.rows:
            if r.label == label and (not note or r.note == note):
                return r
        raise KeyError(f"no row {label!r} / {note!r}")

    @property
    def expected_rows_hold(self) -> bool:
        """True when every row that is guaranteed by hypothesis holds: all
        of 3.4/3.5/3.8, the first 3.7 link, and the remaining 3.7 links
        whenever the size condition is met."""
        for r in self.rows:
            if r.label == "3.7" and r.note != "link 1" and not self.size_condition_met:
                continue
            if not r.holds:
                return False
        return True


def ell_select(e: DigitExpansion) -> int:
    """Cut index for the p-adic branch: the least j in [1, k-3] with
    n_{1+j} >= n_k**(j/(k-2)), else k-2.  Comparisons are exact (integer
    powers), so boundary cases never suffer float error."""
    k = e.k
    if k < 3:
        raise ValueError(f"need at least 3 nonzero digits, got {k}")
    exps = e.exponents
    n_k = exps[-1]
    for j in range(1, k - 2):  # j <= k-3
        if exps[j] ** (k - 2) >= n_k**j:
            return j
    return k - 2


def _form(pairs, extra_terms, exponent_bound: float) -> BoundInput:
    """The linear form over the primes of N with their exponents, followed
    by the extra (integer, exponent) terms; every height is _height's."""
    terms = tuple(pairs) + tuple(extra_terms)
    return BoundInput(
        rationals=tuple(Fraction(x) for x, _ in terms),
        exponents=tuple(e for _, e in terms),
        heights=tuple(_height(x) for x, _ in terms),
        exponent_bound=exponent_bound,
        assume_product_nontrivial=True,
    )


def lemma31_trace(N: int, base: int, factorization: Factorization) -> TraceReport:
    """Evaluate the proof inequalities for one integer N (not divisible by
    `base`, fully factored, with at least two nonzero digits)."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if N % base == 0:
        raise ValueError(f"{N} is divisible by the base {base}")
    if factorization.n != N:
        raise ValueError("factorization does not belong to N")
    factorization.require_complete()
    expansion = decompose(N, base)
    k = expansion.k
    if k < 2:
        raise ValueError("a single-digit integer has no linear form to trace")
    exps = expansion.exponents
    digs = expansion.digits
    n_k = exps[-1]
    k_star = max(k - 2, 1)
    lb = math.log(base)
    size_ok = condition_3_2(N, base, k)
    pairs = factorization.pairs
    r_max = max(e for _, e in pairs)

    if k == 2 or n_k >= 2 * exps[-2]:
        # archimedean form: (prod q_i^{r_i}) / (d_k b^{n_k}) - 1
        branch, ell, p, v = "lambda_a", None, None, None
        den = digs[-1] * base**n_k
        lam = Fraction(N - den, den)
        log_lam = math.log(lam.numerator) - math.log(lam.denominator)
        rhs34 = -(n_k / 2.0 - 1.0) * lb
        form = _form(pairs, ((digs[-1], -1), (base, -n_k)), float(max(3, n_k, r_max)))
        mat = matveev_lower_bound(form)
        rows = (
            TraceRow("3.4", log_lam, rhs34, log_lam <= rhs34, "upper bound from digit tail"),
            TraceRow("3.5", log_lam, mat, log_lam >= mat, "archimedean lower bound"),
        )
    else:
        # p-adic form: split the expansion at ell
        branch = "lambda_u"
        ell = ell_select(expansion)
        p = smallest_prime_factor(base)
        t_low = sum(d * base**e for e, d in expansion.terms[:ell])
        lam = Fraction(N - t_low, t_low)
        v = p_adic_valuation(lam, p)
        n_ell = exps[ell - 1]
        n_ell1 = exps[ell]
        exponent = ell / (k - 2)
        links = (
            n_ell1 - (1 + n_ell) * lb / math.log(p),
            0.5 * n_k**exponent - (1 + n_k ** ((ell - 1) / (k - 2))) * lb / LOG2,
            0.5 * n_k**exponent - 2 * n_k**exponent * lb / (n_k ** (1 / (k - 2)) * LOG2),
            0.25 * n_k**exponent,
        )
        yu = yu_valuation_bound(_form(pairs, ((t_low, -1),), float(max(3, r_max))), p)
        rows = tuple(
            TraceRow("3.7", float(v), rhs, v >= rhs, f"link {i}")
            for i, rhs in enumerate(links, start=1)
        ) + (TraceRow("3.8", float(v), yu, v < yu, "p-adic upper bound"),)
    return TraceReport(
        N=N, base=base, branch=branch, k=k, k_star=k_star, ell=ell, p=p,
        lambda_value=lam, valuation=v, size_condition_met=size_ok, rows=rows,
    )


# ---------------------------------------------------------------------------
# solved top-exponent bound


def _sup_crossing(g, x0: float = 8.0) -> float:
    """sup{x >= x0 : x <= g(x)} for g that grows slower than x, returned
    from the safe (upper) side."""
    x = x0
    while x <= g(x):
        x *= 2.0
        if x > 1e300:
            raise OverflowError("crossing point exceeds float range")
    lo, hi = x / 2.0, x
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid <= g(mid):
            lo = mid
        else:
            hi = mid
    return _up(hi, 4)


def lemma31_nk_bound(base: int, k: int, prime_set) -> float:
    """Explicit upper bound for the top exponent n_k of a base-`base`
    integer with k nonzero digits whose prime support lies in prime_set,
    valid under the size condition.

    Both proof branches are instantiated with their concrete heights (the
    archimedean form over the s+2 rationals q_1..q_s, top digit, base; the
    p-adic form over the s+1 rationals q_1..q_s and the low digit block,
    at the smallest prime divisor of the base), each branch is solved for
    its crossing point, and the larger value is raised to the k* power.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    qs = _as_prime_set(prime_set).primes
    s = len(qs)
    lb = math.log(base)
    prime_logs = [_log_up(_height(q)) for q in qs]

    # archimedean branch: n = s + 2
    n_a = s + 2
    prefactor_a = _prod_up(
        [
            *_matveev_head(n_a),
            *prime_logs,
            _log_up(_height(base - 1)),
            _log_up(_height(base)),
        ]
    )
    # exponents are at most (x+1)*log b / log 2 <= x * (2 log b / log 2)
    shift_a = math.log(2.0 * E * lb / LOG2)

    def g_arch(x):
        big = max(math.log(3.0 * E), math.log(x) + shift_a)
        return 2.0 + (2.0 * prefactor_a / lb) * big

    x_arch = _sup_crossing(g_arch)
    if k == 2:
        return x_arch

    # p-adic branch: n = s + 1, height of the low block <= 2 log b per unit
    # of the extracted n_k power
    p = smallest_prime_factor(base)
    n_u = s + 1
    prefactor_u = _prod_up([*_yu_head(n_u, p), *prime_logs, _up(2.0 * lb)])
    shift_u = math.log(2.0 * lb / LOG2)

    def g_padic(t):
        big = max(math.log(3.0), (k - 2) * math.log(t) + shift_u)
        return 4.0 * prefactor_u * big

    t_padic = _sup_crossing(g_padic)
    return _up(max(x_arch, t_padic) ** (k - 2), 4)


def thm12_default_constants(base: int) -> tuple[float, float]:
    """Default (c, C) pair for the digit-count gap inequality.

    C caps the logarithmic growth of the instantiated bounds per additional
    prime: the archimedean radix 30 with its power-term step and the height
    floor 1/log 2, against the p-adic radix (16e)^2 with its own steps; the
    larger of the two plus folded solve-growth slack.  c is the logarithm of
    the solved top-exponent bound at the smallest instantiation (single
    prime 2, three digits), plus the terms absorbed when passing from the
    top exponent to log log N.  Both are generous by construction and never
    tuned to data.
    """
    c_arch = math.log(30.0) + 4.5 * math.log(1.5) - math.log(LOG2)
    c_padic = (
        2.0 * math.log(16.0 * E)
        + 2.5 * math.log(1.5)
        + 2.0 * math.log(math.log(6.0) / math.log(4.0))
        - math.log(LOG2)
    )
    growth = max(c_arch, c_padic) + LOG2 + 0.5
    ref = lemma31_nk_bound(base, 3, PrimeSet((2,)))
    offset = math.log(ref) + LOG2 + max(math.log(math.log(base)), 0.0) + 1.0
    return offset, growth


# ---------------------------------------------------------------------------
# thresholds


@dataclass(frozen=True)
class ThresholdParams:
    """Constants of the thm12 gap inequality: c_thm12 and C_thm12 (see
    thm12_default_constants)."""

    c_thm12: Optional[float] = None
    C_thm12: Optional[float] = None


def _tower_threshold(u, share: float, eps: float) -> Optional[float]:
    """(share - eps) * loglog u * (logloglog u / loglogloglog u), or None
    where an iterated logarithm is not positive."""
    if eps < 0:
        raise ValueError("eps must be >= 0")
    tower = log_tower(u, 4)
    if tower is None:
        return None
    _, l2, l3, l4 = tower
    return (share - eps) * l2 * (l3 / l4)


def thm11_threshold(u, k: int, eps: float = 0.0) -> Optional[float]:
    """The iterated-log threshold with share 1/(k-2) (see _tower_threshold)."""
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    return _tower_threshold(u, 1.0 / (k - 2), eps)


def thm12_gap(n: int, k: int, P: int, w: int, params: ThresholdParams) -> float:
    """Right side minus left side of the digit-count inequality

        loglog(n)/k <= c + log k + w*(C + loglog P) + loglog(k log P);

    nonnegative means the inequality holds for the supplied constants.
    P below 3 is lifted to 3 so the doubly iterated logarithm exists."""
    if n < 16:
        raise ValueError("need n >= 16 so that loglog n is positive")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if P < 2:
        raise ValueError(f"P must be >= 2, got {P}")
    if w < 0:
        raise ValueError("w must be >= 0")
    if params.c_thm12 is None or params.C_thm12 is None:
        raise ValueError(
            "params must carry c_thm12 and C_thm12; see thm12_default_constants"
        )
    p_guard = max(P, 3)
    loglog_p = math.log(math.log(p_guard))
    lhs = math.log(math.log(n)) / k
    rhs = (
        params.c_thm12
        + math.log(k)
        + w * (params.C_thm12 + loglog_p)
        + math.log(math.log(k * math.log(p_guard)))
    )
    return rhs - lhs


def psi(u, f_value: float) -> float:
    """loglog u / f_value for u >= 3."""
    if u < 3:
        raise ValueError(f"u must be >= 3, got {u}")
    if f_value <= 0:
        raise ValueError("f_value must be positive")
    return math.log(math.log(u)) / f_value


def thm13_threshold(
    u, f_value: float, delta0: float, eps: float = 0.0
) -> Optional[float]:
    """(delta0 - eps) * Psi * (log Psi / loglog Psi) with
    Psi = loglog(u)/f_value; None when Psi <= e (loglog Psi would not be
    positive).  A nonpositive result (eps >= delta0) is returned as-is:
    the threshold degenerates but stays well defined."""
    value = psi(u, f_value)
    if value <= E:
        return None
    lp = math.log(value)
    return (delta0 - eps) * value * (lp / math.log(lp))


@dataclass(frozen=True)
class Cor14Row:
    """One smoothness-versus-digits assertion: if n is smooth_bound-smooth
    then it must carry at least digit_bound nonzero digits."""

    smooth_bound: Optional[float]
    digit_bound: Optional[float]
    applicable: bool
    violated: Optional[bool]


def cor14_check(n: int, nz: int) -> tuple[Cor14Row, Cor14Row, Cor14Row]:
    """Evaluate the three smoothness/digit-count assertions for n with nz
    nonzero digits.  Rows whose iterated logarithms are not positive are
    marked not applicable.  `violated` means: n is that row's smooth-bound
    smooth AND has fewer than the required digits."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if nz < 1:
        raise ValueError("nz must be >= 1")

    def row(smooth_bound, digit_bound):
        if smooth_bound is None or digit_bound is None:
            return Cor14Row(None, None, False, None)
        violated = bool(is_smooth(n, smooth_bound) and nz < digit_bound)
        return Cor14Row(smooth_bound, digit_bound, True, violated)

    tower4 = log_tower(n, 4)
    tower5 = log_tower(n, 5)
    if tower4 is None:
        r1 = row(None, None)
        r2 = row(None, None)
    else:
        _, l2, l3, l4 = tower4
        r1 = row(l2 / (2.0 * l4), l3)
        root = math.sqrt(l2 * l3 / l4)
        r2 = row(root, root / 3.0)
    if tower5 is None:
        r3 = row(None, None)
    else:
        _, l2, l3, l4, l5 = tower5
        r3 = row(0.5 * l3 * (l4 / l5), l2 / (2.0 * l3))
    return r1, r2, r3


def cor15_threshold(n, eps: float = 0.0) -> Optional[float]:
    """(1 - eps) * loglog n / logloglog n, or None below applicability."""
    if eps < 0:
        raise ValueError("eps must be >= 0")
    tower = log_tower(n, 3)
    if tower is None:
        return None
    _, l2, l3 = tower
    return (1.0 - eps) * l2 / l3


def thm41_threshold(v, k: int, eps: float = 0.0) -> Optional[float]:
    """The iterated-log threshold with share 1/(k-1) for the power-sum
    sequence (see _tower_threshold)."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return _tower_threshold(v, 1.0 / (k - 1), eps)


def remark45_check(N: int, P: int, c: float) -> Optional[bool]:
    """True iff log P <= c * log N / logloglog N; None below applicability
    (the triple logarithm must be positive)."""
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    if c <= 0:
        raise ValueError("c must be positive")
    tower = log_tower(N, 3)
    if tower is None:
        return None
    l1, _, l3 = tower
    return math.log(P) <= c * l1 / l3
