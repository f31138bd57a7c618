"""Arbitrary-precision factorization and factor-derived arithmetic.

The factoring strategy is algebraic pre-splitting, then trial division by a
fixed table of small primes, then repeated splitting of each composite
cofactor: a first share of Brent rho, Pollard p - 1, ECM on Montgomery
curves, and rho again with whatever is left, all with deterministic
parameters.  An n = x**m - 1 or x**m + 1 (m >= 2) is first cut into its
cyclotomic parts Phi_e(x), and 2**(4k+2) + 1 further into its two
Aurifeuillian factors; each part then takes the same steps as any other
input, except that rho splits a part Phi_e(x) with the map y -> y**k + c,
k = lcm(2, e), which its prime factors make faster (see `_rho_power`).
Primality testing is exact below 2**16 (a table lookup) and Miller-Rabin
above: deterministic below 3.3e24 (the first 13 primes as bases at most),
and with a fixed 25-prime basis above that, so results
are reproducible run to run.  Splitting effort is bounded by an explicit
budget shared by all parts and all methods, counted in modular
multiplications and squarings; a pow(y, e, n) counts as binary
square-and-multiply would.  When it runs out the unsplit composites are
reported honestly as a cofactor instead of being guessed at.
"""

import math
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import count, takewhile
from typing import Optional

from . import _fastfactor
from ._fastfactor import divide_out, primes_up_to

__all__ = [
    "IncompleteFactorizationError",
    "PrimeSet",
    "Factorization",
    "DEFAULT_BUDGET",
    "is_prime",
    "primes_up_to",
    "mobius",
    "cyclotomic_value",
    "factorize",
    "greatest_prime_factor",
    "omega",
    "radical",
    "s_part",
    "is_smooth",
    "is_s_unit",
    "p_adic_valuation",
    "smallest_prime_factor",
]


class IncompleteFactorizationError(RuntimeError):
    """Raised when an operation needs a complete factorization but the
    splitting budget left a composite cofactor."""


# ---------------------------------------------------------------------------
# primality


_SMALL_PRIMES = tuple(primes_up_to(1000))


def _trial_divisors():
    """The primes below 1000, then every odd number after them.  A composite
    candidate never divides: its prime factors, all smaller, are out by then."""
    yield from _SMALL_PRIMES
    yield from count(_SMALL_PRIMES[-1] + 2, 2)


# (limit, bases): Miller-Rabin is deterministic below each limit with the
# given bases, for the n >= 2**16 that reach it.  {2, 7, 61} is Jaeschke's
# (1993) three-base set, good below 4759123141 = 48781 * 97561, its least
# strong pseudoprime.  Every other limit is the least strong pseudoprime to
# all of its bases, the first r primes (OEIS A014233); 3825123056546413051
# fools the first 11 primes and 318665857834031151167461 the first 12, so
# the last two tiers take 12 and 13.
_MR_TIERS = (
    (1_373_653, (2, 3)),
    (4_759_123_141, (2, 7, 61)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3_317_044_064_679_887_385_961_981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)
# Above the last deterministic tier: fixed 25-prime basis (error probability
# below 4**-25 per composite; fixed so that runs stay deterministic).
_MR_FALLBACK_BASES = tuple(primes_up_to(100))


def _miller_rabin(n: int, bases) -> bool:
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The primes up to 37 multiplied: one gcd stands for their trial divisions.
_TRIAL_PRODUCT = math.prod(_SMALL_PRIMES[:12])


def is_prime(n: int) -> bool:
    """Exact below 2**16, where it reads the smallest-prime-factor table,
    and deterministic below 3.3e24 (see _MR_TIERS)."""
    if n < _fastfactor.SMALL_LIMIT:
        return n >= 2 and _fastfactor.SMALL_SPF[n] == n
    if math.gcd(n, _TRIAL_PRODUCT) != 1:
        return False
    for limit, bases in _MR_TIERS:
        if n < limit:
            return _miller_rabin(n, bases)
    return _miller_rabin(n, _MR_FALLBACK_BASES)


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class PrimeSet:
    """Strictly increasing tuple of verified primes."""

    primes: tuple[int, ...]

    def __post_init__(self):
        if not self.primes:
            raise ValueError("prime set must be non-empty")
        prev = 1
        for q in self.primes:
            if q <= prev:
                raise ValueError("primes must be strictly increasing")
            if not is_prime(q):
                raise ValueError(f"{q} is not prime")
            prev = q

    def __iter__(self):
        return iter(self.primes)

    def __contains__(self, p):
        return p in self.primes

    def __len__(self):
        return len(self.primes)

    @property
    def largest(self) -> int:
        return self.primes[-1]


def _as_prime_set(s) -> PrimeSet:
    if isinstance(s, PrimeSet):
        return s
    return PrimeSet(tuple(sorted(set(s))))


@dataclass(frozen=True)
class Factorization:
    """Multiset of (prime, exponent) pairs, plus an optional unsplit cofactor.

    cofactor == 1 means fully factored.  Construction re-certifies every
    reported prime and the product identity, so a Factorization can be
    trusted wherever it came from.
    """

    n: int
    pairs: tuple[tuple[int, int], ...]
    cofactor: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        prod = self.cofactor
        prev = 1
        for p, e in self.pairs:
            if p <= prev:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be >= 1")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prod *= p**e
            prev = p
        if prod != self.n:
            raise ValueError("pairs and cofactor do not reconstruct n")
        if self.cofactor != 1 and is_prime(self.cofactor):
            raise ValueError("a prime cofactor must be recorded as a pair")

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def reconstruct(self) -> int:
        out = self.cofactor
        for p, e in self.pairs:
            out *= p**e
        return out

    @property
    def prime_factors(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)

    def summary(self) -> tuple[Optional[int], Optional[int], Optional[int]]:
        """(P, omega, Q): the greatest prime factor, the number of distinct
        primes and the radical, with (1, 0, 1) for n = 1; all three are
        None when the factorization is partial."""
        if not self.complete:
            return None, None, None
        p_max = self.pairs[-1][0] if self.pairs else 1
        return p_max, len(self.pairs), math.prod(self.prime_factors)

    def require_complete(self):
        if not self.complete:
            raise IncompleteFactorizationError(
                f"factorization of {self.n} has composite cofactor {self.cofactor}"
            )


# ---------------------------------------------------------------------------
# splitting

# Modular multiplications per factorize() call, over all cofactors and methods
DEFAULT_BUDGET = 200_000


def _int_nth_root(n: int, r: int) -> int:
    """Floor of the r-th root of n."""
    if r == 2:
        return math.isqrt(n)
    if n < 2:
        return n
    x = 1 << (-(-n.bit_length() // r))  # upper estimate
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            return x
        x = y


def _root_exponents(n: int):
    """The primes r, ascending, for which n >= 2 can be a perfect r-th power.

    If n = y**r, then r divides the exponent of each prime in n, so one
    valuation gives the candidates: that of 2, read off the low bits, or
    else that of the smallest trial prime dividing n.  When no trial prime
    divides n, every prime factor of y is above 1000, so 1009**r <= n; the
    candidates are then the trial divisors up to that bound, which past
    1000 include odd composites.
    """
    v = (n & -n).bit_length() - 1
    if v == 0:
        for p in _SMALL_PRIMES[1:]:
            if n % p == 0:
                v = divide_out(n, p)[1]
                break
        else:
            r_max = (n.bit_length() - 1) // 9  # 1009**r > 2**(9r)
            return takewhile(lambda r: r <= r_max, _trial_divisors())
    return [r for r, _ in _fastfactor.factor_small(v)]


def _perfect_power(n: int):
    """Return (root, exponent) with root**exponent == n and exponent > 1
    prime and as small as possible, or None."""
    for r in _root_exponents(n):
        root = _int_nth_root(n, r)
        if root**r == n:
            return root, r
    return None


def _primitive_power(n: int):
    """(x, m) with x**m == n, m >= 1 and x not a perfect power."""
    m = 1
    while (power := _perfect_power(n)) is not None:
        n, r = power
        m *= r
    return n, m


def _algebraic_parts(n: int) -> list[tuple[int, int]]:
    """Pairs (part, e): factors > 1 of n, in ascending order of e, whose
    product is n, each with the order e of the cyclotomic part it comes from.

    For n = x**m - 1 the parts are the cyclotomic values Phi_e(x), e | m;
    for n = x**m + 1, those with e | 2m and e not dividing m (m >= 2, x not
    a perfect power).  For 2**m + 1 with m = 4k + 2, each part is split
    further by its gcd with L = 2**(2k+1) - 2**(k+1) + 1, from the
    Aurifeuillian identity 2**(4k+2) + 1 = L * M; both halves keep the
    order of their part.  Any other n is [(n, 1)].
    """
    for sign in (1, -1):
        x, m = _primitive_power(n - sign)
        if m >= 2:
            break
    else:
        return [(n, 1)]
    orders = [e for e in _divisors(2 * m) if m % e] if sign == 1 else _divisors(m)
    parts = [(cyclotomic_value(e, x), e) for e in orders]
    if x == 2 and sign == 1 and m % 4 == 2:
        k = m // 4
        aurifeuillian_l = 2 ** (2 * k + 1) - 2 ** (k + 1) + 1
        gcds = [math.gcd(part, aurifeuillian_l) for part, _ in parts]
        parts = [(q, e) for (part, e), g in zip(parts, gcds) for q in (g, part // g)]
    return [(part, e) for part, e in parts if part > 1]


def _rho_power(e: int) -> int:
    """The exponent of the rho map for a cofactor of Phi_e(x).

    Every prime p not dividing e that divides Phi_e(x) has p = 1 (mod e),
    and once trial division has taken out 2, p is odd, so k = lcm(2, e)
    divides p - 1.  The walk y -> y**k + c
    then takes about sqrt(k - 1) times fewer steps than y -> y**2 + c
    (Brent and Pollard, 1981), and each step k.bit_length() - 1 squarings
    (its charge, `_pow_cost(k)`, adds the products); k is used where the
    first is larger, 2 otherwise.
    """
    k = math.lcm(2, e)
    return k if k - 1 > (k.bit_length() - 1) ** 2 else 2


def _pow_cost(e: int) -> int:
    """Multiplications of pow(y, e, n), e >= 1, as binary square-and-multiply
    makes them: e.bit_length() - 1 squarings and e.bit_count() - 1 products."""
    return e.bit_length() + e.bit_count() - 2


def _brent_rho(n: int, max_iter: int, power: int = 2, c: int = 1):
    """Deterministic Brent rho on y -> y**power + c, from y = 2 and the
    given c, then c + 1, ... while a walk's cycle collapses.  Returns
    (nontrivial factor or None, used).

    `used` counts modular multiplications: a step of the walk costs 1 for
    y**2 + c and `_pow_cost(power)` otherwise, and a compared step 1 more,
    for the product q.  The budget is checked before each round's advance
    (which must leave room for one compared step), before each gcd block of
    at most 128 compared steps and before each backtracking step, so `used`
    never exceeds `max_iter`.  The map is chosen once per loop; the
    y**2 + c loops stay free of `pow`.
    """
    step = 1 if power == 2 else _pow_cost(power)
    used = 0
    for c in count(c):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            if max_iter - used < (r + 1) * step + 1:
                return None, used
            x = y
            if power == 2:
                for _ in range(r):
                    y = (y * y + c) % n
            else:
                for _ in range(r):
                    y = pow(y, power, n) + c
            used += r * step
            k = 0
            while k < r and g == 1:
                if max_iter - used < step + 1:
                    return None, used
                ys = y
                block = min(128, r - k, (max_iter - used) // (step + 1))
                if power == 2:
                    for _ in range(block):
                        y = (y * y + c) % n
                        q = q * (x - y) % n
                else:
                    for _ in range(block):
                        y = pow(y, power, n) + c
                        q = q * (x - y) % n
                g = math.gcd(q, n)
                k += block
                used += block * (step + 1)
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                if max_iter - used < step:
                    return None, used
                ys = pow(ys, power, n) + c
                g = math.gcd(x - ys, n)
                used += step
        if g != n:
            return g, used
        # cycle collapsed; retry with the next polynomial increment


def _stage2_primes(b1: int, b2: int) -> list[int]:
    """The primes q with b1 < q <= b2 < 2**16, read off the import-time table."""
    return [q for q in range(b1 + 1, b2 + 1) if _fastfactor.SMALL_SPF[q] == q]


# Pollard p - 1: base 3 (2 has order exactly e modulo each prime of a part
# Phi_e(2) not dividing e, so base 2 meets every prime of 2**m +- 1 at
# once), stage 1 to B1, stage 2 over the primes up to B2 by prime gaps.
_PM1_BASE, _PM1_B1, _PM1_B2 = 3, 1000, 20000


@cache
def _pm1_plan():
    """(E, first prime of stage 2, gaps between its primes, cost of stage 1,
    of stage 2)."""
    e = math.lcm(*range(1, _PM1_B1 + 1))
    primes = _stage2_primes(_PM1_B1, _PM1_B2)
    gaps = [b - a for a, b in zip(primes, primes[1:])]
    # b**q0, b**2 and b**4 ... b**max(gaps), then per later prime one step
    # and one product into the accumulator
    stage2 = _pow_cost(primes[0]) + max(gaps) // 2 + 2 * len(gaps)
    return e, primes[0], gaps, _pow_cost(e), stage2


def _pm1(n: int, max_iter: int):
    """Pollard p - 1; returns (factor or None, used).  Runs only when
    `max_iter` covers both stages."""
    e, q0, gaps, stage1, stage2 = _pm1_plan()
    if max_iter < stage1 + stage2:
        return None, 0
    b = pow(_PM1_BASE, e, n)
    g = math.gcd(b - 1, n)
    if g != 1:
        return (g if g != n else None), stage1
    steps = {2: b * b % n}
    for d in range(4, max(gaps) + 1, 2):
        steps[d] = steps[d - 2] * steps[2] % n
    t = pow(b, q0, n)
    acc = t - 1
    for gap in gaps:
        t = t * steps[gap] % n
        acc = acc * (t - 1) % n
    g = math.gcd(acc, n)
    return (g if 1 < g < n else None), stage1 + stage2


# ECM (Lenstra 1987) on Montgomery curves B y**2 = x**3 + A x**2 + x in
# x-only projective coordinates (Montgomery 1987), with Suyama's
# parametrization from sigma = 6, 7, ..., stage 2 by baby steps j Q
# (j < D/2, gcd(j, D) = 1) and giant steps g D Q, D = 210.
_ECM_B1, _ECM_B2, _ECM_D = 400, 20000, 210


def _xdbl(x, z, n, num, den):
    """2P from P = (x : z) on the curve with (A + 2)/4 = num/den: 4
    multiplications, as num and den are small and both coordinates carry
    the factor den."""
    s = (x + z) ** 2 % n
    d = (x - z) ** 2 % n
    t = s - d
    return s * den * d % n, t * (den * d + num * t) % n


def _xadd(x1, z1, x2, z2, xd, zd, n):
    """P + Q from P, Q and P - Q = (xd : zd): 6 multiplications."""
    u = (x1 - z1) * (x2 + z2) % n
    v = (x1 + z1) * (x2 - z2) % n
    return (u + v) ** 2 % n * zd % n, (u - v) ** 2 % n * xd % n


@cache
def _ecm_plan():
    """(E, [(g, [j, ...]), ...], cost of stage 1, of stage 2): the stage-2
    primes q = g D +- j grouped by giant step g."""
    e = math.lcm(*range(1, _ECM_B1 + 1))
    half = _ECM_D // 2
    pairs: dict[int, set[int]] = {}
    for q in _stage2_primes(_ECM_B1, _ECM_B2):
        g = (q + half) // _ECM_D
        pairs.setdefault(g, set()).add(abs(q - g * _ECM_D))
    giants = [(g, sorted(js)) for g, js in sorted(pairs.items())]
    # 2Q, Q + 2Q ... 103Q + 2Q, x*z of each baby, D Q = 2 (105 Q), 2 D Q,
    # then one addition per further giant step, and per giant step used its
    # x*z and two multiplications per j
    babies = len([j for j in range(1, half, 2) if math.gcd(j, _ECM_D) == 1])
    stage2 = 4 + 6 * (half // 2) + babies + 4 + 4 + 6 * (giants[-1][0] - 2)
    stage2 += sum(1 + 2 * len(js) for _, js in giants)
    return e, giants, 4 + 8 * (e.bit_length() - 1), stage2


def _ecm(n: int, max_iter: int):
    """ECM, one curve after another while `max_iter` covers a whole curve;
    returns (factor or None, used)."""
    e, giants, stage1, stage2 = _ecm_plan()
    used = 0
    for sigma in count(6):
        if max_iter - used < stage1 + stage2:
            return None, used
        u, v = sigma * sigma - 5, 4 * sigma
        xp, zp = u**3, v**3  # P, small integers
        num, den = (v - u) ** 3 * (3 * u + v), 16 * u**3 * v
        x0, z0 = xp, zp
        x1, z1 = _xdbl(xp, zp, n, num, den)
        for bit in bin(e)[3:]:  # Montgomery's ladder; R1 - R0 = P throughout
            a = (x0 - z0) * (x1 + z1) % n
            b = (x0 + z0) * (x1 - z1) % n
            added = (a + b) ** 2 * zp % n, (a - b) ** 2 * xp % n  # 4, as P is small
            if bit == "1":
                (x0, z0), (x1, z1) = added, _xdbl(x1, z1, n, num, den)
            else:
                (x0, z0), (x1, z1) = _xdbl(x0, z0, n, num, den), added
        used += stage1
        g = math.gcd(z0, n)
        if g == 1:
            g = _ecm_stage2(n, x0, z0, num, den, giants)
            used += stage2
        if 1 < g < n:
            return g, used


def _ecm_stage2(n, x, z, num, den, giants):
    """gcd(n, prod of x(g D Q) z(j Q) - x(j Q) z(g D Q)) over the planned
    (g, j), for Q = (x : z) after stage 1."""
    half = _ECM_D // 2
    odd = {1: (x, z)}  # j Q for odd j <= D/2
    x2, z2 = _xdbl(x, z, n, num, den)
    for j in range(3, half + 1, 2):
        odd[j] = _xadd(*odd[j - 2], x2, z2, *odd[abs(j - 4)], n)
    babies = {j: (xj, zj, xj * zj % n) for j, (xj, zj) in odd.items()
              if j < half and math.gcd(j, _ECM_D) == 1}
    dq = _xdbl(*odd[half], n, num, den)
    giant = [None, dq, _xdbl(*dq, n, num, den)]  # giant[g] = g D Q
    acc = 1
    for g, js in giants:
        while len(giant) <= g:
            giant.append(_xadd(*giant[-1], *dq, *giant[-2], n))
        xg, zg = giant[g]
        xz = xg * zg % n
        for j in js:
            xj, zj, xzj = babies[j]
            acc = acc * ((xg - xj) * (zg + zj) % n - xz + xzj) % n
    return math.gcd(acc, n)


# Rho gets this many units on each cofactor first, before p - 1 and ECM:
# enough for most primes below about 2**20.
_RHO_SHARE = 4000


def _split(m: int, budget: int, power: int):
    """A nontrivial factor of the composite m, or None, and the units used:
    rho with at most `_RHO_SHARE`, Pollard p - 1, ECM, then rho with what
    is left, each only while the budget covers it.  The last rho walks
    with the next increment, c = 2, so it does not retrace the first one's
    path, and where p - 1 cannot follow the share, rho takes the whole
    budget at once."""
    if budget < _RHO_SHARE + sum(_pm1_plan()[3:]):
        return _brent_rho(m, budget, power)
    d, used = _brent_rho(m, _RHO_SHARE, power)
    for method in (_pm1, _ecm):
        if d is None:
            d, spent = method(m, budget - used)
            used += spent
    if d is None:
        d, spent = _brent_rho(m, budget - used, power, 2)  # c = 2
        used += spent
    return d, used


def factorize(n: int, budget: int = DEFAULT_BUDGET) -> Factorization:
    """Factor n, spending at most `budget` modular multiplications on hard
    cofactors.

    An n = x**m +- 1 is first cut into its algebraic parts (see
    `_algebraic_parts`); every part is then trial-divided and split like any
    other input, all on the one budget.  Each composite cofactor (after
    trial division, the halves of a split, the roots of a perfect power)
    goes to `_split`: a share of rho, Pollard p - 1, ECM, then rho with the
    rest.  Rho walks the map of `_rho_power(e)` on a cofactor of a part
    Phi_e(x), and y -> y**2 + c on any other input.

    Always returns: if the budget runs out, the product of the unsplit
    composites goes to `cofactor` and `complete` is False.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if n == 1:
        return Factorization(n=1, pairs=())
    if n < _fastfactor.FAST_LIMIT:
        pairs = _fastfactor.factor_small(n)
        return Factorization(n=n, pairs=tuple(pairs), cofactor=1)

    found: dict[int, int] = {}
    stack = []  # (cofactor, exponent of its rho map)
    for part, e in reversed(_algebraic_parts(n)):  # smallest part popped first
        for p in _SMALL_PRIMES:
            if p * p > part:
                break
            if part % p == 0:
                part, v = divide_out(part, p)
                found[p] = found.get(p, 0) + v
        if part > 1:
            stack.append((part, _rho_power(e)))
    remaining = budget
    failed = 1
    while stack:
        m, power = stack.pop()
        if m < _fastfactor.FAST_LIMIT:
            for p, e in _fastfactor.factor_small(m):
                found[p] = found.get(p, 0) + e
            continue
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        perfect = _perfect_power(m)
        if perfect is not None:
            root, exp = perfect
            stack.extend([(root, power)] * exp)
            continue
        d, used = _split(m, remaining, power)
        remaining -= used
        if d is None:
            failed *= m
        else:
            stack.append((d, power))
            stack.append((m // d, power))
    pairs = tuple(sorted(found.items()))
    return Factorization(n=n, pairs=pairs, cofactor=failed)


# ---------------------------------------------------------------------------
# cyclotomic values


def mobius(d: int) -> int:
    """Moebius function via factorization (d is small here)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    fact = factorize(d)
    if any(e > 1 for _, e in fact.pairs):
        return 0
    return -1 if len(fact.pairs) % 2 else 1


def _divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n).pairs:
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def cyclotomic_value(d: int, x: int = 2) -> int:
    """Value of the d-th cyclotomic polynomial at integer x >= 2, computed
    exactly as the Moebius product of (x**(d/e) - 1) factors."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if x < 2:
        raise ValueError("x must be >= 2")
    num = 1
    den = 1
    for e in _divisors(d):
        mu = mobius(e)
        if mu == 1:
            num *= x ** (d // e) - 1
        elif mu == -1:
            den *= x ** (d // e) - 1
    assert num % den == 0
    return num // den


# ---------------------------------------------------------------------------
# factor-derived quantities


def _complete_summary(n: int, budget: int):
    fact = factorize(n, budget)
    fact.require_complete()
    return fact.summary()


def smallest_prime_factor(b: int, budget: int = DEFAULT_BUDGET) -> int:
    """Least prime dividing b (b >= 2); raises IncompleteFactorizationError
    when factorize(b, budget) leaves a composite cofactor."""
    if b < 2:
        raise ValueError(f"need b >= 2, got {b}")
    fact = factorize(b, budget)
    fact.require_complete()
    return fact.pairs[0][0]


def greatest_prime_factor(n: int, budget: int = DEFAULT_BUDGET) -> int:
    """P[n]: the greatest prime factor, with P[1] = 1."""
    return _complete_summary(n, budget)[0]


def omega(n: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of distinct prime factors; omega(1) = 0."""
    return _complete_summary(n, budget)[1]


def radical(n: int, budget: int = DEFAULT_BUDGET) -> int:
    """Greatest square-free divisor; radical(1) = 1."""
    return _complete_summary(n, budget)[2]


def s_part(n: int, s) -> int:
    """Largest divisor of n supported on the prime set s.

    Needs only trial division by the members of s, never a full
    factorization of n.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    s = _as_prime_set(s)
    part = 1
    for q in s:
        n, e = divide_out(n, q)
        part *= q**e
    return part


def is_smooth(n: int, bound: float) -> bool:
    """True iff every prime factor of n is <= bound (1 is always smooth).

    Divides out every prime <= bound and tests whether the cofactor is 1;
    the rough part is never factored.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    for d in _trial_divisors():
        if d > bound:
            return n == 1  # every prime <= bound is out
        if d * d > n:
            return n <= bound  # what is left is 1 or a prime
        n, _ = divide_out(n, d)


def is_s_unit(n: int, s) -> bool:
    """True iff all prime factors of n lie in s (true for n = 1)."""
    return s_part(n, s) == n


def p_adic_valuation(z, p: int) -> int:
    """Exponent of the prime p in the rational z; negative when p divides
    the denominator.  z must be nonzero."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    x, y = Fraction(z).as_integer_ratio()
    if x == 0:
        raise ValueError("valuation of zero is undefined")
    return divide_out(x, p)[1] - divide_out(y, p)[1]
