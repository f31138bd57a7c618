"""Ordered integer streams: sparse-digit sequences, power sums, smooth numbers.

Sparse streams walk digit positions from the top down, so members come out
in increasing order with their digit counts known by construction.  All
streams are strictly increasing, duplicate-free, and accept a max_value
cutoff; a sparse stream ends by itself once its digit budget stays below
two digits.
"""

import math
from dataclasses import dataclass
from heapq import heappush, heappop
from itertools import count, islice, takewhile
from typing import Callable, Iterator, Optional

from .bounds import log_tower
from .digits import nz_count  # unused here; perfbench/tracer.py patches it by name
from .factor import _as_prime_set

__all__ = [
    "PowerSumSpec",
    "DigitBudget",
    "constant_budget",
    "loglog_budget",
    "sqrt_budget",
    "sparse_sequence",
    "sparse_sequence_f",
    "power_sum_sequence",
    "smooth_sequence",
    "take",
]


def take(stream: Iterator[int], n: int) -> list[int]:
    """First n emissions of a stream, as a list."""
    return list(islice(stream, n))


# ---------------------------------------------------------------------------
# digit-budget families (for the f-indexed sparse stream)


@dataclass(frozen=True)
class DigitBudget:
    """Digit-budget function n -> allowed number of nonzero digits, never
    below 1.

    peak(lo, hi) is the largest allowance on [lo, hi]; hi None means no
    upper end, and math.inf that the allowance grows without bound there.
    least(lo, hi) is a lower bound on the allowance there, by default 1.
    delta0 is the supremum of admissible slack for the f-indexed prime
    factor threshold; None when the family grows too fast for that
    threshold to apply.
    """

    fn: Callable[[int], float]
    delta0: Optional[float]
    peak: Callable[[int, Optional[int]], float]
    least: Callable[[int, Optional[int]], float] = lambda lo, hi: 1.0

    def __call__(self, n: int) -> float:
        return self.fn(n)


def constant_budget(c: float) -> DigitBudget:
    if c < 1:
        raise ValueError("digit budget must be >= 1")
    def flat(lo: int, hi: Optional[int]) -> float:
        return float(c)

    return DigitBudget(fn=lambda n: float(c), delta0=1.0, peak=flat, least=flat)


def loglog_budget(c: float) -> DigitBudget:
    """f(n) = max(1, c*loglog n).  Grows faster than loglog/logloglog, so
    the f-indexed threshold does not apply (delta0 is None)."""
    if c <= 0:
        raise ValueError("scale must be positive")

    def fn(n: int) -> float:
        tower = log_tower(n, 2)
        return 1.0 if tower is None else max(1.0, c * tower[1])

    def peak(lo: int, hi: Optional[int]) -> float:
        return math.inf if hi is None else fn(hi)  # fn never decreases

    return DigitBudget(fn=fn, delta0=None, peak=peak, least=lambda lo, hi: fn(lo))


# The least n with loglogloglog n > 0, the first integer above e^(e^e);
# f of sqrt_budget is 1 below it.
_SQRT_START = next(n for n in count(math.floor(math.exp(math.exp(math.e)))) if log_tower(n, 4))


# The trough of g(x) = x*log x/log log x, where (log x + 1)*log log x = 1:
# x = loglog n there (n near 2**124), and g rounded down, so that f of
# sqrt_budget is at least c*sqrt(_SQRT_TROUGH_G) from _SQRT_START on.
_SQRT_TROUGH_X, _SQRT_TROUGH_G = 4.452226, 16.5785


def sqrt_budget(c: float) -> DigitBudget:
    """f(n) = max(1, c*sqrt(loglog n * logloglog n / loglogloglog n))."""
    if c <= 0:
        raise ValueError("scale must be positive")
    start = _SQRT_START

    def fn(n: int) -> float:
        tower = log_tower(n, 4)
        if tower is None:
            return 1.0
        _, l2, l3, l4 = tower
        return max(1.0, c * math.sqrt(l2 * l3 / l4))

    def peak(lo: int, hi: Optional[int]) -> float:
        # From start on, x*log x/log log x with x = loglog n first falls and
        # then rises, so its largest value on [lo, hi] lies at an end or at
        # start itself.
        if hi is None:
            return math.inf
        ends = (lo, hi, start) if lo <= start <= hi else (lo, hi)
        return max(map(fn, ends))

    def least(lo: int, hi: Optional[int]) -> float:
        # f is 1 below start; from there it falls to its trough and rises
        # for ever.  The trough counts wherever a loglog of the ends, read
        # in floats, may lie at or past it.
        if lo < start:
            return 1.0
        ends = [fn(lo)] if hi is None else [fn(lo), fn(hi)]
        if log_tower(lo, 2)[1] <= _SQRT_TROUGH_X + 1e-6 and (
            hi is None or log_tower(hi, 2)[1] >= _SQRT_TROUGH_X - 1e-6
        ):
            ends.append(max(1.0, c * math.sqrt(_SQRT_TROUGH_G)))
        return min(ends)

    return DigitBudget(fn=fn, delta0=1.0, peak=peak, least=least)


BUDGET_FAMILIES = {
    "const": constant_budget,
    "loglog": loglog_budget,
    "sqrtll": sqrt_budget,
}


def parse_budget_spec(spec: str) -> DigitBudget:
    """Parse "family:param", e.g. "const:3" or "sqrtll:0.5"."""
    name, _, arg = spec.partition(":")
    if name not in BUDGET_FAMILIES:
        raise ValueError(
            f"unknown digit-budget family {name!r}; choose from "
            f"{sorted(BUDGET_FAMILIES)}"
        )
    param = float(arg) if arg else 2.0
    if not math.isfinite(param):
        raise ValueError(f"digit-budget parameter must be finite, got {arg!r}")
    return BUDGET_FAMILIES[name](param)


# ---------------------------------------------------------------------------
# sparse streams


def sparse_sequence(
    base: int, k: int, *, max_value: Optional[int] = None
) -> Iterator[int]:
    """Increasing stream of integers not divisible by `base` with at most k
    nonzero digits in base `base`.  Arguments are validated eagerly, before
    the first emission is requested."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return _sparse_gen(base, constant_budget(k), max_value)


def sparse_sequence_f(
    base: int, budget: DigitBudget, *, max_value: Optional[int] = None
) -> Iterator[int]:
    """Increasing stream of n (not divisible by `base`) with
    nz_count(n, base) <= budget(n)."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    return _sparse_gen(base, budget, max_value)


def _sparse_gen(base, budget, max_value):
    """Every single digit, then the rounds [b**m, b**(m+1)) for m = 1, 2, ...

    walk(high, digits, span) yields, in increasing order, the members
    high + r with 1 <= r < span and b not dividing r, where span is a power
    of b and high has digits - 1 nonzero digits, all at or above span.
    The leaves high + d, d < b, have `digits` nonzero digits and every
    other member more, so one read of the budget's peak over the node
    prunes it whole.  Each round starts at the next power of b whose round
    the peak lets hold two digits (_next_round)."""
    fn, peak = budget.fn, budget.peak

    def walk(high, digits, span):
        cap = peak(high + 1, high + span - 1)
        if cap < digits:
            return
        for v in range(high + 1, high + base):
            if digits <= fn(v):
                yield v
        if cap >= digits + 1:
            step = base
            while step < span:
                for h in range(high + step, high + base * step, step):
                    yield from walk(h, digits + 1, step)
                step *= base

    def rounds():
        yield from range(1, base)
        lo = _next_round(base, budget, base, max_value)
        while lo is not None and (max_value is None or lo <= max_value):
            for h in range(lo, base * lo, lo):
                yield from walk(h, 2, lo)
            lo = _next_round(base, budget, base * lo, max_value)

    if max_value is None:
        return rounds()
    return takewhile(lambda v: v <= max_value, rounds())


# A sparse stream does not look for its next round past 2**_REACH_BITS:
# writing one member that long in decimal takes seconds.
_REACH_BITS = 1 << 20


def _next_round(base, budget, lo, max_value):
    """The first power lo * b**k of the base whose round [lo * b**k,
    lo * b**(k + 1)) the budget's peak lets hold two or more digits, or
    None when the peak allows no more from lo on, or none up to max_value.
    Raises ValueError when no such round starts below 2**_REACH_BITS.

    The peak over the first k + 1 rounds grows with k, so k is found by
    doubling and then bisection: a few peak reads instead of one a round,
    however many rounds a slow-rising budget holds at one digit."""
    if budget.peak(lo, None) < 2:
        return None
    end = 1 << _REACH_BITS
    if max_value is not None:
        end = min(end, max_value)

    def holds(k):  # a round among the first k + 1 from lo may hold two digits
        return budget.peak(lo, lo * base ** (k + 1) - 1) >= 2

    below, above = -1, 0  # not holds(below) (or below = -1)
    while not holds(above):
        if lo * base ** (above + 1) > end:
            if end == max_value:
                return None
            raise ValueError(
                f"the digit budget allows no further member below 2**{_REACH_BITS}: "
                "out of reach"
            )
        below, above = above, 2 * above + 1
    while above - below > 1:
        mid = (below + above) // 2
        below, above = (below, mid) if holds(mid) else (mid, above)
    return lo * base**above


def _check_reach(base, budget, wanted, max_value):
    """Raise _next_round's ValueError before the stream yields anything
    when its first `wanted` members (None: all up to max_value) do not lie
    below the first round out of reach.

    Each round is counted whole, _round_members, until the count meets
    `wanted`, until no later round can be out of reach, or until the
    stream ends.  A round is out of reach only when none below 2**_REACH_BITS
    may hold a member, so no max_value below that ever meets one; nor
    does any round once the budget allows two digits everywhere after."""
    if max_value is not None and max_value < 1 << _REACH_BITS:
        return
    left = math.inf if wanted is None else wanted - (base - 1)
    lo = base
    while left > 0 and budget.least(lo, None) < 2:
        lo = _next_round(base, budget, lo, max_value)
        if lo is None:
            return
        left -= _round_members(base, budget, lo)
        lo *= base


def _round_members(base, budget, lo):
    """The number of members the sparse stream yields in the round
    [lo, base * lo), lo = base**m, by the walk of _sparse_gen: a node whose
    allowance has one floor over all its values, or that allows every
    digit it holds, is counted whole; any other is opened."""
    fn, peak, least = budget.fn, budget.peak, budget.least

    def count(high, digits, m):
        # members high + r, 1 <= r < b**m, b not dividing r
        first, last = high + 1, high + base**m - 1
        cap = peak(first, last)
        if cap < digits:
            return 0
        # r may hold up to m nonzero digits
        most = min(math.floor(cap) - digits + 1, m)
        if min(math.floor(least(first, last)) - digits + 1, m) == most:
            return sum((base - 1) ** s * math.comb(m - 1, s - 1) for s in range(1, most + 1))
        total = sum(digits <= fn(v) for v in range(high + 1, high + base))
        if cap >= digits + 1:
            for p in range(1, m):
                step = base**p
                for h in range(high + step, high + base * step, step):
                    total += count(h, digits + 1, p)
        return total

    m = round(math.log(lo, base))
    return sum(count(h, 2, m) for h in range(lo, base * lo, lo))


# ---------------------------------------------------------------------------
# power sums


@dataclass(frozen=True)
class PowerSumSpec:
    """Bases a_1..a_k for sums a_1**n_1 + ... + a_k**n_k + 1."""

    bases: tuple[int, ...]
    shared_divisor_check: bool = True

    def __post_init__(self):
        if len(self.bases) < 2:
            raise ValueError("need at least two bases")
        # a base of 1 adds no growth: the stream would repeat one value forever
        if any(a < 2 for a in self.bases):
            raise ValueError(f"bases must be >= 2, got {self.bases}")
        if self.shared_divisor_check and math.gcd(*self.bases) < 2:
            raise ValueError(
                f"bases {self.bases} have no common divisor >= 2"
            )


def power_sum_sequence(
    spec: PowerSumSpec, *, max_value: Optional[int] = None
) -> Iterator[int]:
    """Increasing stream of distinct values a_1**n_1 + ... + a_k**n_k + 1
    over exponent tuples with every n_i >= 1.

    Heap-ordered by value; a value is emitted once every exponent tuple that
    could reach it has been expanded, then equal values are collapsed.
    """
    if not isinstance(spec, PowerSumSpec):
        spec = PowerSumSpec(bases=tuple(spec))
    return _power_sum_gen(spec.bases, max_value)


def _power_sum_gen(bases, max_value):
    # Raising only the exponents at or after the one raised last reaches each
    # tuple exactly once, and a tuple's successors exceed it, so equal
    # values of different tuples leave the heap together.
    k = len(bases)

    def value(tup):
        return sum(a**e for a, e in zip(bases, tup)) + 1

    start = (1,) * k
    heap = [(value(start), start, 0)]
    last = None
    while heap:
        v, tup, i = heappop(heap)
        if max_value is not None and v > max_value:
            return
        if v != last:
            yield v
            last = v
        for j in range(i, k):
            succ = tup[:j] + (tup[j] + 1,) + tup[j + 1 :]
            heappush(heap, (value(succ), succ, j))


# ---------------------------------------------------------------------------
# smooth numbers


def smooth_sequence(primes, limit: int) -> Iterator[int]:
    """All products of the given primes (including the empty product 1) up
    to `limit`, in increasing order, each exactly once."""
    ps = _as_prime_set(primes).primes
    return _smooth_gen(ps, limit)


def _smooth_gen(ps, limit):
    if limit < 1:
        return
    # Keys v*r + i order by v first: v is a product and i, the index of the
    # largest prime used, is below r.  Multiplying only by primes at or
    # after i builds each smooth number exactly once, and the primes
    # increase, so the first product above the limit ends the successors.
    r = len(ps)
    heap = [r]  # v = 1, i = 0
    while heap:
        v, i = divmod(heappop(heap), r)
        yield v
        for j in range(i, r):
            nv = v * ps[j]
            if nv > limit:
                break
            heappush(heap, nv * r + j)
