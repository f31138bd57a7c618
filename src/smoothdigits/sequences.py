"""Ordered integer streams: sparse-digit sequences, power sums, smooth numbers.

Sparse streams are generated in rounds by top exponent m: every member with
top exponent m lies in [b**m, b**(m+1)), so sorting within a round gives
global order and rounds never interleave.  All streams are strictly
increasing, duplicate-free, and accept a max_value cutoff; a sparse stream
ends by itself once its digit budget stays below two digits.
"""

import math
from dataclasses import dataclass
from heapq import heappush, heappop
from itertools import combinations, count, islice, product
from typing import Callable, Iterator, Optional

from .bounds import log_tower
from .digits import nz_count
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
    """Named digit-budget function n -> allowed number of nonzero digits,
    never below 1.

    peak(lo, hi) is the largest allowance on [lo, hi]; hi None means no
    upper end, and math.inf that the allowance grows without bound there.
    delta0 is the supremum of admissible slack for the f-indexed prime
    factor threshold; None when the family grows too fast for that
    threshold to apply.
    """

    name: str
    fn: Callable[[int], float]
    delta0: Optional[float]
    peak: Callable[[int, Optional[int]], float]

    def __call__(self, n: int) -> float:
        return self.fn(n)


def constant_budget(c: float) -> DigitBudget:
    if c < 1:
        raise ValueError("digit budget must be >= 1")
    return DigitBudget(
        name=f"const:{c:g}", fn=lambda n: float(c), delta0=1.0, peak=lambda lo, hi: float(c)
    )


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

    return DigitBudget(name=f"loglog:{c:g}", fn=fn, delta0=None, peak=peak)


# The least n with loglogloglog n > 0, the first integer above e^(e^e);
# f of sqrt_budget is 1 below it.
_SQRT_START = next(n for n in count(math.floor(math.exp(math.exp(math.e)))) if log_tower(n, 4))


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

    return DigitBudget(name=f"sqrtll:{c:g}", fn=fn, delta0=1.0, peak=peak)


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


def _round_members(base: int, max_digits: int, m: int) -> list[int]:
    """All integers with top exponent m, lowest exponent 0, and at most
    max_digits nonzero digits, unsorted."""
    out = []
    top = base**m
    if max_digits < 2:
        return out
    # middle positions: choose t of the exponents 1..m-1
    for t in range(0, min(max_digits - 2, m - 1) + 1):
        for positions in combinations(range(1, m), t):
            powers = [base**e for e in positions]
            for digs in product(range(1, base), repeat=t + 2):
                # digs = (low digit, middle digits..., top digit)
                val = digs[0] + digs[-1] * top
                for w, d in zip(powers, digs[1:-1]):
                    val += d * w
                out.append(val)
    return out


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

    Candidates of a round carry up to floor(budget.peak) nonzero digits
    over the round; a candidate is checked against the budget at its own
    value only where the budget there is below that cap.  The stream ends
    once no allowance from b**m on reaches two digits."""
    for d in range(1, base):
        if max_value is not None and d > max_value:
            return
        yield d
    m = 1
    while True:
        lo = base**m
        if max_value is not None and lo > max_value or budget.peak(lo, None) < 2:
            return
        cap = math.floor(budget.peak(lo, base * lo - 1))
        for v in sorted(_round_members(base, cap, m)):
            if max_value is not None and v > max_value:
                return
            allowed = budget(v)
            if allowed >= cap or nz_count(v, base, allowed) <= allowed:
                yield v
        m += 1


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
    k = len(bases)

    def value(tup):
        return sum(a**e for a, e in zip(bases, tup)) + 1

    start = (1,) * k
    heap = [(value(start), start)]
    seen = {start}
    last = None
    while heap:
        v, tup = heappop(heap)
        if max_value is not None and v > max_value:
            return
        if v != last:
            yield v
            last = v
        for i in range(k):
            succ = tup[:i] + (tup[i] + 1,) + tup[i + 1 :]
            if succ not in seen:
                seen.add(succ)
                heappush(heap, (value(succ), succ))


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
