"""Base-b digit decompositions and digit-counting primitives.

Integers are represented sparsely: only the nonzero digits are stored, as
(exponent, digit) pairs with strictly increasing exponents.  All functions
work with arbitrary-precision integers.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import Callable, Iterator, Optional

import numpy as np

__all__ = [
    "DigitExpansion",
    "decompose",
    "recompose",
    "nz_count",
    "power_nz_counts",
    "block_count",
    "condition_3_2",
]

# Relative window inside which a floating-point comparison is treated as a
# tie (a few units of double rounding).
_TIE_REL = 1e-12

# Bases up to this size count nonzero digits a whole chunk at a time, from a
# table of every chunk value below it.
_CHUNK_LIMIT = 1 << 16


@dataclass(frozen=True)
class DigitExpansion:
    """Sparse positional representation: value = sum(d * base**e)."""

    base: int
    terms: tuple[tuple[int, int], ...]  # (exponent, digit), exponents increasing

    def __post_init__(self):
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        if not self.terms:
            raise ValueError("expansion of a positive integer has at least one term")
        prev = -1
        for exp, dig in self.terms:
            if exp <= prev:
                raise ValueError("exponents must be strictly increasing")
            if not 1 <= dig < self.base:
                raise ValueError(f"digit {dig} out of range for base {self.base}")
            prev = exp

    @property
    def k(self) -> int:
        """Number of nonzero digits."""
        return len(self.terms)

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.terms)

    @property
    def digits(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.terms)

    @property
    def top_exponent(self) -> int:
        return self.terms[-1][0]


def decompose(n: int, base: int) -> DigitExpansion:
    """Sparse base-`base` expansion of a positive integer.

    Rejects n = 0: an empty expansion has no canonical meaning here, and
    every quantity downstream assumes positivity.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    terms = tuple([(e, d) for e, d in enumerate(_to_limbs(n, base)) if d])
    return DigitExpansion(base=base, terms=terms)


def recompose(e: DigitExpansion) -> int:
    """Evaluate an expansion back to the integer it represents.

    Horner's rule from the top term down, so each step multiplies by the
    base raised to the gap between neighbouring exponents instead of
    building base**exp from scratch for every term.
    """
    value, prev = 0, e.top_exponent
    for exp, d in reversed(e.terms):
        value = value * e.base ** (prev - exp) + d
        prev = exp
    return value * e.base**prev


def nz_count(n: int, base: int, bound: Optional[float] = None) -> int:
    """Number of nonzero digits of n in base `base`.

    With a bound, the result is exact when the true count is at most
    `bound`, and otherwise some value above `bound`; the count made here
    is always exact, which meets both."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if base == 2:
        return n.bit_count()
    size, count = _limb_counter(base)
    return count(np.array(_to_limbs(n, size))).item()


@lru_cache(maxsize=64)
def _nz_chunk_table(base: int) -> tuple[int, np.ndarray]:
    """(size, table): size is the largest power of `base` up to
    _CHUNK_LIMIT, and table[c] (uint8) is the number of nonzero digits of
    c for 0 <= c < size.

    Leading zeros of a chunk add nothing, so the counts of the chunks of n
    in base `size` sum to nz_count(n, base).
    """
    step = (np.arange(base) != 0).astype(np.uint8)
    table = np.zeros(1, dtype=np.uint8)
    while len(table) * base <= _CHUNK_LIMIT:
        # c = d * len(table) + rest: a new top digit d in front of rest
        table = np.add.outer(step, table).ravel()
    table.flags.writeable = False  # cached: every caller gets this array
    return len(table), table


def _limb_counter(base: int) -> tuple[int, Callable[[np.ndarray], np.ndarray]]:
    """(size, count): count(limbs) is the number of nonzero base-`base`
    digits of limbs in base size, along the last axis.  A base up to
    _CHUNK_LIMIT takes the chunk size and table of _nz_chunk_table; a larger
    base is its own limb, where a nonzero limb is one nonzero digit."""
    if base <= _CHUNK_LIMIT:
        size, table = _nz_chunk_table(base)
        return size, lambda v: table[v.astype(np.intp, copy=False)].sum(axis=-1)
    return base, lambda v: np.count_nonzero(v, axis=-1)


def power_nz_counts(a: int, base: int, start: int) -> Iterator[int]:
    """nz_count(a**n, base) for n = start, start + 1, ... without end.

    a**n is kept as a numpy array of limbs in base size = base**w.  The
    rows n ... n + s - 1 are the s lanes of one 2-D limb array, and each
    step multiplies every lane by a**s in place, with carries, and counts
    all lanes at once, so a row costs time linear in the length of a**n
    and about 1/s of a step's numpy calls.  The limbs and their counts are
    those of nz_count (_limb_counter).  Rows are computed at most one step
    (s - 1 rows) ahead of the consumer.
    """
    size, count = _limb_counter(base)
    # After v *= a**s a limb is at most (size - 1) * a**s, and after a carry
    # pass it is below size + a**s <= size * a**s: the dtype holds that.  The
    # tier is the one a (s = 1) needs, so a wider step never costs a slower
    # dtype; s is the largest step inside it with a**s < size.
    tiers = ((np.uint32, 1 << 32), (np.int64, (1 << 63) - 1), (object, math.inf))
    dtype, cap = next(t for t in tiers if a * size <= t[1])
    s = 1
    while a ** (s + 1) < size and a ** (s + 1) * size <= cap:
        s += 1
    per_limb = size.bit_length() - 1  # size >= 2**per_limb
    grow = (a**s).bit_length() // per_limb + 1  # limbs one step can add
    first = _to_limbs(a**start, size)
    used = len(first)
    limbs = np.zeros((s, used + grow), dtype=dtype)
    limbs[:, :used] = first
    # The first step turns lane i from a**start into a**(start + i).
    step = np.array([a**i for i in range(s)], dtype=dtype)[:, None]
    while True:
        if used + grow > limbs.shape[1]:
            limbs = np.concatenate([limbs, np.zeros_like(limbs)], axis=1)
        v = limbs[:, : used + grow]
        v *= step
        while True:
            high = v // size
            if not np.count_nonzero(high):
                break
            if dtype is object:
                v %= size  # one Python-int operation per limb, not two
            else:
                v -= high * size  # numpy's integer % is slower than this
            v[:, 1:] += high[:, :-1]  # the top limb of v stays below size
        used += grow
        while not limbs[-1, used - 1]:
            used -= 1
        yield from count(limbs[:, :used]).tolist()
        step = a**s


def _to_limbs(x: int, size: int) -> list[int]:
    """The base-`size` limbs of x >= 1, lowest first, without leading
    zeros.  This is the one conversion of an integer to its digits: with
    size = base the limbs are the digits.

    x is split in halves by size**(32 * 2**j) down to parts of at most 32
    limbs, so the conversion costs a few big divisions and one small divmod
    per limb instead of one divmod of the whole of x per limb.
    """
    powers = [size**32]  # powers[j] = size**(32 * 2**j): a leaf holds 32 limbs
    while powers[-1] <= x:
        powers.append(powers[-1] ** 2)
    out = []

    def fill(x, j):  # x < powers[j]
        if not j:
            while x:
                x, d = divmod(x, size)
                out.append(d)
            return
        hi, lo = divmod(x, powers[j - 1])
        end = len(out) + (32 << (j - 1))
        fill(lo, j - 1)
        if hi:
            out.extend([0] * (end - len(out)))
            fill(hi, j - 1)

    fill(x, len(powers) - 1)
    return out


def block_count(n: int, base: int) -> int:
    """Number of maximal runs of equal digits in the full digit string of n.

    Zeros count as digits: 11 in base 2 is "1011", i.e. runs "1", "0", "11",
    so block_count(11, 2) == 3.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    # Run count is direction-independent; no need to reverse.
    return sum(1 for _ in groupby(_to_limbs(n, base)))


def condition_3_2(n: int, base: int, k: int) -> bool:
    """Size gate: log n >= 2*(log b)*(8 log b / log 2)**k.

    Evaluated in double precision with a conservative tie rule: comparisons
    landing within a relative window of one rounding unit return False.  The
    gate only selects which estimates apply, so a conservative answer is
    always safe.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    lb = math.log(base)
    lhs = math.log(n)
    rhs = 2.0 * lb * (8.0 * lb / math.log(2)) ** k
    if math.isclose(lhs, rhs, rel_tol=_TIE_REL):
        return False
    return lhs > rhs
