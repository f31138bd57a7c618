"""Factorization core for machine-word inputs, built on a numpy prime sieve.

Everything here but `divide_out` is restricted to n < 2**31.  Larger inputs
take the arbitrary-precision path in `factor`.  The one piece of machinery
is a smallest-prime-factor (SPF) table made by a numpy sieve:

* `factor_small` works on plain Python ints.  Below 2**16 it reads the
  factors off a table built at import (65536 entries, about a millisecond).
  Above that it trial-divides by the table's primes, all of those up to
  isqrt(n) in one vectorized pass; they reach past sqrt(2**31), so whatever
  cofactor survives the division is 1 or prime.
* `primes_up_to` reads the primes off a table of the size asked for.
* `divide_out` is the one loop, for integers of any size, that removes the
  full power of a prime.
* `factor_stats_range` builds the table for the whole range it is asked
  about and derives each n's statistics from those of n // spf[n], in
  vectorized blocks.
"""

import math

import numpy as np

FAST_LIMIT = 1 << 31

# The table that factor_small reads covers n < 2**16.  Its primes reach past
# isqrt(FAST_LIMIT - 1) = 46340, so they are a complete trial-division basis
# for every larger n below FAST_LIMIT.
SMALL_LIMIT = 1 << 16


def _spf_table(limit):
    """Smallest prime factor of every integer 0..limit, as int32.

    spf[0] = 0 and spf[1] = 1; spf[n] == n exactly when n is prime.
    """
    spf = np.arange(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:  # no smaller prime divides p
            multiples = spf[p * p :: p]
            np.minimum(multiples, p, out=multiples)
    return spf


def _table_primes(spf):
    """The primes of an SPF table: the n >= 2 with spf[n] == n."""
    return np.flatnonzero(spf == np.arange(len(spf)))[2:]


def primes_up_to(limit):
    """All primes <= limit, as a list of ints.  The SPF table is int32, so
    limit must be below 2**31."""
    if limit < 2:
        return []
    return _table_primes(_spf_table(limit)).tolist()


_SMALL_TABLE = _spf_table(SMALL_LIMIT - 1)
SMALL_SPF = _SMALL_TABLE.tolist()  # plain ints index fastest
_SMALL_PRIMES = _table_primes(_SMALL_TABLE)


def divide_out(n, p):
    """Return (n / p**e, e) for the largest e >= 0 with p**e dividing n."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return n, e


def factor_small(n):
    """Factor 1 <= n < 2**31; returns the sorted list of (prime, exponent)
    pairs, empty for n = 1."""
    if not 1 <= n < FAST_LIMIT:
        raise ValueError(f"factor_small needs 1 <= n < 2**31, got {n}")
    pairs = []
    if n < SMALL_LIMIT:
        while n > 1:
            p = SMALL_SPF[n]
            n, e = divide_out(n, p)
            pairs.append((p, e))
        return pairs
    # One vectorized pass finds every prime up to isqrt(n) that divides n.
    # What is left after dividing them out is 1 or a prime.
    basis = _SMALL_PRIMES[: np.searchsorted(_SMALL_PRIMES, math.isqrt(n), side="right")]
    for p in basis[n % basis == 0].tolist():
        n, e = divide_out(n, p)
        pairs.append((p, e))
    if n > 1:
        pairs.append((n, 1))
    return pairs


def factor_stats_range(limit):
    """Greatest prime factor, distinct-prime count and radical for 1..limit.

    Returns three arrays indexed by n (entry 0 is unused and left at 0):
    gpf as int64 with gpf[1] = 1, omega as int8, radical as int64 with
    rad[1] = 1.  Used for bulk verification against independent sieves.

    Reads one SPF table: with p = spf[n] and m = n // p, the values for n
    follow from those for m, and p is new to n exactly when spf[m] != p.
    Since m <= n // 2, each block [lo, 2*lo) needs only entries below lo and
    is filled by a handful of vectorized passes.
    """
    if not 1 <= limit < FAST_LIMIT:
        raise ValueError(f"factor_stats_range needs 1 <= limit < 2**31, got {limit}")
    spf = _spf_table(limit)
    gpf = np.zeros(limit + 1, dtype=np.int64)
    omg = np.zeros(limit + 1, dtype=np.int8)
    rad = np.zeros(limit + 1, dtype=np.int64)
    gpf[1] = rad[1] = 1
    lo = 2
    while lo <= limit:
        hi = min(2 * lo, limit + 1)
        p = spf[lo:hi]
        m = np.arange(lo, hi, dtype=np.int32) // p
        new = spf[m] != p
        gpf[lo:hi] = np.maximum(gpf[m], p)
        omg[lo:hi] = omg[m] + new
        rad[lo:hi] = rad[m] * np.where(new, p, 1)
        lo = hi
    return gpf, omg, rad
