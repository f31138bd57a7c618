"""Batch harnesses joining enumeration, factorization and the bound
calculators: sparse-sequence surveys, fixed-power digit surveys, the
cyclotomic construction of smooth shifted powers, and the smooth-sparse
search.

Record streams are deterministic: identical inputs produce identical
records in identical order.  Values that resist factoring within the budget
are emitted with complete=False rather than dropped.
"""

# argparse imports locale, through gettext, on every command-line call.  It is
# imported with the package, where it came in with the process pool's modules
# before that import went lazy, so a command's first record does not wait for it.
import locale  # noqa: F401
import math
from dataclasses import dataclass, field
from itertools import accumulate, islice, repeat
from typing import Iterator, Optional

import numpy as np

from .digits import _nz_chunk_table, decompose, nz_count, power_nz_counts
from .factor import (
    DEFAULT_BUDGET,
    _as_prime_set,
    _divisors,
    _primitive_power,
    cyclotomic_value,
    factorize,
    mobius,
)
from .bounds import (
    cor15_threshold,
    lemma31_trace,
    log_tower,
    remark45_check,
    thm11_threshold,
    thm13_threshold,
)
from .sequences import DigitBudget, smooth_sequence, sparse_sequence, sparse_sequence_f

__all__ = [
    "SurveyRecord",
    "StewartRow",
    "CyclotomicReport",
    "SearchHit",
    "WindowStat",
    "sparse_survey",
    "window_minima",
    "stewart_survey",
    "multiplicatively_independent",
    "cyclotomic_smooth",
    "smooth_sparse_search",
    "mobius",
    "cyclotomic_value",
]


# ---------------------------------------------------------------------------
# sparse survey


@dataclass
class SurveyRecord:
    """One enumerated integer joined with its factor data and thresholds.

    Threshold entries are float values or None ("not applicable"); the
    paired *_exceeded entries are None whenever the threshold or the factor
    data they compare against is unavailable."""

    j: int
    value: int
    base: int
    nz: int
    exponents: tuple[int, ...]
    digits: tuple[int, ...]
    complete: bool
    factors: tuple[tuple[int, int], ...]
    cofactor: int
    P: Optional[int]
    omega: Optional[int]
    Q: Optional[int]
    thresholds: dict = field(default_factory=dict)
    trace_branch: Optional[str] = None
    trace_rows_ok: Optional[bool] = None
    trace_size_condition: Optional[bool] = None


def _survey_record(j, value, base, k, fact, eps, f_value, delta0) -> SurveyRecord:
    """The record of value.  k None means a digit-budget survey: f_value is
    then the budget at value and delta0 its slack, or both are None when
    thm13 does not apply."""
    expansion = decompose(value, base)
    nz = expansion.k
    complete = fact.complete
    p_max, omega_n, rad = fact.summary()

    thresholds: dict = {}
    t11 = thm11_threshold(value, k, eps) if k is not None and k >= 3 else None
    thresholds["thm11"] = t11
    thresholds["thm11_exceeded"] = (
        None if (t11 is None or p_max is None) else bool(p_max > t11)
    )
    t15 = cor15_threshold(value, eps)
    thresholds["cor15"] = t15
    thresholds["cor15_exceeded"] = None if t15 is None else bool(nz > t15)
    if k is None:
        t13 = None if delta0 is None else thm13_threshold(value, f_value, delta0, eps)
        thresholds["thm13"] = t13
        thresholds["thm13_exceeded"] = (
            None if (t13 is None or p_max is None) else bool(p_max > t13)
        )

    branch = rows_ok = size_ok = None
    if complete and nz >= 2:
        report = lemma31_trace(value, base, fact, expansion)
        branch = report.branch
        rows_ok = report.expected_rows_hold
        size_ok = report.size_condition_met

    exponents, digits = zip(*expansion.terms)
    return SurveyRecord(
        j=j,
        value=value,
        base=base,
        nz=nz,
        exponents=exponents,
        digits=digits,
        complete=complete,
        factors=fact.pairs,
        cofactor=fact.cofactor,
        P=p_max,
        omega=omega_n,
        Q=rad,
        thresholds=thresholds,
        trace_branch=branch,
        trace_rows_ok=rows_ok,
        trace_size_condition=size_ok,
    )


def sparse_survey(
    base: int,
    count: int,
    *,
    k: Optional[int] = None,
    budget_fn: Optional[DigitBudget] = None,
    factor_budget: int = DEFAULT_BUDGET,
    eps: float = 0.0,
    max_value: Optional[int] = None,
    workers: int = 1,
) -> Iterator[SurveyRecord]:
    """Survey the first `count` members of the sparse sequence for `base`
    with fixed digit count k, or with a digit-budget function.

    Each record joins the expansion, the (possibly partial) factorization,
    the applicable thresholds, and the proof-trace summary.  Arguments are
    validated eagerly; records are then made one value at a time.
    workers > 1 builds the records from the 16th value on in that many
    processes (see `_survey_records`); the records and their order are
    unchanged.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if (k is None) == (budget_fn is None):
        raise ValueError("exactly one of k and budget_fn must be given")
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if k is not None:
        stream = sparse_sequence(base, k, max_value=max_value)
    else:
        stream = sparse_sequence_f(base, budget_fn, max_value=max_value)
    return _survey_records(
        islice(stream, count), base, k, budget_fn, factor_budget, eps, workers
    )


# Batches of fewer values than this are built in the survey's process, so
# that the first record and short surveys never wait for a pool to start,
# and so that a tracer in this process sees every layer of a record: in
# base 10 the first value with a proof trace, 11, comes at j = 10.
_POOL_BATCH = 16


def _survey_records(values, base, k, budget_fn, factor_budget, eps, workers):
    """The records of values, from j = 1, made a batch of 1, 2, 4, ... up
    to 256 values at a time: records built after a whole batch is factored
    run faster than records interleaved with each call, the first still
    follows one call, and no more than one batch is drawn ahead of the
    records.

    With workers > 1, each batch from the one of _POOL_BATCH values on is
    mapped over a pool of that many processes, which build its records
    whole, in chunks of half of each worker's share; the pool starts at
    the first such batch.  A batch is submitted before the records of the
    one before it are yielded, so the workers build while this process
    writes.  The budget at each value is read here: a DigitBudget holds
    closures, which do not pickle."""
    delta0 = None if budget_fn is None else budget_fn.delta0

    def budget_at(v):
        return None if delta0 is None else budget_fn(v)

    values = iter(values)
    pool = None
    ahead = ()  # the records of the batch on the pool
    j = 1
    try:
        size = 1
        while batch := list(islice(values, size)):
            js = range(j, j + len(batch))
            if workers < 2 or size < _POOL_BATCH:
                facts = [factorize(v, factor_budget) for v in batch]
                yield from (
                    _survey_record(i, v, base, k, fact, eps, budget_at(v), delta0)
                    for i, v, fact in zip(js, batch, facts)
                )
            else:
                if pool is None:
                    # imported here: it pulls in multiprocessing, which short runs never need
                    from concurrent.futures import ProcessPoolExecutor

                    pool = ProcessPoolExecutor(workers)
                running = pool.map(
                    _pool_record, js, batch, map(budget_at, batch),
                    repeat((base, k, factor_budget, eps, delta0)),
                    chunksize=max(1, len(batch) // (2 * workers)),
                )
                yield from ahead
                ahead = running
            j += len(batch)
            size = min(2 * size, 256)
        yield from ahead
    finally:
        if pool is not None:
            _stop_pool(pool)


def _pool_record(j, value, f_value, survey):
    """_survey_record on a worker.  The pool pickles this function by name,
    which a wrapper put on a global of this module, as perfbench/tracer.py
    does, would not have."""
    base, k, factor_budget, eps, delta0 = survey
    fact = factorize(value, factor_budget)
    return _survey_record(j, value, base, k, fact, eps, f_value, delta0)


def _stop_pool(pool):
    """Shut the pool down without waiting for chunks still running, as
    `ProcessPoolExecutor.terminate_workers` does from Python 3.14: cancel
    the chunks not yet started and terminate the workers.  After the last
    batch the workers are idle; after an early close, no worker outlives
    the survey or delays the exit.

    The pool's manager thread reaps the terminated workers itself, and a
    join here could race it: the loser's waitpid fails and leaves the
    process listed as running.  So wait for that thread, which ends once
    every worker is reaped."""
    workers = list(pool._processes.values())
    manager = pool._executor_manager_thread
    pool.shutdown(wait=False, cancel_futures=True)
    for process in workers:
        process.terminate()
    manager.join()


@dataclass
class WindowStat:
    """Minimum greatest-prime-factor over a dyadic index window."""

    t: int
    j_lo: int
    j_hi: int  # inclusive
    min_P: Optional[int]
    complete: int
    total: int


def window_minima(records) -> list[WindowStat]:
    """Aggregate P over dyadic windows [2^t, 2^(t+1)) of the index j.
    Partially factored records count toward `total` only."""
    stats: dict[int, WindowStat] = {}
    for rec in records:
        t = rec.j.bit_length() - 1
        st = stats.get(t)
        if st is None:
            st = stats[t] = WindowStat(
                t=t, j_lo=1 << t, j_hi=(1 << (t + 1)) - 1,
                min_P=None, complete=0, total=0,
            )
        st.total += 1
        if rec.P is not None:
            st.complete += 1
            if st.min_P is None or rec.P < st.min_P:
                st.min_P = rec.P
    return [stats[t] for t in sorted(stats)]


# ---------------------------------------------------------------------------
# fixed-power digit survey


@dataclass
class StewartRow:
    n: int
    nz: int
    bound: float
    exceeds: bool


def multiplicatively_independent(a: int, b: int) -> bool:
    """True unless a and b are both integer powers of a common g >= 2."""
    if a < 2 or b < 2:
        raise ValueError("both arguments must be >= 2")
    return _primitive_power(a)[0] != _primitive_power(b)[0]


def stewart_survey(a: int, base: int, n_range: tuple[int, int]) -> Iterator[StewartRow]:
    """Digit counts of a**n in the given base for n in [start, end], against
    the classical (log n)/(2 loglog n) bound.

    Rows where the count does not exceed the bound are flagged, not
    rejected: the bound is asymptotic and small n may legitimately fall
    short.  Requires a and base multiplicatively independent and start >= 3
    (so loglog n is positive).  Arguments are validated eagerly, before the
    first row is requested.
    """
    if a < 2 or base < 2:
        raise ValueError("a and base must be >= 2")
    if not multiplicatively_independent(a, base):
        raise ValueError(f"{a} and {base} are multiplicatively dependent")
    start, end = n_range
    if start < 3:
        raise ValueError("start must be >= 3 so the bound is defined")
    if end < start:
        raise ValueError("empty range")
    return _stewart_rows(a, base, start, end)


def _stewart_rows(a, base, start, end):
    for n, nz in zip(range(start, end + 1), power_nz_counts(a, base, start)):
        bound = math.log(n) / (2.0 * math.log(math.log(n)))
        yield StewartRow(n=n, nz=nz, bound=bound, exceeds=nz > bound)


# ---------------------------------------------------------------------------
# cyclotomic construction


@dataclass
class CyclotomicReport:
    n: int
    N: int  # 2**n + 1
    parts: tuple[tuple[int, int], ...]  # (d, value of d-th polynomial at 2)
    identity_ok: bool
    complete: bool
    factors: tuple[tuple[int, int], ...]
    cofactor: int
    P: Optional[int]
    min_c: Optional[float]


def cyclotomic_smooth(n: int, factor_budget: int = DEFAULT_BUDGET) -> CyclotomicReport:
    """Build 2**n + 1 as the product of cyclotomic values at 2 over the
    divisors d of 2n that do not divide n, verify the product exactly, and
    report `factorize(2**n + 1, factor_budget)`, which splits N into those
    parts (and Aurifeuillian halves) before it factors them.

    min_c is the smallest scale c for which remark45_check(N, P, c),
    log P <= c * log N / logloglog N, passes; None when N is too small for
    the triple logarithm or the factorization is incomplete.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    N = 2**n + 1
    ds = [d for d in _divisors(2 * n) if n % d != 0]
    parts = tuple((d, cyclotomic_value(d, 2)) for d in ds)
    identity_ok = math.prod(v for _, v in parts) == N

    whole = factorize(N, factor_budget)
    p_max = whole.summary()[0]

    min_c = None
    if p_max is not None:
        tower = log_tower(N, 3)
        if tower is not None:
            l1, _, l3 = tower
            # the scale that solves the check, nudged up until it passes
            min_c = math.nextafter(math.log(p_max) * l3 / l1, math.inf)
            while not remark45_check(N, p_max, min_c):
                min_c = math.nextafter(min_c, math.inf)
    return CyclotomicReport(
        n=n,
        N=N,
        parts=parts,
        identity_ok=identity_ok,
        complete=whole.complete,
        factors=whole.pairs,
        cofactor=whole.cofactor,
        P=p_max,
        min_c=min_c,
    )


# ---------------------------------------------------------------------------
# smooth-sparse search


@dataclass
class SearchHit:
    value: int
    nz: int
    cor15: Optional[float]
    cor15_exceeded: Optional[bool]


def smooth_sparse_search(
    base: int, k: int, primes, limit: int, *, eps: float = 0.0
) -> Iterator[SearchHit]:
    """All integers <= limit supported on the given primes, not divisible by
    `base`, with at most k nonzero digits, in increasing order.  An empty
    result is meaningful: such integers are expected to be scarce.
    Arguments are validated eagerly; hits are then found one at a time."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if eps < 0:
        raise ValueError("eps must be >= 0")
    return _search_hits(base, k, _as_prime_set(primes), limit, eps)


# Values up to _FIRST_BAND are searched term by term.  Above it, S-units
# are screened a band of values at a time, in numpy chunks of at most
# _CHUNK exponent tuples.  The smallest prime's exponent is cut to the
# band and the tuples of the other primes are built again for each band,
# so a band spans at least a factor of the smallest prime to the power
# _SPAN: the rebuild is then about 1/_SPAN of the band's own tuples.  A
# band also holds about _CHUNK tuples or more, and about _BAND_CHUNKS *
# _CHUNK or fewer: its survivors are kept until it is sorted.
_FIRST_BAND = 1 << 16
_CHUNK = 1 << 16
_SPAN = 8
_BAND_CHUNKS = 64
# The screen's modulus base**w stays below this, so that the product of
# two residues fits in a uint64.
_MODULUS_LIMIT = 1 << 32


def _search_hits(base, k, prime_set, limit, eps):
    w = _screen_digits(base, k)
    first = min(limit, _FIRST_BAND) if w else limit
    for v in smooth_sequence(prime_set, first):
        hit = _search_hit(v, base, k, eps)
        if hit is not None:
            yield hit
    if first < limit:
        yield from _band_hits(base, k, w, prime_set.primes, limit, eps)


def _screen_digits(base, k):
    """w, the number of low digits the band screen reads: the largest with
    base**w < _MODULUS_LIMIT.  0 when there is none, or when w digits can
    never hold more than k nonzero ones: the screen would then drop only
    the multiples of base, which _search_hit drops anyway.  So every base
    of 2**16 or more (w = 1) goes term by term."""
    w = 0
    while base ** (w + 1) < _MODULUS_LIMIT:
        w += 1
    return w if k < w else 0


def _search_hit(v, base, k, eps):
    """The hit at v, or None when base divides v or v has more than k
    nonzero digits."""
    if v % base == 0:
        return None
    nz = nz_count(v, base, k)
    if nz > k:
        return None
    threshold = cor15_threshold(v, eps)
    return SearchHit(
        value=v,
        nz=nz,
        cor15=threshold,
        cor15_exceeded=None if threshold is None else bool(nz > threshold),
    )


def _band_hits(base, k, w, primes, limit, eps):
    """The hits in (_FIRST_BAND, limit], one band (lo, hi] at a time.

    A band takes the exponent tuples whose float log lies in it, widened by
    a slack, and keeps a tuple only if its residue mod base**w passes
    _low_digit_screen: the w low digits of a value are digits of it, so
    the screen drops no hit.  Each survivor is rebuilt exactly; the exact
    bounds drop the slack's extra tuples, and the hits are those of
    _search_hit, in increasing order.
    """
    primes = primes[::-1]  # the smallest last: its exponent is cut to the band
    logs = [math.log(p) for p in primes]
    modulus = base**w
    screen = _low_digit_screen(base, k)
    slack = 1e-9 * (1 + math.log(limit))  # far above the rounding error of a float log
    most = math.log(limit) + slack
    tables = [_powers_mod(p, modulus, math.floor(most / l) + 1) for p, l in zip(primes, logs)]
    lo = _FIRST_BAND
    while lo < limit:
        bottom = math.log(lo)
        least = max(_band_top(logs, bottom, _CHUNK), bottom + _SPAN * logs[-1])
        width = min(least, _band_top(logs, bottom, _BAND_CHUNKS * _CHUNK)) - bottom
        hi = min(lo << math.ceil(width / math.log(2)), limit)
        top = math.log(hi) + slack
        values = []
        for exps in _screened_tuples(logs, tables, modulus, screen, bottom - slack, top):
            for row in exps.tolist():
                v = math.prod(map(pow, primes, row))
                if lo < v <= hi:
                    values.append(v)
        for v in sorted(values):
            hit = _search_hit(v, base, k, eps)
            if hit is not None:
                yield hit
        lo = hi


def _band_top(logs, bottom, count):
    """The log of the value up to which the S-units above e**bottom number
    about `count`, by the volume estimate: (log x + S/2)**r / (r! * P)
    S-units up to x, with S and P the sum and product of the logs of the r
    primes."""
    r = len(logs)
    scale = math.exp((math.lgamma(r + 1) + sum(map(math.log, logs))) / r)
    below = r * math.log((bottom + sum(logs) / 2) / scale)  # log of the count up to e**bottom
    return scale * math.exp(np.logaddexp(below, math.log(count)) / r) - sum(logs) / 2


def _powers_mod(p, modulus, n):
    """p**e % modulus for 0 <= e < n, as uint64."""
    powers = accumulate(repeat(p, n - 1), lambda x, y: x * y % modulus, initial=1)
    return np.fromiter(powers, dtype=np.uint64, count=n)


def _low_digit_screen(base, k):
    """residues -> mask of those base does not divide and whose digits hold
    at most k nonzero digits."""
    size, table = _nz_chunk_table(base)

    def screen(res):
        keep = res % base != 0
        count = table[(res % size).astype(np.intp)]
        high = res // size
        while high.any():
            count += table[(high % size).astype(np.intp)]
            high //= size
        return keep & (count <= k)

    return screen


def _screened_tuples(logs, tables, modulus, screen, bottom, top):
    """The exponent tuples e of the S-units with bottom < sum(e_i * logs[i])
    <= top, in floats, whose residues mod `modulus` pass `screen`, as
    arrays of rows.

    Every exponent but the last starts from 0, so the tuples of all primes
    but the last are rebuilt for each band; the last exponent is cut to the
    band.  Each level grows its rows a piece of at most _CHUNK children
    at a time, splitting a row whose own children are more, and only the
    survivors of the screen get their exponent rows."""
    last = len(logs) - 1

    def grow(exps, sums, residues, i):
        step = logs[i]
        stop = np.floor((top - sums) / step).astype(np.int64)
        start = np.zeros_like(stop)
        if i == last:
            np.maximum(np.ceil((bottom - sums) / step).astype(np.int64), 0, out=start)
        counts = stop - start + 1
        live = counts > 0
        exps, sums, residues = exps[live], sums[live], residues[live]
        start, counts = start[live], counts[live]
        while len(counts):
            n = int(np.searchsorted(np.cumsum(counts), _CHUNK, side="right"))
            if n:
                take, part = slice(0, n), counts[:n]
            else:  # the first row alone has more than _CHUNK children
                take, part = slice(0, 1), np.array([_CHUNK])
            parents = np.repeat(np.arange(len(part)), part)
            e = start[take][parents] + np.arange(len(parents))
            e -= np.repeat(np.cumsum(part) - part, part)
            kid_residues = residues[take][parents] * tables[i][e] % np.uint64(modulus)
            if i == last:
                keep = screen(kid_residues)
                kids = exps[take][parents[keep]]
                kids[:, i] = e[keep]
            else:
                kids = exps[take][parents]
                kids[:, i] = e
                kid_sums = sums[take][parents] + e * step
            if n:
                exps, sums, residues = exps[n:], sums[n:], residues[n:]
                start, counts = start[n:], counts[n:]
            else:
                start[0] += _CHUNK
                counts[0] -= _CHUNK
            if i == last:
                yield kids
            else:
                yield from grow(kids, kid_sums, kid_residues, i + 1)

    return grow(np.zeros((1, len(logs)), dtype=np.int64), np.zeros(1), np.ones(1, dtype=np.uint64), 0)


# ---------------------------------------------------------------------------
# record field maps
#
# The CLI writes records through these names, and perfbench/tracer.py wraps
# them by name to time the write layer; cli.RecordWriter applies the JSON
# rules.


def survey_record_dict(rec: SurveyRecord) -> dict:
    """The record's fields in order, with `thresholds` spliced in place."""
    out = {}
    for key, val in vars(rec).items():
        if key == "thresholds":
            out.update(val)
        else:
            out[key] = val
    return out


def stewart_row_dict(row: StewartRow) -> dict:
    return vars(row)


def search_hit_dict(hit: SearchHit) -> dict:
    return vars(hit)
