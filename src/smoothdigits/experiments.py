"""Batch harnesses joining enumeration, factorization and the bound
calculators: sparse-sequence surveys, fixed-power digit surveys, the
cyclotomic construction of smooth shifted powers, and the smooth-sparse
search.

Record streams are deterministic: identical inputs produce identical
records in identical order.  Values that resist factoring within the budget
are emitted with complete=False rather than dropped.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Iterator, Optional

from .digits import decompose, nz_count
from .factor import (
    DEFAULT_BUDGET,
    PrimeSet,
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


def _survey_record(j, value, base, k, fact, eps, budget_fn) -> SurveyRecord:
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
    if budget_fn is not None:
        if budget_fn.delta0 is None or value < 3:
            t13 = None
        else:
            t13 = thm13_threshold(value, budget_fn(value), budget_fn.delta0, eps)
        thresholds["thm13"] = t13
        thresholds["thm13_exceeded"] = (
            None if (t13 is None or p_max is None) else bool(p_max > t13)
        )

    branch = rows_ok = size_ok = None
    if complete and nz >= 2:
        report = lemma31_trace(value, base, fact)
        branch = report.branch
        rows_ok = report.expected_rows_hold
        size_ok = report.size_condition_met

    return SurveyRecord(
        j=j,
        value=value,
        base=base,
        nz=nz,
        exponents=expansion.exponents,
        digits=expansion.digits,
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
    workers > 1 fans factorization out over processes; record order is
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


def _survey_records(values, base, k, budget_fn, factor_budget, eps, workers):
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        if pool is None:
            facts = _factor_in_batches(values, factor_budget)
        else:
            facts = pool.map(factorize, values, repeat(factor_budget), chunksize=16)
        for j, fact in enumerate(facts, start=1):
            yield _survey_record(j, fact.n, base, k, fact, eps, budget_fn)


def _factor_in_batches(values, budget):
    """factorize over values, a batch of 1, 2, 4, ... up to 256 values at a
    time: records built after a whole batch run faster than records
    interleaved with each call, and the first still follows one call."""
    values = iter(values)
    size = 1
    while batch := list(islice(values, size)):
        yield from [factorize(v, budget) for v in batch]
        size = min(2 * size, 256)


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
    power = a**start
    for n in range(start, end + 1):
        nz = nz_count(power, base)
        bound = math.log(n) / (2.0 * math.log(math.log(n)))
        yield StewartRow(n=n, nz=nz, bound=bound, exceeds=nz > bound)
        power *= a


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

    min_c is the smallest exponent scale for which the smoothness check
    log P <= c * log N / logloglog N passes; None when N is too small for
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
            # smallest c passing the check, nudged up so it still passes
            min_c = math.nextafter(math.log(p_max) * l3 / l1, math.inf)
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
) -> list[SearchHit]:
    """All integers <= limit supported on the given primes, not divisible by
    `base`, with at most k nonzero digits.  An empty result is meaningful:
    such integers are expected to be scarce."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    prime_set = _as_prime_set(primes)
    hits = []
    for v in smooth_sequence(prime_set, limit):
        if v % base == 0:
            continue
        nz = nz_count(v, base)
        if nz <= k:
            threshold = cor15_threshold(v, eps)
            hits.append(
                SearchHit(
                    value=v,
                    nz=nz,
                    cor15=threshold,
                    cor15_exceeded=None if threshold is None else bool(nz > threshold),
                )
            )
    return hits


# ---------------------------------------------------------------------------
# serialization


def _json_int(v: int):
    """Integers beyond 2**53 go out as decimal strings so JSON consumers
    with double-precision parsers cannot corrupt them."""
    return v if abs(v) < (1 << 53) else str(v)


def _json_threshold(v):
    """Threshold fields are a number or the literal "not applicable"."""
    return "not applicable" if v is None else v


def _json_pairs(pairs):
    return [[_json_int(p), e] for p, e in pairs]


def survey_record_dict(rec: SurveyRecord) -> dict:
    out = {
        "j": rec.j,
        "value": _json_int(rec.value),
        "base": _json_int(rec.base),
        "nz": rec.nz,
        "exponents": list(rec.exponents),
        "digits": list(rec.digits),
        "complete": rec.complete,
        "factors": _json_pairs(rec.factors),
        "cofactor": _json_int(rec.cofactor),
        "P": None if rec.P is None else _json_int(rec.P),
        "omega": rec.omega,
        "Q": None if rec.Q is None else _json_int(rec.Q),
    }
    for key, val in rec.thresholds.items():
        out[key] = val if key.endswith("_exceeded") else _json_threshold(val)
    out["trace_branch"] = rec.trace_branch
    out["trace_rows_ok"] = rec.trace_rows_ok
    out["trace_size_condition"] = rec.trace_size_condition
    return out


def stewart_row_dict(row: StewartRow) -> dict:
    return {"n": row.n, "nz": row.nz, "bound": row.bound, "exceeds": row.exceeds}


def cyclotomic_report_dict(rep: CyclotomicReport) -> dict:
    return {
        "n": rep.n,
        "N": _json_int(rep.N),
        "parts": [[d, _json_int(v)] for d, v in rep.parts],
        "identity_ok": rep.identity_ok,
        "complete": rep.complete,
        "factors": _json_pairs(rep.factors),
        "cofactor": _json_int(rep.cofactor),
        "P": None if rep.P is None else _json_int(rep.P),
        "min_c": rep.min_c,
    }


def search_hit_dict(hit: SearchHit) -> dict:
    return {
        "value": _json_int(hit.value),
        "nz": hit.nz,
        "cor15": _json_threshold(hit.cor15),
        "cor15_exceeded": hit.cor15_exceeded,
    }
