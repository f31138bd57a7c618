"""The four workloads: which CLI commands one pass runs, for a given seed.

A workload is a list of commands.  Each command is the argument list for
`smoothdigits.cli.main` plus the parameters the checks need to recompute
its records independently.  Seed 0 is the reference command set; other
seeds vary only what leaves the layer doing the work, and the amount of
work, the same (see README.md).
"""

import math
import random

# Workload name -> why it exists.  BENCHMARK.json repeats these lines.
WORKLOADS = {
    "survey-b2-k2": "values 2^m+1, the algebraic class; factorize is ~98% of the pass",
    "survey-b2-k3": "generic 60-80 bit values with no algebraic form; Brent rho is the cost",
    "survey-b10-k3": "values below 2^31: factor_small, trace, thresholds and JSONL writing, no rho",
    "scan": "search and stewart: no factoring; nz_count on short and on very long integers",
}

_SURVEYS = {
    "survey-b2-k2": (2, 2, 150),
    "survey-b2-k3": (2, 3, 3000),
    "survey-b10-k3": (10, 3, 20000),
}

# scan, seed 0
_SEARCH_BASE, _SEARCH_K = 3, 4
_SEARCH_PRIMES = (2, 5, 7, 11, 13)
_SEARCH_LIMIT = 10**30
_STEWART_A, _STEWART_BASE, _STEWART_END = 2, 3, 8000


def _eps(rng, seed):
    # eps moves the threshold columns only; every record costs the same.
    return 0.0 if seed == 0 else round(rng.uniform(0.0, 0.2), 4)


def _search_limit(primes):
    """Limit under which the given five primes have as many products as
    the seed-0 set has under 10**30 (about 1.35 M).

    The count of p-smooth products up to x is close to
    (ln x + S/2)**r / (r! * P), S and P the sum and product of the ln p,
    so holding it fixed fixes ln x + S/2 up to the factor P**(1/r).
    """
    def shape(ps):
        logs = [math.log(p) for p in ps]
        return sum(logs), math.prod(logs)

    s0, p0 = shape(_SEARCH_PRIMES)
    s, p = shape(primes)
    r = len(primes)
    log_x = (math.log(_SEARCH_LIMIT) + s0 / 2) * (p / p0) ** (1 / r) - s / 2
    exponent = math.floor(log_x / math.log(10)) - 5
    return round(math.exp(log_x - exponent * math.log(10))) * 10**exponent


def commands(workload, seed):
    """The commands of one pass, as a list of dicts with `argv`, `kind`
    and the parameters of that kind."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in _SURVEYS:
        base, k, count = _SURVEYS[workload]
        eps = _eps(rng, seed)
        argv = ["survey", "sparse", "--base", str(base), "--k", str(k),
                "--count", str(count), "--eps", repr(eps)]
        return [dict(kind="survey", argv=argv, base=base, k=k, count=count, eps=eps)]
    if workload == "scan":
        eps = _eps(rng, seed)
        primes, limit, start = _SEARCH_PRIMES, _SEARCH_LIMIT, 3
        if seed != 0:
            # The fifth prime and the start of the stewart range vary; the
            # limit keeps the product count, and the stewart end keeps the
            # longest power, so the work per pass stays the same.
            primes = _SEARCH_PRIMES[:4] + (rng.choice((17, 19, 23, 29, 31, 37)),)
            limit = _search_limit(primes)
            start = rng.randrange(3, 43)
        search = ["search", "--base", str(_SEARCH_BASE), "--k", str(_SEARCH_K),
                  "--primes", ",".join(map(str, primes)), "--limit", str(limit),
                  "--eps", repr(eps)]
        stewart = ["survey", "stewart", "--a", str(_STEWART_A), "--base",
                   str(_STEWART_BASE), "--start", str(start), "--end", str(_STEWART_END)]
        return [
            dict(kind="search", argv=search, base=_SEARCH_BASE, k=_SEARCH_K,
                 primes=primes, limit=limit, eps=eps),
            dict(kind="stewart", argv=stewart, a=_STEWART_A, base=_STEWART_BASE,
                 start=start, end=_STEWART_END),
        ]
    raise ValueError(f"unknown workload {workload!r}")
