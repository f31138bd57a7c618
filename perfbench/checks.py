"""Correctness checks on the records a pass writes.

Nothing here imports smoothdigits.  Every expected value is recomputed
apart from the program: enumerations by nested loops over exponents and
digits, primality by sympy, iterated logarithms by mpmath at 40 digits,
digit counts by sympy.ntheory.digits or by plain division.  A check never
compares against a stored copy of earlier output.

`CommandCheck(cmd).result(text)` takes the full stdout of one command and
returns how many of the records it was due to write are missing or wrong,
and how many of the others are complete and partial.  The `*_problem`
functions return None for a good record and a short reason otherwise.
"""

import json
import math
from functools import lru_cache
from itertools import combinations, product

import mpmath
import sympy
from sympy.ntheory import digits as sympy_digits

_MP = mpmath.MPContext()
_MP.dps = 40

_REL_TOL = 1e-9
_JSON_EXACT = 1 << 53
NA = "not applicable"

is_prime = lru_cache(maxsize=None)(sympy.isprime)


# ---------------------------------------------------------------------------
# independent recomputation


def sparse_values(base, k, count):
    """The `count` smallest integers that base does not divide and that
    have at most k nonzero base-`base` digits.

    All such integers below base**width come from choosing the nonzero
    positions (0 always among them) and a digit for each; width grows
    until there are enough of them.
    """
    width = 1
    while True:
        values = []
        for t in range(1, min(k, width) + 1):
            for upper in combinations(range(1, width), t - 1):
                positions = (0,) + upper
                for ds in product(range(1, base), repeat=t):
                    values.append(sum(d * base**e for d, e in zip(ds, positions)))
        if len(values) >= count:
            return sorted(values)[:count]
        width += 1


def smooth_products(primes, limit):
    """Every product of powers of `primes` up to `limit`, unordered."""
    out = [1]
    for p in primes:
        grown = []
        for v in out:
            while v <= limit:
                grown.append(v)
                v *= p
        out = grown
    return out


def has_few_digits(v, base, k):
    """True when v has at most k nonzero base-`base` digits."""
    count = 0
    while v:
        v, r = divmod(v, base)
        if r:
            count += 1
            if count > k:
                return False
    return True


def nonzero_digits(v, base):
    """Nonzero base-`base` digits of v, counted by sympy.ntheory.digits.

    Long integers are first split as v = hi * base**h + lo; the digits of
    lo padded to h places and those of hi make up the digits of v, so the
    counts add.  This only keeps sympy's digit loop on short integers.
    """
    if v.bit_length() <= 1024:
        ds = sympy_digits(v, base)[1:]
        return len(ds) - ds.count(0)
    h = int(v.bit_length() / math.log2(base) / 2)
    hi, lo = divmod(v, base**h)
    return nonzero_digits(hi, base) + nonzero_digits(lo, base)


def _tower(x, depth):
    """mpmath (log x, log log x, ...) to `depth` levels, or None where a
    level is <= 0."""
    levels = []
    v = _MP.mpf(x)
    for _ in range(depth):
        if v <= 0:
            return None
        v = _MP.log(v)
        levels.append(v)
    return levels if levels[-1] > 0 else None


def thm11_ref(value, k, eps):
    """(1/(k-2) - eps) * loglog u * logloglog u / loglogloglog u."""
    tower = _tower(value, 4) if k >= 3 else None
    if tower is None:
        return None
    _, l2, l3, l4 = tower
    return (_MP.mpf(1) / (k - 2) - _MP.mpf(eps)) * l2 * l3 / l4


def cor15_ref(value, eps):
    """(1 - eps) * loglog n / logloglog n."""
    tower = _tower(value, 3)
    if tower is None:
        return None
    _, l2, l3 = tower
    return (1 - _MP.mpf(eps)) * l2 / l3


def stewart_bound_ref(n):
    """log n / (2 log log n)."""
    return _MP.log(n) / (2 * _MP.log(_MP.log(n)))


# ---------------------------------------------------------------------------
# field helpers


def _int(x):
    """A JSON integer field: a number below 2**53, a decimal string above."""
    if isinstance(x, bool):
        raise ValueError("boolean where an integer belongs")
    if isinstance(x, int) and abs(x) < _JSON_EXACT:
        return x
    if isinstance(x, str) and x.lstrip("-").isdigit() and abs(int(x)) >= _JSON_EXACT:
        return int(x)
    raise ValueError(f"bad integer field {x!r}")


def _threshold_problem(name, got, ref):
    if ref is None:
        return None if got == NA else f"{name} is {got!r}, expected {NA!r}"
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return f"{name} is {got!r}, expected a number"
    if abs(got - ref) > _REL_TOL * abs(ref):
        return f"{name} is {got!r}, expected {float(ref)!r}"
    return None


def _flag_problem(name, got, expected):
    return None if got is expected else f"{name} is {got!r}, expected {expected!r}"


def factor_problem(value, factors, cofactor, complete, P, omega, Q):
    """Checks one factorization as written: the pairs and cofactor multiply
    back to the value, every pair is a prime, a remaining cofactor is
    composite, and P, omega and Q follow from the pairs."""
    pairs = [(_int(p), _int(e)) for p, e in factors]
    cofactor = _int(cofactor)
    if any(e < 1 for _, e in pairs):
        return "exponent below 1"
    if any(a[0] >= b[0] for a, b in zip(pairs, pairs[1:])):
        return "primes not strictly increasing"
    if math.prod(p**e for p, e in pairs) * cofactor != value:
        return "factors and cofactor do not multiply to the value"
    for p, _ in pairs:
        if not is_prime(p):
            return f"factor {p} is not prime"
    if cofactor < 1 or (cofactor != 1 and is_prime(cofactor)):
        return f"cofactor {cofactor} is not 1 or composite"
    if complete is not (cofactor == 1):
        return f"complete is {complete!r} with cofactor {cofactor}"
    if complete:
        primes = [p for p, _ in pairs]
        want = (max(primes, default=1), len(primes), math.prod(primes))
        got = (None if P is None else _int(P), omega, None if Q is None else _int(Q))
        if got != want:
            return f"P, omega, Q are {got}, expected {want}"
    elif (P, omega, Q) != (None, None, None):
        return "P, omega, Q must be null on a partial record"
    return None


# ---------------------------------------------------------------------------
# one record of each kind


def survey_problem(rec, j, value, cmd):
    """Checks one `survey sparse` record; `value` is the independently
    enumerated j-th member."""
    base, k = cmd["base"], cmd["k"]
    if rec.get("j") != j or _int(rec.get("value")) != value or rec.get("base") != base:
        return f"record {j}: j, value or base is not ({j}, {value}, {base})"
    exps, digs = rec["exponents"], rec["digits"]
    if (len(exps) != len(digs) or rec["nz"] != len(exps)
            or any(a >= b for a, b in zip(exps, exps[1:]))
            or any(not 0 < d < base for d in digs)
            or sum(d * base**e for d, e in zip(digs, exps)) != value):
        return f"record {j}: nz, exponents or digits do not spell {value}"
    nz = rec["nz"]
    reason = factor_problem(value, rec["factors"], rec["cofactor"], rec["complete"],
                            rec["P"], rec["omega"], rec["Q"])
    if reason:
        return f"record {j}: {reason}"
    t11, t15 = thm11_ref(value, k, cmd["eps"]), cor15_ref(value, cmd["eps"])
    P = rec["P"] if rec["P"] is None else _int(rec["P"])
    reason = (
        _threshold_problem("thm11", rec["thm11"], t11)
        or _flag_problem("thm11_exceeded", rec["thm11_exceeded"],
                         None if t11 is None or P is None else P > t11)
        or _threshold_problem("cor15", rec["cor15"], t15)
        or _flag_problem("cor15_exceeded", rec["cor15_exceeded"],
                         None if t15 is None else nz > t15)
    )
    if reason:
        return f"record {j}: {reason}"
    traced = (rec["trace_branch"], rec["trace_rows_ok"], rec["trace_size_condition"])
    if rec["complete"] and nz >= 2:
        branch = "lambda_a" if nz == 2 or exps[-1] >= 2 * exps[-2] else "lambda_u"
        if traced[0] != branch:
            return f"record {j}: trace_branch is {traced[0]!r}, expected {branch!r}"
        if not all(isinstance(t, bool) for t in traced[1:]):
            return f"record {j}: trace flags are {traced[1:]}"
    elif traced != (None, None, None):
        return f"record {j}: an untraced record carries trace fields"
    return None


def stewart_problem(rec, n, nz):
    if rec.get("n") != n or rec.get("nz") != nz:
        return f"row n={rec.get('n')}: nz is {rec.get('nz')!r}, expected n={n} nz={nz}"
    bound = stewart_bound_ref(n)
    return (_threshold_problem(f"row {n}: bound", rec["bound"], bound)
            or _flag_problem(f"row {n}: exceeds", rec["exceeds"], nz > bound))


def search_problem(rec, value, cmd):
    if _int(rec.get("value")) != value:
        return f"hit {rec.get('value')!r}, expected {value}"
    nz = nonzero_digits(value, cmd["base"])
    if rec.get("nz") != nz:
        return f"hit {value}: nz is {rec.get('nz')!r}, expected {nz}"
    t15 = cor15_ref(value, cmd["eps"])
    return (_threshold_problem(f"hit {value}: cor15", rec["cor15"], t15)
            or _flag_problem(f"hit {value}: cor15_exceeded", rec["cor15_exceeded"],
                             None if t15 is None else nz > t15))


# ---------------------------------------------------------------------------
# whole commands


class CommandCheck:
    """Expected records of one command, computed once and used to check
    the output of every pass."""

    def __init__(self, cmd):
        self.cmd = cmd
        kind = cmd["kind"]
        if kind == "survey":
            self.expected = sparse_values(cmd["base"], cmd["k"], cmd["count"])
        elif kind == "stewart":
            a, base = cmd["a"], cmd["base"]
            self.expected = [(n, nonzero_digits(a**n, base))
                             for n in range(cmd["start"], cmd["end"] + 1)]
        elif kind == "search":
            base, k = cmd["base"], cmd["k"]
            self.expected = sorted(
                v for v in smooth_products(cmd["primes"], cmd["limit"])
                if v % base and has_few_digits(v, base, k)
            )
        else:
            raise ValueError(f"unknown command kind {kind!r}")
        # Output lines already found correct, by position -> whether the
        # record is complete.  A line seen again at the same position on a
        # later pass needs no second check.
        self._good = {}

    @property
    def due(self):
        """Records the command is due to write."""
        return len(self.expected)

    def problem(self, i, rec):
        """Reason the i-th data record (0-based) is wrong, or None."""
        kind, want = self.cmd["kind"], self.expected[i]
        if kind == "survey":
            return survey_problem(rec, i + 1, want, self.cmd)
        if kind == "stewart":
            return stewart_problem(rec, *want)
        return search_problem(rec, want, self.cmd)

    def result(self, text, report=None):
        """(failed, complete, partial) for the command's stdout: records
        failed among those due, and correct records that are complete and
        that are partial.

        A missing header fails every record.  A missing, extra or wrong
        record fails its position; extra records past the end also count,
        up to the number due.  `report`, if given, receives the first
        reason of failure.
        """
        lines = text.splitlines()
        if not lines or lines[0] != json.dumps({"schema": 1}):
            if report:
                report('missing {"schema": 1} header')
            return self.due, 0, 0
        body = lines[1:]
        failed = complete = 0
        for i in range(self.due):
            if i >= len(body):
                reason = "record missing"
            else:
                reason = self._line_problem(i, body[i])
            if reason:
                failed += 1
                if report and failed == 1:
                    report(reason)
            else:
                complete += self._good[i, body[i]]
        extra = max(0, len(body) - self.due)
        if extra and report and not failed:
            report(f"{extra} record(s) past the {self.due} due")
        return min(self.due, failed + extra), complete, self.due - failed - complete

    def _line_problem(self, i, line):
        if (i, line) in self._good:
            return None
        try:
            rec = json.loads(line)
            reason = self.problem(i, rec)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            reason = f"record {i + 1}: unreadable ({exc!r})"
        if reason is None:
            self._good[i, line] = rec.get("complete", True) is True
        return reason
