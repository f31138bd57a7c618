"""Command-line front end.

Every subcommand writes machine-readable records to stdout (or --output)
and keeps diagnostics on stderr, so the data stream is always clean JSON
lines (with a leading {"schema": 1} header record), CSV with a header row,
or bare decimal lines for plain enumerations.

Record builders hand `RecordWriter` plain Python values; the writer owns
both output rules, in JSONL and CSV alike: an integer at or beyond 2**53,
at any depth, is written as a decimal string, and a threshold field that
is None is written as "not applicable".

Exit status: 0 success, 2 usage or domain error, 3 success but some
factorization hit its budget and results are partial, 141 the reader closed
stdout before all data was written (as `| head` does; no traceback).
"""

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import islice

from . import bounds as bmod
from . import experiments as xmod
from . import sequences as qmod
from .digits import nz_count  # unused here; perfbench/tracer.py patches it by name
from .factor import (
    DEFAULT_BUDGET,
    IncompleteFactorizationError,
    factorize,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARTIAL = 3
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE, what a shell reports for `yes | head`


# ---------------------------------------------------------------------------
# output plumbing


def _flatten_for_csv(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        if value and isinstance(value[0], dict):
            return json.dumps(value)  # the text of the JSONL record
        return ";".join(
            "^".join(str(x) for x in item) if isinstance(item, list) else str(item)
            for item in value
        )
    return value


# Integers this large or larger go out as decimal strings, so that readers
# holding JSON numbers as doubles (the I-JSON limit, RFC 7493) cannot round
# them.
_JSON_INT_LIMIT = 1 << 53

# Top-level fields whose None means "not applicable".  Elsewhere None means
# unknown (P of a partial factorization, *_exceeded, min_c) and stays null.
# "value" is a threshold only in bounds records; the enum, survey and search
# records carry their integer term there and never leave it None.
_THRESHOLD_FIELDS = frozenset({"thm11", "thm13", "cor15", "value"})


# Types both rules leave as they are (a bool is not an int here).
_SCALARS = frozenset({str, float, bool})


def _json_value(v):
    """The integer rule, applied at any depth of ints, lists, tuples and
    dicts.  Here and in RecordWriter.write an int below the limit is
    tested inline, which saves a call on most values."""
    if type(v) is int:  # not bool
        return v if -_JSON_INT_LIMIT < v < _JSON_INT_LIMIT else str(v)
    if isinstance(v, (list, tuple)):
        return [
            x if type(x) is int and -_JSON_INT_LIMIT < x < _JSON_INT_LIMIT else _json_value(x)
            for x in v
        ]
    if isinstance(v, dict):
        return {key: _json_value(x) for key, x in v.items()}
    return v


class RecordWriter:
    """Emits dict records as JSON lines (with schema header) or CSV, after
    the two output rules of the module docstring.

    CSV columns are the keys of the first record, in its order."""

    def __init__(self, fmt: str, stream):
        self.fmt = fmt
        self.stream = stream
        self._csv = None
        if fmt == "jsonl":
            print(json.dumps({"schema": SCHEMA_VERSION}), file=stream)

    def write(self, record: dict):
        record = {
            key: v
            if type(v) in _SCALARS or type(v) is int and -_JSON_INT_LIMIT < v < _JSON_INT_LIMIT
            else _json_value(v) if v is not None
            else "not applicable" if key in _THRESHOLD_FIELDS
            else None
            for key, v in record.items()
        }
        if self.fmt == "jsonl":
            self.stream.write(json.dumps(record) + "\n")
        else:
            if self._csv is None:
                self._csv = csv.DictWriter(self.stream, list(record))
                self._csv.writeheader()
            self._csv.writerow({k: _flatten_for_csv(v) for k, v in record.items()})


@contextlib.contextmanager
def _output(path):
    """The data stream: stdout, or the file at path, created on entry and
    closed on exit.  Handlers enter it only once their input is validated."""
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", newline="") as out:
            yield out


def _write_records(args, records) -> int:
    """Write records, an iterable of dicts, to the data stream in
    args.format, jsonl or csv; return how many were written."""
    count = 0
    with _output(args.output) as out:
        writer = RecordWriter(args.format, out)
        for count, record in enumerate(records, start=1):
            writer.write(record)
    return count


def _int_arg(text: str) -> int:
    """Integer flag that also accepts scientific notation like 1e9, read
    exactly; values that are not integers, such as 1.5 or 1e-3, are
    rejected."""
    try:
        value = Fraction(text)
    except ValueError:
        value = None
    if value is None or value.denominator != 1 or "/" in text:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return value.numerator


def _real_arg(text: str) -> float:
    """Real-valued flag; nan and infinities are rejected."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite real number")
    return value


def _int_at_least(low: int):
    """Argument type: an integer as read by _int_arg, no smaller than low."""

    def parse(text: str) -> int:
        value = _int_arg(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is below {low}")
        return value

    return parse


def _int_list_arg(text: str) -> tuple[int, ...]:
    """Comma-separated integer flag; each item is read by _int_arg."""
    return tuple(_int_arg(part) for part in text.split(",") if part)


def _parse_fraction_list(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(part) for part in text.split(",") if part)


def _parse_float_list(text: str) -> tuple[float, ...]:
    out = []
    for part in text.split(","):
        if not part:
            continue
        out.append(math.e if part in ("e", "E") else float(part))
    return tuple(out)


# ---------------------------------------------------------------------------
# subcommand handlers


def _digit_budget(args):
    """The --f digit budget, or None for a fixed --k; exactly one of the
    two must be given."""
    if (args.k is None) == (args.f is None):
        raise ValueError("give exactly one of --k and --f")
    return None if args.f is None else qmod.parse_budget_spec(args.f)


def _check_reach(args, budget, wanted):
    """Exit 2 before any data when a --f stream runs out of reach
    (sequences._REACH_BITS) before its first `wanted` values (None: as
    many as --max-value allows)."""
    if budget is not None:
        qmod._check_reach(args.base, budget, wanted, args.max_value)


def _cmd_enum(args) -> int:
    if args.kind in ("sparse", "powersum") and args.take is None and args.max_value is None:
        raise ValueError("unbounded stream: give --take and/or --max-value")
    if args.kind == "sparse":
        budget = _digit_budget(args)
        if budget is None:
            stream = qmod.sparse_sequence(args.base, args.k, max_value=args.max_value)
        else:
            stream = qmod.sparse_sequence_f(args.base, budget, max_value=args.max_value)
            _check_reach(args, budget, args.take)
    elif args.kind == "powersum":
        if not args.bases:
            raise ValueError("--bases is required for powersum streams")
        spec = qmod.PowerSumSpec(
            bases=args.bases,
            shared_divisor_check=not args.no_gcd_check,
        )
        stream = qmod.power_sum_sequence(spec, max_value=args.max_value)
    else:  # smooth
        if not args.primes:
            raise ValueError("--primes is required for smooth streams")
        if args.limit is None:
            raise ValueError("--limit is required for smooth streams")
        stream = qmod.smooth_sequence(args.primes, args.limit)

    stream = islice(stream, args.take)
    if args.format != "lines":
        _write_records(args, ({"j": j, "value": v} for j, v in enumerate(stream, start=1)))
        return EXIT_OK
    with _output(args.output) as out:
        for v in stream:
            print(v, file=out)
    return EXIT_OK


def _cmd_factor(args) -> int:
    complete = []

    def records():
        for n in args.n:
            fact = factorize(n, args.budget)
            complete.append(fact.complete)
            P, omega, Q = fact.summary()
            yield {
                "n": n,
                "factors": fact.pairs,
                "cofactor": fact.cofactor,
                "complete": fact.complete,
                "P": P,
                "omega": omega,
                "Q": Q,
            }

    _write_records(args, records())
    return EXIT_OK if all(complete) else EXIT_PARTIAL


def _trace_dict(report) -> dict:
    lam = report.lambda_value
    return {
        "N": report.N,
        "base": report.base,
        "branch": report.branch,
        "k": report.k,
        "k_star": report.k_star,
        "ell": report.ell,
        "p": report.p,
        "lambda_num": lam.numerator,
        "lambda_den": lam.denominator,
        "valuation": report.valuation,
        "size_condition": report.size_condition_met,
        "rows": [
            {"label": r.label, "note": r.note, "lhs": r.lhs, "rhs": r.rhs, "holds": r.holds}
            for r in report.rows
        ],
        "expected_rows_hold": report.expected_rows_hold,
    }


def _cmd_trace(args) -> int:
    fact = factorize(args.n, args.budget)
    if not fact.complete:
        raise IncompleteFactorizationError(
            f"{args.n} did not factor within budget {args.budget}; "
            f"raise --budget to trace it"
        )
    report = bmod.lemma31_trace(args.n, args.base, fact, budget=args.budget)
    if args.format == "jsonl":
        _write_records(args, [_trace_dict(report)])
        return EXIT_OK
    lam = report.lambda_value
    with _output(args.output) as out:
        print(f"N = {args.n} (base {args.base})", file=out)
        print(f"branch = {report.branch}   k = {report.k}   k* = {report.k_star}", file=out)
        if report.branch == "lambda_u":
            print(f"ell = {report.ell}   p = {report.p}   v_p = {report.valuation}", file=out)
        print(f"linear form value = {lam.numerator}/{lam.denominator}", file=out)
        print(f"size condition met: {report.size_condition_met}", file=out)
        for r in report.rows:
            mark = "ok" if r.holds else "FAIL"
            note = f" ({r.note})" if r.note else ""
            print(f"  [{mark}] row {r.label}{note}: lhs={r.lhs:.6g} rhs={r.rhs:.6g}", file=out)
    return EXIT_OK


def _bound_input(args) -> bmod.BoundInput:
    return bmod.BoundInput(
        rationals=_parse_fraction_list(args.rationals),
        exponents=args.exponents,
        heights=_parse_float_list(args.heights),
        exponent_bound=args.bigb,
        assume_product_nontrivial=args.assume_nontrivial,
    )


def _thm12_record(args) -> dict:
    if args.c is None and args.big_c is None:
        c, big_c = bmod.thm12_default_constants(args.base, args.budget)
    elif args.c is None or args.big_c is None:
        missing = "--c" if args.c is None else "--big-c"
        raise ValueError(f"bounds thm12 needs {missing} as well: give both or neither")
    else:
        c, big_c = args.c, args.big_c
    params = bmod.ThresholdParams(c_thm12=c, C_thm12=big_c)
    gap = bmod.thm12_gap(args.n, args.k, args.p_factor, args.omega, params)
    return {"c": c, "C": big_c, "gap": gap, "holds": gap >= 0}


_FORM_FLAGS = ("rationals", "exponents", "heights", "bigb")

# Each bounds operation: the flags it cannot run without, by dest name, and
# the builder of its record's fields after "op".
_BOUNDS = {
    "matveev": (_FORM_FLAGS, lambda a: {"value": bmod.matveev_lower_bound(_bound_input(a))}),
    "yu": (_FORM_FLAGS + ("p",),
           lambda a: {"p": a.p, "value": bmod.yu_valuation_bound(_bound_input(a), a.p)}),
    "thm11": (("u", "k"), lambda a: {"value": bmod.thm11_threshold(a.u, a.k, a.eps)}),
    "thm12": (("n", "k", "p_factor", "omega"), _thm12_record),
    "psi": (("u", "f_value"), lambda a: {"value": bmod.psi(a.u, a.f_value)}),
    "thm13": (("u", "f_value", "delta0"),
              lambda a: {"value": bmod.thm13_threshold(a.u, a.f_value, a.delta0, a.eps)}),
    "cor14": (("n", "nz"), lambda a: {"rows": [vars(r) for r in bmod.cor14_check(a.n, a.nz)]}),
    "cor15": (("n",), lambda a: {"value": bmod.cor15_threshold(a.n, a.eps)}),
    "thm41": (("v", "k"), lambda a: {"value": bmod.thm41_threshold(a.v, a.k, a.eps)}),
    "remark45": (
        ("n", "p_factor"),
        lambda a: {"value": bmod.remark45_check(a.n, a.p_factor, 1.0 if a.c is None else a.c)},
    ),
    "nkbound": (("k", "primes"),
                lambda a: {"value": bmod.lemma31_nk_bound(a.base, a.k, a.primes, a.budget)}),
}


def _cmd_bounds(args) -> int:
    required, build = _BOUNDS[args.op]
    for dest in required:
        if getattr(args, dest) is None:
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"bounds {args.op} needs {flag}")
    _write_records(args, [{"op": args.op, **build(args)}])
    return EXIT_OK


# What window_minima and the exit status read of a survey record.
_Seen = namedtuple("_Seen", "j P")


def _cmd_survey_sparse(args) -> int:
    budget = _digit_budget(args)
    records = xmod.sparse_survey(
        args.base,
        args.count,
        k=args.k,
        budget_fn=budget,
        factor_budget=args.budget,
        eps=args.eps,
        max_value=args.max_value,
        workers=args.threads,
    )
    _check_reach(args, budget, args.count)
    seen = []

    def dicts():
        for rec in records:
            seen.append(_Seen(rec.j, rec.P))
            yield xmod.survey_record_dict(rec)

    _write_records(args, dicts())
    stats = xmod.window_minima(seen)
    for st in stats:
        print(
            f"# window t={st.t} j=[{st.j_lo},{st.j_hi}] "
            f"min_P={st.min_P} complete={st.complete}/{st.total}",
            file=sys.stderr,
        )
    # P is None exactly on the partial records
    return EXIT_PARTIAL if any(st.complete < st.total for st in stats) else EXIT_OK


def _cmd_survey_stewart(args) -> int:
    rows = xmod.stewart_survey(args.a, args.base, (args.start, args.end))
    _write_records(args, map(xmod.stewart_row_dict, rows))
    return EXIT_OK


def _cmd_cyclo(args) -> int:
    report = xmod.cyclotomic_smooth(args.n, args.budget)
    status = EXIT_OK if report.complete else EXIT_PARTIAL
    if args.format != "text":
        _write_records(args, [vars(report)])
        return status
    with _output(args.output) as out:
        print(f"N = 2^{args.n} + 1 = {report.N}", file=out)
        for d, value in report.parts:
            print(f"  Phi_{d}(2) = {value}", file=out)
        print(f"product check: {'OK' if report.identity_ok else 'MISMATCH'}", file=out)
        if report.complete:
            factors = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in report.factors)
            print(f"factorization: {factors}", file=out)
            print(f"P[N] = {report.P}", file=out)
            print(f"smallest passing smoothness scale c = {report.min_c}", file=out)
        else:
            print(f"factorization incomplete; composite cofactor {report.cofactor}", file=out)
    return status


def _cmd_search(args) -> int:
    hits = xmod.smooth_sparse_search(args.base, args.k, args.primes, args.limit, eps=args.eps)
    count = _write_records(args, map(xmod.search_hit_dict, hits))
    print(f"# {count} hit(s)", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _record_options(parser, formats, handler):
    """The options each subcommand ends with: --format, one of formats and
    the first by default, and --output; and the handler that runs it."""
    parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument("--output")
    parser.set_defaults(handler=handler)


def _usable_cpus() -> int:
    """The CPUs this process may run on, or all of the machine's where the
    platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity: macOS, Windows
        return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothdigits",
        description="enumerate, factor and bound integers with few nonzero digits",
    )
    parser.add_argument(
        "--budget",
        type=_int_at_least(0),
        default=DEFAULT_BUDGET,
        help="factoring effort bound in modular multiplications, shared by rho, "
        "p-1 and ECM (default %(default)s)",
    )
    parser.add_argument(
        "--threads",
        type=_int_at_least(1),
        default=_usable_cpus(),
        help="worker processes that build survey records from the 16th on; the "
        "first 15 stay in this process, and 1 runs everything in it (default: the "
        "CPUs this process may run on, %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enum", help="ordered integer streams")
    p_enum.add_argument("--kind", choices=["sparse", "powersum", "smooth"], default="sparse")
    p_enum.add_argument("--base", type=_int_arg, default=2)
    p_enum.add_argument("--k", type=_int_arg)
    p_enum.add_argument("--f", help="digit budget family, e.g. const:3, loglog:1, sqrtll:0.5")
    p_enum.add_argument("--bases", type=_int_list_arg, help="comma-separated bases for powersum")
    p_enum.add_argument("--no-gcd-check", action="store_true")
    p_enum.add_argument("--primes", type=_int_list_arg, help="comma-separated primes for smooth")
    p_enum.add_argument("--limit", type=_int_arg, help="value cutoff for smooth streams")
    p_enum.add_argument("--take", type=_int_at_least(0), help="stop after this many terms")
    p_enum.add_argument("--max-value", type=_int_arg, help="stop when values exceed this")
    _record_options(p_enum, ["lines", "jsonl", "csv"], _cmd_enum)

    p_factor = sub.add_parser("factor", help="factor integers")
    p_factor.add_argument("n", type=_int_at_least(1), nargs="+")
    _record_options(p_factor, ["jsonl", "csv"], _cmd_factor)

    p_trace = sub.add_parser("trace", help="proof-inequality trace for one integer")
    p_trace.add_argument("n", type=_int_arg)
    p_trace.add_argument("--base", type=_int_arg, default=2)
    _record_options(p_trace, ["text", "jsonl"], _cmd_trace)

    p_bounds = sub.add_parser("bounds", help="bound and threshold calculators")
    p_bounds.add_argument("op", choices=list(_BOUNDS))
    p_bounds.add_argument("--rationals", help="comma-separated, e.g. 2,3/2")
    p_bounds.add_argument("--exponents", type=_int_list_arg, help="comma-separated integers")
    p_bounds.add_argument("--heights", help="comma-separated reals; 'e' allowed")
    p_bounds.add_argument("--bigb", type=_real_arg, help="exponent bound B")
    p_bounds.add_argument("--assume-nontrivial", action="store_true")
    p_bounds.add_argument("--p", type=_int_arg, help="prime for the p-adic estimate")
    p_bounds.add_argument("--u", type=_real_arg)
    p_bounds.add_argument("--v", type=_real_arg)
    p_bounds.add_argument("--n", type=_int_arg)
    p_bounds.add_argument("--nz", type=_int_arg)
    p_bounds.add_argument("--k", type=_int_arg)
    p_bounds.add_argument("--eps", type=_real_arg, default=0.0)
    p_bounds.add_argument("--f-value", type=_real_arg)
    p_bounds.add_argument("--delta0", type=_real_arg)
    p_bounds.add_argument("--c", type=_real_arg)
    p_bounds.add_argument("--big-c", type=_real_arg, dest="big_c")
    p_bounds.add_argument("--omega", type=_int_arg)
    p_bounds.add_argument("--p-factor", type=_int_arg)
    p_bounds.add_argument("--base", type=_int_arg, default=2)
    p_bounds.add_argument("--primes", type=_int_list_arg)
    _record_options(p_bounds, ["jsonl", "csv"], _cmd_bounds)

    p_survey = sub.add_parser("survey", help="batch surveys")
    survey_sub = p_survey.add_subparsers(dest="survey_kind", required=True)

    p_sparse = survey_sub.add_parser("sparse", help="sparse-sequence survey")
    p_sparse.add_argument("--base", type=_int_arg, default=2)
    p_sparse.add_argument("--k", type=_int_arg)
    p_sparse.add_argument("--f", help="digit budget family spec")
    p_sparse.add_argument("--count", type=_int_arg, required=True)
    p_sparse.add_argument("--eps", type=_real_arg, default=0.0)
    p_sparse.add_argument("--max-value", type=_int_arg)
    _record_options(p_sparse, ["jsonl", "csv"], _cmd_survey_sparse)

    p_stewart = survey_sub.add_parser("stewart", help="digit counts of a**n")
    p_stewart.add_argument("--a", type=_int_arg, required=True)
    p_stewart.add_argument("--base", type=_int_arg, required=True)
    p_stewart.add_argument("--start", type=_int_arg, default=3)
    p_stewart.add_argument("--end", type=_int_arg, required=True)
    _record_options(p_stewart, ["jsonl", "csv"], _cmd_survey_stewart)

    p_cyclo = sub.add_parser("cyclo", help="cyclotomic construction of 2^n + 1")
    p_cyclo.add_argument("--n", type=_int_arg, required=True)
    _record_options(p_cyclo, ["text", "jsonl", "csv"], _cmd_cyclo)

    p_search = sub.add_parser("search", help="smooth integers with few nonzero digits")
    p_search.add_argument("--base", type=_int_arg, required=True)
    p_search.add_argument("--k", type=_int_arg, required=True)
    p_search.add_argument("--primes", type=_int_list_arg, required=True)
    p_search.add_argument("--limit", type=_int_arg, required=True)
    p_search.add_argument("--eps", type=_real_arg, default=0.0)
    _record_options(p_search, ["jsonl", "csv"], _cmd_search)

    return parser


def main(argv=None) -> int:
    # Integers of any length are read and written exactly.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return status
    except (ValueError, IncompleteFactorizationError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader closed stdout, as `| head` does.  Python flushes stdout
        # again at exit; point it at devnull so that flush cannot fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_CLOSED_PIPE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
