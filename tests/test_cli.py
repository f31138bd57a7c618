import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from smoothdigits import bounds as bmod
from smoothdigits.cli import EXIT_CLOSED_PIPE, RecordWriter, build_parser, main
from smoothdigits.factor import DEFAULT_BUDGET

RUN = [sys.executable, "-m", "smoothdigits"]


def run_cli(*args, expect=0, timeout=300):
    proc = subprocess.run(
        RUN + list(args), capture_output=True, text=True, timeout=timeout
    )
    assert proc.returncode == expect, (proc.returncode, proc.stderr)
    return proc


def run_rejected(tmp_path, *args):
    """Bad input exits 2 before any data is written: nothing on stdout,
    and no --output file created."""
    proc = run_cli(*args, expect=2)
    assert proc.stdout == ""
    path = tmp_path / "out"
    proc = run_cli(*args, "--output", str(path), expect=2)
    assert proc.stdout == ""
    assert not path.exists()


def csv_header(*args):
    return run_cli(*args, "--format", "csv").stdout.splitlines()[0]


class TestEnum:
    def test_sparse_lines(self):
        proc = run_cli("enum", "--base", "2", "--k", "2", "--take", "6")
        assert proc.stdout.split() == ["1", "3", "5", "9", "17", "33"]

    def test_jsonl_schema_header(self):
        proc = run_cli(
            "enum", "--base", "2", "--k", "2", "--take", "3", "--format", "jsonl"
        )
        lines = [json.loads(l) for l in proc.stdout.splitlines()]
        assert lines[0] == {"schema": 1}
        assert [l["value"] for l in lines[1:]] == [1, 3, 5]

    def test_powersum(self):
        proc = run_cli(
            "enum", "--kind", "powersum", "--bases", "2,2", "--take", "4"
        )
        assert proc.stdout.split() == ["5", "7", "9", "11"]

    def test_smooth(self):
        proc = run_cli(
            "enum", "--kind", "smooth", "--primes", "2,3,5", "--limit", "12"
        )
        assert proc.stdout.split() == "1 2 3 4 5 6 8 9 10 12".split()

    def test_usage_error_exit_2(self):
        run_cli("enum", "--base", "2", "--take", "3", expect=2)  # no --k/--f
        proc = subprocess.run(
            RUN + ["enum", "--bogus-flag"], capture_output=True, text=True
        )
        assert proc.returncode == 2

    def test_unbounded_stream_rejected(self):
        proc = run_cli("enum", "--base", "2", "--k", "2", expect=2)
        assert proc.stdout == ""  # no partial output on the data stream

    def test_take_zero_writes_no_values(self):
        assert run_cli("enum", "--base", "2", "--k", "2", "--take", "0").stdout == ""
        proc = run_cli(
            "enum", "--base", "2", "--k", "2", "--take", "0", "--format", "jsonl"
        )
        assert proc.stdout == '{"schema": 1}\n'

    def test_negative_take_rejected(self, tmp_path):
        run_rejected(tmp_path, "enum", "--base", "2", "--k", "2", "--take", "-3")

    def test_budget_below_two_ends(self):
        proc = run_cli("enum", "--base", "2", "--f", "const:1", "--take", "5")
        assert proc.stdout.split() == ["1"]

    def test_slow_rising_budget_ends(self):
        # loglog:0.1 first allows two digits past e^(e^20), about 2**(7e8):
        # the stream used to read the budget at every round up to there,
        # hence the timeout
        proc = subprocess.run(
            RUN + ["enum", "--base", "2", "--f", "loglog:0.1", "--take", "5"],
            capture_output=True, text=True, timeout=30,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "out of reach" in proc.stderr

    def test_slow_rising_budget_in_reach(self, tmp_path, capsys):
        # the single digits meet --take 1; loglog:0.2 first allows two
        # digits in [2**31777, 2**31778), and its next value is 2**31778 + 1
        assert main(["enum", "--base", "2", "--f", "loglog:0.1", "--take", "1"]) == 0
        assert main(["enum", "--base", "2", "--f", "loglog:0.2", "--take", "2"]) == 0
        assert capsys.readouterr().out.split() == ["1", "1", str(2**31778 + 1)]
        out = tmp_path / "out"
        args = ["survey", "sparse", "--base", "2", "--f", "loglog:0.1", "--count", "5"]
        assert main(args + ["--output", str(out)]) == 2
        assert not out.exists()
        assert "out of reach" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["const:inf", "const:nan", "sqrtll:nan"])
    def test_non_finite_budget_parameter_rejected(self, spec):
        # sqrtll:nan used to hang after its first value, hence the timeout
        proc = subprocess.run(
            RUN + ["enum", "--base", "2", "--f", spec, "--take", "5"],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "finite" in proc.stderr

    @pytest.mark.parametrize("args", [
        "--bases 1,2 --no-gcd-check --take 3",
        "--bases 2,1 --no-gcd-check --max-value 100",
    ])
    def test_powersum_base_below_two_rejected(self, args):
        # 1**n adds no growth; such a stream used to repeat one value
        # forever, hence the timeout
        proc = subprocess.run(
            RUN + ["enum", "--kind", "powersum"] + args.split(),
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "bases must be >= 2" in proc.stderr

    def test_big_values_serialized_as_strings(self):
        proc = run_cli(
            "enum", "--base", "2", "--k", "2", "--take", "60", "--format", "jsonl"
        )
        last = json.loads(proc.stdout.splitlines()[-1])
        assert isinstance(last["value"], str)
        assert int(last["value"]) == 2**59 + 1


class TestFactor:
    def test_documented_shape(self):
        proc = run_cli("factor", "4097")
        lines = proc.stdout.splitlines()
        assert json.loads(lines[0]) == {"schema": 1}
        rec = json.loads(lines[1])
        assert rec["factors"] == [[17, 1], [241, 1]]
        assert rec["P"] == 241
        assert rec["omega"] == 2
        assert rec["Q"] == 4097
        assert rec["complete"] is True

    def test_partial_exit_3(self):
        p = 2**127 - 1
        q = 170141183460469231731687303715884105757
        proc = run_cli("--budget", "10", "factor", str(p * q), expect=3)
        rec = json.loads(proc.stdout.splitlines()[1])
        assert rec["complete"] is False
        assert rec["P"] is None

    def test_csv(self):
        proc = run_cli("factor", "720", "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert rows[0]["n"] == "720"
        assert rows[0]["factors"] == "2^4;3^2;5^1"
        assert proc.stdout.splitlines()[0] == "n,factors,cofactor,complete,P,omega,Q"

    def test_nonpositive_rejected(self, tmp_path):
        run_rejected(tmp_path, "factor", "0")
        run_rejected(tmp_path, "factor", "12", "-3")

    def test_scientific_notation_is_exact(self):
        proc = run_cli("factor", "1e30")
        rec = json.loads(proc.stdout.splitlines()[1])
        assert rec["n"] == "1" + "0" * 30
        assert rec["factors"] == [[2, 30], [5, 30]]

    @pytest.mark.parametrize(
        "args",
        [
            ["factor", "1.5"],
            ["factor", "1e-3"],
            ["factor", "3/1"],
            ["--budget", "-5", "factor", "12"],
            ["--threads", "0", "factor", "12"],
            ["search", "--base", "2", "--k", "2", "--primes", "3", "--limit", "1.5"],
        ],
    )
    def test_bad_integer_arguments_rejected(self, args, tmp_path):
        run_rejected(tmp_path, *args)

    def test_longer_than_4300_digits(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            text = str(2**14700)
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(text) > 4300
        proc = run_cli("factor", text)
        rec = json.loads(proc.stdout.splitlines()[1])
        assert rec["n"] == text
        assert rec["factors"] == [[2, 14700]]
        assert rec["P"] == 2 and rec["Q"] == 2


class TestTrace:
    def test_text_output(self):
        proc = run_cli("trace", str(2**20 + 2**3 + 1), "--base", "2")
        assert "lambda_a" in proc.stdout
        assert "3.4" in proc.stdout and "3.5" in proc.stdout

    def test_jsonl_output(self):
        proc = run_cli(
            "trace", str(2**10 + 2**6 + 1), "--base", "2", "--format", "jsonl"
        )
        rec = json.loads(proc.stdout.splitlines()[1])
        assert rec["branch"] == "lambda_u"
        assert rec["valuation"] == 6
        assert rec["ell"] == 1
        labels = {row["label"] for row in rec["rows"]}
        assert labels == {"3.7", "3.8"}

    def test_divisible_by_base_is_domain_error(self):
        run_cli("trace", "10", "--base", "2", expect=2)

    def test_base_above_float_precision(self):
        proc = run_cli("trace", str(2**60 + 2), "--base", str(2**60 + 1))
        assert "branch = lambda_a" in proc.stdout

    def test_jsonl_base_above_2_53_is_a_string(self):
        proc = run_cli(
            "trace", str(2**60 + 2), "--base", str(2**60 + 1), "--format", "jsonl"
        )
        rec = json.loads(proc.stdout.splitlines()[1])
        assert rec["base"] == str(2**60 + 1)

    def test_base_without_small_prime_factor(self):
        # N = 1 + 2B^2 + B^3 for the prime B = 2^61 - 1: the p-adic branch
        # needs the least prime of B; trial division to sqrt(B) would take
        # ~1e9 steps, hence the timeout
        B = 2**61 - 1
        proc = run_cli(
            "trace", str(1 + 2 * B**2 + B**3), "--base", str(B), "--format", "jsonl",
            timeout=30,
        )
        rec = json.loads(proc.stdout.splitlines()[1])
        assert rec["branch"] == "lambda_u"
        assert rec["p"] == str(B)

    def test_budget_bounds_the_base_factorization(self, tmp_path):
        # N is a prime of lambda_u shape in base B, so it factors at any
        # budget, while the p-adic branch needs the least prime of B; rho
        # does not find 2^31 - 1 in 10 units
        B = (2**31 - 1) * (2**61 - 1)
        N = 35 + B**2 + B**3
        args = ("trace", str(N), "--base", str(B), "--format", "jsonl")
        run_rejected(tmp_path, "--budget", "10", *args)
        rec = json.loads(run_cli(*args).stdout.splitlines()[1])
        assert rec["branch"] == "lambda_u"
        assert rec["p"] == 2**31 - 1


class TestBounds:
    def test_thm11(self):
        proc = run_cli("bounds", "thm11", "--u", "1e9", "--k", "3")
        rec = json.loads(proc.stdout.splitlines()[1])
        assert abs(rec["value"] - 32.49855008971396) < 1e-9

    def test_thm11_not_applicable(self):
        proc = run_cli("bounds", "thm11", "--u", "1e6", "--k", "3")
        rec = json.loads(proc.stdout.splitlines()[1])
        assert rec["value"] == "not applicable"
        proc = run_cli("bounds", "thm11", "--u", "1e6", "--k", "3", "--format", "csv")
        assert proc.stdout.splitlines() == ["op,value", "thm11,not applicable"]

    @pytest.mark.parametrize("u, f_value", [
        ("1e9", "1.1151371395152763"),  # Psi one ulp above e: log Psi == 1
        ("2", "1"),  # loglog u is not positive
    ])
    def test_thm13_not_applicable(self, u, f_value):
        proc = run_cli("bounds", "thm13", "--u", u, "--f-value", f_value, "--delta0", "1")
        assert proc.stdout.splitlines()[1] == '{"op": "thm13", "value": "not applicable"}'
        assert proc.stderr == ""

    def test_thm13_negative_eps_rejected(self, tmp_path):
        run_rejected(tmp_path, "bounds", "thm13", "--u", "1e30", "--f-value", "1",
                     "--delta0", "1", "--eps", "-0.5")

    def test_thm13_psi_overflow_names_f_value(self, tmp_path):
        args = ("bounds", "thm13", "--u", "1e9", "--f-value", "1e-320", "--delta0", "1")
        run_rejected(tmp_path, *args)
        assert "f_value" in run_cli(*args, expect=2).stderr

    def test_thm12_below_16_rejected(self, tmp_path):
        args = ("bounds", "thm12", "--n", "15", "--k", "2", "--p-factor", "3",
                "--omega", "1", "--c", "1", "--big-c", "1")
        run_rejected(tmp_path, *args)
        assert run_cli(*args, expect=2).stderr == "error: n must be >= 16, got 15\n"

    def test_matveev(self):
        proc = run_cli(
            "bounds", "matveev",
            "--rationals", "2,3", "--exponents", "1,1",
            "--heights", "e,3", "--bigb", "3",
        )
        rec = json.loads(proc.stdout.splitlines()[1])
        assert abs(rec["value"] + 10141633344.756238) < 1.0

    def test_yu(self):
        proc = run_cli(
            "bounds", "yu",
            "--rationals", "2,3", "--exponents", "1,1",
            "--heights", "e,3", "--bigb", "3", "--p", "2",
        )
        rec = json.loads(proc.stdout.splitlines()[1])
        assert abs(rec["value"] - 369692524321.156) < 1.0

    def test_thm12_defaults(self):
        proc = run_cli(
            "bounds", "thm12", "--n", str(2**64 + 1), "--k", "2",
            "--p-factor", "67280421310721", "--omega", "2", "--base", "2",
        )
        rec = json.loads(proc.stdout.splitlines()[1])
        assert rec["holds"] is True
        assert rec["gap"] > 0

    def test_nkbound(self):
        proc = run_cli(
            "bounds", "nkbound", "--base", "2", "--k", "3", "--primes", "2,3"
        )
        rec = json.loads(proc.stdout.splitlines()[1])
        assert rec["value"] > 0

    def test_nkbound_base_without_small_prime_factor(self):
        proc = run_cli(
            "bounds", "nkbound", "--base", str(2**61 - 1), "--k", "3", "--primes", "3",
            timeout=30,
        )
        rec = json.loads(proc.stdout.splitlines()[1])
        assert rec["value"] > 0

    def test_nkbound_budget_bounds_the_base_factorization(self, tmp_path):
        args = ("bounds", "nkbound", "--base", str((2**31 - 1) * (2**61 - 1)),
                "--k", "3", "--primes", "3")
        run_rejected(tmp_path, "--budget", "10", *args)
        assert json.loads(run_cli(*args).stdout.splitlines()[1])["value"] > 0

    def test_nkbound_base_factorize_leaves_partial(self, tmp_path):
        # two primes near 2^50: the least one is not found within the
        # default rho budget, which is a domain error, not a hang
        run_rejected(
            tmp_path, "bounds", "nkbound", "--base", str(1125899906842679 * 2251799813685269),
            "--k", "3", "--primes", "3",
        )

    def test_remark45_c_zero_rejected(self, tmp_path):
        run_rejected(
            tmp_path, "bounds", "remark45", "--n", "4097", "--p-factor", "241", "--c", "0"
        )

    @pytest.mark.parametrize("given, missing", [("--c", "--big-c"), ("--big-c", "--c")])
    def test_thm12_needs_both_constants(self, given, missing, capsys):
        args = ["bounds", "thm12", "--n", str(2**64 + 1), "--k", "2",
                "--p-factor", "67280421310721", "--omega", "2", given, "5"]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: bounds thm12 needs {missing} ")

    def test_nkbound_primes_in_any_order(self):
        args = ["bounds", "nkbound", "--base", "10", "--k", "3", "--primes"]
        assert run_cli(*args, "3,2").stdout == run_cli(*args, "2,3").stdout

    def test_cor14_csv_rows_cell_is_the_jsonl_rows(self):
        args = ["bounds", "cor14", "--n", "18446744073709551617", "--nz", "2"]
        rec = json.loads(run_cli(*args).stdout.splitlines()[1])
        row = next(csv.DictReader(io.StringIO(run_cli(*args, "--format", "csv").stdout)))
        assert json.loads(row["rows"]) == rec["rows"]
        assert len(rec["rows"]) == 3


def _readme_bounds_examples():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [line.split()[2:] for line in readme.splitlines()
            if line.startswith("smoothdigits bounds ")]


def _bounds_by_api(op):
    """The record of the README example of op, from the bounds functions."""
    n64 = 2**64 + 1
    form = bmod.BoundInput(rationals=(Fraction(2), Fraction(3)), exponents=(1, 1),
                           heights=(math.e, 3.0), exponent_bound=3.0)
    if op == "thm12":
        c, big_c = bmod.thm12_default_constants(2, DEFAULT_BUDGET)
        params = bmod.ThresholdParams(c_thm12=c, C_thm12=big_c)
        gap = bmod.thm12_gap(n64, 2, 67280421310721, 2, params)
        return {"op": op, "c": c, "C": big_c, "gap": gap, "holds": gap >= 0}
    if op == "yu":
        return {"op": op, "p": 2, "value": bmod.yu_valuation_bound(form, 2)}
    if op == "cor14":
        return {"op": op, "rows": [vars(r) for r in bmod.cor14_check(n64, 2)]}
    value = {
        "matveev": lambda: bmod.matveev_lower_bound(form),
        "thm11": lambda: bmod.thm11_threshold(1e9, 3, 0.0),
        "cor15": lambda: bmod.cor15_threshold(10**9, 0.0),
        "thm41": lambda: bmod.thm41_threshold(1e9, 2, 0.0),
        "remark45": lambda: bmod.remark45_check(4097, 241, 0.5),
        "psi": lambda: bmod.psi(1e9, 2.0),
        "thm13": lambda: bmod.thm13_threshold(1e9, 0.2, 1.0, 0.0),
        "nkbound": lambda: bmod.lemma31_nk_bound(2, 3, (2, 3, 5), DEFAULT_BUDGET),
    }[op]()
    return {"op": op, "value": value}


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_readme_bounds_examples_match_the_api(fmt, capsys):
    examples = _readme_bounds_examples()
    assert sorted(args[0] for args in examples) == sorted(BOUNDS_EXAMPLES)
    for args in examples:
        expected = io.StringIO()
        RecordWriter(fmt, expected).write(_bounds_by_api(args[0]))
        assert main(["bounds"] + args + ["--format", fmt]) == 0
        assert capsys.readouterr().out == expected.getvalue(), args


# Flags that take a real number, each given a value that is not finite.
NON_FINITE_ARGS = [
    "bounds matveev --rationals 2,3 --exponents 1,1 --heights e,3 --bigb nan",
    "bounds matveev --rationals 2,3 --exponents 1,1 --heights e,3 --bigb inf",
    "bounds thm11 --u 1e9 --k 3 --eps nan",
    "bounds thm11 --u=-inf --k 3",
    "bounds thm41 --v 1e9 --k 2 --eps inf",
    "bounds cor15 --n 1e9 --eps nan",
    "bounds thm13 --u 1e9 --f-value 0.2 --delta0 nan",
    "bounds psi --u 1e9 --f-value nan",
    "bounds psi --u 1e9 --f-value inf",
    "bounds remark45 --n 4097 --p-factor 241 --c nan",
    "bounds thm12 --n 18446744073709551617 --k 2 --p-factor 67280421310721 --omega 2 "
    "--c nan --big-c 1",
    "survey sparse --base 10 --k 3 --count 20 --eps nan",
    "search --base 2 --k 3 --primes 3,5,7 --limit 1e12 --eps nan",
]


@pytest.mark.parametrize("args", NON_FINITE_ARGS)
def test_non_finite_real_rejected(args, tmp_path):
    run_rejected(tmp_path, *args.split())


# Each comma-separated integer flag, once with plain integers and once with
# the same integers in scientific notation.
INT_LIST_ARGS = [
    ("enum --kind smooth --limit 100 --primes", "2,5", "2,5e0"),
    ("enum --kind powersum --take 5 --bases", "2,4", "2,0.4e1"),
    ("bounds matveev --rationals 2,3 --heights e,3 --bigb 3 --exponents", "1,1", "1e0,1"),
    ("bounds nkbound --base 2 --k 3 --primes", "3,5", "3,5e0"),
    ("search --base 3 --k 2 --limit 1e4 --primes", "2,5", "2e0,5"),
]


@pytest.mark.parametrize("args, plain, scientific", INT_LIST_ARGS)
def test_integer_lists_read_scientific_notation(args, plain, scientific, capsys):
    assert main(args.split() + [plain]) == 0
    expected = capsys.readouterr().out
    assert main(args.split() + [scientific]) == 0
    assert capsys.readouterr().out == expected


# Every integer flag that takes one value, once as a plain integer and once
# in scientific notation; each subcommand with such flags appears.
INT_FLAG_ARGS = [
    ("enum --k 3 --take 5 --base", "10", "1e1"),
    ("enum --base 10 --take 5 --k", "3", "3e0"),
    ("trace 1001 --format jsonl --base", "10", "1e1"),
    ("bounds yu --rationals 2,3 --exponents 1,1 --heights e,3 --bigb 3 --p", "2", "2e0"),
    ("bounds cor14 --n 18446744073709551617 --nz", "2", "0.2e1"),
    ("bounds thm11 --u 1e9 --k", "3", "3e0"),
    ("bounds thm12 --n 18446744073709551617 --k 2 --p-factor 67280421310721 --omega",
     "2", "2e0"),
    ("bounds remark45 --n 4097 --p-factor", "241", "2.41e2"),
    ("bounds nkbound --k 3 --primes 2,3 --base", "10", "1e1"),
    ("survey sparse --k 3 --count 5 --base", "10", "1e1"),
    ("survey sparse --base 10 --count 5 --k", "3", "3e0"),
    ("survey sparse --base 10 --k 3 --count", "5", "5e0"),
    ("survey stewart --base 3 --end 20 --a", "2", "2e0"),
    ("survey stewart --a 2 --end 20 --base", "10", "1e1"),
    ("survey stewart --a 2 --base 3 --end 20 --start", "10", "1e1"),
    ("survey stewart --a 2 --base 3 --end", "20", "2e1"),
    ("cyclo --format jsonl --n", "10", "1e1"),
    ("search --k 2 --primes 3,7 --limit 1e6 --base", "10", "1e1"),
    ("search --base 10 --primes 3,7 --limit 1e6 --k", "2", "2e0"),
]


@pytest.mark.parametrize("args, plain, scientific", INT_FLAG_ARGS)
def test_integer_flags_read_scientific_notation(args, plain, scientific, capsys):
    status = main(args.split() + [plain])
    expected = capsys.readouterr()
    assert status == 0
    assert main(args.split() + [scientific]) == status
    assert capsys.readouterr() == expected


# One integer flag per subcommand, given a value that is not an integer.
@pytest.mark.parametrize("args", [
    "enum --k 3 --take 5 --base 1.5",
    "trace 1001 --base 1.5",
    "bounds thm11 --u 1e9 --k 1.5",
    "survey sparse --base 10 --k 3 --count 1.5",
    "survey stewart --a 2 --base 3 --end 1.5",
    "cyclo --n 1.5",
    "search --base 10 --primes 3,7 --limit 1e6 --k 1.5",
])
def test_non_integer_flag_rejected(args, tmp_path):
    run_rejected(tmp_path, *args.split())


@pytest.mark.parametrize("args", [
    "enum --kind smooth --limit 100 --primes 2,1.5",
    "enum --kind powersum --take 5 --bases 2,1e-3",
    "search --base 3 --k 2 --limit 1e4 --primes 2,x",
])
def test_non_integer_list_item_rejected(args, tmp_path):
    run_rejected(tmp_path, *args.split())


# Each bounds operation with every flag it needs, as in the README.
BOUNDS_EXAMPLES = {
    "matveev": "--rationals 2,3 --exponents 1,1 --heights e,3 --bigb 3",
    "yu": "--rationals 2,3 --exponents 1,1 --heights e,3 --bigb 3 --p 2",
    "thm11": "--u 1e9 --k 3",
    "thm12": "--n 18446744073709551617 --k 2 --p-factor 67280421310721 --omega 2",
    "psi": "--u 1e9 --f-value 2",
    "thm13": "--u 1e9 --f-value 0.2 --delta0 1.0",
    "cor14": "--n 18446744073709551617 --nz 2",
    "cor15": "--n 1e9",
    "thm41": "--v 1e9 --k 2",
    "remark45": "--n 4097 --p-factor 241",
    "nkbound": "--k 3 --primes 2,3,5",
}


@pytest.mark.parametrize("op", sorted(BOUNDS_EXAMPLES))
def test_bounds_missing_flag_exit_2(op, capsys):
    args = BOUNDS_EXAMPLES[op].split()
    assert main(["bounds", op] + args) == 0
    capsys.readouterr()
    for i in range(0, len(args), 2):
        flag = args[i]
        assert main(["bounds", op] + args[:i] + args[i + 2 :]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and flag in err


class TestSurvey:
    def test_sparse_jsonl(self):
        proc = run_cli(
            "survey", "sparse", "--base", "2", "--k", "2", "--count", "6"
        )
        lines = proc.stdout.splitlines()
        assert json.loads(lines[0]) == {"schema": 1}
        recs = [json.loads(l) for l in lines[1:]]
        assert [r["value"] for r in recs] == [1, 3, 5, 9, 17, 33]
        assert [r["P"] for r in recs] == [1, 3, 5, 3, 17, 11]
        # applicability boundary for the digit threshold sits at e^e ~ 15.2
        assert [r["cor15"] for r in recs[:4]] == ["not applicable"] * 4
        assert isinstance(recs[5]["cor15"], float)
        assert all(r["thm11"] == "not applicable" for r in recs)
        assert "# window" in proc.stderr

    def test_base_above_2_53_is_a_string(self):
        proc = run_cli(
            "survey", "sparse", "--base", str(2**60 + 1), "--k", "2", "--count", "2"
        )
        recs = [json.loads(l) for l in proc.stdout.splitlines()[1:]]
        assert [r["value"] for r in recs] == [1, 2]
        assert all(r["base"] == str(2**60 + 1) for r in recs)

    def test_byte_identical_reruns(self):
        args = ["survey", "sparse", "--base", "2", "--k", "3", "--count", "40"]
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.stdout == b.stdout

    def test_csv_format(self):
        proc = run_cli(
            "survey", "sparse", "--base", "2", "--k", "2", "--count", "4",
            "--format", "csv",
        )
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert [r["value"] for r in rows] == ["1", "3", "5", "9"]
        assert rows[1]["trace_branch"] == "lambda_a"
        # a threshold that does not apply is named; an unknown comparison is empty
        assert [r["thm11"] for r in rows] == ["not applicable"] * 4
        assert [r["cor15"] for r in rows] == ["not applicable"] * 4
        assert [r["thm11_exceeded"] for r in rows] == [""] * 4
        assert proc.stdout.splitlines()[0] == (
            "j,value,base,nz,exponents,digits,complete,factors,cofactor,P,omega,Q,"
            "thm11,thm11_exceeded,cor15,cor15_exceeded,"
            "trace_branch,trace_rows_ok,trace_size_condition"
        )

    def test_csv_header_digit_budget(self):
        header = csv_header(
            "survey", "sparse", "--base", "2", "--f", "sqrtll:1", "--count", "4"
        )
        assert header == (
            "j,value,base,nz,exponents,digits,complete,factors,cofactor,P,omega,Q,"
            "thm11,thm11_exceeded,cor15,cor15_exceeded,thm13,thm13_exceeded,"
            "trace_branch,trace_rows_ok,trace_size_condition"
        )

    def test_stewart(self):
        proc = run_cli(
            "survey", "stewart", "--a", "2", "--base", "3",
            "--start", "3", "--end", "12",
        )
        recs = [json.loads(l) for l in proc.stdout.splitlines()[1:]]
        ten = [r for r in recs if r["n"] == 10][0]
        assert ten["nz"] == 6
        assert ten["exceeds"] is True

    def test_stewart_csv_header(self):
        header = csv_header(
            "survey", "stewart", "--a", "2", "--base", "3", "--end", "5"
        )
        assert header == "n,nz,bound,exceeds"

    def test_stewart_dependent_rejected(self, tmp_path):
        run_rejected(
            tmp_path, "survey", "stewart", "--a", "4", "--base", "2",
            "--start", "3", "--end", "5",
        )
        run_rejected(
            tmp_path, "survey", "stewart", "--a", "2", "--base", "4", "--end", "10"
        )

    def test_bad_sparse_input_rejected(self, tmp_path):
        run_rejected(tmp_path, "survey", "sparse", "--k", "2", "--count", "0")
        run_rejected(
            tmp_path, "survey", "sparse", "--k", "2", "--count", "5", "--eps", "-1"
        )

    def test_stream_that_ends_early(self):
        proc = run_cli(
            "survey", "sparse", "--base", "3", "--f", "const:1", "--count", "5"
        )
        assert [json.loads(l)["value"] for l in proc.stdout.splitlines()[1:]] == [1, 2]

    def test_first_record_written_after_one_factorization(self, monkeypatch):
        from smoothdigits import experiments

        calls = []
        real = experiments.factorize

        def counting(n, budget):
            calls.append(n)
            return real(n, budget)

        class Stdout(io.StringIO):
            at_first_record = None

            def write(self, text):
                if self.at_first_record is None and text.startswith('{"j"'):
                    self.at_first_record = len(calls)
                return super().write(text)

        out = Stdout()
        monkeypatch.setattr(experiments, "factorize", counting)
        monkeypatch.setattr(sys, "stdout", out)
        status = main(["survey", "sparse", "--base", "10", "--k", "3", "--count", "50"])
        assert status == 0
        assert out.at_first_record == 1
        assert len(calls) == 50

    def test_partial_factorization_exit_3(self):
        proc = run_cli(
            "--budget", "0", "survey", "sparse", "--base", "2", "--k", "2",
            "--count", "120", expect=3,
        )
        recs = [json.loads(l) for l in proc.stdout.splitlines()[1:]]
        assert any(r["complete"] is False for r in recs)
        assert all(r["P"] is None for r in recs if not r["complete"])


class TestCyclo:
    def test_text_report(self):
        proc = run_cli("cyclo", "--n", "12")
        assert "Phi_8(2) = 17" in proc.stdout
        assert "Phi_24(2) = 241" in proc.stdout
        assert "product check: OK" in proc.stdout

    def test_jsonl(self):
        proc = run_cli("cyclo", "--n", "12", "--format", "jsonl")
        rec = json.loads(proc.stdout.splitlines()[1])
        assert rec["parts"] == [[8, 17], [24, 241]]
        assert rec["identity_ok"] is True
        assert rec["P"] == 241


class TestSearch:
    def test_first_hit_written_before_the_stream_ends(self, monkeypatch):
        from smoothdigits import experiments

        seen = []
        real = experiments.smooth_sequence

        def counting(primes, limit):
            for v in real(primes, limit):
                seen.append(v)
                yield v

        class Stdout(io.StringIO):
            at_first_hit = None

            def write(self, text):
                if self.at_first_hit is None and text.startswith('{"value"'):
                    self.at_first_hit = len(seen)
                return super().write(text)

        out = Stdout()
        bands = []
        real_bands = experiments._screened_tuples

        def building(*args):
            bands.append(out.at_first_hit)
            return real_bands(*args)

        monkeypatch.setattr(experiments, "smooth_sequence", counting)
        monkeypatch.setattr(experiments, "_screened_tuples", building)
        monkeypatch.setattr(sys, "stdout", out)
        status = main(["search", "--base", "3", "--k", "4", "--primes", "2,5,7",
                       "--limit", "1e12"])
        assert status == 0
        assert out.at_first_hit == 1  # the hit 1 goes out before 2 is drawn
        # only the first band is drawn term by term, and the later bands are
        # built after the first hit is out
        assert seen == list(real([2, 5, 7], experiments._FIRST_BAND))
        assert bands and None not in bands

    def test_binary_powers_of_three(self):
        proc = run_cli(
            "search", "--base", "2", "--k", "2", "--primes", "3",
            "--limit", "1000000",
        )
        recs = [json.loads(l) for l in proc.stdout.splitlines()[1:]]
        assert [r["value"] for r in recs] == [1, 3, 9]

    def test_data_stream_clean(self):
        # diagnostics must not leak into stdout
        proc = run_cli(
            "search", "--base", "10", "--k", "2", "--primes", "2,3,5",
            "--limit", "100",
        )
        for line in proc.stdout.splitlines():
            json.loads(line)  # every stdout line parses
        assert "hit(s)" in proc.stderr

    @pytest.mark.parametrize("limit", ["0", "1000"])
    def test_negative_eps_rejected(self, limit, tmp_path):
        # also when no value up to the limit is a hit
        run_rejected(tmp_path, "search", "--base", "2", "--k", "2", "--primes", "3",
                     "--limit", limit, "--eps", "-0.1")

    def test_csv_header(self):
        header = csv_header(
            "search", "--base", "2", "--k", "2", "--primes", "3", "--limit", "100"
        )
        assert header == "value,nz,cor15,cor15_exceeded"

    def test_csv_not_applicable(self):
        proc = run_cli(
            "search", "--base", "2", "--k", "2", "--primes", "3",
            "--limit", "1000000", "--format", "csv",
        )
        assert proc.stdout.splitlines() == [
            "value,nz,cor15,cor15_exceeded",
            "1,1,not applicable,",
            "3,2,not applicable,",
            "9,2,not applicable,",
        ]


def _leaves(value):
    if isinstance(value, list):
        return [x for v in value for x in _leaves(v)]
    if isinstance(value, dict):
        return _leaves(list(value.values()))
    return [value]


# Commands whose records carry integers at or beyond 2**53, at the top
# level and nested: factor pairs, cyclotomic parts, trace fields.
LARGE_INTEGER_COMMANDS = [
    ("factor", str(2**128 + 1)),
    ("--budget", "10", "factor", "1208925819614629174706189"),
    ("trace", str(2**60 + 2), "--base", str(2**60 + 1), "--format", "jsonl"),
    ("cyclo", "--n", "64", "--format", "jsonl"),
    ("enum", "--base", "2", "--k", "2", "--take", "200", "--format", "jsonl"),
    ("survey", "sparse", "--base", str(2**60 + 1), "--k", "2", "--count", "3"),
    ("bounds", "yu", "--rationals", "2,3", "--exponents", "5,-3", "--heights", "e,3",
     "--bigb", "5", "--p", str(2**61 - 1)),
]


@pytest.mark.parametrize("args", LARGE_INTEGER_COMMANDS, ids=lambda a: " ".join(a)[:30])
def test_integers_beyond_2_53_are_strings(args):
    proc = subprocess.run(RUN + list(args), capture_output=True, text=True, timeout=300)
    assert proc.returncode in (0, 3), proc.stderr
    leaves = _leaves([json.loads(line) for line in proc.stdout.splitlines()])
    raw = [v for v in leaves if type(v) is int and abs(v) >= 2**53]
    assert raw == []
    assert any(isinstance(v, str) and v.isdigit() and int(v) >= 2**53 for v in leaves)


@pytest.mark.parametrize(
    "args",
    [
        ("survey", "sparse", "--base", "10", "--k", "3", "--count", "20000"),
        ("enum", "--base", "2", "--k", "2", "--take", "100000"),
        ("search", "--base", "10", "--k", "30", "--primes", "2,3,5,7", "--limit", "1e20"),
    ],
)
def test_closed_pipe(args):
    # The reader takes one line and goes away, as `| head -n 1` does.  Each
    # command has megabytes left to write by then, far more than a pipe
    # holds, so its next write meets the closed pipe.
    proc = subprocess.Popen(RUN + list(args), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    status = proc.wait(timeout=300)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert "Traceback" not in err
    assert status == EXIT_CLOSED_PIPE


def _session_processes(sid):
    pids = []
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                if os.getsid(int(name)) == sid:
                    pids.append(int(name))
            except OSError:  # gone since the listing
                pass
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="lists processes through /proc")
@pytest.mark.parametrize(
    "survey, lines",
    [("survey sparse --base 2 --k 3 --count 3000", 2),
     # reaches the workers at j = 32, before the reader goes
     ("--threads 2 survey sparse --base 2 --k 2 --count 400", 50)],
)
def test_closed_pipe_leaves_no_worker(survey, lines):
    # In a session of its own, so that a worker left behind can be found
    # after the pipeline ends.  Each survey has seconds of work left.
    start = time.monotonic()
    proc = subprocess.Popen(
        ["bash", "-o", "pipefail", "-c", f"{' '.join(RUN)} {survey} | head -n {lines}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    out, err = proc.communicate(timeout=60)
    assert time.monotonic() - start < 10
    assert proc.returncode == EXIT_CLOSED_PIPE, err
    assert "Traceback" not in err
    assert len(out.splitlines()) == lines
    assert _session_processes(proc.pid) == []


def test_threads_default_to_the_usable_cpus():
    args = build_parser().parse_args(["factor", "12"])
    assert args.threads == len(os.sched_getaffinity(0))


def test_small_values_start_no_pool():
    # Values below 2**31 factor in this process whatever --threads says:
    # the pool's modules are not even imported.
    code = (
        "import sys\n"
        "from smoothdigits import cli\n"
        "status = cli.main(sys.argv[1:])\n"
        "print('concurrent.futures.process' in sys.modules, status, file=sys.stderr)\n"
    )
    args = ["--threads", "2", "survey", "sparse", "--base", "10", "--k", "3", "--count", "2000"]
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=120)
    assert proc.stderr.splitlines()[-1] == "False 0"
    assert len(proc.stdout.splitlines()) == 2001


class TestMainFunction:
    def test_in_process_entry(self, capsys):
        status = main(["enum", "--base", "2", "--k", "2", "--take", "3"])
        assert status == 0
        assert capsys.readouterr().out.split() == ["1", "3", "5"]

    def test_domain_error_returns_2(self, capsys):
        status = main(["trace", "10", "--base", "2"])
        assert status == 2
        assert "error:" in capsys.readouterr().err
