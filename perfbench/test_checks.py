"""Tests of the benchmark's own checks: real CLI output passes, and each
kind of corrupted record counts as failed.

    python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"

SURVEY = dict(kind="survey", base=2, k=3, count=40, eps=0.05,
              argv=["survey", "sparse", "--base", "2", "--k", "3", "--count", "40",
                    "--eps", "0.05"])
PARTIAL = dict(kind="survey", base=2, k=2, count=70, eps=0.0,
               argv=["--budget", "50", "survey", "sparse", "--base", "2", "--k", "2",
                     "--count", "70"])
SEARCH = dict(kind="search", base=3, k=4, primes=(2, 5, 7), limit=10**12, eps=0.0,
              argv=["search", "--base", "3", "--k", "4", "--primes", "2,5,7",
                    "--limit", str(10**12)])
STEWART = dict(kind="stewart", a=2, base=3, start=3, end=1500,
               argv=["survey", "stewart", "--a", "2", "--base", "3", "--start", "3",
                     "--end", "1500"])


def cli_output(cmd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "smoothdigits", *cmd["argv"]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode in (0, 3), proc.stderr
    return proc.stdout.splitlines()


@pytest.fixture(scope="module")
def outputs():
    return {name: cli_output(cmd) for name, cmd in
            [("survey", SURVEY), ("partial", PARTIAL), ("search", SEARCH),
             ("stewart", STEWART)]}


def failed(cmd, lines):
    return checks.CommandCheck(cmd).result("\n".join(lines) + "\n")[0]


def edit_record(lines, pick, change):
    """Copy of lines with `change` applied to the first record `pick` accepts."""
    out = list(lines)
    for i, line in enumerate(out[1:], start=1):
        rec = json.loads(line)
        if pick(rec):
            change(rec)
            out[i] = json.dumps(rec)
            return out
    raise AssertionError("no record to corrupt")


@pytest.mark.parametrize("name,cmd", [("survey", SURVEY), ("partial", PARTIAL),
                                      ("search", SEARCH), ("stewart", STEWART)])
def test_cli_output_passes(outputs, name, cmd):
    assert failed(cmd, outputs[name]) == 0


def test_partial_records_are_counted(outputs):
    fails, complete, partial = checks.CommandCheck(PARTIAL).result(
        "\n".join(outputs["partial"]))
    assert fails == 0 and partial > 0 and complete + partial == PARTIAL["count"]


def test_swapped_factor_order(outputs):
    lines = edit_record(outputs["survey"], lambda r: len(r["factors"]) >= 2,
                        lambda r: r["factors"].reverse())
    assert failed(SURVEY, lines) == 1


def test_factor_swapped_for_another_prime(outputs):
    def swap(rec):
        rec["factors"][0][0] = 2 if rec["factors"][0][0] != 2 else 3
    lines = edit_record(outputs["survey"], lambda r: r["factors"], swap)
    assert failed(SURVEY, lines) == 1


def test_prime_cofactor(outputs):
    def hide_largest(rec):
        p, _ = rec["factors"].pop()
        rec.update(cofactor=p, complete=False, P=None, omega=None, Q=None,
                   thm11_exceeded=None, trace_branch=None, trace_rows_ok=None,
                   trace_size_condition=None)
    lines = edit_record(outputs["survey"],
                        lambda r: len(r["factors"]) >= 2 and r["factors"][-1][1] == 1,
                        hide_largest)
    assert failed(SURVEY, lines) == 1


def test_composite_cofactor_marked_complete(outputs):
    lines = edit_record(outputs["partial"], lambda r: not r["complete"],
                        lambda r: r.update(complete=True))
    assert failed(PARTIAL, lines) == 1


def test_wrong_P(outputs):
    lines = edit_record(outputs["survey"], lambda r: r["omega"] and r["omega"] >= 2,
                        lambda r: r.update(P=r["factors"][0][0]))
    assert failed(SURVEY, lines) == 1


@pytest.mark.parametrize("position", [1, 20, -1])
def test_dropped_term(outputs, position):
    lines = list(outputs["survey"])
    del lines[position]
    assert failed(SURVEY, lines) >= 1


@pytest.mark.parametrize("position", [1, 20, 41])
def test_extra_term(outputs, position):
    lines = list(outputs["survey"])
    lines.insert(position, lines[min(position, 40)])
    assert failed(SURVEY, lines) >= 1


def test_wrong_trace_branch(outputs):
    flip = {"lambda_a": "lambda_u", "lambda_u": "lambda_a"}
    lines = edit_record(outputs["survey"], lambda r: r["trace_branch"] == "lambda_u",
                        lambda r: r.update(trace_branch=flip[r["trace_branch"]]))
    assert failed(SURVEY, lines) == 1
    lines = edit_record(outputs["survey"], lambda r: r["trace_branch"] == "lambda_a",
                        lambda r: r.update(trace_branch=flip[r["trace_branch"]]))
    assert failed(SURVEY, lines) == 1


def test_threshold_off_by_a_millionth(outputs):
    lines = edit_record(outputs["survey"], lambda r: isinstance(r["cor15"], float),
                        lambda r: r.update(cor15=r["cor15"] * (1 + 1e-6)))
    assert failed(SURVEY, lines) == 1


def test_threshold_not_applicable_swapped_for_a_number(outputs):
    lines = edit_record(outputs["survey"], lambda r: r["cor15"] == checks.NA,
                        lambda r: r.update(cor15=0.0))
    assert failed(SURVEY, lines) == 1


def test_missing_search_hit(outputs):
    lines = list(outputs["search"])
    del lines[len(lines) // 2]
    assert failed(SEARCH, lines) >= 1


def test_search_hit_with_wrong_digit_count(outputs):
    lines = edit_record(outputs["search"], lambda r: r["nz"] > 1,
                        lambda r: r.update(nz=r["nz"] - 1))
    assert failed(SEARCH, lines) == 1


def test_stewart_wrong_digit_count(outputs):
    lines = edit_record(outputs["stewart"], lambda r: r["n"] == 1400,
                        lambda r: r.update(nz=r["nz"] + 1))
    assert failed(STEWART, lines) == 1


def test_missing_header_fails_everything(outputs):
    assert failed(SURVEY, outputs["survey"][1:]) == SURVEY["count"]


def test_nonzero_digits_matches_plain_division():
    for v in (1, 2, 3**700 - 1, 2**5000 + 12345, 7**2000):
        for base in (3, 10):
            count, x = 0, v
            while x:
                x, r = divmod(x, base)
                count += r != 0
            assert checks.nonzero_digits(v, base) == count


def test_seed_zero_is_the_reference_command_set():
    (survey,) = workloads.commands("survey-b2-k3", 0)
    assert survey["argv"][:7] == ["survey", "sparse", "--base", "2", "--k", "3", "--count"]
    search, stewart = workloads.commands("scan", 0)
    assert search["argv"][:8] == ["search", "--base", "3", "--k", "4", "--primes",
                                  "2,5,7,11,13", "--limit"]
    assert search["limit"] == 10**30
    assert stewart["argv"] == ["survey", "stewart", "--a", "2", "--base", "3",
                               "--start", "3", "--end", "8000"]


def test_seeds_keep_the_search_size():
    base = len(checks.smooth_products((2, 5, 7, 11, 13), 10**30))
    for seed in (1, 2):
        search, _ = workloads.commands("scan", seed)
        n = len(checks.smooth_products(search["primes"], search["limit"]))
        assert abs(n - base) < 0.01 * base
