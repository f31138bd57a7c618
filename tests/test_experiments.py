import bisect
import math
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothdigits import experiments
from smoothdigits.bounds import remark45_check
from smoothdigits.digits import nz_count
from smoothdigits.factor import PrimeSet, factorize, is_s_unit
from smoothdigits.experiments import (
    cyclotomic_smooth,
    cyclotomic_value,
    mobius,
    multiplicatively_independent,
    smooth_sparse_search,
    sparse_survey,
    stewart_survey,
    survey_record_dict,
    window_minima,
)
from smoothdigits.sequences import smooth_sequence


class TestSparseSurvey:
    def test_first_six_base2_k2(self):
        recs = list(sparse_survey(2, 6, k=2))
        assert [r.value for r in recs] == [1, 3, 5, 9, 17, 33]
        assert [r.P for r in recs] == [1, 3, 5, 3, 17, 11]
        assert [r.j for r in recs] == [1, 2, 3, 4, 5, 6]

    def test_k3_includes_seven(self):
        recs = list(sparse_survey(2, 10, k=3))
        by_value = {r.value: r for r in recs}
        assert 7 in by_value
        assert by_value[7].P == 7

    def test_threshold_fields_always_present(self):
        for rec in sparse_survey(2, 40, k=3):
            assert "thm11" in rec.thresholds
            assert "cor15" in rec.thresholds
            if rec.value <= 3814279:
                assert rec.thresholds["thm11"] is None
            else:
                assert isinstance(rec.thresholds["thm11"], float)

    def test_k2_always_archimedean_branch(self):
        for rec in sparse_survey(2, 64, k=2):
            # every member is 1 or 2^m + 1, and two digits force the
            # archimedean branch
            assert rec.value == 1 or rec.value == 2 ** rec.exponents[-1] + 1
            if rec.complete and rec.nz >= 2:
                assert rec.trace_branch == "lambda_a"

    def test_partial_records_survive(self):
        # minuscule budget: large terms stay partial but are still emitted
        recs = list(sparse_survey(2, 80, k=2, factor_budget=1))
        assert len(recs) == 80
        partials = [r for r in recs if not r.complete]
        assert partials, "expected at least one budget-limited record"
        for r in partials:
            assert r.P is None and r.omega is None and r.Q is None
            assert r.cofactor > 1

    def test_determinism(self):
        a = [survey_record_dict(r) for r in sparse_survey(2, 30, k=3)]
        b = [survey_record_dict(r) for r in sparse_survey(2, 30, k=3)]
        assert a == b

    def test_f_mode_has_thm13(self):
        from smoothdigits.sequences import constant_budget

        recs = list(sparse_survey(2, 12, budget_fn=constant_budget(2)))
        assert [r.value for r in recs][:6] == [1, 3, 5, 9, 17, 33]
        for rec in recs:
            assert "thm13" in rec.thresholds

    def test_workers_match_sequential(self):
        # 700 values cross the cap of 256 on a batch
        seq = [survey_record_dict(r) for r in sparse_survey(2, 700, k=3)]
        par = [survey_record_dict(r) for r in sparse_survey(2, 700, k=3, workers=2)]
        assert seq == par

    def test_workers_draw_one_value_before_the_first_record(self, monkeypatch):
        from smoothdigits import experiments

        drawn = []
        real = experiments.sparse_sequence

        def counting(*args, **kwargs):
            for v in real(*args, **kwargs):
                drawn.append(v)
                yield v

        monkeypatch.setattr(experiments, "sparse_sequence", counting)
        records = sparse_survey(2, 5000, k=3, workers=2)
        assert next(records).j == 1
        assert len(drawn) <= 1
        records.close()

    def test_workers_map_factorize_by_name(self, monkeypatch):
        # A wrapper on the module's factorize, as perfbench/tracer.py puts
        # there, cannot be pickled; the pool must map a function by name.
        real = experiments.factorize
        seen = []

        def wrapped(n, budget):
            seen.append(n)
            return real(n, budget)

        seq = [survey_record_dict(r) for r in sparse_survey(2, 700, k=3)]
        monkeypatch.setattr(experiments, "factorize", wrapped)
        par = [survey_record_dict(r) for r in sparse_survey(2, 700, k=3, workers=2)]
        assert par == seq
        # The batches up to j = 511 hold values below 2**31 and stay in this
        # process; the last one, from j = 512, goes to the workers.
        assert seen == [r["value"] for r in seq[:511]]

    def test_pool_takes_only_batches_past_the_small_core(self, monkeypatch):
        import concurrent.futures

        started, maps = [], []

        class Pool:
            _processes = {}

            def __init__(self, workers):
                started.append(workers)

            def map(self, fn, values, budgets, chunksize):
                maps.append((list(values), chunksize))
                return map(fn, maps[-1][0], budgets)

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        assert list(sparse_survey(10, 2000, k=3, workers=2))[-1].value < 2**31
        assert started == [] and maps == []
        seq = [survey_record_dict(r) for r in sparse_survey(2, 150, k=2)]
        par = [survey_record_dict(r) for r in sparse_survey(2, 150, k=2, workers=2)]
        assert par == seq
        # 2**m + 1 first reaches 2**31 at j = 32: the batches from j = 32,
        # 64 and 128, in chunks of a quarter of each worker's share
        assert started == [2]
        assert [(values[0], len(values), chunk) for values, chunk in maps] == [
            (2**31 + 1, 32, 4), (2**63 + 1, 64, 8), (2**127 + 1, 23, 2),
        ]

    def test_early_close_stops_the_workers(self):
        import multiprocessing

        records = sparse_survey(2, 400, k=2, workers=2)
        for rec in records:
            if rec.j == 130:  # the batch from j = 128 is on the workers
                break
        assert multiprocessing.active_children()
        start = time.perf_counter()
        records.close()
        # Closing waits for no chunk: the rest of that batch, hard values
        # like 2**137 + 1 among them, took over a second.
        assert time.perf_counter() - start < 0.5
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "count,kwargs",
        [(0, {"k": 2}), (5, {}), (5, {"k": 2, "eps": -1.0}), (5, {"k": 1})],
    )
    def test_rejected_when_called(self, count, kwargs):
        # before any record is requested, not at the first next()
        with pytest.raises(ValueError):
            sparse_survey(2, count, **kwargs)

    def test_stream_that_ends_early(self):
        from smoothdigits.sequences import constant_budget

        recs = list(sparse_survey(3, 5, budget_fn=constant_budget(1)))
        assert [r.value for r in recs] == [1, 2]

    @pytest.mark.parametrize("base, count", [(10, 2000), (2, 300)])
    def test_trace_summary_matches_a_direct_trace(self, base, count):
        # The survey hands lemma31_trace its expansion and fills the trace
        # memos; a direct trace, which decomposes afresh, must agree with
        # every record, from cold memos and from warm ones.
        from smoothdigits import bounds, cli
        from smoothdigits.digits import decompose

        for memo in (bounds._term, bounds._log_up, bounds._least_prime):
            memo.cache_clear()
        for _ in ("cold", "warm"):
            traced = 0
            for rec in sparse_survey(base, count, k=3):
                summary = (rec.trace_branch, rec.trace_rows_ok, rec.trace_size_condition)
                if rec.nz < 2:
                    assert summary == (None, None, None)
                    continue
                fact = factorize(rec.value)
                report = bounds.lemma31_trace(rec.value, base, fact)
                assert summary == (
                    report.branch, report.expected_rows_hold, report.size_condition_met
                ), rec.value
                given = bounds.lemma31_trace(
                    rec.value, base, fact, decompose(rec.value, base)
                )
                assert cli._trace_dict(given) == cli._trace_dict(report)
                traced += 1
            assert traced == count - (base - 1)  # all but the one-digit values

    def test_window_minima(self):
        recs = list(sparse_survey(2, 10, k=2))
        stats = window_minima(recs)
        assert [s.t for s in stats] == [0, 1, 2, 3]
        assert stats[0].min_P == 1  # the window containing u_1 = 1
        assert stats[1].min_P == 3  # u_2, u_3 = 3, 5
        assert all(s.total >= s.complete for s in stats)


class TestStewart:
    def test_base3_row10(self):
        rows = {r.n: r for r in stewart_survey(2, 3, (3, 12))}
        assert rows[10].nz == 6  # 1024 in base 3 is 1101221
        assert math.isclose(rows[10].bound, 1.3803929967673457, rel_tol=1e-12)
        assert rows[10].exceeds

    def test_dependent_pair_rejected(self):
        with pytest.raises(ValueError):
            list(stewart_survey(2, 2, (3, 5)))
        with pytest.raises(ValueError):
            list(stewart_survey(4, 8, (3, 5)))

    def test_small_n_flagged_not_dropped(self):
        rows = list(stewart_survey(3, 2, (3, 3)))
        assert len(rows) == 1
        row = rows[0]
        assert row.nz == 4  # 27 = 11011
        assert math.isclose(row.bound, 5.840710607083929, rel_tol=1e-12)
        assert row.exceeds is False

    def test_nz_matches_direct_count(self):
        for row in stewart_survey(2, 3, (3, 40)):
            assert row.nz == nz_count(2**row.n, 3)

    @pytest.mark.parametrize(
        "a, base, start, end",
        [
            (2, 3, 3, 3000),
            (3, 2, 3, 600),
            (2, 10, 3, 600),
            (2, 65537, 3, 600),  # above the chunk tables: one limb per digit
            (2, 10**12, 3, 600),
            (2**62 + 1, 3, 3, 200),  # a * 3**10 overflows int64: Python-int limbs
            (2, 3, 57, 600),
            (5, 2**16, 100, 400),
            (65537, 3, 3, 300),  # a above size = 3**10: one lane (s = 1) on uint32
            (59048, 3, 3, 200),  # a just below size
            (59050, 3, 3, 200),  # a just above size
            (7, 2, 3, 600),  # size = 2**16
            (3, 256, 3, 600),  # size = 2**16
            (2, 3, 100, 400),  # the limb array doubles at the second step
        ],
    )
    def test_rows_equal_nz_count_of_the_power(self, a, base, start, end):
        rows = list(stewart_survey(a, base, (start, end)))
        assert [r.n for r in rows] == list(range(start, end + 1))
        assert [r.nz for r in rows] == [nz_count(a**n, base) for n in range(start, end + 1)]

    def test_large_base_builds_no_chunk_table(self, monkeypatch):
        from smoothdigits import digits

        bases = []
        real = digits._nz_chunk_table

        def recording(base):
            bases.append(base)
            return real(base)

        monkeypatch.setattr(digits, "_nz_chunk_table", recording)
        list(stewart_survey(2, 2**16 + 1, (3, 50)))
        list(stewart_survey(2, 10**12, (3, 50)))
        assert bases == []

    def test_far_start_converts_in_time(self):
        # a**start goes to limbs by halving splits.  One divmod per limb is
        # quadratic and took about 9 s on 2 shared cores; the counts were
        # pinned from that conversion.
        t0 = time.perf_counter()
        rows = list(stewart_survey(2, 3, (10**6, 10**6 + 1)))
        elapsed = time.perf_counter() - t0
        assert [(r.n, r.nz) for r in rows] == [(10**6, 420563), (10**6 + 1, 420296)]
        assert elapsed < 4.0, f"took {elapsed:.1f}s"

    def test_independence_check(self):
        assert multiplicatively_independent(2, 3)
        assert not multiplicatively_independent(4, 8)
        assert not multiplicatively_independent(9, 27)
        assert multiplicatively_independent(6, 12)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            list(stewart_survey(2, 3, (2, 10)))  # start below 3
        with pytest.raises(ValueError):
            list(stewart_survey(2, 3, (5, 4)))


class TestCyclotomic:
    def test_construction_n12(self):
        rep = cyclotomic_smooth(12)
        assert rep.parts == ((8, 17), (24, 241))
        assert rep.identity_ok
        assert rep.N == 4097
        assert rep.P == 241
        assert rep.factors == ((17, 1), (241, 1))
        # smallest passing scale: log(241) * logloglog(N) / log(N)
        assert math.isclose(rep.min_c, 0.4949841654392084, rel_tol=1e-9)

    def test_min_c_passes_remark45(self):
        # min_c is the scale at which remark45_check passes, n = 47, 67 and
        # 117 included, where the inverted formula rounds one ulp short
        checked = 0
        for n in range(1, 121):
            rep = cyclotomic_smooth(n)
            if rep.min_c is not None:
                assert remark45_check(rep.N, rep.P, rep.min_c) is True, n
                checked += 1
        assert checked == 117  # all but n = 1, 2, 3, where N < 16

    def test_smallest_cases(self):
        assert cyclotomic_smooth(1).parts == ((2, 3),)
        assert cyclotomic_smooth(2).parts == ((4, 5),)

    def test_repeated_prime_across_parts(self):
        rep = cyclotomic_smooth(3)  # parts 3 and 3 multiply to 9
        assert rep.parts == ((2, 3), (6, 3))
        assert rep.identity_ok
        assert rep.factors == ((3, 2),)

    def test_identity_sample(self):
        for n in (5, 17, 30, 64, 100):
            assert cyclotomic_smooth(n).identity_ok

    def test_mobius(self):
        values = [mobius(d) for d in range(1, 11)]
        assert values == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]

    def test_cyclotomic_values(self):
        assert cyclotomic_value(1, 2) == 1
        assert cyclotomic_value(2, 2) == 3
        assert cyclotomic_value(8, 2) == 17
        assert cyclotomic_value(24, 2) == 241
        assert cyclotomic_value(12, 2) == 13


class TestSmoothSparseSearch:
    def test_base10_hits(self):
        hits = smooth_sparse_search(10, 2, [2, 3, 5], 100)
        values = [h.value for h in hits]
        expected = [
            n
            for n in range(1, 101)
            if is_s_unit(n, PrimeSet((2, 3, 5)))
            and n % 10 != 0
            and nz_count(n, 10) <= 2
        ]
        assert values == expected
        assert set(range(1, 10)) - {7} - set(values) == set()  # 1..6, 8, 9 present

    def test_powers_of_three_in_binary(self):
        hits = smooth_sparse_search(2, 2, [3], 10**6)
        assert [h.value for h in hits] == [1, 3, 9]

    def test_limit_one(self):
        hits = smooth_sparse_search(7, 3, [2, 3], 1)
        assert [h.value for h in hits] == [1]

    def test_hits_recheck(self):
        s = PrimeSet((2, 3, 7))
        for h in smooth_sparse_search(10, 2, s, 5000):
            assert is_s_unit(h.value, s)
            assert nz_count(h.value, 10) <= 2
            assert h.value % 10 != 0

    @pytest.mark.parametrize(
        "args, kwargs",
        [((1, 2, [3], 10), {}), ((2, 0, [3], 10), {}), ((2, 2, [4], 10), {}),
         ((2, 2, [3], 10), {"eps": -0.1})],
    )
    def test_rejected_when_called(self, args, kwargs):
        # before the first hit is requested, so the CLI writes nothing
        with pytest.raises(ValueError):
            smooth_sparse_search(*args, **kwargs)

    def test_scarcity(self):
        hits = smooth_sparse_search(2, 2, [11], 10**4)
        # 11 = 1011 and 121 = 1111001 both carry too many ones: only 1 stays
        assert [h.value for h in hits] == [1]


def _few_digits(v, base, k):
    """At most k nonzero base-`base` digits, counted by plain division."""
    count = 0
    while v:
        v, d = divmod(v, base)
        count += d != 0
    return count <= k


def _brute_force_search(base, k, primes, limit):
    return [v for v in smooth_sequence(primes, limit) if v % base and _few_digits(v, base, k)]


# 2^16 - 1 = 3 * 5 * 17 * 257, 2^16 + 1 is prime and 641 divides 2^32 + 1.
_BASES = (2, 3, 6, 10, 2**16 - 1, 2**16 + 1, 2**32 + 1)
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 257, 641, 2**16 + 1)


@st.composite
def _search_cases(draw):
    primes = sorted(draw(st.sets(st.sampled_from(_PRIMES), min_size=1, max_size=4)))
    unit = math.prod(p ** draw(st.integers(0, 12)) for p in primes)
    edge = experiments._FIRST_BAND
    limit = draw(st.sampled_from((0, 1, unit, edge - 1, edge + 1)) | st.integers(2, 10**15))
    return draw(st.sampled_from(_BASES)), draw(st.integers(1, 6)), primes, limit


class TestSearchBands:
    """The band screen against a filter of smooth_sequence, with numpy
    chunks of every size from one tuple up."""

    @settings(max_examples=150, deadline=None)
    @given(_search_cases(), st.sampled_from((1, 5, 64, experiments._CHUNK)))
    def test_equals_brute_force(self, case, chunk):
        with mock.patch.object(experiments, "_CHUNK", chunk):
            hits = list(smooth_sparse_search(*case))
        assert [h.value for h in hits] == _brute_force_search(*case)

    @pytest.mark.parametrize("base, k, primes, limit", [
        (10, 3, [2], 2**1000),  # exponents above 255
        (10, 2, [2, 5], 10**40),
        (6, 3, [2, 3], 10**30),
        (2, 3, [3, 5], 10**60),
    ])
    def test_long_exponents(self, base, k, primes, limit):
        hits = smooth_sparse_search(base, k, primes, limit)
        assert [h.value for h in hits] == _brute_force_search(base, k, primes, limit)

    def test_a_large_prime_keeps_bands_small(self):
        # 65537**8 spans the whole range, so the count of S-units cuts the bands
        case = (3, 4, [2, 3, 65537], 10**30)
        bands = []
        screened = experiments._screened_tuples

        def spy(logs, tables, modulus, screen, bottom, top):
            bands.append((bottom, top))
            return screened(logs, tables, modulus, screen, bottom, top)

        with mock.patch.object(experiments, "_CHUNK", 64), \
                mock.patch.object(experiments, "_screened_tuples", spy):
            hits = list(smooth_sparse_search(*case))
        assert [h.value for h in hits] == _brute_force_search(*case)
        logs = [math.log(v) for v in smooth_sequence(case[2], case[3])]
        held = [bisect.bisect_right(logs, top) - bisect.bisect_right(logs, bottom) for bottom, top in bands]
        assert len(bands) > 1 and max(held) <= 2 * experiments._BAND_CHUNKS * 64

    def test_binary_powers_of_three_to_a_huge_limit(self):
        hits = smooth_sparse_search(2, 2, [3], 10**5000)
        assert [h.value for h in hits] == [1, 3, 9]


def test_import_leaves_the_process_pool_out():
    # concurrent.futures.process pulls in multiprocessing and socket, about
    # 25 ms of import that only --threads N > 1 uses
    code = (
        "import sys, smoothdigits, smoothdigits.cli\n"
        "print('concurrent.futures.process' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["False"]
