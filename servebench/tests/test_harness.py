"""Unit tests for the benchmark's pure logic: statistics, span arithmetic,
/proc and /v1/metrics parsing, and the response checks."""

from __future__ import annotations

import os
import statistics
import time

import pytest

from servebench import stats
from servebench.client import check_response
from servebench.inputs import SUGGEST_K, Request
from servebench.server import process_cpu_clock


class TestPercentile:
    def test_nearest_rank_value_and_samples_beyond(self):
        samples = list(range(1, 101))  # 1..100
        assert stats.percentile(samples, 50) == (50, 50)
        assert stats.percentile(samples, 90) == (90, 10)
        assert stats.percentile(samples, 100) == (100, 0)

    def test_value_is_a_sample_and_order_does_not_matter(self):
        value, beyond = stats.percentile([5.0, 1.0, 3.0, 4.0, 2.0], 90)
        assert (value, beyond) == (5.0, 0)

    def test_ties_at_the_percentile_are_not_beyond_it(self):
        samples = [1.0] * 5 + [2.0] * 5
        assert stats.percentile(samples, 50) == (1.0, 5)
        assert stats.percentile(samples, 60) == (2.0, 0)

    def test_a_failed_request_counts_as_slower_than_any(self):
        samples = [1.0] * 89 + [float("inf")] * 11
        assert stats.percentile(samples, 90) == (float("inf"), 0)

    def test_empty_sample_is_an_error(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50)


class TestRounds:
    def test_median_over_rounds_reads_one_key(self):
        rounds = [{"p50_ms": 3.0, "p90_ms": 9.0}, {"p50_ms": 1.0,
                                                    "p90_ms": 4.0},
                  {"p50_ms": 2.0, "p90_ms": 5.0}]
        assert stats.median_over_rounds(rounds, "p50_ms") == 2.0
        assert stats.median_over_rounds(rounds, "p90_ms") == 5.0

    def test_one_slow_round_does_not_move_the_median(self):
        steady = [{"x": v} for v in (10.0, 10.2, 9.9, 10.1, 10.0, 80.0)]
        assert stats.median_over_rounds(steady, "x") == pytest.approx(10.05)

    def test_spread_matches_statistics_quantiles(self):
        values = [9.0, 10.0, 10.0, 11.0, 12.0, 10.5]
        q1, median, q3 = statistics.quantiles(values, n=4)
        assert stats.spread(values) == pytest.approx((q3 - q1) / median)
        assert stats.spread([1.0]) is None
        assert stats.spread([0.0, 0.0, 0.0]) is None


class TestSpans:
    def test_self_time_subtracts_nested_children(self):
        assert stats.self_time((0.0, 10.0), [(1.0, 3.0), (5.0, 6.0)]) == 7.0

    def test_overlapping_children_count_once(self):
        children = [(1.0, 4.0), (2.0, 5.0), (3.0, 4.5)]
        assert stats.self_time((0.0, 10.0), children) == 6.0

    def test_child_time_outside_the_parent_is_ignored(self):
        children = [(-5.0, 2.0), (8.0, 20.0)]
        assert stats.self_time((0.0, 10.0), children) == 6.0

    def test_grandchildren_inside_children_change_nothing(self):
        children = [(1.0, 5.0), (2.0, 3.0)]
        assert stats.self_time((0.0, 10.0), children) == 6.0

    def test_covered_clips_to_the_window(self):
        assert stats.covered([(0.0, 4.0), (6.0, 9.0)], 2.0, 7.0) == 3.0
        assert stats.covered([], 0.0, 1.0) == 0.0


class TestProc:
    STAT = ("4242 (python3 -m (odd) name) S 17 4242 4242 0 -1 4194304 "
            "1000 0 0 0 250 40 3 1 20 0 9 0 123 456 789")

    def test_ppid_survives_spaces_and_parentheses_in_the_name(self):
        assert stats.parse_proc_ppid(self.STAT) == 17

    def test_pss_is_read_from_smaps_rollup(self):
        rollup = ("55d0c0000000-7ffd00000000 ---p 00000000 00:00 0 "
                  "[rollup]\nRss:              204800 kB\n"
                  "Pss:              151234 kB\nPss_Anon:  90000 kB\n")
        assert stats.parse_pss_kb(rollup) == 151234

    def test_pss_missing_is_an_error(self):
        with pytest.raises(ValueError):
            stats.parse_pss_kb("Rss: 1 kB\n")

    def test_process_cpu_clock_reads_this_process(self):
        deadline = time.process_time() + 0.05
        while time.process_time() < deadline:
            pass
        own = time.clock_gettime(process_cpu_clock(os.getpid()))
        assert own == pytest.approx(time.process_time(), abs=0.05)


class TestMetrics:
    TEXT_BEFORE = """# TYPE repro_scorer_cache_hits_total counter
repro_scorer_cache_hits_total 10
repro_engine_pairs_scored_total{dtype="float32"} 640
repro_http_requests_total 3
"""
    TEXT_AFTER = """# TYPE repro_scorer_cache_hits_total counter
repro_scorer_cache_hits_total 74
repro_engine_pairs_scored_total{dtype="float32"} 1920
repro_retrieval_index_rebuilds_total 1
repro_http_requests_total 9
repro_uptime_seconds 3.5
"""

    def test_parse_keeps_labels_and_skips_comments(self):
        parsed = stats.parse_metrics(self.TEXT_AFTER)
        assert parsed['repro_engine_pairs_scored_total{dtype="float32"}'] \
            == 1920.0
        assert parsed["repro_uptime_seconds"] == 3.5
        assert not any(key.startswith("#") for key in parsed)

    def test_counter_deltas_sum_labels_and_start_lazy_series_at_zero(self):
        before = stats.parse_metrics(self.TEXT_BEFORE)
        after = stats.parse_metrics(self.TEXT_AFTER)
        assert stats.metric_delta(before, after,
                                  "repro_scorer_cache_hits_total") == 64
        assert stats.metric_delta(before, after,
                                  "repro_engine_pairs_scored_total") == 1280
        assert stats.metric_delta(
            before, after, "repro_retrieval_index_rebuilds_total") == 1
        # a prefix of another name is not that name
        assert stats.metric_delta(before, after, "repro_http") == 0

    def test_ratio_of_nothing_is_zero(self):
        assert stats.ratio(5, 0) == 0.0
        assert stats.ratio(1, 4) == 0.25


class TestResponseChecks:
    """Every response is checked; a wrong one is a failed operation."""

    @staticmethod
    def _request(kind, pairs=None):
        return Request(b"", kind, pairs=pairs)

    def test_score_must_echo_its_pairs(self):
        request = self._request("score", [("a", "b"), ("c", "d")])
        good = b'{"pairs": [["a", "b"], ["c", "d"]], ' \
               b'"probabilities": [0.1, 0.9]}'
        assert check_response(request, 200, good) == (None, None)
        short = b'{"pairs": [["a", "b"]], "probabilities": [0.1]}'
        assert check_response(request, 200, short)[0] is not None
        assert check_response(request, 503, good)[0] is not None

    def test_suggest_needs_k_candidates_sorted_by_probability(self):
        request = self._request("suggest")
        probs = [1.0 - i / 20 for i in range(SUGGEST_K)]
        body = '{"candidates": [%s]}' % ", ".join(
            '{"probability": %s}' % p for p in probs)
        assert check_response(request, 200, body.encode())[0] is None
        unsorted = body.replace(str(probs[0]), "0.01", 1)
        assert "sorted" in check_response(request, 200, unsorted.encode())[0]
        fewer = '{"candidates": [{"probability": 0.5}]}'
        assert check_response(request, 200, fewer.encode())[0] is not None

    def test_sync_ingest_must_return_its_report(self):
        request = self._request("ingest")
        report = b'{"accepted": true, "report": {"attached_edges": []}}'
        assert check_response(request, 202, report)[0] is None
        queued = b'{"accepted": true, "pending_batches": 1}'
        assert check_response(request, 202, queued)[0] is not None
