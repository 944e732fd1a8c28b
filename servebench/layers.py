"""Per-layer metrics from the traced run: spans, client times, counters.

Spans come from ``traced_serve.py``; each is ``(name, thread, start, end)``
in seconds on the clock the client also uses.  Times are means per call
(or per read where a read makes exactly one call) in milliseconds, and a
layer that did not run on a workload reads 0.  Counts are ``/v1/metrics``
deltas over the observed windows.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from .stats import covered, metric_delta, ratio, self_time

READ_ROUTES = ("routes.score", "routes.suggest")
READ_SERVICES = ("service.score", "service.suggest")
SERVICE_CHILDREN = ("scorer.score_pairs", "retrieval.search",
                    "retrieval.extend", "ingest.submit", "ingest.wait",
                    "journal.flush")

#: per-layer metric -> unit, in report order
PER_LAYER_UNITS = {
    "async_http.self_ms": "ms",
    "async_http.shed_frac": "ratio",
    "routes.self_ms": "ms",
    "service.self_ms": "ms",
    "scorer.wait_ms": "ms",
    "scorer.cache_hit_rate": "ratio",
    "scorer.pairs_per_batch": "count",
    "engine.score_ms": "ms",
    "engine.us_per_pair": "us",
    "engine.encode_ms": "ms",
    "engine.apply_attachments_ms": "ms",
    "engine.rows_recomputed": "count",
    "retrieval.search_ms": "ms",
    "retrieval.extend_ms": "ms",
    "retrieval.rebuilds": "count",
    "ingest.apply_ms": "ms",
    "ingest.queue_wait_ms": "ms",
    "ingest.attached_per_query": "ratio",
    "journal.append_ms": "ms",
    "journal.flush_ms": "ms",
    "journal.fsyncs": "count",
    "journal.recover_ms": "ms",
    "artifacts.load_ms": "ms",
    "trace.overhead_p50_ms": "ms",
    "trace.overhead_cpu_ms_per_req": "ms",
}


def _mean_ms(values) -> float:
    values = list(values)
    return 1000.0 * statistics.fmean(values) if values else 0.0


def _children(by_thread, span, names):
    """Spans named ``names`` on ``span``'s thread inside its interval."""
    _, thread, start, end = span
    return [(s, e) for n, _, s, e in by_thread[thread]
            if n in names and start <= s and e <= end
            and (s, e) != (start, end)]


def per_layer(spans, reads, ingests, counters, load_s,
              recover_s) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead.

    ``spans`` are already cut to the observed windows; ``counters`` holds
    one (before, after) ``/v1/metrics`` pair per observed window.
    """
    by_name = defaultdict(list)
    by_thread = defaultdict(list)
    for span in spans:
        span = tuple(span)
        by_name[span[0]].append(span)
        by_thread[span[1]].append(span)

    def durations(name):
        return [end - start for _, _, start, end in by_name[name]]

    def delta(name):
        return sum(metric_delta(before, after, name)
                   for before, after in counters)

    read_routes = [s for n in READ_ROUTES for s in by_name[n]]
    read_services = [s for n in READ_SERVICES for s in by_name[n]]
    engine = [(s, e) for _, _, s, e in by_name["engine.score"]]
    read_scorer = [c for span in read_services
                   for c in _children(by_thread, span,
                                      ("scorer.score_pairs",))]
    submits = sorted(s[3] for s in by_name["ingest.submit"])
    applies = sorted(s[2] for s in by_name["ingest.apply"])
    reports = [r.payload for r in ingests if r.payload]
    return {
        "async_http.self_ms": max(0.0, _mean_ms(
            r.done - r.sent for r in reads)
            - _mean_ms(e - s for _, _, s, e in read_routes)),
        "async_http.shed_frac": ratio(delta("repro_http_shed_total"),
                                      delta("repro_http_requests_total")),
        "routes.self_ms": _mean_ms(
            self_time(span[2:], _children(by_thread, span, READ_SERVICES))
            for span in read_routes),
        "service.self_ms": _mean_ms(
            self_time(span[2:], _children(by_thread, span,
                                          SERVICE_CHILDREN))
            for span in read_services),
        "scorer.wait_ms": _mean_ms(
            (e - s) - covered(engine, s, e) for s, e in read_scorer),
        "scorer.cache_hit_rate": ratio(
            delta("repro_scorer_cache_hits_total"),
            delta("repro_scorer_pairs_requested_total")),
        "scorer.pairs_per_batch": ratio(
            delta("repro_scorer_pairs_scored_total"),
            delta("repro_scorer_batches_total")),
        "engine.score_ms": _mean_ms(durations("engine.score")),
        "engine.us_per_pair": 1e6 * ratio(
            sum(durations("engine.score")),
            delta("repro_engine_pairs_scored_total")),
        "engine.encode_ms": _mean_ms(durations("engine.encode")),
        "engine.apply_attachments_ms": _mean_ms(
            durations("engine.apply_attachments")),
        "engine.rows_recomputed": delta("repro_engine_rows_recomputed_total"),
        "retrieval.search_ms": _mean_ms(durations("retrieval.search")),
        "retrieval.extend_ms": _mean_ms(durations("retrieval.extend")),
        "retrieval.rebuilds": delta("repro_retrieval_index_rebuilds_total"),
        "ingest.apply_ms": _mean_ms(durations("ingest.apply")),
        # one FIFO worker: the i-th batch submitted is the i-th applied
        "ingest.queue_wait_ms": _mean_ms(
            max(0.0, a - s) for s, a in zip(submits, applies)),
        "ingest.attached_per_query": ratio(
            sum(r["num_attached"] for r in reports),
            sum(r["new_candidate_queries"] for r in reports)),
        "journal.append_ms": _mean_ms(durations("journal.append")),
        "journal.flush_ms": _mean_ms(durations("journal.flush")),
        "journal.fsyncs": delta("repro_journal_fsyncs_total"),
        "journal.recover_ms": 1000.0 * statistics.median(recover_s)
        if recover_s else 0.0,
        "artifacts.load_ms": 1000.0 * statistics.median(load_s)
        if load_s else 0.0,
    }
