"""Run ``repro.cli.main`` with spans recorded around module calls.

Usage: ``python servebench/traced_serve.py SPANS_FILE serve ...``

The wrappers are installed on the classes and the route table before
``main`` runs, so every instance the server builds is traced; nothing
under ``src/`` changes.  A span is ``(name, thread id, start, end)`` in
``perf_counter`` seconds.  Spans stay in memory and are written to
SPANS_FILE as JSON when ``main`` returns (after the SIGTERM drain).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

SPANS: list = []


def _wrap(name, fn):
    clock = time.perf_counter
    ident = threading.get_ident
    record = SPANS.append

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            record((name, ident(), start, clock()))
    return traced


def _patch(owner, attribute, name):
    raw = owner.__dict__[attribute]
    if isinstance(raw, classmethod):
        setattr(owner, attribute, classmethod(_wrap(name, raw.__func__)))
    else:
        setattr(owner, attribute, _wrap(name, raw))


def install() -> None:
    """Wrap each layer's public entry points (see README's layer table)."""
    from repro.infer.engine import InferenceEngine
    from repro.nn.inference import CompiledBert
    from repro.core.incremental import IncrementalExpander
    from repro.retrieval.refresh import CandidateRetriever
    from repro.serving import routes
    from repro.serving.artifacts import ArtifactBundle
    from repro.serving.ingest import IngestTicket, StreamingIngestor
    from repro.serving.journal import IngestJournal
    from repro.serving.scorer import BatchingScorer
    from repro.serving.service import TaxonomyService

    for handler in ("score", "suggest", "ingest"):
        routes.V1_HANDLERS[handler] = _wrap(f"routes.{handler}",
                                            routes.V1_HANDLERS[handler])
    for method in ("score", "suggest", "ingest", "recover"):
        _patch(TaxonomyService, method, f"service.{method}")
    _patch(BatchingScorer, "score_pairs", "scorer.score_pairs")
    _patch(CandidateRetriever, "neighbors", "retrieval.search")
    _patch(CandidateRetriever, "extend", "retrieval.extend")
    _patch(StreamingIngestor, "submit", "ingest.submit")
    _patch(IngestTicket, "wait", "ingest.wait")
    _patch(IncrementalExpander, "ingest", "ingest.apply")
    _patch(InferenceEngine, "score_pairs", "engine.score")
    _patch(InferenceEngine, "apply_attachments", "engine.apply_attachments")
    _patch(CompiledBert, "encode", "engine.encode")
    _patch(IngestJournal, "append", "journal.append")
    _patch(IngestJournal, "flush", "journal.flush")
    _patch(ArtifactBundle, "load", "artifacts.load")


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[0] = os.path.join(root, "src")
    spans_file, argv = sys.argv[1], sys.argv[2:]
    install()
    from repro.cli import main as cli_main
    try:
        return cli_main(argv)
    finally:
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump(SPANS, handle)


if __name__ == "__main__":
    sys.exit(main())
