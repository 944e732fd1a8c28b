"""Seeded request inputs, built in full before any server starts.

The seed chooses *which* pairs, concepts and click records are sent,
never *how many*: every count below depends only on the workload and the
run length, so two seeds drive the same amount of work and a faster
program can only read as faster.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: the score cache holds 4,096 pairs; the hot set fits with room to spare
HOT_SET = 3000
#: distinct 64-pair bodies drawn from the hot set
HOT_BODIES = 256
PAIRS_PER_REQUEST = 64
SUGGEST_K = 10
#: click records per ingest batch, all naming one held-out concept
RECORDS_PER_BATCH = 8
#: wall time budgeted per set-up probe (launch, warm-up, SIGTERM), s
PROBE_BUDGET_S = 1.0
#: wall time of the fixed part of a run: the measured server's set-up
#: at the start and its stop (or restart) at the end, seconds
FIXED_BUDGET_S = 2.0
#: share of suggest reads that name a concept ingested in an earlier round
INGESTED_READ_SHARE = 0.25
#: score requests per run whose every pair is checked against the
#: in-process bundle
CHECKED_REQUESTS = 8


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  Rates and sizes are fixed; only content is seeded."""

    name: str
    route: str
    #: closed-loop slice per round, seconds, on ``nproc`` connections
    closed_s: float
    #: request bodies available to one closed slice (several times what
    #: the current program can send, so a slice never runs dry)
    closed_supply: int
    #: open-loop read rate per second and reads per round; at least 100
    #: reads, so each round's p90 has ten samples beyond it
    open_rate: float
    open_reads: int
    #: sync ingest batches sent to the measured server one after another
    #: at the end of a round (0: the workload only reads)
    round_ingests: int

    @property
    def open_s(self) -> float:
        return self.open_reads / self.open_rate

    @property
    def round_s(self) -> float:
        return self.closed_s + self.open_s

    @staticmethod
    def probes(seconds: float) -> int:
        """Set-up probes per run: one per ~3 s, 3 to 12."""
        return min(12, max(3, int(round(seconds / 3))))

    def rounds(self, seconds: float) -> int:
        """Rounds that fill what the probes leave; at least three."""
        left = (seconds - FIXED_BUDGET_S
                - self.probes(seconds) * PROBE_BUDGET_S)
        return max(3, int(round(left / self.round_s)))


WORKLOADS = {
    "score-hot": Workload(
        "score-hot", "/v1/score", closed_s=0.4, closed_supply=2400,
        open_rate=300.0, open_reads=150, round_ingests=0),
    "score-cold": Workload(
        "score-cold", "/v1/score", closed_s=0.5, closed_supply=500,
        open_rate=40.0, open_reads=100, round_ingests=0),
    "suggest-ingest": Workload(
        "suggest-ingest", "/v1/suggest", closed_s=0.5, closed_supply=600,
        open_rate=40.0, open_reads=120, round_ingests=4),
}


def http_request(path: str, payload) -> bytes:
    """A complete keep-alive HTTP/1.1 POST with a JSON body."""
    body = json.dumps(payload).encode()
    head = (f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode() + body


@dataclass
class Request:
    """One prepared request and what the checker needs to know of it."""

    raw: bytes
    kind: str  # "score", "suggest" or "ingest"
    pairs: list | None = None
    check: bool = False


@dataclass
class Round:
    closed: list  # [Request]
    open_reads: list  # [(due offset s, Request)]
    ingests: list  # [Request], sent one after another after the reads


@dataclass
class RunInputs:
    workload: Workload
    warmup: list  # [Request]
    rounds: list  # [Round]
    #: held-out concept named by each round ingest batch, in send order
    held_out: list  # [concept]
    probes: int

    def counts(self) -> dict:
        """Every size the seed must not change."""
        def records(request):
            return len(json.loads(request.raw.split(b"\r\n\r\n", 1)[1])
                       ["records"])

        ingests = [r for rnd in self.rounds for r in rnd.ingests]
        reads = [r for rnd in self.rounds for _, r in rnd.open_reads]
        return {
            "rounds": len(self.rounds),
            "warmup": len(self.warmup),
            "closed_per_round": sorted({len(r.closed) for r in self.rounds}),
            "open_per_round": sorted({len(r.open_reads)
                                      for r in self.rounds}),
            "ingests_per_round": sorted({len(r.ingests)
                                         for r in self.rounds}),
            "pairs_per_request": sorted({len(r.pairs) for r in reads
                                         if r.pairs is not None}),
            "records_per_batch": sorted({records(r) for r in ingests}),
            "checked": sum(r.check for r in reads),
            "probes": self.probes,
        }


def _pairs_from_indices(indices, concepts):
    """Ordered pairs (a, b), a != b, from flat indices in [0, n(n-1))."""
    n = len(concepts)
    firsts = indices // (n - 1)
    seconds = indices % (n - 1)
    seconds = seconds + (seconds >= firsts)
    return [(concepts[a], concepts[b]) for a, b in zip(firsts.tolist(),
                                                       seconds.tolist())]


def _score_request(pairs, check=False) -> Request:
    return Request(http_request("/v1/score",
                                {"pairs": [list(p) for p in pairs]}),
                   "score", pairs=list(pairs), check=check)


def _ingest_batches(rng, info, count):
    """``count`` click batches, each naming one held-out concept under an
    ancestor that attaches it, no concept repeated; returns
    ``[(concept, request)]``."""
    from repro.synthetic.items import decorate_item

    pool = sorted(info["attach"])
    if count > len(pool):
        raise ValueError(f"{count} attachable held-out concepts needed, "
                         f"{len(pool)} available")
    batches = []
    for i in rng.choice(len(pool), size=count, replace=False).tolist():
        concept = pool[i]
        queries = info["attach"][concept]
        query = queries[int(rng.integers(len(queries)))]
        records = [[query, decorate_item(concept, rng),
                    int(rng.integers(1, 6))]
                   for _ in range(RECORDS_PER_BATCH)]
        batches.append((concept, Request(http_request(
            "/v1/ingest", {"records": records, "sync": True}), "ingest")))
    return batches


def _open_dues(workload: Workload) -> list:
    """Evenly spaced due offsets within a round's open stretch."""
    step = 1.0 / workload.open_rate
    return [i * step for i in range(workload.open_reads)]


def _suggest(query) -> Request:
    return Request(http_request("/v1/suggest",
                                {"query": query, "k": SUGGEST_K}),
                   "suggest")


def _score_rounds(workload, rng, info, n_rounds, dues, checked):
    """Warm-up and per-round (closed, open) score requests."""
    concepts = info["concepts"]
    n = len(concepts)
    if workload.name == "score-hot":
        hot = _pairs_from_indices(
            rng.choice(n * (n - 1), size=HOT_SET, replace=False), concepts)
        shared = [_score_request([hot[i] for i in rng.choice(
            HOT_SET, size=PAIRS_PER_REQUEST, replace=False).tolist()])
                  for _ in range(HOT_BODIES)]
        warmup = [_score_request(hot[i:i + PAIRS_PER_REQUEST])
                  for i in range(0, HOT_SET, PAIRS_PER_REQUEST)]

        def pick(count):
            return [shared[i] for i in
                    rng.integers(HOT_BODIES, size=count).tolist()]

        rounds = []
        for r in range(n_rounds):
            reads = []
            for i, body in enumerate(pick(workload.open_reads)):
                if r * workload.open_reads + i in checked:
                    body = _score_request(body.pairs, check=True)
                reads.append((dues[i], body))
            rounds.append((pick(workload.closed_supply), reads))
        return warmup, rounds

    per_round = workload.closed_supply + workload.open_reads
    total = 1 + n_rounds * per_round
    flat = _pairs_from_indices(
        rng.choice(n * (n - 1), size=total * PAIRS_PER_REQUEST,
                   replace=False), concepts)
    chunks = [flat[i * PAIRS_PER_REQUEST:(i + 1) * PAIRS_PER_REQUEST]
              for i in range(total)]
    rounds = []
    for r in range(n_rounds):
        base = 1 + r * per_round
        closed = [_score_request(c) for c in
                  chunks[base:base + workload.closed_supply]]
        opens = chunks[base + workload.closed_supply:base + per_round]
        reads = [(dues[i], _score_request(
            c, check=(r * workload.open_reads + i) in checked))
                 for i, c in enumerate(opens)]
        rounds.append((closed, reads))
    return [_score_request(chunks[0])], rounds


def _suggest_rounds(workload, rng, info, n_rounds, dues, batches):
    """Warm-up and per-round (closed, open) suggest requests; a share of
    each round's reads name concepts ingested in earlier rounds."""
    nodes = info["taxonomy_nodes"]

    def reads_for(r, count):
        ingested = [concept for concept, _ in
                    batches[:r * workload.round_ingests]]
        queries = [nodes[i] for i in
                   rng.integers(len(nodes), size=count).tolist()]
        if ingested:
            share = int(count * INGESTED_READ_SHARE)
            for slot in rng.choice(count, size=share, replace=False):
                queries[slot] = ingested[int(rng.integers(len(ingested)))]
        return [_suggest(q) for q in queries]

    rounds = [(reads_for(r, workload.closed_supply),
               list(zip(dues, reads_for(r, workload.open_reads))))
              for r in range(n_rounds)]
    return [_suggest(nodes[0])], rounds


def build_inputs(workload: Workload, seed: int, seconds: float,
                 info: dict) -> RunInputs:
    """All requests of one run, from ``seed``."""
    rng = np.random.default_rng(seed)
    n_rounds = workload.rounds(seconds)
    dues = _open_dues(workload)
    batches = _ingest_batches(rng, info, n_rounds * workload.round_ingests)
    if workload.route == "/v1/score":
        checked = set(rng.choice(n_rounds * workload.open_reads,
                                 size=CHECKED_REQUESTS,
                                 replace=False).tolist())
        warmup, reads = _score_rounds(workload, rng, info, n_rounds, dues,
                                      checked)
    else:
        warmup, reads = _suggest_rounds(workload, rng, info, n_rounds, dues,
                                        batches)
    per = workload.round_ingests
    rounds = [Round(closed, opens,
                    [request for _, request in batches[r * per:(r + 1) * per]])
              for r, (closed, opens) in enumerate(reads)]
    return RunInputs(workload, warmup, rounds,
                     [concept for concept, _ in batches],
                     workload.probes(seconds))
