"""The seed chooses what is sent, never how much."""

from __future__ import annotations

import pytest

from servebench.inputs import (
    PAIRS_PER_REQUEST, RECORDS_PER_BATCH, WORKLOADS,
    build_inputs,
)

SEEDS = (1, 2, 3, 17)


@pytest.fixture(scope="module")
def info():
    """A small stand-in for the fitted world: 400 concepts, 100 held out
    with one or two ancestors that attach them."""
    concepts = [f"concept {i:03d}" for i in range(400)]
    nodes = concepts[:300]
    attach = {c: nodes[i:i + 1 + i % 2]
              for i, c in enumerate(concepts[300:])}
    return {"concepts": concepts, "taxonomy_nodes": nodes, "attach": attach}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_are_equal_for_every_seed(name, info):
    counts = [build_inputs(WORKLOADS[name], seed, 12.0, info).counts()
              for seed in SEEDS]
    assert all(c == counts[0] for c in counts[1:])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_content_depends_on_the_seed(name, info):
    first, second = (build_inputs(WORKLOADS[name], seed, 12.0, info)
                     for seed in SEEDS[:2])
    assert [r.raw for _, r in first.rounds[0].open_reads] != \
        [r.raw for _, r in second.rounds[0].open_reads]


def test_same_seed_same_inputs(info):
    first, second = (build_inputs(WORKLOADS["score-cold"], 5, 12.0, info)
                     for _ in range(2))
    assert [r.raw for r in first.rounds[-1].closed] == \
        [r.raw for r in second.rounds[-1].closed]


def test_fixed_sizes(info):
    for name, workload in WORKLOADS.items():
        counts = build_inputs(workload, 1, 12.0, info).counts()
        assert counts["rounds"] == workload.rounds(12.0)
        assert counts["closed_per_round"] == [workload.closed_supply]
        assert counts["open_per_round"] == [workload.open_reads]
        assert counts["ingests_per_round"] == [workload.round_ingests]
        if workload.round_ingests:
            assert counts["records_per_batch"] == [RECORDS_PER_BATCH]
        assert counts["probes"] == workload.probes(12.0)
        if workload.route == "/v1/score":
            assert counts["pairs_per_request"] == [PAIRS_PER_REQUEST]
            assert counts["checked"] > 0


def test_cold_pairs_are_never_repeated(info):
    inputs = build_inputs(WORKLOADS["score-cold"], 3, 12.0, info)
    requests = inputs.warmup + [r for rnd in inputs.rounds
                                for r in rnd.closed] + \
        [r for rnd in inputs.rounds for _, r in rnd.open_reads]
    pairs = [pair for r in requests for pair in r.pairs]
    assert len(pairs) == len(set(pairs))
    assert all(a != b for a, b in pairs)


def test_held_out_concepts_are_never_ingested_twice(info):
    inputs = build_inputs(WORKLOADS["suggest-ingest"], 4, 12.0, info)
    ingests = sum(len(rnd.ingests) for rnd in inputs.rounds)
    assert ingests > 0
    assert len(inputs.held_out) == ingests
    assert len(set(inputs.held_out)) == ingests
