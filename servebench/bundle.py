"""Fit, export and cache the serving bundle every workload runs against.

Fitting takes ~20 s on a 2-core host, so it happens once per checkout,
outside every timed phase, and is cached under ``.bench_build/`` keyed by
a digest of the program's source and of this file: a change to either
refits.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

#: the "snack" preset is the largest domain: 2,244 concepts, so about
#: 5M ordered pairs for score-cold, and 1,822 taxonomy nodes to retrieve
DOMAIN = "snack"
#: expansion attaches at 0.5; the pairs ingest batches name score at
#: least this
ATTACH_MARGIN = 0.6


def source_digest(root: Path) -> str:
    """sha256 over every ``*.py`` under ``src/`` (paths and contents)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cache_key(root: Path) -> str:
    """The program's source digest plus this file's own."""
    digest = hashlib.sha256(source_digest(root).encode())
    digest.update(Path(__file__).read_bytes())
    return digest.hexdigest()[:16]


def _fit(directory: Path) -> None:
    from repro.core import (
        DetectorConfig, PipelineConfig, TaxonomyExpansionPipeline,
    )
    from repro.gnn import ContrastiveConfig, StructuralConfig
    from repro.plm import PretrainConfig
    from repro.serving import ArtifactBundle
    from repro.synthetic import (
        DOMAIN_PRESETS, ClickLogConfig, UgcConfig, build_world,
        generate_click_logs, generate_ugc,
    )

    world = build_world(DOMAIN_PRESETS[DOMAIN])
    click_log = generate_click_logs(world, ClickLogConfig(
        seed=5, clicks_per_query=40))
    ugc = generate_ugc(world, UgcConfig(seed=5, sentences_per_edge=2.0))
    config = PipelineConfig(
        seed=0, bert_dim=32, bert_layers=2, bert_heads=4, bert_ffn=64,
        pretrain=PretrainConfig(steps=60, batch_size=16,
                                strategy="concept"),
        contrastive=ContrastiveConfig(steps=10),
        structural=StructuralConfig(hidden_dim=32, position_dim=8),
        detector=DetectorConfig(epochs=2, batch_size=16, hidden_dim=32))
    pipeline = TaxonomyExpansionPipeline(config)
    pipeline.fit(world.existing_taxonomy, world.vocabulary, click_log, ugc)
    ArtifactBundle.export(pipeline, str(directory / "bundle"),
                          taxonomy=world.existing_taxonomy,
                          vocabulary=world.vocabulary)
    taxonomy = world.existing_taxonomy
    # Ingest batches name (query, held-out concept) pairs where the query
    # is a true ancestor already served and the model attaches the
    # concept under it with margin: every batch then does the same kind
    # of work (score, attach, recompute, extend), so ingest latency has
    # one mode instead of "attached" and "not attached".
    pairs = [(query, concept) for concept in sorted(world.new_concepts)
             for query in sorted(world.full_taxonomy.ancestors(concept))
             if query in taxonomy.nodes and query != world.root]
    probs = pipeline.score_pairs(pairs)
    attach: dict[str, list[str]] = {}
    for (query, concept), prob in zip(pairs, probs):
        if prob >= ATTACH_MARGIN:
            attach.setdefault(concept, []).append(query)
    info = {
        "taxonomy_nodes": sorted(taxonomy.nodes),
        "concepts": sorted(world.vocabulary.concepts()),
        "attach": attach,
    }
    (directory / "world.json").write_text(json.dumps(info))


def ensure_bundle(root: Path, log) -> tuple[Path, dict]:
    """The cached bundle directory and world info, fitting on first use."""
    cache = root / ".bench_build" / "servebench"
    final = cache / f"bundle-{_cache_key(root)}"
    if not (final / "world.json").exists():
        log(f"fitting the serving bundle into {final} (one-off)")
        staging = cache / f"staging-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        _fit(staging)
        shutil.rmtree(final, ignore_errors=True)
        os.replace(staging, final)
    info = json.loads((final / "world.json").read_text())
    return final / "bundle", info
