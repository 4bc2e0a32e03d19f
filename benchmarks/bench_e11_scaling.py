"""E11 — big-data scaling of knowledge harvesting (tutorial section 3).

Reproduces the map-reduce scaling shape on the in-process engine: shuffle
volume grows linearly with corpus size, per-shard load stays balanced
(small skew), a combiner cuts shuffled records, and per-page extraction
run as a map-reduce job builds the serial KB byte for byte while reporting
cluster-style counters.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.bigdata import MapReduce
from repro.corpus import CorpusConfig, synthesize
from repro.determinism import canonical_kb_text
from repro.eval import print_table
from repro.pipeline import KnowledgeBaseBuilder
from repro.pipeline.builder import PageExtractor
from repro.world import WorldConfig, generate_world


def _mapreduce_candidates(builder, shards: int):
    """Per-page extraction as a map-reduce job over ``builder``'s wiki.

    Candidates come back grouped by shard and key rather than in page
    order; the build's merge is order-independent, so injecting them
    through ``build(candidates=...)`` yields the serial KB.
    """
    extractor = PageExtractor(builder.resolver)

    def mapper(page):
        for candidate in extractor.extract(page):
            yield repr(candidate.key()), candidate

    def reducer(key, candidates):
        yield from candidates

    pages = builder.wiki.pages
    return MapReduce(shards=shards).run(
        [pages[title] for title in sorted(pages)], mapper, reducer
    )


@pytest.mark.benchmark(group="e11")
def test_e11_shuffle_scales_linearly(benchmark):
    def tokenize_job(sentences, shards=4, combine=True):
        engine: MapReduce = MapReduce(shards=shards)

        def mapper(sentence):
            for word in sentence.split():
                yield word.lower(), 1

        def combiner(word, counts):
            yield sum(counts)

        def reducer(word, counts):
            yield word, sum(counts)

        return engine.run(
            sentences, mapper, reducer, combiner=combiner if combine else None
        )

    rows = []
    sizes = (60, 120, 240)
    shuffled = []
    for n_people in sizes:
        world = generate_world(WorldConfig(seed=151, n_people=n_people))
        documents = synthesize(world, CorpusConfig(seed=152, mentions_per_fact=1.5))
        sentences = [s.text for d in documents for s in d.sentences]
        __, stats = tokenize_job(sentences)
        __, stats_nc = tokenize_job(sentences, combine=False)
        rows.append(
            [
                n_people,
                len(sentences),
                stats.shuffled_records,
                stats_nc.shuffled_records,
                round(stats.skew, 2),
            ]
        )
        shuffled.append(stats_nc.shuffled_records)

    world = generate_world(WorldConfig(seed=151, n_people=60))
    documents = synthesize(world, CorpusConfig(seed=152))
    sentences = [s.text for d in documents for s in d.sentences]
    benchmark(tokenize_job, sentences)

    print_table(
        "E11a: shuffle volume vs corpus size (word-count job, 4 shards)",
        ["people", "sentences", "shuffled (combiner)", "shuffled (raw)", "skew"],
        rows,
    )
    # Linear-ish growth: 4x the corpus should shuffle ~4x the records.
    ratio = shuffled[-1] / shuffled[0]
    size_ratio = rows[-1][1] / rows[0][1]
    assert 0.5 * size_ratio < ratio < 2.0 * size_ratio
    # The combiner always reduces shuffle volume.
    for row in rows:
        assert row[2] < row[3]
    # Hash partitioning keeps shards balanced.
    assert all(row[4] < 1.5 for row in rows)


@pytest.mark.benchmark(group="e11")
def test_e11_extraction_through_mapreduce(benchmark, bench_world, bench_wiki):
    rows = []
    serial_builder = KnowledgeBaseBuilder(bench_wiki, aliases=bench_world.aliases)
    start = time.perf_counter()
    serial_kb, serial_report = serial_builder.build()
    serial_time = time.perf_counter() - start
    reference = canonical_kb_text(serial_kb)
    rows.append(["serial", serial_report.accepted_facts, "-", "-", round(serial_time, 2)])

    for shards in (2, 4, 8):
        builder = KnowledgeBaseBuilder(bench_wiki, aliases=bench_world.aliases)
        start = time.perf_counter()
        candidates, stats = _mapreduce_candidates(builder, shards)
        kb, report = builder.build(candidates=candidates)
        elapsed = time.perf_counter() - start
        assert canonical_kb_text(kb) == reference, shards
        rows.append(
            [
                f"map-reduce x{shards}",
                report.accepted_facts,
                stats.shuffled_records,
                round(stats.skew, 2),
                round(elapsed, 2),
            ]
        )

    unreasoned = KnowledgeBaseBuilder(
        bench_wiki, aliases=bench_world.aliases, use_consistency=False
    )
    benchmark(
        lambda: unreasoned.build(
            candidates=_mapreduce_candidates(unreasoned, 4)[0]
        )
    )

    print_table(
        "E11b: end-to-end KB build, serial vs map-reduce extraction",
        ["execution", "accepted facts", "shuffled", "skew", "seconds"],
        rows,
    )


@pytest.mark.benchmark(group="e11")
def test_e11_extractor_hoisting_and_cross_mode(benchmark, bench_world, bench_wiki):
    """The per-page extractor construction cost is gone from the stage
    breakdown (extractors are built once per builder), and map-reduce
    extraction produces the serial KB's bytes on the bench world."""
    builder = KnowledgeBaseBuilder(
        bench_wiki, aliases=bench_world.aliases, use_consistency=False
    )
    obs.reset()
    obs.enable()
    try:
        kb, report = builder.build()
        stages = obs.stage_breakdown()
    finally:
        obs.disable()
        obs.reset()
    extract = next(
        s for s in stages if s["stage"].endswith("/pipeline.extract")
    )
    rows = [
        [s["stage"].split("/")[-1], s["calls"], round(s["total_s"], 3)]
        for s in stages
        if "pipeline.extract" in s["stage"]
    ]
    print_table(
        "E11d: extraction stage breakdown (hoisted extractors)",
        ["stage", "calls", "seconds"],
        rows,
    )
    reference = canonical_kb_text(kb)
    mapreduce_kb, __ = builder.build(
        candidates=_mapreduce_candidates(builder, 4)[0]
    )
    assert canonical_kb_text(mapreduce_kb) == reference, "mapreduce4"
    assert extract["total_s"] > 0

    benchmark(
        KnowledgeBaseBuilder(
            bench_wiki, aliases=bench_world.aliases, use_consistency=False
        ).build
    )
