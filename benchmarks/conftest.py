"""Shared workloads for the E1-E12 benchmark harnesses.

Benchmarks use a larger world than the unit tests; everything is seeded so
the printed tables are reproducible run to run.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.corpus import CorpusConfig, build_wiki, synthesize
from repro.extraction import corpus_occurrences, resolver_from_aliases
from repro.kb import Entity, TripleStore
from repro.world import WorldConfig, generate_world

BENCH_WORLD_CONFIG = WorldConfig(
    seed=101,
    n_countries=10,
    n_cities=40,
    n_universities=14,
    n_companies=28,
    n_people=200,
    ambiguity=0.5,
)


@pytest.fixture(scope="session")
def bench_world():
    return generate_world(BENCH_WORLD_CONFIG)


@pytest.fixture(scope="session")
def bench_wiki(bench_world):
    return build_wiki(bench_world)


@pytest.fixture(scope="session")
def bench_documents(bench_world):
    return synthesize(
        bench_world,
        CorpusConfig(seed=102, mentions_per_fact=1.5, p_short_alias=0.1),
    )


@pytest.fixture(scope="session")
def bench_sentences(bench_documents):
    return [s.text for d in bench_documents for s in d.sentences]


@pytest.fixture(scope="session")
def bench_resolver(bench_world):
    return resolver_from_aliases(bench_world.aliases)


@pytest.fixture(scope="session")
def bench_occurrences(bench_sentences, bench_resolver):
    return corpus_occurrences(bench_sentences, bench_resolver)


@pytest.fixture(scope="session")
def bench_seed_kb(bench_world):
    import random

    rng = random.Random(103)
    facts = [t for t in bench_world.facts if isinstance(t.object, Entity)]
    rng.shuffle(facts)
    return TripleStore(facts[: len(facts) // 2])


def _instrumented_pipeline_report() -> dict:
    """One traced pipeline build on a small world, as report_json() data.

    Observability stays *off* during the timed benchmarks (so the numbers
    measure the uninstrumented hot paths); the stage breakdown attached to
    the bench JSON comes from this separate, fully traced run.
    """
    from repro.pipeline import KnowledgeBaseBuilder

    world = generate_world(WorldConfig(seed=BENCH_WORLD_CONFIG.seed, n_people=60))
    wiki = build_wiki(world)
    obs.reset()
    obs.enable()
    try:
        KnowledgeBaseBuilder(wiki, aliases=world.aliases).build()
        return obs.report_json()
    finally:
        obs.disable()
        obs.reset()


def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Attach a stage-level observability breakdown to saved bench JSON.

    Every ``--benchmark-json=BENCH_*.json`` run gains a top-level
    ``stages`` key (span path, call count, total seconds) plus the full
    ``observability`` export, whose ``counters`` hold the registry counts,
    so regressions can be localized to a pipeline stage without rerunning
    anything.
    """
    report = _instrumented_pipeline_report()
    output_json["stages"] = report["stages"]
    output_json["observability"] = report
