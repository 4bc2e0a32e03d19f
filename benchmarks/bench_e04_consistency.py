"""E4 — consistency reasoning over noisy extractions (tutorial section 3).

Reproduces the SOFIE result shape: encoding candidate facts as soft unit
clauses and schema constraints as hard clauses, weighted MaxSat removes
most injected false statements at a small recall cost — and the ablation
shows each constraint family (functionality, types, relation disjointness)
contributing rejections.
"""

from __future__ import annotations

import time

import pytest

from repro.corpus import CorpusConfig, synthesize
from repro.corpus.document import corpus_gold_facts
from repro.eval import precision_recall, print_table
from repro.extraction import (
    ConsistencyReasoner,
    PatternExtractor,
    candidates_to_store,
    corpus_occurrences,
    resolver_from_aliases,
)
from repro.kb import Entity, Taxonomy
from repro.reasoning import decompose, solve_decomposed


@pytest.fixture(scope="module")
def noisy_store(bench_world):
    documents = synthesize(
        bench_world,
        CorpusConfig(seed=113, mentions_per_fact=1.6, p_false=0.35,
                     p_cross_class=0.55, p_short_alias=0.05),
    )
    resolver = resolver_from_aliases(bench_world.aliases)
    sentences = [s.text for d in documents for s in d.sentences]
    occurrences = corpus_occurrences(sentences, resolver)
    store = candidates_to_store(PatternExtractor().extract(occurrences))
    gold = {
        key for key in corpus_gold_facts(documents)
        if isinstance(key[2], Entity)
    }
    return store, gold


@pytest.mark.benchmark(group="e04")
def test_e04_consistency_cleaning(benchmark, bench_world, noisy_store):
    store, gold = noisy_store
    taxonomy = Taxonomy(bench_world.store)

    def world_precision(s):
        triples = list(s)
        correct = sum(
            1 for t in triples
            if bench_world.facts.contains_fact(t.subject, t.predicate, t.object)
        )
        return correct / len(triples)

    rows = [
        [
            "raw extraction",
            world_precision(store),
            precision_recall({t.spo() for t in store}, gold).recall,
            len(store),
            0,
        ]
    ]
    configurations = [
        ("full MaxSat", dict()),
        ("no functionality", dict(use_functionality=False)),
        ("no types", dict(use_types=False)),
        ("no disjointness", dict(use_disjointness=False)),
    ]
    results = {}
    for label, flags in configurations:
        reasoner = ConsistencyReasoner(taxonomy, **flags)
        cleaned, report = reasoner.clean(store)
        results[label] = (cleaned, report)
        rows.append(
            [
                label,
                world_precision(cleaned),
                precision_recall({t.spo() for t in cleaned}, gold).recall,
                len(cleaned),
                report.rejected,
            ]
        )

    benchmark(ConsistencyReasoner(taxonomy).clean, store)

    print_table(
        "E4: MaxSat consistency cleaning (corpus with 30% false statements)",
        ["configuration", "world-P", "corpus-R", "facts", "rejected"],
        rows,
    )
    raw_precision = rows[0][1]
    full_precision = rows[1][1]
    full_recall = rows[1][2]
    raw_recall = rows[0][2]
    # SOFIE shape: a large precision lift at a small recall cost.
    assert full_precision > raw_precision + 0.04
    assert full_recall > raw_recall * 0.85
    # Each constraint family contributes: removing one weakens cleaning.
    __, full_report = results["full MaxSat"]
    __, nf_report = results["no functionality"]
    assert nf_report.rejected < full_report.rejected


@pytest.mark.benchmark(group="e04")
def test_e04_decomposed_maxsat(benchmark, bench_world, noisy_store):
    """Component decomposition ablation: monolithic vs decomposed MaxSat.

    The consistency instance shatters into many small components
    (functionality groups by (s, relation), disjointness by (s, o)), so
    the decomposed solver reaches the same (hard, soft) key while doing
    far less search.  Records the component-count distribution and the
    speedup into ``--benchmark-json`` via ``extra_info``.
    """
    store, __ = noisy_store
    taxonomy = Taxonomy(bench_world.store)
    reasoner = ConsistencyReasoner(taxonomy)
    problem, ___, ____ = reasoner.ground(store)
    decomposition = decompose(problem)
    sizes = decomposition.component_sizes()

    start = time.perf_counter()
    monolithic = problem.solve(seed=0)
    monolithic_s = time.perf_counter() - start

    def decomposed() -> tuple[float, object]:
        fresh_problem, ___, ____ = reasoner.ground(store)
        begin = time.perf_counter()
        result = solve_decomposed(fresh_problem, seed=0)
        return time.perf_counter() - begin, result

    serial_s, serial_result = decomposed()
    timings = {"monolithic": monolithic_s, "decomposed-serial": serial_s}
    rows = [
        ["monolithic", round(monolithic_s, 4), "-"],
        [
            "decomposed", round(serial_s, 4),
            round(monolithic_s / serial_s, 2) if serial_s else float("inf"),
        ],
    ]

    print_table(
        "E4b: component-decomposed MaxSat "
        f"({len(sizes)} components, largest {max(sizes, default=0)} vars, "
        f"{len(decomposition.trivial)} closed-form vars)",
        ["solver", "seconds", "speedup vs monolithic"],
        rows,
    )

    benchmark.extra_info["components"] = len(sizes)
    benchmark.extra_info["largest_component"] = max(sizes, default=0)
    benchmark.extra_info["trivial_vars"] = len(decomposition.trivial)
    benchmark.extra_info["component_size_distribution"] = {
        str(size): sizes.count(size) for size in sorted(set(sizes))
    }
    benchmark.extra_info["timings_s"] = {
        label: round(value, 6) for label, value in timings.items()
    }
    benchmark.extra_info["speedup_vs_monolithic"] = (
        round(monolithic_s / serial_s, 3) if serial_s else None
    )

    benchmark(decomposed)

    # Same solution quality as the monolithic solver ...
    assert serial_result.hard_violations == monolithic.hard_violations
    assert serial_result.soft_cost == pytest.approx(
        monolithic.soft_cost, abs=1e-6
    )
    # ... while never slower.
    assert serial_s <= monolithic_s * 1.10
