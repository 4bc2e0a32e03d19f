"""Cross-backend build equivalence: every execution mode, one KB.

The pipeline's contract after the order-dependence fixes is that serial
and process-pool builds of the same wiki produce *byte-identical*
canonical KBs and the same report counters.
These tests run the full matrix in-process (the subprocess variant is
``repro check-determinism --cross-mode``), plus the supporting
regressions: order-independent candidate merging, picklable payloads,
single-element alias lists, and worker telemetry completeness.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro import obs
from repro.corpus import build_wiki
from repro.determinism import canonical_kb_text
from repro.extraction import Candidate, candidates_to_store, merge_candidates
from repro.kb import Entity, Relation, TimeSpan, Triple
from repro.pipeline import BuildConfig, KnowledgeBaseBuilder
from repro.world import WorldConfig, generate_world

#: The execution-mode matrix: label -> BuildConfig overrides.
MODES = {
    "serial": {},
    "process2": {"workers": 2},
}


@pytest.fixture(scope="module")
def small_world():
    return generate_world(WorldConfig(seed=9, n_people=25))


@pytest.fixture(scope="module")
def small_wiki(small_world):
    return build_wiki(small_world)


def _build(world, wiki, **overrides):
    config = BuildConfig(**overrides)
    builder = KnowledgeBaseBuilder(wiki, aliases=world.aliases, config=config)
    return builder.build()


def _comparable_report(report) -> dict:
    """The report fields every mode must agree on (drop execution detail)."""
    comparable = {
        field.name: getattr(report, field.name)
        for field in dataclasses.fields(report)
        if field.name not in {"backend", "workers"}
    }
    return comparable


@pytest.fixture(scope="module")
def mode_results(small_world, small_wiki):
    return {
        label: _build(small_world, small_wiki, **overrides)
        for label, overrides in MODES.items()
    }


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("label", [m for m in MODES if m != "serial"])
    def test_kb_byte_identical_to_serial(self, mode_results, label):
        serial_kb, __ = mode_results["serial"]
        other_kb, __ = mode_results[label]
        assert canonical_kb_text(other_kb) == canonical_kb_text(serial_kb)

    @pytest.mark.parametrize("label", [m for m in MODES if m != "serial"])
    def test_report_counters_identical_to_serial(self, mode_results, label):
        __, serial_report = mode_results["serial"]
        __, other_report = mode_results[label]
        assert _comparable_report(other_report) == _comparable_report(
            serial_report
        )

    def test_backend_recorded_in_report(self, mode_results):
        __, serial_report = mode_results["serial"]
        assert serial_report.backend == "serial"
        assert serial_report.workers == 1
        __, process_report = mode_results["process2"]
        assert process_report.backend == "process"
        assert process_report.workers == 2


class TestMergeOrderIndependence:
    """The headline regression: provenance election and noisy-or folding
    must not depend on candidate arrival order."""

    @staticmethod
    def _candidates():
        s = Entity("world:A")
        r = Relation("rel:bornIn")
        o = Entity("world:B")
        return [
            Candidate(s, r, o, 0.7, "infobox", "row 1"),
            Candidate(s, r, o, 0.7, "surface-patterns", "sentence 2"),
            Candidate(s, r, o, 0.55, "surface-patterns", "sentence 1",
                      scope=TimeSpan(1990, 1995)),
            Candidate(s, r, o, 0.55, "infobox", "row 2",
                      scope=TimeSpan(1990, 1999)),
        ]

    def test_merged_confidence_identical_under_permutation(self):
        candidates = self._candidates()
        reference = merge_candidates(candidates)
        reversed_merge = merge_candidates(list(reversed(candidates)))
        rotated = merge_candidates(candidates[2:] + candidates[:2])
        assert reversed_merge == reference
        assert rotated == reference

    def test_store_identical_under_permutation(self):
        candidates = self._candidates()
        reference = canonical_kb_text(candidates_to_store(candidates, 0.5))
        for permuted in (
            list(reversed(candidates)),
            candidates[1:] + candidates[:1],
            candidates[3:] + candidates[:3],
        ):
            assert (
                canonical_kb_text(candidates_to_store(permuted, 0.5))
                == reference
            )

    def test_witness_is_highest_confidence_then_lexicographic(self):
        candidates = self._candidates()
        store = candidates_to_store(candidates, 0.5)
        (triple,) = list(store)
        # Both 0.7 witnesses tie on confidence; "infobox" < "surface-patterns".
        assert triple.source == "infobox"
        # Scope election among scoped candidates: equal confidence, equal
        # extractor order ("infobox" < "surface-patterns") -> row 2's scope.
        assert triple.scope == TimeSpan(1990, 1999)


class TestPicklablePayloads:
    """Process-backend task payloads and results must round-trip pickle."""

    def test_candidate_round_trip(self):
        candidate = Candidate(
            Entity("world:A"), Relation("rel:bornIn"), Entity("world:B"),
            0.8, "infobox", "evidence", scope=TimeSpan(1990, None),
        )
        assert pickle.loads(pickle.dumps(candidate)) == candidate

    def test_triple_round_trip(self):
        triple = Triple(
            Entity("world:A"), Relation("rel:bornIn"), Entity("world:B"),
            confidence=0.9, source="infobox", scope=TimeSpan(1914, 1918),
        )
        assert pickle.loads(pickle.dumps(triple)) == triple

    def test_timespan_round_trip(self):
        span = TimeSpan(2001, 2008)
        assert pickle.loads(pickle.dumps(span)) == span

    def test_wiki_page_round_trip(self, small_wiki):
        title = sorted(small_wiki.pages)[0]
        page = small_wiki.pages[title]
        clone = pickle.loads(pickle.dumps(page))
        assert clone.title == page.title
        assert clone.entity == page.entity
        assert len(clone.document.sentences) == len(page.document.sentences)


class TestAliasRegistration:
    def test_single_element_alias_list_resolves(self, small_world, small_wiki):
        entity = small_world.people[0]
        title = small_wiki.by_entity[entity]
        alias = "The " + title
        builder = KnowledgeBaseBuilder(
            small_wiki, aliases={entity: [alias]}, config=BuildConfig()
        )
        assert builder.resolver.resolve(alias) == entity

    def test_title_equal_form_not_double_registered(
        self, small_world, small_wiki
    ):
        entity = small_world.people[0]
        title = small_wiki.by_entity[entity]
        baseline = KnowledgeBaseBuilder(small_wiki, config=BuildConfig())
        builder = KnowledgeBaseBuilder(
            small_wiki, aliases={entity: [title]}, config=BuildConfig()
        )
        assert (
            builder.resolver.entry(title).candidates
            == baseline.resolver.entry(title).candidates
        )


class TestWorkerTelemetry:
    def test_worker_spans_cover_all_extraction(self, small_world, small_wiki):
        obs.reset()
        obs.enable()
        try:
            __, report = _build(small_world, small_wiki, workers=2)
            stages = obs.stage_breakdown()
        finally:
            obs.disable()
            obs.reset()
        worker_stages = [s for s in stages if "worker[" in s["stage"]]
        assert worker_stages, "no per-worker spans were merged into the trace"
        infobox_total = sum(
            s["counters"].get("candidates", 0)
            for s in stages
            if "worker[" in s["stage"]
            and s["stage"].endswith("pipeline.extract.infobox")
        )
        assert infobox_total == report.infobox_candidates
        sentence_counters = [
            s["counters"]
            for s in stages
            if "worker[" in s["stage"]
            and s["stage"].endswith("pipeline.extract.sentences")
        ]
        assert sum(
            c.get("patterns", 0) for c in sentence_counters
        ) == report.pattern_candidates
        assert sum(
            c.get("year_attributes", 0) for c in sentence_counters
        ) == report.year_candidates
