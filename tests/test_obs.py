"""Tests for the observability layer (repro.obs): spans, metrics, overhead."""

import math
import tracemalloc

import pytest

from repro import obs
from repro.kb import Entity, Relation, Triple, TripleStore
from repro.obs.core import ALPHA, Histogram


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with observability off and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestSpans:
    def test_nesting_builds_a_tree(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner.a"):
                pass
            with obs.span("inner.b"):
                with obs.span("leaf"):
                    pass
        roots = obs.take_roots()
        assert [r.name for r in roots] == ["outer"]
        outer = roots[0]
        assert [c.name for c in outer.children] == ["inner.a", "inner.b"]
        assert [c.name for c in outer.children[1].children] == ["leaf"]

    def test_elapsed_is_recorded_and_contains_children(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        outer = obs.take_roots()[0]
        inner = outer.children[0]
        assert outer.elapsed >= inner.elapsed >= 0.0

    def test_spans_record_time_only(self):
        """A span keeps its name, nesting and time; counts go to the
        registry."""
        obs.enable()
        with obs.span("work") as tracing:
            obs.count("items", 3)
            obs.count("items", 2)
        assert not hasattr(tracing, "add")
        assert not hasattr(tracing, "counters")
        work = obs.take_roots()[0]
        assert work.structure() == ("work", ())
        assert set(work.to_dict()) == {"name", "elapsed_s", "children"}
        assert obs.core.counters() == {"items": 5}

    def test_sibling_spans_stay_separate_until_rendered(self):
        obs.enable()
        for __ in range(3):
            with obs.span("repeated"):
                pass
        assert len(obs.take_roots()) == 3
        merged = obs.render_trace()
        assert "repeated x3" in merged

    def test_structure_ignores_timings(self):
        obs.enable()
        with obs.span("a"):
            with obs.span("b"):
                obs.count("n", 1)
        first = [s.structure() for s in obs.take_roots()]
        first_counters = obs.core.counters()
        obs.reset()
        with obs.span("a"):
            with obs.span("b"):
                obs.count("n", 1)
        second = [s.structure() for s in obs.take_roots()]
        assert first == second == [("a", (("b", ()),))]
        assert first_counters == obs.core.counters() == {"n": 1}

    def test_exception_still_closes_span(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("outer"):
                with obs.span("failing"):
                    raise ValueError("boom")
        roots = obs.take_roots()
        assert [r.name for r in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["failing"]
        # The stack is empty again: the next span is a new root.
        with obs.span("after"):
            pass
        assert [r.name for r in obs.take_roots()] == ["outer", "after"]


class TestMetrics:
    def test_counters_and_gauges(self):
        obs.enable()
        obs.count("events")
        obs.count("events", 4)
        obs.gauge("level", 0.5)
        obs.gauge("level", 0.75)
        report = obs.report_json()
        assert report["counters"] == {"events": 5}
        assert report["gauges"] == {"level": 0.75}

    def test_histogram_percentiles(self):
        h = Histogram("t")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.count == 100
        # Percentiles come from log-spaced buckets: within ALPHA of the
        # exact nearest-rank sample, while count/mean/min/max stay exact.
        assert h.p50 == pytest.approx(50.0, rel=ALPHA)
        assert h.p95 == pytest.approx(95.0, rel=ALPHA)
        assert h.p99 == pytest.approx(99.0, rel=ALPHA)
        assert h.percentile(100) == 100.0
        assert h.percentile(0) == 1.0
        assert h.min == 1.0
        assert h.max == 100.0
        assert h.mean == pytest.approx(50.5)

    def test_histogram_edge_cases(self):
        h = Histogram("t")
        assert h.p50 == 0.0 and h.p95 == 0.0 and h.max == 0.0 and h.mean == 0.0
        h.observe(7.0)
        assert h.p50 == 7.0 and h.p95 == 7.0 and h.max == 7.0
        h = Histogram("zeros")
        for _ in range(3):
            h.observe(0.0)
        assert h.p50 == 0.0 and h.max == 0.0 and len(h.buckets) == 0

    @pytest.mark.parametrize("sample", [math.inf, -math.inf, math.nan])
    def test_histogram_rejects_non_finite_samples(self, sample):
        h = Histogram("latency_ms")
        for value in (0.0, 2.0, 5.0):
            h.observe(value)
        before = (h.count, h.sum, h.min, h.max, h.zeros, dict(h.buckets))
        with pytest.raises(ValueError, match="latency_ms"):
            h.observe(sample)
        assert (h.count, h.sum, h.min, h.max, h.zeros, h.buckets) == before
        assert h.mean == pytest.approx(7.0 / 3)
        obs.enable()
        with pytest.raises(ValueError, match="fresh"):
            obs.observe("fresh", sample)
        assert obs.core.histograms() == {}

    def test_observe_registers_histogram(self):
        obs.enable()
        obs.observe("latency", 1.0)
        obs.observe("latency", 3.0)
        digest = obs.report_json()["histograms"]["latency"]
        assert digest["count"] == 2
        assert digest["max"] == 3.0

    def test_reset_clears_everything_between_runs(self):
        obs.enable()
        with obs.span("run1"):
            obs.count("facts", 10)
            obs.observe("h", 1.0)
        obs.reset()
        assert obs.take_roots() == []
        report = obs.report_json()
        assert report["counters"] == {}
        assert report["histograms"] == {}
        assert report["spans"] == []
        # A second run records only its own telemetry.
        with obs.span("run2"):
            obs.count("facts", 3)
        report = obs.report_json()
        assert [s["name"] for s in report["spans"]] == ["run2"]
        assert report["counters"] == {"facts": 3}


class TestDisabledPath:
    def test_disabled_records_nothing(self):
        with obs.span("invisible"):
            obs.count("c", 5)
            obs.gauge("g", 1.0)
            obs.observe("h", 1.0)
        assert obs.take_roots() == []
        report = obs.report_json()
        assert report["spans"] == []
        assert report["counters"] == {}
        assert report["gauges"] == {}
        assert report["histograms"] == {}

    def test_disabled_span_is_a_shared_singleton(self):
        assert obs.span("a") is obs.span("b")

    def test_store_add_allocates_nothing_in_obs(self):
        """With observability off, store.add never allocates in repro.obs."""
        triples = [
            Triple(Entity(f"e:{i}"), Relation("r:p"), Entity(f"e:{i + 1}"))
            for i in range(200)
        ]
        store = TripleStore()
        import repro.obs.core as core_module

        tracemalloc.start()
        try:
            for triple in triples:
                store.add(triple)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        obs_allocations = snapshot.filter_traces(
            [tracemalloc.Filter(True, core_module.__file__)]
        )
        assert sum(s.size for s in obs_allocations.statistics("filename")) == 0

    def test_enable_disable_roundtrip(self):
        assert not obs.enabled()
        obs.enable()
        assert obs.enabled()
        with obs.span("visible"):
            pass
        obs.disable()
        assert not obs.enabled()
        with obs.span("invisible"):
            pass
        assert [s.name for s in obs.take_roots()] == ["visible"]


class TestRendering:
    def test_render_trace_empty(self):
        assert obs.render_trace() == "(no spans recorded)"

    def test_render_metrics_empty(self):
        assert obs.render_metrics() == "(no metrics recorded)"

    def test_render_trace_merges_and_indents(self):
        obs.enable()
        with obs.span("root"):
            for __ in range(2):
                with obs.span("child"):
                    obs.count("n", 1)
        text = obs.render_trace()
        assert "root" in text
        assert "child x2" in text
        assert "└─" in text
        # Spans carry times only; the count is in the metrics table.
        assert "[" not in text and "n=" not in text
        assert "n  2" in obs.render_metrics()

    def test_render_metrics_tables(self):
        obs.enable()
        obs.count("c.one", 2)
        obs.gauge("g.one", 1.5)
        obs.observe("h.one", 2.0)
        text = obs.render_metrics()
        assert "counter" in text and "c.one" in text
        assert "gauge" in text and "g.one" in text
        assert "histogram" in text and "h.one" in text

    def test_stage_breakdown_paths(self):
        obs.enable()
        with obs.span("build"):
            with obs.span("extract"):
                pass
            with obs.span("extract"):
                pass
        breakdown = obs.stage_breakdown()
        stages = {entry["stage"]: entry for entry in breakdown}
        assert stages["build"]["calls"] == 1
        assert stages["build/extract"]["calls"] == 2

    def test_report_json_is_serializable(self):
        import json

        obs.enable()
        with obs.span("a"):
            with obs.span("b"):
                obs.count("c", 1)
                obs.observe("h", 0.5)
        report = obs.report_json()
        json.dumps(report)
        assert "counters" not in report["spans"][0]
        assert "counters" not in report["spans"][0]["children"][0]
        assert all("counters" not in stage for stage in report["stages"])

    def test_telemetry_line(self):
        line = obs.telemetry_line(
            "delta",
            {"segment": None, "added": 3, "compacted": False, "kb_p": 0.91234,
             "ok": True, "name": "seg-000001"},
        )
        assert line == (
            "delta: segment=- added=3 compacted=false kb_p=0.912 ok=true "
            "name=seg-000001"
        )


class TestInstrumentedComponents:
    def test_store_counters(self):
        obs.enable()
        store = TripleStore()
        t = Triple(Entity("e:a"), Relation("r:p"), Entity("e:b"))
        store.add(t)
        store.add(t)
        list(store.match(subject=Entity("e:a")))
        store.remove(t)
        counters = obs.report_json()["counters"]
        assert counters["kb.store.add"] == 2
        assert counters["kb.store.add.duplicate"] == 1
        assert counters["kb.store.match"] == 1
        assert counters["kb.store.remove"] == 1

    def test_match_traces_index_shape_and_bucket_size(self):
        obs.enable()
        store = TripleStore()
        s, p = Entity("e:a"), Relation("r:p")
        for i in range(3):
            store.add(Triple(s, p, Entity(f"e:o{i}")))
        with obs.span("query"):
            list(store.match(subject=s, predicate=p))          # sp composite
            list(store.match(predicate=p))                     # p single
            list(store.match(subject=s, obj=Entity("e:o0")))   # s+o filtered
            list(store.match())                                # full scan
        counters = obs.report_json()["counters"]
        assert counters["kb.store.match.shape.sp"] == 1
        assert counters["kb.store.match.shape.p"] == 1
        assert counters["kb.store.match.shape.s+o"] == 1
        assert counters["kb.store.match.shape.scan"] == 1
        # The scanned bucket sizes 3, 3, 1 and 3 land in one histogram.
        histogram = obs.core.histograms()["kb.store.match.scanned"]
        assert histogram.count == 4
        assert histogram.sum == 10
        assert (histogram.min, histogram.max) == (1, 3)

    def test_mapreduce_publishes_into_registry(self):
        from repro.bigdata import word_count

        obs.enable()
        __, stats = word_count(["a b a", "b c"], shards=2)
        report = obs.report_json()
        counters = report["counters"]
        assert counters["mapreduce.jobs"] == 1
        assert counters["mapreduce.map_input_records"] == stats.map_input_records
        assert counters["mapreduce.shuffled_records"] == stats.shuffled_records
        assert report["histograms"]["mapreduce.shard.records"]["count"] == 2
        span_names = {entry["stage"] for entry in obs.stage_breakdown()}
        assert "mapreduce.run" in span_names
        assert "mapreduce.run/mapreduce.map" in span_names
        assert "mapreduce.run/mapreduce.reduce" in span_names

    def test_consistency_spans_and_counters(self, world):
        from repro.extraction.consistency import ConsistencyReasoner
        from repro.kb import Taxonomy

        obs.enable()
        reasoner = ConsistencyReasoner(Taxonomy(world.store))
        candidates = TripleStore(
            t for i, t in enumerate(world.facts) if i < 50
        )
        obs.reset()  # drop the counters the store construction recorded
        accepted, report = reasoner.clean(candidates)
        stages = {entry["stage"] for entry in obs.stage_breakdown()}
        assert "consistency.clean" in stages
        assert "consistency.clean/consistency.solve" in stages
        assert (
            "consistency.clean/consistency.solve/maxsat.decompose" in stages
        )
        counters = obs.report_json()["counters"]
        # Component-decomposed solving: one solve call per component, and
        # the decomposition counters account for every candidate variable.
        assert counters["maxsat.components"] == report.components
        assert counters["maxsat.trivial_vars"] == report.trivial_vars
        assert counters.get("maxsat.solve_calls", 0) == report.components

    def test_maxsat_routing_counters_and_batch_attributes(self):
        from repro.reasoning import WeightedMaxSat, solve_decomposed
        from repro.reasoning.decompose import EXACT_MAX_VARIABLES

        problem = WeightedMaxSat()
        # One exclusion pair (exact route) and one exclusion chain a
        # variable above the cutoff (WalkSAT route).
        problem.add_soft_unit("pair0", True, 0.9)
        problem.add_soft_unit("pair1", True, 0.4)
        problem.add_hard([("pair0", False), ("pair1", False)])
        chain = [f"chain{i:02d}" for i in range(EXACT_MAX_VARIABLES + 1)]
        for name in chain:
            problem.add_soft_unit(name, True, 0.5)
        for left, right in zip(chain, chain[1:]):
            problem.add_hard([(left, False), (right, False)])

        obs.enable()
        solve_decomposed(problem, max_flips=300)
        counters = obs.report_json()["counters"]
        assert counters["maxsat.exact_components"] == 1
        assert counters["maxsat.walksat_components"] == 1
        assert counters["maxsat.components"] == 2
        assert counters["maxsat.solve_calls"] == 2
        # Each component's solver records its own clauses: together, all.
        assert counters["maxsat.clauses"] == len(problem.clauses)
        assert "maxsat.component_batch" in [
            span.name for span in obs.take_roots()
        ]

    def test_build_reports_how_components_were_routed(self):
        from repro.corpus import build_wiki
        from repro.pipeline import KnowledgeBaseBuilder
        from repro.world import WorldConfig, generate_world

        world = generate_world(WorldConfig(seed=7, n_people=20))
        wiki = build_wiki(world)
        obs.enable()
        __, report = KnowledgeBaseBuilder(wiki, aliases=world.aliases).build()
        counters = obs.report_json()["counters"]
        assert report.consistency.components > 0
        assert "maxsat.exact_components" in counters
        assert "maxsat.walksat_components" in counters
        assert (
            counters["maxsat.exact_components"]
            + counters["maxsat.walksat_components"]
            == counters["maxsat.components"]
            == report.consistency.components
        )

    def test_build_names_its_residue(self):
        """The build's bookkeeping is attributed to named spans: the schema
        stage, the consistency taxonomy, the prefLabel loop and the single
        final store fill."""
        from repro.corpus import build_wiki
        from repro.pipeline import KnowledgeBaseBuilder
        from repro.world import WorldConfig, generate_world

        world = generate_world(WorldConfig(seed=7, n_people=20))
        wiki = build_wiki(world)
        obs.enable()
        KnowledgeBaseBuilder(wiki, aliases=world.aliases).build()
        stages = {entry["stage"] for entry in obs.stage_breakdown()}
        assert {
            "pipeline.build/pipeline.schema",
            "pipeline.build/pipeline.consistency/pipeline.consistency.taxonomy",
            "pipeline.build/pipeline.labels",
            "pipeline.build/pipeline.assemble",
        } <= stages


class TestMetricCatalogue:
    """The registry names a traced build plus one ingest record, pinned.

    Each number is recorded once, under one name, by the layer that
    produces it; a new name (or a mirror of an existing number) has to be
    added here on purpose.
    """

    COUNTERS = {
        "consistency.clauses.disjoint",
        "consistency.clauses.functional",
        "consistency.clauses.type",
        "consistency.rejected",
        "extract.below_threshold",
        "extract.candidates",
        "extract.candidates.infobox",
        "extract.candidates.surface-patterns",
        "extract.candidates.year-attributes",
        "extract.merged_facts",
        "kb.segments.write",
        "kb.store.add",
        "maxsat.clauses",
        "maxsat.components",
        "maxsat.exact_components",
        "maxsat.solve_calls",
        "maxsat.trivial_vars",
        "maxsat.variables",
        "maxsat.walksat_components",
        "pipeline.ingest.added",
        "pipeline.ingest.batches",
        "pipeline.ingest.tombstones",
    }
    GAUGES = {"maxsat.largest_component"}
    HISTOGRAMS = {"kb.segments.write.triples"}

    def test_build_and_ingest_record_the_pinned_names(self, tmp_path):
        from repro.corpus import build_wiki
        from repro.pipeline import IncrementalBuilder, KnowledgeBaseBuilder
        from repro.world import WorldConfig, generate_world

        world = generate_world(WorldConfig(seed=7, n_people=20))
        wiki = build_wiki(world)
        obs.enable()
        __, report = KnowledgeBaseBuilder(wiki, aliases=world.aliases).build()
        with IncrementalBuilder(str(tmp_path / "segments")) as builder:
            builder.ingest(
                pages=[wiki.pages[title] for title in sorted(wiki.pages)],
                aliases=world.aliases,
            )
        counters = obs.core.counters()
        assert set(counters) == self.COUNTERS
        assert set(obs.core.gauges()) == self.GAUGES
        assert set(obs.core.histograms()) == self.HISTOGRAMS
        # Two identical pipeline runs: each registry count is twice the
        # build report's, and the trace carries no counts at all.
        assert counters["consistency.rejected"] == 2 * report.consistency.rejected
        assert counters["maxsat.components"] == 2 * report.consistency.components
        assert "[" not in obs.render_trace()
