"""Integration tests: the end-to-end KB builder and cross-module flows."""

import pytest

from repro.analytics import TemplateQA
from repro.extraction import NameResolver
from repro.kb import Taxonomy, ns
from repro.pipeline import BuildConfig, KnowledgeBaseBuilder
from repro.world import schema as ws

FACT_RELATIONS = {s.relation for s in ws.RELATION_SPECS} | set(ws.LITERAL_RELATIONS)


@pytest.fixture(scope="module")
def built(world, wiki):
    builder = KnowledgeBaseBuilder(wiki, aliases=world.aliases)
    return builder.build()


class TestEndToEndBuild:
    def test_kb_nonempty(self, built):
        kb, report = built
        assert len(kb) > 1000
        assert report.accepted_facts > 300

    def test_fact_precision_high(self, world, built):
        kb, __ = built
        facts = [t for t in kb if t.predicate in FACT_RELATIONS]
        correct = sum(
            1 for t in facts
            if world.facts.contains_fact(t.subject, t.predicate, t.object)
        )
        assert correct / len(facts) > 0.95

    def test_fact_recall_reasonable(self, world, built):
        kb, __ = built
        gold = [t for t in world.facts if t.predicate in FACT_RELATIONS]
        recalled = sum(
            1 for t in gold
            if kb.contains_fact(t.subject, t.predicate, t.object)
        )
        assert recalled / len(gold) > 0.6

    def test_types_harvested(self, world, built):
        kb, __ = built
        taxonomy = Taxonomy(kb)
        from repro.taxonomy import wordnet_class

        person_class = wordnet_class("person.n.01")
        typed_people = sum(
            1 for p in world.people if taxonomy.is_instance_of(p, person_class)
        )
        assert typed_people / len(world.people) > 0.8

    def test_multilingual_labels_present(self, built):
        kb, report = built
        assert report.label_triples > 0
        langs = {
            t.object.lang
            for t in kb.match(predicate=ns.LABEL)
            if t.object.lang
        }
        assert {"en", "de", "fr", "es"} <= langs

    def test_temporal_scopes_attached(self, built):
        kb, __ = built
        scoped = [t for t in kb if t.scope is not None]
        assert scoped

    def test_consistency_stage_ran(self, built):
        __, report = built
        assert report.consistency is not None
        assert report.consistency.rejected >= 0
        assert report.consistency.hard_violations == 0

    def test_mapreduce_build_matches_serial(self, world, wiki, built):
        from repro.bigdata import MapReduce
        from repro.determinism import canonical_kb_text
        from repro.pipeline.builder import PageExtractor

        serial_kb, __ = built
        builder = KnowledgeBaseBuilder(wiki, aliases=world.aliases)
        extractor = PageExtractor(builder.resolver, builder.config)

        def mapper(page):
            for candidate in extractor.extract(page):
                yield repr(candidate.key()), candidate

        def reducer(key, candidates):
            yield from candidates

        # Per-page extraction as a map-reduce job: candidates come back
        # grouped by shard and key, not in page order.
        candidates, stats = MapReduce(shards=4).run(
            [wiki.pages[title] for title in sorted(wiki.pages)],
            mapper,
            reducer,
        )
        assert stats.map_input_records == len(wiki.pages)
        mr_kb, __ = builder.build(candidates=candidates)
        # The merge is order-independent, so the job's output builds the
        # serial KB byte for byte.
        assert canonical_kb_text(mr_kb) == canonical_kb_text(serial_kb)

    def test_qa_over_built_kb(self, world, wiki, built):
        kb, __ = built
        resolver = NameResolver()
        for title, page in wiki.pages.items():
            resolver.add(title, page.entity)
        qa = TemplateQA(kb, resolver)
        answered = 0
        asked = 0
        for person in world.people[:30]:
            asked += 1
            question = f"Where was {world.name[person]} born?"
            answers = qa.answer(question)
            city = world.facts.one_object(person, ws.BORN_IN)
            if answers and answers[0].text == world.name[city]:
                answered += 1
        assert answered / asked > 0.7


class TestAblations:
    def test_no_consistency_lowers_precision(self, world, wiki):
        noisy_config = BuildConfig(use_consistency=False)
        kb, __ = KnowledgeBaseBuilder(
            wiki, aliases=world.aliases, config=noisy_config
        ).build()
        facts = [t for t in kb if t.predicate in FACT_RELATIONS]
        correct = sum(
            1 for t in facts
            if world.facts.contains_fact(t.subject, t.predicate, t.object)
        )
        raw_precision = correct / len(facts)
        assert raw_precision <= 1.0  # sanity; detailed comparison in E4

    def test_infobox_only_build(self, world, wiki):
        config = BuildConfig(use_patterns=False, use_year_attributes=False)
        kb, report = KnowledgeBaseBuilder(
            wiki, aliases=world.aliases, config=config
        ).build()
        assert report.pattern_candidates == 0
        assert report.infobox_candidates > 0


class TestBuildDeterminismUnderTracing:
    """Instrumentation must not change behavior, and traces must be stable.

    Two builds over the same synthetic Wiki seed produce identical triple
    sets and identical span *structure* (names, nesting, counters — not
    timings).  This guards against observability code paths perturbing the
    pipeline.
    """

    @staticmethod
    def _traced_build():
        from repro import obs
        from repro.corpus import build_wiki
        from repro.world import WorldConfig, generate_world

        world = generate_world(WorldConfig(seed=55, n_people=30))
        wiki = build_wiki(world)
        obs.reset()
        obs.enable()
        try:
            kb, __ = KnowledgeBaseBuilder(wiki, aliases=world.aliases).build()
            structure = tuple(s.structure() for s in obs.take_roots())
        finally:
            obs.disable()
            obs.reset()
        return kb, structure

    def test_identical_triples_and_span_structure(self):
        kb_first, structure_first = self._traced_build()
        kb_second, structure_second = self._traced_build()
        assert {t.spo() for t in kb_first} == {t.spo() for t in kb_second}
        assert structure_first == structure_second

    def test_tracing_does_not_change_the_kb(self):
        from repro import obs
        from repro.corpus import build_wiki
        from repro.world import WorldConfig, generate_world

        world = generate_world(WorldConfig(seed=55, n_people=30))
        wiki = build_wiki(world)
        obs.disable()
        obs.reset()
        kb_untraced, __ = KnowledgeBaseBuilder(
            wiki, aliases=world.aliases
        ).build()
        kb_traced, structure = self._traced_build()
        assert {t.spo() for t in kb_untraced} == {t.spo() for t in kb_traced}
        # The traced run covered every enabled pipeline stage.
        names = set()

        def collect(node):
            names.add(node[0])
            for child in node[2]:
                collect(child)

        for root in structure:
            collect(root)
        assert {
            "pipeline.build",
            "pipeline.taxonomy",
            "pipeline.extract",
            "pipeline.temporal",
            "pipeline.merge",
            "pipeline.consistency",
            "pipeline.multilingual",
            "pipeline.labels",
        } <= names


def _insertion_digest(kb) -> str:
    """A digest of the KB in insertion order (which decides ``match``
    order), unlike ``canonical_kb_text``, which sorts."""
    import hashlib

    return hashlib.blake2b(
        repr(list(kb)).encode("utf-8"), digest_size=16
    ).hexdigest()


@pytest.fixture(scope="module")
def world_seed7():
    from repro.corpus import build_wiki
    from repro.world import WorldConfig, generate_world

    world = generate_world(WorldConfig(seed=7, n_people=40))
    return world, build_wiki(world)


class TestOneStoreBuild:
    """A build fills exactly one indexed store, the KB, in a pinned order.

    The digests were recorded from the multi-store pipeline this one
    replaced: stage lists in canonical order, assembled with one
    ``add_all``, must reproduce its insertion order, content and epoch.
    """

    #: input -> (insertion-order digest, epoch, triples)
    PINNED = {
        "seed7-people40": (
            "7a520e2753af246bca95f44ef4353db3",
            "46d62b4f9b18940af7aa893fbdc295a9",
            1365,
        ),
        "adversarial_noise": (
            "c3ac100308a53f1105a8752dae2565f8",
            "af0354a156d52741998f27bd694e89b4",
            1474,
        ),
    }

    @staticmethod
    def _inputs(name, world_seed7):
        if name == "adversarial_noise":
            from repro.world.scenarios import build_scenario

            bundle = build_scenario(name)
            return bundle.wiki, bundle.world.aliases
        world, wiki = world_seed7
        return wiki, world.aliases

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_insertion_order_is_pinned(self, name, world_seed7):
        wiki, aliases = self._inputs(name, world_seed7)
        kb, __ = KnowledgeBaseBuilder(wiki, aliases=aliases).build()
        assert (_insertion_digest(kb), kb.epoch, len(kb)) == self.PINNED[name]
        assert kb.version == len(kb)  # every add was new: no replacements

    @pytest.mark.parametrize("keep_merged_store, stores", [(False, 1), (True, 2)])
    def test_build_constructs_one_store(
        self, monkeypatch, world_seed7, keep_merged_store, stores
    ):
        from repro.kb import TripleStore

        world, wiki = world_seed7
        builder = KnowledgeBaseBuilder(
            wiki,
            aliases=world.aliases,
            config=BuildConfig(keep_merged_store=keep_merged_store),
        )
        constructed = []
        original = TripleStore.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(TripleStore, "__init__", counting_init)
        kb, report = builder.build()
        assert len(constructed) == stores
        assert constructed[-1] is kb
        if keep_merged_store:
            assert constructed[0] is report.merged_store
            assert len(report.merged_store) == report.merged_facts

    def test_store_adds_are_the_triples_offered_to_the_kb(self, world_seed7):
        from repro import obs

        world, wiki = world_seed7
        obs.reset()
        obs.enable()
        try:
            kb, report = KnowledgeBaseBuilder(
                wiki, aliases=world.aliases
            ).build()
            adds = obs.report_json()["counters"]["kb.store.add"]
        finally:
            obs.disable()
            obs.reset()
        offered = (
            len(ws.SCHEMA_TRIPLES)
            + report.type_triples
            + report.accepted_facts
            + report.label_triples
            + report.pages  # one prefLabel per page
        )
        assert len(kb) <= adds <= offered


class TestCrossProcessDeterminism:
    """Two fresh-subprocess builds under different ``PYTHONHASHSEED`` values
    (serial, then a process pool) must write byte-identical ``.nt`` files
    and segment files.

    This is the one determinism property an in-process test cannot check
    (the hash salt is fixed per process); it guards the contract behind
    ``repro check-determinism``.
    """

    def test_distinct_hash_seeds_build_identical_kbs(self):
        from repro.determinism import check

        report = check(seed=7, people=25, runs=2)
        assert report.ok, report.describe()
        assert report.runs == ["serial@0", "process2@1"]
        assert report.triples > 500

