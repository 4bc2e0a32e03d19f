"""Tests for repro.pipeline.incremental: delta ingestion over segments.

The crown invariant under test: ingesting a corpus batch by batch — with
changed pages, new aliases, social posts, and retractions along the way —
produces byte-for-byte the same segment directory and canonical KB as a
single full rebuild of the final corpus state.
"""

import json
import os

import pytest

from repro.corpus import build_wiki
from repro.corpus.document import Document, Sentence
from repro.corpus.social import SocialConfig, generate_stream
from repro.corpus.wiki import Category, WikiPage
from repro.determinism.stable import canonical_kb_text
from repro.kb import ns
from repro.kb.segments import (
    diff_segment_dirs,
    open_snapshot,
    spo_texts,
    write_segments,
)
from repro.pipeline import (
    IncrementalBuilder,
    KnowledgeBaseBuilder,
    attach_posts,
)
from repro.pipeline.incremental import STATE_NAME
from repro.serving import QueryEngine
from repro.world import WorldConfig, generate_world
from repro.world import schema as ws


@pytest.fixture(scope="module")
def small_world():
    return generate_world(WorldConfig(seed=7, n_people=30))


@pytest.fixture(scope="module")
def small_wiki(small_world):
    return build_wiki(small_world)


def full_build(wiki, aliases):
    kb, __ = KnowledgeBaseBuilder(wiki, aliases=aliases).build()
    return kb


def ingest_all_in_batches(directory, wiki, aliases, cut):
    titles = sorted(wiki.pages)
    with IncrementalBuilder(directory) as builder:
        first = builder.ingest(
            pages=[wiki.pages[t] for t in titles[:cut]], aliases=aliases
        )
        second = builder.ingest(
            pages=[wiki.pages[t] for t in titles[cut:]], compact=True
        )
    return first, second


class TestIncrementalEqualsFull:
    def test_two_batches_equal_full_build(
        self, tmp_path, small_world, small_wiki
    ):
        directory = str(tmp_path / "inc")
        first, second = ingest_all_in_batches(
            directory, small_wiki, small_world.aliases,
            cut=int(len(small_wiki.pages) * 0.8),
        )
        # The delta actually reused cached pages, not a silent rebuild.
        assert second.cached_pages > 0
        assert second.reextracted_pages < second.total_pages
        assert second.components > 0
        assert first.epoch_after != first.epoch_before
        assert second.epoch_after != first.epoch_after

        kb = full_build(small_wiki, small_world.aliases)
        with open_snapshot(directory) as snapshot:
            assert canonical_kb_text(snapshot) == canonical_kb_text(kb)
        oneshot = str(tmp_path / "oneshot")
        write_segments(kb, oneshot)
        assert diff_segment_dirs(directory, oneshot) == []

    def test_changed_page_reingest(self, tmp_path, small_world, small_wiki):
        directory = str(tmp_path / "inc")
        titles = sorted(small_wiki.pages)
        with IncrementalBuilder(directory) as builder:
            builder.ingest(
                pages=[small_wiki.pages[t] for t in titles],
                aliases=small_world.aliases,
            )
            # Change one page: drop its last two sentences.
            title = titles[3]
            old = small_wiki.pages[title]
            changed = WikiPage(
                title=old.title,
                entity=old.entity,
                document=Document(
                    doc_id=old.document.doc_id,
                    sentences=list(old.document.sentences[:-2]),
                ),
                infobox=dict(old.infobox),
                categories=list(old.categories),
                interlanguage=dict(old.interlanguage),
            )
            report = builder.ingest(pages=[changed], compact=True)
        assert report.batch_pages == 1
        # A same-name re-ingest changes no registrations, so only the
        # changed page is re-extracted.
        assert report.affected_names == 0
        assert report.reextracted_pages == 1

        modified = build_wiki(small_world)
        modified.pages[title] = changed
        kb = full_build(modified, small_world.aliases)
        with open_snapshot(directory) as snapshot:
            assert canonical_kb_text(snapshot) == canonical_kb_text(kb)
        oneshot = str(tmp_path / "oneshot")
        write_segments(kb, oneshot)
        assert diff_segment_dirs(directory, oneshot) == []

    def test_new_alias_invalidates_affected_pages_only(
        self, tmp_path, small_world, small_wiki
    ):
        directory = str(tmp_path / "inc")
        titles = sorted(small_wiki.pages)
        with IncrementalBuilder(directory) as builder:
            builder.ingest(
                pages=[small_wiki.pages[t] for t in titles],
                aliases=small_world.aliases,
            )
            # Register a new ambiguous alias — a name that provably occurs
            # in other pages' text: every page where its token sequence
            # occurs must be re-extracted, nothing else.
            mentioned = next(
                t for t in titles
                if t != titles[0]
                and any(
                    t in sentence.text
                    for other in titles
                    if other != t
                    for sentence in small_wiki.pages[other].document.sentences
                )
            )
            entity = small_wiki.pages[titles[0]].entity
            forms = list(small_world.aliases.get(entity, [])) + [mentioned]
            report = builder.ingest(aliases={entity: forms}, compact=True)
        assert report.batch_pages == 0
        assert report.affected_names >= 1
        assert 0 < report.reextracted_pages < len(titles)

        aliases = dict(small_world.aliases)
        aliases[entity] = forms
        kb = full_build(small_wiki, aliases)
        with open_snapshot(directory) as snapshot:
            assert canonical_kb_text(snapshot) == canonical_kb_text(kb)

    def test_social_posts_fold_into_product_pages(
        self, tmp_path, small_world, small_wiki
    ):
        posts = generate_stream(
            small_world, SocialConfig(seed=5, months=3)
        ).posts
        changed = attach_posts(small_wiki, posts)
        assert changed, "the social stream produced no attachable posts"

        directory = str(tmp_path / "inc")
        with IncrementalBuilder(directory) as builder:
            builder.ingest(
                pages=list(small_wiki.pages.values()),
                aliases=small_world.aliases,
            )
            report = builder.ingest(pages=changed, compact=True)
        assert report.batch_pages == len(changed)

        modified = build_wiki(small_world)
        for page in changed:
            modified.pages[page.title] = page
        kb = full_build(modified, small_world.aliases)
        with open_snapshot(directory) as snapshot:
            assert canonical_kb_text(snapshot) == canonical_kb_text(kb)


class TestRetraction:
    def test_retraction_tombstones_then_compacts(
        self, tmp_path, small_world, small_wiki
    ):
        directory = str(tmp_path / "inc")
        titles = sorted(small_wiki.pages)
        cut = len(titles) - 5
        with IncrementalBuilder(directory) as builder:
            builder.ingest(
                pages=[small_wiki.pages[t] for t in titles[:cut]],
                aliases=small_world.aliases,
            )
            with open_snapshot(directory) as snapshot:
                victim = sorted(snapshot, key=repr)[7]
            key = spo_texts(victim)
            report = builder.ingest(
                pages=[small_wiki.pages[t] for t in titles[cut:]],
                retract=[key],
            )
            assert report.retracted == 1
            assert report.tombstones >= 1
            manifest = json.load(
                open(os.path.join(directory, "MANIFEST.json"))
            )
            assert sum(
                e.get("tombstones", 0) for e in manifest["segments"]
            ) >= 1
            # Shadowed before compaction, erased after.
            with open_snapshot(directory) as snapshot:
                assert all(spo_texts(t) != key for t in snapshot)
            builder.store.compact()
            manifest = json.load(
                open(os.path.join(directory, "MANIFEST.json"))
            )
            assert [e["name"] for e in manifest["segments"]] == ["seg-000000"]
            assert all(
                not e.get("tombstones") for e in manifest["segments"]
            )
            with open_snapshot(directory) as snapshot:
                assert all(spo_texts(t) != key for t in snapshot)

        # Equal to the one-shot ingest carrying the same retraction.
        oneshot = str(tmp_path / "oneshot")
        with IncrementalBuilder(oneshot) as builder:
            builder.ingest(
                pages=[small_wiki.pages[t] for t in titles],
                aliases=small_world.aliases,
                retract=[key],
                compact=True,
            )
        assert diff_segment_dirs(directory, oneshot) == []

    def test_retractions_persist_across_ingests(
        self, tmp_path, small_world, small_wiki
    ):
        directory = str(tmp_path / "inc")
        titles = sorted(small_wiki.pages)
        with IncrementalBuilder(directory) as builder:
            builder.ingest(
                pages=[small_wiki.pages[t] for t in titles],
                aliases=small_world.aliases,
            )
            with open_snapshot(directory) as snapshot:
                victim = sorted(snapshot, key=repr)[3]
            key = spo_texts(victim)
            builder.ingest(retract=[key])
        # A fresh builder on the same directory re-applies the curated
        # removal on its next ingest (the set is persisted state).
        with IncrementalBuilder(directory) as builder:
            report = builder.ingest(
                pages=[small_wiki.pages[titles[0]]], compact=True
            )
            assert report.retracted == 1
        with open_snapshot(directory) as snapshot:
            assert all(spo_texts(t) != key for t in snapshot)


class TestBuilderStateAndServing:
    def test_state_holds_no_reasoning_outcomes(self, tmp_path, small_wiki):
        directory = str(tmp_path / "inc")
        page = small_wiki.pages[sorted(small_wiki.pages)[0]]
        with IncrementalBuilder(directory) as builder:
            builder.ingest(pages=[page])
        with open(os.path.join(directory, STATE_NAME), encoding="utf-8") as handle:
            state = json.load(handle)
        assert state["state_version"] == 3
        assert "components" not in state
        assert "config" not in state

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_state_version_rejected(self, tmp_path, small_wiki, version):
        directory = str(tmp_path / "inc")
        page = small_wiki.pages[sorted(small_wiki.pages)[0]]
        with IncrementalBuilder(directory) as builder:
            builder.ingest(pages=[page])
        state_path = os.path.join(directory, STATE_NAME)
        with open(state_path, encoding="utf-8") as handle:
            state = json.load(handle)
        state["state_version"] = version
        with open(state_path, "w", encoding="utf-8") as handle:
            json.dump(state, handle)
        with pytest.raises(ValueError, match="unsupported ingest state version"):
            IncrementalBuilder(directory)

    def test_state_survives_and_is_excluded_from_diffs(
        self, tmp_path, small_world, small_wiki
    ):
        directory = str(tmp_path / "inc")
        ingest_all_in_batches(
            directory, small_wiki, small_world.aliases, cut=10
        )
        assert os.path.exists(os.path.join(directory, STATE_NAME))
        kb = full_build(small_wiki, small_world.aliases)
        oneshot = str(tmp_path / "oneshot")
        write_segments(kb, oneshot)
        # oneshot has no state file, yet the directories compare equal.
        assert diff_segment_dirs(directory, oneshot) == []

    def test_query_engine_serves_one_generation(
        self, tmp_path, small_world, small_wiki
    ):
        """Rolling forward means a new engine over the new snapshot; the
        old engine keeps answering its old bytes through a flush and a
        compaction."""
        directory = str(tmp_path / "inc")
        titles = sorted(small_wiki.pages)
        builder = IncrementalBuilder(directory)
        try:
            builder.ingest(
                pages=[small_wiki.pages[t] for t in titles[:-4]],
                aliases=small_world.aliases,
            )
            snapshot = open_snapshot(directory)
            engine = QueryEngine(snapshot, cache_size=1)
            first = engine.lookup(predicate=ns.PREF_LABEL)
            other = engine.lookup(predicate=ns.TYPE)

            report = builder.ingest(
                pages=[small_wiki.pages[t] for t in titles[-4:]]
            )
            rolled = open_snapshot(directory)
            assert rolled.epoch == report.epoch_after != snapshot.epoch
            after = QueryEngine(rolled).lookup(predicate=ns.PREF_LABEL)
            assert after["kb_epoch"] == report.epoch_after
            assert after["count"] > first["count"]

            assert builder.store.compact() is not None
            # A one-entry cache: each answer below is recomputed from the
            # old snapshot's pinned files, not served from memory.
            assert engine.lookup(predicate=ns.PREF_LABEL) == first
            assert engine.lookup(predicate=ns.TYPE) == other
            assert engine.cache.stats()["hits"] == 0
            snapshot.close()
            rolled.close()
        finally:
            builder.close()


def _refuse_triple_hash(monkeypatch):
    def refuse(triple):
        raise AssertionError(f"a final store hashed {triple!r}")

    monkeypatch.setattr("repro.kb.store.triple_content_hash", refuse)


class TestFinalStoreStaysLazy:
    """A build and an ingest delta fill the KB store but never read its
    epoch or pattern indexes, so neither may pay for them: the store
    hashes no triple and builds no bucket until a caller reads."""

    def test_build_hashes_nothing_and_indexes_on_first_match(
        self, tmp_path, monkeypatch, small_world, small_wiki
    ):
        _refuse_triple_hash(monkeypatch)
        kb, report = KnowledgeBaseBuilder(
            small_wiki, aliases=small_world.aliases
        ).build()
        assert report.accepted_facts > 0
        assert len(kb) == len(list(kb))
        assert not kb._indexed
        assert list(kb.match(predicate=ns.PREF_LABEL))
        assert kb._indexed
        monkeypatch.undo()
        manifest = write_segments(kb, str(tmp_path / "kb"))
        assert kb.epoch == manifest["epoch"]

    def test_ingest_delta_hashes_no_store_triple(
        self, tmp_path, monkeypatch, small_world, small_wiki
    ):
        directory = str(tmp_path / "inc")
        titles = sorted(small_wiki.pages)
        old = small_wiki.pages[titles[5]]
        # Keep one sentence and drop the spouse infobox field, so the
        # delta really flushes a generation.
        changed = WikiPage(
            title=old.title,
            entity=old.entity,
            document=Document(
                doc_id=old.document.doc_id,
                sentences=list(old.document.sentences[:1]),
            ),
            infobox={k: v for k, v in old.infobox.items() if k != "spouse"},
            categories=list(old.categories),
            interlanguage=dict(old.interlanguage),
        )
        with IncrementalBuilder(directory) as builder:
            builder.ingest(
                pages=[small_wiki.pages[t] for t in titles],
                aliases=small_world.aliases,
            )
            _refuse_triple_hash(monkeypatch)
            report = builder.ingest(pages=[changed])
            monkeypatch.undo()
        assert report.reextracted_pages == 1
        assert report.segment is not None
        modified = build_wiki(small_world)
        modified.pages[changed.title] = changed
        assert report.epoch_after == full_build(modified, small_world.aliases).epoch


def _count_resolver_builds(monkeypatch) -> list:
    import repro.pipeline.builder as builder_module

    calls = []
    original = builder_module._build_resolver

    def counting(wiki, aliases):
        calls.append(len(wiki.pages))
        return original(wiki, aliases)

    monkeypatch.setattr(builder_module, "_build_resolver", counting)
    return calls


class TestResolverBuiltOnUse:
    """The name resolver is built at most once per build or ingest, and
    only when some page is extracted."""

    def test_build_handed_candidates_builds_no_resolver(
        self, monkeypatch, small_world, small_wiki
    ):
        candidates = KnowledgeBaseBuilder(
            small_wiki, aliases=small_world.aliases
        )._extract_pages()
        calls = _count_resolver_builds(monkeypatch)
        __, report = KnowledgeBaseBuilder(
            small_wiki, aliases=small_world.aliases
        ).build(candidates=candidates)
        assert calls == []
        assert report.accepted_facts > 0

    def test_ingest_builds_one_resolver_only_when_it_reextracts(
        self, tmp_path, monkeypatch, small_world, small_wiki
    ):
        directory = str(tmp_path / "inc")
        titles = sorted(small_wiki.pages)
        with IncrementalBuilder(directory) as builder:
            builder.ingest(
                pages=[small_wiki.pages[t] for t in titles],
                aliases=small_world.aliases,
            )
            calls = _count_resolver_builds(monkeypatch)
            report = builder.ingest(pages=[small_wiki.pages[titles[0]]])
            assert report.reextracted_pages == 1
            assert calls == [len(titles)]
            calls.clear()
            report = builder.ingest()
            assert report.reextracted_pages == 0
            assert calls == []


# ------------------------------------------------------- warm delta stream

#: World size of the warm-stream test.
WARM_PEOPLE = 40

#: The schema key the determinism harness retracts.
SCHEMA_KEY = ("<cls:location>", "<<rdfs:subClassOf>>", "<kb:Thing>")


def _edited(page, **changes):
    fields = dict(
        title=page.title,
        entity=page.entity,
        document=page.document,
        infobox=dict(page.infobox),
        categories=list(page.categories),
        interlanguage=dict(page.interlanguage),
    )
    fields.update(changes)
    return WikiPage(**fields)


class TestWarmDeltaStream:
    """One builder through a stream of deltas: after every delta its
    snapshot holds what a one-shot ingest of the same corpus holds, and
    after compaction the directories are byte-identical.  Every delta
    after the first ingest is subject-local except the one that brings a
    new category head."""

    @pytest.fixture(scope="class")
    def world(self):
        return generate_world(WorldConfig(seed=7, n_people=WARM_PEOPLE))

    def test_every_delta_equals_a_one_shot_ingest(self, tmp_path, world):
        wiki = build_wiki(world)
        pages = dict(wiki.pages)
        aliases = dict(world.aliases)
        retracted: list = []
        directory = str(tmp_path / "warm")
        oneshots = iter(range(100))

        def one_shot(compact=False):
            path = str(tmp_path / f"oneshot-{next(oneshots)}")
            with IncrementalBuilder(path) as fresh:
                report = fresh.ingest(
                    pages=[pages[t] for t in sorted(pages)],
                    aliases=aliases, retract=retracted, compact=compact,
                )
            return path, report

        def check(report, full_rebuild=False):
            path, expected = one_shot()
            with open_snapshot(directory) as mine, open_snapshot(path) as theirs:
                assert canonical_kb_text(mine) == canonical_kb_text(theirs)
            assert report.full_rebuild is full_rebuild
            assert report.components == expected.components
            assert report.retracted == expected.retracted
            assert report.triples == expected.triples
            if not full_rebuild:
                assert report.recomputed_subjects < expected.recomputed_subjects

        def born_in(snapshot, city):
            return snapshot.count(predicate=ws.BORN_IN, obj=city)

        builder = IncrementalBuilder(directory)
        try:
            first = builder.ingest(
                pages=[pages[t] for t in sorted(pages)], aliases=aliases
            )
            check(first, full_rebuild=True)

            # A sentence-only edit: one more (conflicting) birthplace.
            person = next(
                p for t, p in sorted(pages.items()) if "born" in p.infobox
            )
            city = next(
                t for t, p in sorted(pages.items())
                if "population" in p.infobox and t != person.infobox["born"]
            )
            sentences = list(person.document.sentences) + [
                Sentence(f"{person.title} was born in {city}.")
            ]
            pages[person.title] = _edited(
                person,
                document=Document(person.document.doc_id, sentences),
            )
            report = builder.ingest(pages=[pages[person.title]])
            assert report.reextracted_pages == 1
            assert report.recomputed_subjects > 0
            check(report)

            # A category edit that retypes a city other facts name as
            # object: its people lose their birthplace to the range check.
            home = next(
                p.infobox["born"] for t, p in sorted(pages.items())
                if "born" in p.infobox and p.infobox["born"] in pages
            )
            writers = next(
                c for p in pages.values() for c in p.categories
                if c.name.endswith(" writers")
            )
            target = pages[home].entity
            with open_snapshot(directory) as snapshot:
                assert born_in(snapshot, target) > 0
            pages[home] = _edited(pages[home], categories=[writers])
            report = builder.ingest(pages=[pages[home]])
            assert report.recomputed_subjects > 1
            check(report)
            with open_snapshot(directory) as snapshot:
                assert born_in(snapshot, target) == 0

            # A new category head changes the class hierarchy: the counted
            # fallback to the full path.
            page = pages[sorted(pages)[0]]
            pages[page.title] = _edited(
                page,
                categories=page.categories
                + [Category("Famous physicists", conceptual=True)],
            )
            report = builder.ingest(pages=[pages[page.title]])
            check(report, full_rebuild=True)

            # An alias that other pages mention: affected names reach
            # pages outside the batch.
            titles = sorted(pages)
            mentioned = next(
                t for t in titles[1:]
                if any(
                    t in sentence.text
                    for other in titles if other != t
                    for sentence in pages[other].document.sentences
                )
            )
            entity = pages[titles[0]].entity
            aliases[entity] = list(aliases.get(entity, [])) + [mentioned]
            report = builder.ingest(aliases={entity: aliases[entity]})
            assert report.affected_names >= 1
            assert report.reextracted_pages >= 1
            check(report)

            # A fact retraction and a schema-key retraction.
            with open_snapshot(directory) as snapshot:
                fact = spo_texts(
                    next(iter(snapshot.match(predicate=ws.BORN_IN)))
                )
            retracted.extend([fact, SCHEMA_KEY])
            report = builder.ingest(retract=[fact, SCHEMA_KEY])
            # A retraction is a set-minus after reasoning: its live keys
            # are tombstoned, and no subject is recomputed.
            assert report.tombstones == 2 and report.added == 0
            assert report.recomputed_subjects == 0
            check(report)

            # Re-ingesting an unchanged page flushes nothing.
            epoch = report.epoch_after
            report = builder.ingest(pages=[pages[titles[3]]])
            assert report.segment is None
            assert report.added == report.tombstones == 0
            assert report.epoch_after == epoch
            check(report)

            builder.store.compact()
        finally:
            builder.close()
        path, __ = one_shot(compact=True)
        assert diff_segment_dirs(directory, path) == []
