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
from repro.corpus.wiki import WikiPage
from repro.determinism.stable import canonical_kb_text
from repro.kb import ns
from repro.kb.segments import (
    diff_segment_dirs,
    open_snapshot,
    spo_texts,
    write_segments,
)
from repro.pipeline import (
    BuildConfig,
    IncrementalBuilder,
    KnowledgeBaseBuilder,
    attach_posts,
)
from repro.pipeline.incremental import STATE_NAME
from repro.serving import QueryEngine
from repro.world import WorldConfig, generate_world


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
    def test_config_mismatch_rejected(self, tmp_path, small_wiki):
        directory = str(tmp_path / "inc")
        page = small_wiki.pages[sorted(small_wiki.pages)[0]]
        with IncrementalBuilder(directory) as builder:
            builder.ingest(pages=[page])
        with pytest.raises(ValueError, match="config mismatch"):
            IncrementalBuilder(
                directory, BuildConfig(use_consistency=False)
            )

    def test_state_holds_no_reasoning_outcomes(self, tmp_path, small_wiki):
        directory = str(tmp_path / "inc")
        page = small_wiki.pages[sorted(small_wiki.pages)[0]]
        with IncrementalBuilder(directory) as builder:
            builder.ingest(pages=[page])
        with open(os.path.join(directory, STATE_NAME), encoding="utf-8") as handle:
            state = json.load(handle)
        assert state["state_version"] == 2
        assert "components" not in state

    def test_version_one_state_rejected(self, tmp_path, small_wiki):
        directory = str(tmp_path / "inc")
        page = small_wiki.pages[sorted(small_wiki.pages)[0]]
        with IncrementalBuilder(directory) as builder:
            builder.ingest(pages=[page])
        state_path = os.path.join(directory, STATE_NAME)
        with open(state_path, encoding="utf-8") as handle:
            state = json.load(handle)
        state["state_version"] = 1
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

    def test_query_engine_rebinds_with_cache_invalidation(
        self, tmp_path, small_world, small_wiki
    ):
        directory = str(tmp_path / "inc")
        titles = sorted(small_wiki.pages)
        builder = IncrementalBuilder(directory)
        try:
            builder.ingest(
                pages=[small_wiki.pages[t] for t in titles[:-4]],
                aliases=small_world.aliases,
            )
            snapshot = open_snapshot(directory)
            engine = QueryEngine(snapshot)
            first = engine.lookup(predicate=ns.PREF_LABEL)
            assert engine.lookup(predicate=ns.PREF_LABEL) == first  # warm
            cache = engine.cache
            assert cache.hits == 1 and cache.misses == 1

            report = builder.ingest(
                pages=[small_wiki.pages[t] for t in titles[-4:]]
            )
            rolled = open_snapshot(directory)
            assert rolled.epoch == report.epoch_after != snapshot.epoch
            engine.rebind(rolled)
            after = engine.lookup(predicate=ns.PREF_LABEL)
            # The epoch rolled forward: the cached answer is dropped as
            # stale, never served for the new snapshot.
            assert cache.stale_drops == 1
            assert after["kb_epoch"] == rolled.epoch
            assert after["count"] > first["count"]
            snapshot.close()
            rolled.close()
        finally:
            builder.close()
