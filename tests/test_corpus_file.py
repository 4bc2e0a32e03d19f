"""Tests for the zero-copy corpus file format (repro.corpus.corpusfile)."""

import os

import pytest

from repro.corpus import CorpusReader, build_wiki, open_corpus, write_corpus
from repro.world import WorldConfig, generate_world


@pytest.fixture(scope="module")
def small_world():
    world = generate_world(WorldConfig(seed=11, n_people=20))
    return world, build_wiki(world)


class TestWriteAndRead:
    def test_roundtrip_preserves_page_surface(self, small_world, tmp_path):
        world, wiki = small_world
        path = str(tmp_path / "corpus.rprocrp")
        manifest = write_corpus(wiki, path, aliases=world.aliases)
        assert manifest["pages"] == len(wiki.pages)
        with CorpusReader(path) as reader:
            assert len(reader) == len(wiki.pages)
            for title in sorted(wiki.pages):
                original = wiki.pages[title]
                loaded = reader.page(title)
                assert loaded.title == title
                assert loaded.entity == original.entity
                assert [s.text for s in loaded.document.sentences] == [
                    s.text for s in original.document.sentences
                ]
                assert loaded.infobox == original.infobox
                assert [c.name for c in loaded.categories] == [
                    c.name for c in original.categories
                ]
                assert loaded.interlanguage == original.interlanguage

    def test_write_is_byte_deterministic(self, small_world, tmp_path):
        world, wiki = small_world
        a = str(tmp_path / "a.rprocrp")
        b = str(tmp_path / "b.rprocrp")
        write_corpus(wiki, a, aliases=world.aliases)
        write_corpus(wiki, b, aliases=world.aliases)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_verify_detects_corruption(self, small_world, tmp_path):
        world, wiki = small_world
        path = str(tmp_path / "corpus.rprocrp")
        write_corpus(wiki, path, aliases=world.aliases)
        with CorpusReader(path) as reader:
            assert reader.verify()
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        with CorpusReader(path) as reader:
            assert not reader.verify()

    def test_unknown_title_raises(self, small_world, tmp_path):
        world, wiki = small_world
        path = str(tmp_path / "corpus.rprocrp")
        write_corpus(wiki, path, aliases=world.aliases)
        with CorpusReader(path) as reader:
            with pytest.raises(KeyError):
                reader.page("No Such Page")

    def test_titles_sorted_and_iteration_matches(self, small_world, tmp_path):
        world, wiki = small_world
        path = str(tmp_path / "corpus.rprocrp")
        write_corpus(wiki, path, aliases=world.aliases)
        with CorpusReader(path) as reader:
            titles = reader.titles()
            assert titles == sorted(wiki.pages)
            assert [page.title for page in reader.pages()] == titles

    def test_truncated_file_rejected(self, small_world, tmp_path):
        world, wiki = small_world
        path = str(tmp_path / "corpus.rprocrp")
        write_corpus(wiki, path, aliases=world.aliases)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        with pytest.raises(ValueError):
            CorpusReader(path)


class TestMatches:
    def test_matches_same_corpus(self, small_world, tmp_path):
        world, wiki = small_world
        path = str(tmp_path / "corpus.rprocrp")
        write_corpus(wiki, path, aliases=world.aliases)
        with CorpusReader(path) as reader:
            assert reader.matches(wiki, world.aliases)

    def test_mismatched_aliases_rejected(self, small_world, tmp_path):
        world, wiki = small_world
        path = str(tmp_path / "corpus.rprocrp")
        write_corpus(wiki, path, aliases=world.aliases)
        with CorpusReader(path) as reader:
            assert not reader.matches(wiki, None)

    def test_different_world_rejected(self, small_world, tmp_path):
        world, wiki = small_world
        other = generate_world(WorldConfig(seed=12, n_people=20))
        other_wiki = build_wiki(other)
        path = str(tmp_path / "corpus.rprocrp")
        write_corpus(wiki, path, aliases=world.aliases)
        with CorpusReader(path) as reader:
            assert not reader.matches(other_wiki, other.aliases)


class TestOpenCorpusCache:
    def test_same_file_returns_same_reader(self, small_world, tmp_path):
        world, wiki = small_world
        path = str(tmp_path / "corpus.rprocrp")
        write_corpus(wiki, path, aliases=world.aliases)
        assert open_corpus(path) is open_corpus(path)

    def test_rewritten_file_invalidates_cached_reader(
        self, small_world, tmp_path
    ):
        world, wiki = small_world
        path = str(tmp_path / "corpus.rprocrp")
        write_corpus(wiki, path, aliases=world.aliases)
        first = open_corpus(path)
        # Rewriting swaps the inode via os.replace; the stale reader must
        # not be served for the new file.
        other_wiki = build_wiki(generate_world(WorldConfig(seed=12, n_people=10)))
        write_corpus(other_wiki, path)
        second = open_corpus(path)
        assert second is not first
        assert len(second) == len(other_wiki.pages)
        # The stale reader still works against its pinned old content.
        assert len(first) == len(wiki.pages)


class TestBuilderTransport:
    def test_process_build_ships_path_not_corpus(self, small_world):
        from repro import obs
        from repro.determinism import canonical_kb_lines
        from repro.pipeline import BuildConfig, KnowledgeBaseBuilder

        world, wiki = small_world
        serial, __ = KnowledgeBaseBuilder(wiki, aliases=world.aliases).build()
        obs.reset()
        obs.enable()
        try:
            pooled, __ = KnowledgeBaseBuilder(
                wiki, aliases=world.aliases, config=BuildConfig(workers=2)
            ).build()
            payload = obs.core.histograms()["backend.init.payload_bytes"]
        finally:
            obs.disable()
            obs.reset()
        # Workers receive the corpus file's path and the config, never the
        # pickled wiki: the setup broadcast stays under 1 KB.
        assert payload.values and max(payload.values) < 1024
        assert canonical_kb_lines(pooled) == canonical_kb_lines(serial)

    def test_explicit_corpus_file_is_materialized_and_reused(
        self, small_world, tmp_path
    ):
        from repro.pipeline import BuildConfig, KnowledgeBaseBuilder

        world, wiki = small_world
        path = str(tmp_path / "corpus.rprocrp")
        config = BuildConfig(workers=2, corpus_file=path)
        KnowledgeBaseBuilder(wiki, aliases=world.aliases, config=config).build()
        assert os.path.exists(path)
        stamp = os.stat(path).st_mtime_ns
        KnowledgeBaseBuilder(wiki, aliases=world.aliases, config=config).build()
        assert os.stat(path).st_mtime_ns == stamp  # reused, not rewritten
