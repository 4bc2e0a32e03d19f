"""The golden tiny-world KB: a committed segment directory every run
must reproduce byte-for-byte.

The fixture in ``tests/golden/tiny_world_kb/`` was produced by building
the seed-7, 6-person world through the full pipeline and emitting
segments.  Because the segment format is byte-pinned and the build is
deterministic, rebuilding today — on any machine, any PYTHONHASHSEED,
any worker count — must yield the identical files.  A diff here means
either the build pipeline or the storage format drifted; bump the
fixture only for an *intentional* format or pipeline change, and say so
in the commit.
"""

import json
import os

import pytest

from repro.corpus import build_wiki
from repro.kb import TripleStore, diff_segment_dirs, open_snapshot, write_segments
from repro.pipeline import KnowledgeBaseBuilder
from repro.serving import QueryEngine
from repro.world import WorldConfig, generate_world

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden", "tiny_world_kb")


@pytest.fixture(scope="module")
def rebuilt_kb():
    world = generate_world(WorldConfig(seed=7, n_people=6))
    wiki = build_wiki(world)
    kb, _report = KnowledgeBaseBuilder(wiki, aliases=world.aliases).build()
    return kb


class TestGoldenBytes:
    def test_fixture_is_present_and_well_formed(self):
        with open(os.path.join(GOLDEN_DIR, "MANIFEST.json")) as fh:
            manifest = json.load(fh)
        assert manifest["triples"] > 0
        assert len(manifest["epoch"]) == 32
        assert len(manifest["segments"]) == 1

    def test_rebuild_reproduces_golden_bytes(self, rebuilt_kb, tmp_path):
        fresh = str(tmp_path / "rebuilt")
        write_segments(rebuilt_kb, fresh)
        differences = diff_segment_dirs(GOLDEN_DIR, fresh)
        assert differences == [], "\n".join(
            ["storage format or build pipeline drifted from the golden KB:"]
            + differences
        )

    def test_golden_epoch_matches_rebuilt_store(self, rebuilt_kb):
        with open(os.path.join(GOLDEN_DIR, "MANIFEST.json")) as fh:
            manifest = json.load(fh)
        assert manifest["epoch"] == rebuilt_kb.epoch
        assert manifest["triples"] == len(rebuilt_kb)


class TestGoldenServes:
    def test_snapshot_of_golden_equals_in_memory(self, rebuilt_kb):
        """Cold (snapshot, straight off the golden files) and warm
        (in-memory store) engines must answer byte-identically."""
        with open_snapshot(GOLDEN_DIR) as snap:
            cold = QueryEngine(snap)
            warm = QueryEngine(TripleStore(snap))
            assert snap.epoch == rebuilt_kb.epoch

            def dumps(payload):
                return json.dumps(payload, sort_keys=True, separators=(",", ":"))

            predicates = sorted(snap.predicates(), key=repr)
            assert predicates
            for predicate in predicates:
                assert dumps(cold.lookup(predicate=predicate)) == dumps(
                    warm.lookup(predicate=predicate)
                )
                assert dumps(cold.topk(5, predicate=predicate)) == dumps(
                    warm.topk(5, predicate=predicate)
                )
            subjects = sorted({t.subject for t in snap}, key=repr)[:25]
            for subject in subjects:
                assert dumps(cold.lookup(subject=subject)) == dumps(
                    warm.lookup(subject=subject)
                )
            assert dumps(cold.healthz()) == dumps(warm.healthz())
