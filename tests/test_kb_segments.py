"""Tests for repro.kb.segments: the on-disk sorted-segment storage engine.

Covers the byte-pinned file format, the snapshot read path against the
in-memory store as an oracle, bloom-filter behavior, LSM newest-wins
semantics, merge compaction (against ``write_segments``, with the hash
memo warm and cold), the epoch and count a flush carries forward (and
compaction checks), and the directory differ that every
``repro check-determinism`` run uses to compare its segment files with
run 0's.
"""

import hashlib
import json
import os
import random
import shutil
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.kb import (
    Entity,
    Relation,
    TimeSpan,
    SegmentStore,
    Triple,
    TripleStore,
    diff_segment_dirs,
    open_snapshot,
    string_literal,
    write_segments,
)
from repro.kb.store import triple_content_hash
from repro.kb.segments import (
    BLOOM_HASHES,
    BLOOM_MAGIC,
    SEGMENT_MAGIC,
    BloomFilter,
    ORDERS,
    _logical_epoch,
    _parts_from_record,
    _read_manifest,
    _record_bytes,
    _triple_from_parts,
    record_fields,
    spo_key_bytes,
    spo_texts,
)

A, B, C, D = (Entity(f"w:{x}") for x in "abcd")
KNOWS, LIKES = Relation("w:knows"), Relation("w:likes")


def tiny_triples():
    return [
        Triple(A, KNOWS, B, confidence=0.75, source="wiki:a"),
        Triple(A, KNOWS, C),
        Triple(B, KNOWS, C, source="a book with spaces"),
        Triple(A, LIKES, string_literal("pie", "en"), confidence=0.5),
        Triple(B, LIKES, D, scope=TimeSpan(1990, 1995)),
    ]


def _segment_names(directory):
    """The segment generations present in ``directory``."""
    return {
        name.split(".")[0]
        for name in os.listdir(directory)
        if name.startswith("seg-")
    }


def _contents(directory):
    """Every file in ``directory``, name to bytes."""
    contents = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            contents[name] = handle.read()
    return contents


@pytest.fixture
def store():
    return TripleStore(tiny_triples())


@pytest.fixture
def segdir(tmp_path, store):
    directory = str(tmp_path / "seg")
    write_segments(store, directory)
    return directory


class TestRecordFormat:
    def test_record_roundtrip_every_order(self, store):
        for triple in store:
            fields = record_fields(triple)
            for order in ORDERS:
                assert _parts_from_record(_record_bytes(fields, order), order) == fields

    def test_nul_in_term_rejected(self, tmp_path):
        bad = TripleStore([Triple(Entity("w:x\x00y"), KNOWS, B)])
        with pytest.raises(ValueError, match="NUL"):
            write_segments(bad, str(tmp_path / "bad"))

    def test_file_magics(self, segdir):
        names = sorted(os.listdir(segdir))
        assert names == [
            "MANIFEST.json",
            "seg-000000.blooms",
            "seg-000000.osp",
            "seg-000000.pos",
            "seg-000000.spo",
        ]
        for name in names:
            with open(os.path.join(segdir, name), "rb") as fh:
                head = fh.read(8)
            if name.endswith(".blooms"):
                assert head == BLOOM_MAGIC
            elif name != "MANIFEST.json":
                assert head == SEGMENT_MAGIC

    def test_manifest_checksums_and_epoch(self, segdir, store):
        with open(os.path.join(segdir, "MANIFEST.json")) as fh:
            manifest = json.load(fh)
        assert manifest["triples"] == len(store)
        assert manifest["epoch"] == store.epoch
        entry = manifest["segments"][0]
        import hashlib

        for order in ORDERS:
            meta = entry["files"][order]
            with open(os.path.join(segdir, f"{entry['name']}.{order}"), "rb") as fh:
                blob = fh.read()
            assert meta["bytes"] == len(blob)
            assert meta["sha256"] == hashlib.sha256(blob).hexdigest()


class TestBytePinning:
    def test_independent_writes_byte_identical(self, tmp_path, store):
        left, right = str(tmp_path / "l"), str(tmp_path / "r")
        write_segments(store, left)
        # Insertion order must not matter: reversed store, same bytes.
        write_segments(TripleStore(list(reversed(tiny_triples()))), right)
        assert diff_segment_dirs(left, right) == []

    def test_diff_reports_content_divergence(self, tmp_path, store):
        left, right = str(tmp_path / "l"), str(tmp_path / "r")
        write_segments(store, left)
        other = store.copy()
        other.add(Triple(D, KNOWS, A))
        write_segments(other, right)
        differences = diff_segment_dirs(left, right)
        assert differences  # every file embeds the content
        assert any("MANIFEST.json" in line for line in differences)

    def test_diff_reports_missing_file(self, tmp_path, store):
        left, right = str(tmp_path / "l"), str(tmp_path / "r")
        write_segments(store, left)
        write_segments(store, right)
        os.unlink(os.path.join(right, "seg-000000.osp"))
        assert any("only in" in line for line in diff_segment_dirs(left, right))


class TestSnapshotReads:
    def test_matches_in_memory_oracle_every_shape(self, segdir, store):
        snap = open_snapshot(segdir)
        # Ordered equivalence holds against a store loaded *from the
        # snapshot* (SPO record order); against the original insertion-
        # ordered store only the triple sets must agree.
        oracle = TripleStore(snap)
        subjects = [A, B, C, D, None]
        predicates = [KNOWS, LIKES, None]
        objects = [B, C, D, string_literal("pie", "en"), None]
        patterns = 0
        for s in subjects:
            for p in predicates:
                for o in objects:
                    got = list(snap.match(s, p, o))
                    expected = list(oracle.match(s, p, o))
                    assert [repr(t) for t in got] == [repr(t) for t in expected], (s, p, o)
                    assert sorted(map(repr, got)) == sorted(
                        map(repr, store.match(s, p, o))
                    ), (s, p, o)
                    assert snap.count(s, p, o) == store.count(s, p, o)
                    patterns += 1
        assert patterns == 5 * 3 * 5
        snap.close()

    def test_annotations_survive(self, segdir, store):
        snap = open_snapshot(segdir)
        by_key = {t.spo(): t for t in snap}
        for original in store:
            loaded = by_key[original.spo()]
            assert loaded.confidence == original.confidence
            assert loaded.source == original.source
            assert str(loaded.scope) == str(original.scope)
        snap.close()

    def test_get_contains_len_iter(self, segdir, store):
        snap = open_snapshot(segdir)
        assert len(snap) == len(store)
        assert snap.epoch == store.epoch
        assert snap.get(A, KNOWS, B).confidence == 0.75
        assert snap.get(D, KNOWS, A) is None
        assert snap.contains_fact(B, KNOWS, C)
        assert not snap.contains_fact(C, KNOWS, B)
        assert snap.predicates() == store.predicates()
        assert sorted(map(repr, snap)) == sorted(map(repr, store))
        snap.close()

    def test_reloaded_store_agrees_on_epoch(self, segdir, store):
        with open_snapshot(segdir) as snap:
            reloaded = TripleStore(snap)
        assert reloaded.epoch == store.epoch
        assert len(reloaded) == len(store)

    def test_snapshot_is_read_only(self, segdir):
        snap = open_snapshot(segdir)
        for name in ("add", "add_all", "remove", "merge"):
            assert not hasattr(snap, name), name
        snap.close()


class TestBlooms:
    def test_no_false_negatives(self, store):
        keys = [spo_key_bytes(record_fields(t)) for t in store]
        bloom = BloomFilter.build(keys)
        for key in keys:
            assert bloom.might_contain(key)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.binary(max_size=24), max_size=120),
        st.integers(min_value=1, max_value=16),
    )
    def test_build_sets_the_double_hashing_bits(self, keys, bits_per_key):
        # Reference: the (h1 + i * h2) mod num_bits probe sequence.
        bloom = BloomFilter.build(keys, bits_per_key=bits_per_key)
        num_bits = max(64, len(keys) * bits_per_key)
        num_bits += (-num_bits) % 8
        expected = bytearray(num_bits // 8)
        for key in keys:
            digest = hashlib.blake2b(key, digest_size=16).digest()
            h1 = int.from_bytes(digest[:8], "little")
            h2 = int.from_bytes(digest[8:], "little") | 1
            for i in range(BLOOM_HASHES):
                bit = (h1 + i * h2) % num_bits
                expected[bit >> 3] |= 1 << (bit & 7)
        assert (bloom.num_bits, bloom.num_hashes) == (num_bits, BLOOM_HASHES)
        assert bloom.bits == expected

    def test_absent_keys_mostly_skipped(self):
        keys = [f"k{i}".encode() for i in range(200)]
        bloom = BloomFilter.build(keys)
        false_positives = sum(
            bloom.might_contain(f"absent{i}".encode()) for i in range(1000)
        )
        assert false_positives < 100  # ~1% expected at 10 bits/key

    def test_snapshot_counts_bloom_skips(self, segdir):
        snap = open_snapshot(segdir)
        obs.reset()
        obs.enable()
        try:
            assert snap.get(Entity("w:nobody"), KNOWS, B) is None
            assert list(snap.match(subject=Entity("w:nobody"))) == []
            skips = obs.core.counters().get("kb.segments.bloom_skips", 0)
        finally:
            obs.disable()
            obs.reset()
            snap.close()
        assert skips >= 2


class TestLSMStack:
    def test_newest_generation_wins(self, tmp_path):
        seg = SegmentStore(str(tmp_path / "lsm"), compact_threshold=100)
        seg.flush([Triple(A, KNOWS, B, confidence=0.3), Triple(A, KNOWS, C)])
        seg.flush([Triple(A, KNOWS, B, confidence=0.9)])
        snap = seg.snapshot()
        assert len(snap) == 2
        assert snap.get(A, KNOWS, B).confidence == 0.9
        expected = TripleStore(
            [Triple(A, KNOWS, B, confidence=0.9), Triple(A, KNOWS, C)]
        )
        assert snap.epoch == expected.epoch
        snap.close()
        seg.close()

    def test_compaction_preserves_content_and_epoch(self, tmp_path, store):
        seg = SegmentStore(str(tmp_path / "lsm"), compact_threshold=100)
        triples = sorted(store, key=repr)
        seg.flush(triples[:2])
        seg.flush(triples[2:])
        before = seg.snapshot()
        seg.compact()
        after = seg.snapshot()
        assert after.epoch == before.epoch == store.epoch
        assert sorted(map(repr, after)) == sorted(map(repr, store))
        # Only one generation remains on disk.
        assert len(_segment_names(seg.directory)) == 1
        before.close()
        after.close()
        seg.close()

    def test_snapshot_survives_compaction(self, tmp_path, store):
        seg = SegmentStore(str(tmp_path / "lsm"), compact_threshold=100)
        triples = sorted(store, key=repr)
        seg.flush(triples[:2])
        pinned = seg.snapshot()
        seg.flush(triples[2:])
        seg.compact()  # unlinks the generation `pinned` mmap-ed
        assert len(pinned) == 2
        assert sorted(map(repr, pinned)) == sorted(map(repr, triples[:2]))
        pinned.close()
        seg.close()

    def test_auto_compaction_over_threshold(self, tmp_path, store):
        seg = SegmentStore(str(tmp_path / "lsm"), compact_threshold=2)
        triples = sorted(store, key=repr)
        assert len(triples) >= 3
        for triple in triples[:3]:
            seg.flush([triple])
        # The third flush crossed the threshold and compacted before it
        # returned: one canonical segment holding all three triples.
        assert _segment_names(seg.directory) == {"seg-000000"}
        with open_snapshot(seg.directory) as snap:
            assert len(snap) == 3
        for triple in triples[3:]:
            seg.flush([triple])
            assert len(_segment_names(seg.directory)) <= 2
        seg.close()
        with open_snapshot(seg.directory) as snap:
            assert snap.epoch == store.epoch

    def test_write_segments_replaces_stale_files(self, tmp_path, store):
        directory = str(tmp_path / "seg")
        write_segments(store, directory)
        smaller = TripleStore([Triple(A, KNOWS, B)])
        write_segments(smaller, directory)
        with open_snapshot(directory) as snap:
            assert len(snap) == 1
            assert snap.epoch == smaller.epoch


class TestTombstones:
    def test_tombstone_shadows_and_compaction_erases(self, tmp_path, store):
        seg = SegmentStore(str(tmp_path / "lsm"), compact_threshold=100)
        triples = sorted(store, key=repr)
        seg.flush(triples)
        victim = triples[0]
        seg.flush([], tombstones=[spo_texts(victim)])
        with open_snapshot(seg.directory) as snap:
            assert len(snap) == len(triples) - 1
            assert snap.get(victim.subject, victim.predicate, victim.object) is None
            survivors = TripleStore(triples[1:])
            assert snap.epoch == survivors.epoch
        manifest = json.load(open(os.path.join(seg.directory, "MANIFEST.json")))
        assert sum(e.get("tombstones", 0) for e in manifest["segments"]) == 1
        seg.compact()
        manifest = json.load(open(os.path.join(seg.directory, "MANIFEST.json")))
        assert [e["name"] for e in manifest["segments"]] == ["seg-000000"]
        assert all(not e.get("tombstones") for e in manifest["segments"])
        with open_snapshot(seg.directory) as snap:
            assert len(snap) == len(triples) - 1
            assert snap.get(victim.subject, victim.predicate, victim.object) is None
        seg.close()

    def test_tombstone_beats_resurrection_in_older_generation(self, tmp_path):
        seg = SegmentStore(str(tmp_path / "lsm"), compact_threshold=100)
        seg.flush([Triple(A, KNOWS, B), Triple(A, KNOWS, C)])
        seg.flush([], tombstones=[spo_texts(Triple(A, KNOWS, B))])
        # The single-segment fast path must also drop tombstoned keys.
        with open_snapshot(seg.directory) as snap:
            assert [t.object for t in snap.match(subject=A)] == [C]
        seg.close()

    def test_compacted_equals_write_segments(self, tmp_path, store):
        triples = sorted(store, key=repr)
        grown = str(tmp_path / "grown")
        seg = SegmentStore(grown, compact_threshold=100)
        seg.flush(triples)
        seg.flush(
            [Triple(A, KNOWS, B, confidence=0.9)],
            tombstones=[spo_texts(triples[-1])],
        )
        seg.compact()
        seg.close()
        expected = TripleStore(
            [t for t in triples[:-1] if t.spo() != (A, KNOWS, B)]
            + [Triple(A, KNOWS, B, confidence=0.9)]
        )
        oneshot = str(tmp_path / "oneshot")
        write_segments(expected, oneshot)
        assert diff_segment_dirs(grown, oneshot) == []

    def test_same_key_add_and_tombstone_rejected(self, tmp_path):
        seg = SegmentStore(str(tmp_path / "lsm"))
        victim = Triple(A, KNOWS, B)
        with pytest.raises(ValueError, match="both added and tombstoned"):
            seg.flush([victim], tombstones=[spo_texts(victim)])
        seg.close()

    def test_snapshot_survives_tombstone_dropping_compaction(
        self, tmp_path, store
    ):
        seg = SegmentStore(str(tmp_path / "lsm"), compact_threshold=100)
        triples = sorted(store, key=repr)
        seg.flush(triples)
        pinned = seg.snapshot()
        seg.flush([], tombstones=[spo_texts(triples[0])])
        seg.compact()  # rewrites seg-000000 under the pinned mmaps
        # The pinned snapshot still reads its own generation's bytes:
        # full pre-retraction content, unchanged epoch.
        assert len(pinned) == len(triples)
        assert sorted(map(repr, pinned)) == sorted(map(repr, triples))
        assert pinned.epoch == store.epoch
        with open_snapshot(seg.directory) as fresh:
            assert len(fresh) == len(triples) - 1
        pinned.close()
        seg.close()


class TestWriterRaces:
    def test_concurrent_flushes_lose_no_triple(self, tmp_path):
        # Threshold 1: every flush that leaves two or more segments
        # compacts, so the last write is always followed by a fold.
        seg = SegmentStore(str(tmp_path / "lsm"), compact_threshold=1)
        errors = []

        def writer(index):
            try:
                for j in range(6):
                    seg.flush([Triple(A, KNOWS, Entity(f"w:t{index}-{j}"))])
            except Exception as error:  # pragma: no cover
                errors.append(error)

        writers = [
            threading.Thread(target=writer, args=(i,)) for i in range(4)
        ]
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join()
        seg.close()
        assert not errors
        assert _segment_names(seg.directory) == {"seg-000000"}
        with open_snapshot(seg.directory) as snap:
            assert len(snap) == 24

    def test_close_is_final(self, tmp_path, store):
        seg = SegmentStore(str(tmp_path / "lsm"))
        triples = sorted(store, key=repr)
        seg.flush(triples[:3])
        seg.flush(triples[3:])
        assert seg._hashes
        seg.close()
        assert seg._hashes == {}
        before = _contents(seg.directory)
        with pytest.raises(ValueError, match="closed"):
            seg.flush([Triple(A, KNOWS, D)])
        with pytest.raises(ValueError, match="closed"):
            seg.compact()
        assert _contents(seg.directory) == before
        # Idempotent close; content unchanged.
        seg.close()
        with open_snapshot(seg.directory) as snap:
            assert snap.epoch == store.epoch

    def test_flush_racing_close_skips_its_compaction(self, tmp_path, store):
        seg = SegmentStore(str(tmp_path / "lsm"), compact_threshold=1)
        triples = sorted(store, key=repr)
        seg.flush(triples[:2])

        class CloseAfterFirstRelease:
            """The store's lock, with a close() landing the moment the
            flush's write releases it and before its compaction."""

            def __init__(self):
                self.lock, self.armed = threading.Lock(), True

            def __enter__(self):
                self.lock.acquire()

            def __exit__(self, *exc_info):
                self.lock.release()
                if self.armed:
                    self.armed = False
                    seg.close()

        seg._lock = CloseAfterFirstRelease()
        assert seg.flush(triples[2:]) == "seg-000001"
        assert _segment_names(seg.directory) == {"seg-000000", "seg-000001"}
        with open_snapshot(seg.directory) as snap:
            assert snap.epoch == store.epoch


def _identity_checks(seg):
    """Assert the manifest's carried (epoch, triples) equal both a full
    recompute over the stack and a fresh in-memory load of a snapshot."""
    manifest = _read_manifest(seg.directory)
    logical = seg._logical_parts(manifest)
    assert manifest["epoch"] == _logical_epoch(logical)
    assert manifest["triples"] == len(logical)
    with open_snapshot(seg.directory) as snap:
        loaded = TripleStore(snap)
    assert loaded.epoch == manifest["epoch"]
    assert len(loaded) == manifest["triples"]
    return logical


def _bloom_false_positives(directory, keys):
    """How many (key, generation) probes in ``keys`` a bloom passes for a
    segment that does not hold the key."""
    hits = 0
    if not os.path.exists(os.path.join(directory, "MANIFEST.json")):
        return hits
    with open_snapshot(directory) as snap:
        for segment in snap.segments:
            handle = segment.order_file("spo")
            held = {
                spo_key_bytes(_parts_from_record(r, "spo"))
                for r in handle.records(0, handle.count)
            }
            bloom = segment.bloom("spo")
            hits += sum(
                1 for key in keys if key not in held and bloom.might_contain(key)
            )
    return hits


def _random_triple(index, confidence):
    # Unrounded confidences: the record stores ``conf=`` at .6g, so only
    # the round-tripped record hashes to the on-disk epoch.
    subject = Entity(f"w:s{index % 17}")
    predicate = KNOWS if index % 2 else LIKES
    return Triple(subject, predicate, Entity(f"w:o{index}"), confidence=confidence)


def _random_flushes(rng, steps, keys=240):
    """Random flush batches over ``keys`` SPO keys.  Each step yields
    ``(adds, kills, kinds, live)``: the triples and tombstone keys to
    flush, the kinds of change drawn, and the live content (index to
    triple) the stack must hold once the batch is flushed."""
    live: dict[int, Triple] = {}
    retracted: set[int] = set()
    for _ in range(steps):
        adds, kills, kinds = [], [], set()
        for index in rng.sample(range(keys), rng.randint(1, 30)):
            if index in live:
                kind = rng.choice(("conf", "same", "kill"))
            elif index in retracted:
                kind = rng.choice(("readd", "kill-again"))
            else:
                kind = rng.choice(("add", "add", "kill-absent"))
            kinds.add(kind)
            if kind == "same":
                adds.append(live[index])
            elif kind in ("conf", "add", "readd"):
                live[index] = _random_triple(index, rng.random())
                retracted.discard(index)
                adds.append(live[index])
            else:
                triple = live.pop(index, None) or _random_triple(index, 1.0)
                retracted.add(index)
                kills.append(spo_texts(triple))
        yield adds, kills, kinds, live


class TestCarriedIdentity:
    """``flush`` carries the manifest's epoch and count forward by point
    lookups instead of re-reading the stack; ``compact`` verifies them."""

    @pytest.mark.parametrize("seed", [3, 11])
    def test_random_flush_sequences_match_full_recompute(self, tmp_path, seed):
        rng = random.Random(seed)
        seg = SegmentStore(str(tmp_path / "lsm"), compact_threshold=100)
        false_positives = 0
        kinds_seen = set()
        for adds, kills, kinds, live in _random_flushes(rng, 70):
            kinds_seen |= kinds
            written = [spo_key_bytes(record_fields(t)) for t in adds] + [
                spo_key_bytes(key + ("",)) for key in kills
            ]
            false_positives += _bloom_false_positives(seg.directory, written)
            seg.flush(adds, tombstones=kills)
            logical = _identity_checks(seg)
            assert len(logical) == len(live)
            if rng.random() < 0.15:
                seg.compact()
                _identity_checks(seg)
        seg.close()
        assert kinds_seen == {
            "add", "conf", "same", "kill", "kill-absent", "kill-again", "readd"
        }
        # The lookups really walked past bloom false positives.
        assert false_positives > 0

    def test_flush_never_reads_whole_segments(self, tmp_path, monkeypatch, store):
        seg = SegmentStore(str(tmp_path / "lsm"), compact_threshold=100)
        triples = sorted(store, key=repr)
        for triple in triples[:3]:
            seg.flush([triple])
        assert len(_segment_names(seg.directory)) == 3

        def refuse(self, entry):
            raise AssertionError(f"flush read all of {entry['name']}")

        monkeypatch.setattr(SegmentStore, "_segment_parts", refuse)
        seg.flush(
            [Triple(A, KNOWS, B, confidence=0.123456789)] + triples[3:],
            tombstones=[spo_texts(triples[1])],
        )
        monkeypatch.undo()
        assert len(_segment_names(seg.directory)) == 4
        _identity_checks(seg)
        seg.close()

    def test_compact_rejects_a_wrong_carried_epoch_before_writing(
        self, tmp_path, store
    ):
        seg = SegmentStore(str(tmp_path / "lsm"), compact_threshold=100)
        triples = sorted(store, key=repr)
        seg.flush(triples[:3])
        seg.flush(triples[3:], tombstones=[spo_texts(triples[0])])
        path = os.path.join(seg.directory, "MANIFEST.json")
        manifest = json.load(open(path))
        manifest["epoch"] = f"{int(manifest['epoch'], 16) ^ 1:032x}"
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        before = _contents(seg.directory)
        with pytest.raises(ValueError, match="epoch"):
            seg.compact()
        assert _contents(seg.directory) == before
        seg.close()

    @pytest.mark.parametrize("memo", ["warm", "cold"])
    @pytest.mark.parametrize("field", ["epoch", "triples"])
    def test_compact_rejects_a_wrong_carried_identity_from_either_memo(
        self, tmp_path, store, memo, field
    ):
        seg = SegmentStore(str(tmp_path / "lsm"), compact_threshold=100)
        triples = sorted(store, key=repr)
        seg.flush(triples[:3])
        seg.flush(
            [Triple(A, KNOWS, B, confidence=0.123456789)] + triples[3:],
            tombstones=[spo_texts(triples[1])],
        )
        live = {
            _record_bytes(fields, "spo")
            for fields in seg.logical_parts().values()
        }
        if memo == "cold":
            seg.close()
            seg = SegmentStore(seg.directory, compact_threshold=100)
            assert seg._hashes == {}
        else:
            # Every live record's hash is memoized: the check parses none.
            assert live <= set(seg._hashes)
        path = os.path.join(seg.directory, "MANIFEST.json")
        manifest = json.load(open(path))
        if field == "epoch":
            manifest["epoch"] = f"{int(manifest['epoch'], 16) ^ 1:032x}"
        else:
            manifest["triples"] += 1
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        before = _contents(seg.directory)
        with pytest.raises(ValueError, match="manifest carries epoch"):
            seg.compact()
        assert _contents(seg.directory) == before
        seg.close()


def _compact_without_reading_the_base(seg, monkeypatch):
    """``seg.compact()`` with ``_segment_parts`` refusing the base
    segment: only the newer generations may be decoded."""
    decode = SegmentStore._segment_parts

    def refuse_base(self, entry):
        if entry["name"] == "seg-000000":
            raise AssertionError("compaction decoded the base segment")
        return decode(self, entry)

    with monkeypatch.context() as patch:
        patch.setattr(SegmentStore, "_segment_parts", refuse_base)
        return seg.compact()


class TestMergeCompaction:
    """``compact`` merges the newer generations into the base segment's
    raw records and re-sums the epoch from memoized record hashes; the
    result must equal a fresh ``write_segments`` byte for byte, whether
    the memo is warm or the store was just reopened."""

    def _compact_and_check(self, seg, tmp_path, monkeypatch):
        cold = str(tmp_path / "cold")
        shutil.rmtree(cold, ignore_errors=True)
        shutil.copytree(seg.directory, cold)
        _compact_without_reading_the_base(seg, monkeypatch)

        logical = seg.logical_parts()
        oneshot = str(tmp_path / "oneshot")
        write_segments([_triple_from_parts(f) for f in logical.values()], oneshot)
        assert diff_segment_dirs(seg.directory, oneshot) == []
        # The memo holds exactly the live records, each with its hash.
        assert seg._hashes == {
            _record_bytes(fields, "spo"): triple_content_hash(
                _triple_from_parts(fields)
            )
            for fields in logical.values()
        }

        reopened = SegmentStore(cold, compact_threshold=100)
        _compact_without_reading_the_base(reopened, monkeypatch)
        reopened.close()
        assert diff_segment_dirs(seg.directory, cold) == []
        return logical

    @pytest.mark.parametrize("seed", [5, 17])
    def test_random_stacks_merge_to_write_segments(
        self, tmp_path, monkeypatch, seed
    ):
        rng = random.Random(seed)
        seg = SegmentStore(str(tmp_path / "lsm"), compact_threshold=100)
        compactions = 0
        for adds, kills, _, live in _random_flushes(rng, 40):
            seg.flush(adds, tombstones=kills)
            if rng.random() < 0.25:
                logical = self._compact_and_check(seg, tmp_path, monkeypatch)
                assert len(logical) == len(live)
                compactions += 1
        self._compact_and_check(seg, tmp_path, monkeypatch)
        seg.close()
        assert compactions >= 5

    def test_base_that_carries_tombstones(self, tmp_path, monkeypatch, store):
        seg = SegmentStore(str(tmp_path / "lsm"), compact_threshold=100)
        triples = sorted(store, key=repr)
        absent = spo_texts(Triple(C, KNOWS, D))
        seg.flush(triples, tombstones=[absent])
        assert _read_manifest(seg.directory)["segments"][0]["tombstones"] == 1
        seg.flush([Triple(D, KNOWS, A)], tombstones=[spo_texts(triples[2])])
        self._compact_and_check(seg, tmp_path, monkeypatch)
        seg.flush([], tombstones=[absent])
        seg.flush([], tombstones=[spo_texts(triples[0])])
        self._compact_and_check(seg, tmp_path, monkeypatch)
        seg.close()

    def test_base_tombstone_alone(self, tmp_path, monkeypatch, store):
        seg = SegmentStore(str(tmp_path / "lsm"), compact_threshold=100)
        seg.flush(
            sorted(store, key=repr), tombstones=[spo_texts(Triple(C, KNOWS, D))]
        )
        logical = self._compact_and_check(seg, tmp_path, monkeypatch)
        assert len(logical) == len(store)
        assert "tombstones" not in _read_manifest(seg.directory)["segments"][0]
        seg.close()

    def test_confidence_only_change(self, tmp_path, monkeypatch, store):
        seg = SegmentStore(str(tmp_path / "lsm"), compact_threshold=100)
        seg.flush(sorted(store, key=repr))
        seg.flush([Triple(A, KNOWS, B, confidence=0.3141592653)])
        logical = self._compact_and_check(seg, tmp_path, monkeypatch)
        assert logical[spo_key_bytes(record_fields(Triple(A, KNOWS, B)))][3] == (
            "conf=0.314159"
        )
        seg.close()

    def test_tombstoned_then_re_added(self, tmp_path, monkeypatch, store):
        seg = SegmentStore(str(tmp_path / "lsm"), compact_threshold=100)
        triples = sorted(store, key=repr)
        victim = triples[1]
        seg.flush(triples)
        seg.flush([], tombstones=[spo_texts(victim)])
        seg.flush([victim])
        logical = self._compact_and_check(seg, tmp_path, monkeypatch)
        assert len(logical) == len(triples)
        seg.flush([], tombstones=[spo_texts(victim)])
        self._compact_and_check(seg, tmp_path, monkeypatch)
        seg.flush([Triple(*victim.spo(), confidence=0.5)])
        self._compact_and_check(seg, tmp_path, monkeypatch)
        seg.close()

    def test_stack_of_tombstones_only(self, tmp_path, monkeypatch, store):
        seg = SegmentStore(str(tmp_path / "lsm"), compact_threshold=100)
        triples = sorted(store, key=repr)
        seg.flush(triples)
        for triple in triples[:3]:
            seg.flush([], tombstones=[spo_texts(triple)])
        logical = self._compact_and_check(seg, tmp_path, monkeypatch)
        assert len(logical) == len(triples) - 3
        seg.close()

    def test_stack_whose_result_is_empty(self, tmp_path, monkeypatch, store):
        seg = SegmentStore(str(tmp_path / "lsm"), compact_threshold=100)
        triples = sorted(store, key=repr)
        seg.flush(triples[:2])
        seg.flush(triples[2:], tombstones=[spo_texts(triples[0])])
        seg.flush([], tombstones=[spo_texts(t) for t in triples[1:]])
        logical = self._compact_and_check(seg, tmp_path, monkeypatch)
        assert logical == {} and seg._hashes == {}
        assert _read_manifest(seg.directory)["triples"] == 0
        seg.close()
