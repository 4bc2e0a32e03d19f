"""Tests for repro.kb.store (the indexed triple store)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kb import Entity, Relation, Triple, TripleStore, ns, string_literal

A, B, C = Entity("w:a"), Entity("w:b"), Entity("w:c")
KNOWS, LIKES = Relation("w:knows"), Relation("w:likes")


@pytest.fixture
def store():
    return TripleStore(
        [
            Triple(A, KNOWS, B),
            Triple(A, KNOWS, C),
            Triple(B, KNOWS, C),
            Triple(A, LIKES, B),
        ]
    )


class TestAddRemove:
    def test_len(self, store):
        assert len(store) == 4

    def test_add_duplicate_returns_false(self, store):
        assert not store.add(Triple(A, KNOWS, B))
        assert len(store) == 4

    def test_duplicate_keeps_higher_confidence(self):
        store = TripleStore()
        store.add(Triple(A, KNOWS, B, confidence=0.4))
        store.add(Triple(A, KNOWS, B, confidence=0.9))
        assert store.get(A, KNOWS, B).confidence == 0.9
        store.add(Triple(A, KNOWS, B, confidence=0.2))
        assert store.get(A, KNOWS, B).confidence == 0.9

    def test_remove(self, store):
        assert store.remove(Triple(A, KNOWS, B))
        assert len(store) == 3
        assert not store.contains_fact(A, KNOWS, B)
        assert not store.remove(Triple(A, KNOWS, B))

    def test_remove_clears_indexes(self, store):
        store.remove(Triple(A, LIKES, B))
        assert list(store.match(predicate=LIKES)) == []

    def test_merge(self, store):
        other = TripleStore([Triple(C, LIKES, A), Triple(A, KNOWS, B)])
        added = store.merge(other)
        assert added == 1
        assert len(store) == 5

    def test_merge_is_insertion_order_independent(self):
        # Regression: merge() used to walk the source store in insertion
        # order, so two stores holding the same triples could merge into
        # different iteration orders downstream.
        triples = [
            Triple(A, KNOWS, B, confidence=0.4),
            Triple(C, LIKES, A),
            Triple(B, KNOWS, C, source="wiki:b"),
            Triple(A, LIKES, C),
            Triple(B, LIKES, A),
        ]
        forward, backward = TripleStore(), TripleStore()
        for t in triples:
            forward.add(t)
        for t in reversed(triples):
            backward.add(t)

        merged_f, merged_b = TripleStore(), TripleStore()
        merged_f.merge(forward)
        merged_b.merge(backward)
        assert [repr(t) for t in merged_f] == [repr(t) for t in merged_b]


class TestMatch:
    def test_full_scan(self, store):
        assert len(list(store.match())) == 4

    def test_by_subject(self, store):
        assert len(list(store.match(subject=A))) == 3

    def test_by_predicate(self, store):
        assert len(list(store.match(predicate=KNOWS))) == 3

    def test_by_object(self, store):
        assert len(list(store.match(obj=C))) == 2

    def test_by_subject_predicate(self, store):
        assert {t.object for t in store.match(A, KNOWS)} == {B, C}

    def test_by_predicate_object(self, store):
        assert {t.subject for t in store.match(predicate=KNOWS, obj=C)} == {A, B}

    def test_by_subject_object(self, store):
        matched = list(store.match(subject=A, obj=B))
        assert {t.predicate for t in matched} == {KNOWS, LIKES}

    def test_exact(self, store):
        assert len(list(store.match(A, KNOWS, B))) == 1
        assert list(store.match(A, LIKES, C)) == []

    def test_count_matches_match(self, store):
        for pattern in [
            {}, {"subject": A}, {"predicate": KNOWS}, {"obj": C},
            {"subject": A, "predicate": KNOWS},
            {"predicate": KNOWS, "obj": C},
        ]:
            assert store.count(**pattern) == len(list(store.match(**pattern)))


class TestConveniences:
    def test_objects_subjects(self, store):
        assert set(store.objects(A, KNOWS)) == {B, C}
        assert set(store.subjects(KNOWS, C)) == {A, B}

    def test_one_object(self, store):
        assert store.one_object(B, KNOWS) == C
        assert store.one_object(C, KNOWS) is None

    def test_entities(self, store):
        assert store.entities() == {A, B, C}

    def test_predicates(self, store):
        assert store.predicates() == {KNOWS, LIKES}

    def test_labels_of(self):
        store = TripleStore(
            [
                Triple(A, ns.LABEL, string_literal("Anna", "en")),
                Triple(A, ns.LABEL, string_literal("Anne", "fr")),
            ]
        )
        assert set(store.labels_of(A)) == {"Anna", "Anne"}
        assert store.labels_of(A, lang="fr") == ["Anne"]

    def test_with_min_confidence(self):
        store = TripleStore(
            [Triple(A, KNOWS, B, confidence=0.3), Triple(A, KNOWS, C, confidence=0.8)]
        )
        kept = store.with_min_confidence(0.5)
        assert len(kept) == 1
        assert kept.contains_fact(A, KNOWS, C)

    def test_copy_is_independent(self, store):
        clone = store.copy()
        clone.add(Triple(C, LIKES, B))
        assert len(store) == 4
        assert len(clone) == 5


_entities = st.integers(0, 8).map(lambda i: Entity(f"e:{i}"))
_relations = st.integers(0, 2).map(lambda i: Relation(f"r:{i}"))
_triples = st.builds(Triple, _entities, _relations, _entities)


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(_triples, max_size=40))
    def test_every_added_triple_matchable(self, triples):
        store = TripleStore(triples)
        for triple in triples:
            assert store.contains_fact(*triple.spo())
            assert triple.spo() in {t.spo() for t in store.match(subject=triple.subject)}

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_triples, max_size=40))
    def test_len_equals_distinct_spo(self, triples):
        store = TripleStore(triples)
        assert len(store) == len({t.spo() for t in triples})

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_triples, min_size=1, max_size=30), st.data())
    def test_remove_then_absent_everywhere(self, triples, data):
        store = TripleStore(triples)
        victim = data.draw(st.sampled_from(triples))
        store.remove(victim)
        assert not store.contains_fact(*victim.spo())
        assert victim.spo() not in {t.spo() for t in store.match(obj=victim.object)}
        assert store.count(victim.subject, victim.predicate, victim.object) == 0


class TestEpoch:
    """The content epoch: an order-independent multiset digest of the
    live triples, used by the serving cache as the store identity."""

    def test_empty_store_epoch_is_stable(self):
        assert TripleStore().epoch == TripleStore().epoch
        assert len(TripleStore().epoch) == 32
        assert all(c in "0123456789abcdef" for c in TripleStore().epoch)

    def test_equal_content_equal_epoch_any_order(self):
        triples = [Triple(A, KNOWS, B), Triple(B, KNOWS, C), Triple(A, LIKES, B)]
        forward = TripleStore(triples)
        backward = TripleStore(list(reversed(triples)))
        assert forward.epoch == backward.epoch

    def test_add_changes_remove_restores(self, store):
        before = store.epoch
        extra = Triple(C, LIKES, A)
        store.add(extra)
        assert store.epoch != before
        store.remove(extra)
        assert store.epoch == before

    def test_duplicate_noop_keeps_epoch(self, store):
        before = store.epoch
        store.add(Triple(A, KNOWS, B))
        assert store.epoch == before

    def test_witness_replacement_changes_epoch(self):
        store = TripleStore([Triple(A, KNOWS, B, confidence=0.4)])
        before = store.epoch
        store.add(Triple(A, KNOWS, B, confidence=0.9))
        assert store.epoch != before

    def test_same_content_different_history_share_epoch(self):
        grown = TripleStore([Triple(A, KNOWS, B)])
        grown.add(Triple(B, KNOWS, C))
        grown.remove(Triple(A, KNOWS, B))
        fresh = TripleStore([Triple(B, KNOWS, C)])
        assert grown.epoch == fresh.epoch

    def test_copy_shares_epoch(self, store):
        assert store.copy().epoch == store.epoch


class TestMutationCounts:
    """add_all()/merge() return the number of new triples as a plain int;
    a duplicate only elects its witness."""

    def test_add_all_counts_only_new(self, store):
        counts = store.add_all([Triple(C, LIKES, A), Triple(A, KNOWS, B)])
        assert counts == 1 and type(counts) is int
        assert len(store) == 5

    def test_replacement_is_not_new(self):
        store = TripleStore([Triple(A, KNOWS, B, confidence=0.4)])
        counts = store.add_all(
            [Triple(A, KNOWS, B, confidence=0.9), Triple(B, KNOWS, C)]
        )
        assert counts == 1
        assert store.get(A, KNOWS, B).confidence == 0.9

    def test_merge_reports_both(self):
        store = TripleStore([Triple(A, KNOWS, B, confidence=0.5)])
        other = TripleStore(
            [Triple(C, LIKES, A), Triple(A, KNOWS, B, confidence=0.99)]
        )
        counts = store.merge(other)
        assert counts == 1 and type(counts) is int
        assert store.get(A, KNOWS, B).confidence == 0.99

    def test_pure_duplicates_are_neither(self, store):
        before = [repr(t) for t in store]
        counts = store.add_all([Triple(A, KNOWS, B), Triple(A, LIKES, B)])
        assert counts == 0
        assert [repr(t) for t in store] == before


class TestIndexHygiene:
    """Missed matches must not materialize empty index buckets (the old
    defaultdict indexes leaked one per probed key, forever)."""

    def _assert_no_empty_buckets(self, store):
        stats = store.index_stats()
        for name, info in stats.items():
            assert info["empty"] == 0, f"{name} holds empty buckets"

    def test_missed_match_leaves_no_bucket(self, store):
        ghost = Entity("w:ghost")
        assert list(store.match(subject=ghost)) == []
        assert list(store.match(predicate=Relation("w:none"))) == []
        assert list(store.match(obj=ghost)) == []
        assert list(store.match(subject=ghost, predicate=KNOWS)) == []
        assert list(store.match(predicate=KNOWS, obj=ghost)) == []
        assert store.get(ghost, KNOWS, ghost) is None
        self._assert_no_empty_buckets(store)

    def test_missed_count_leaves_no_bucket(self, store):
        ghost = Entity("w:ghost")
        assert store.count(subject=ghost) == 0
        assert store.count(predicate=Relation("w:none")) == 0
        assert store.count(subject=ghost, obj=ghost) == 0
        self._assert_no_empty_buckets(store)

    def test_remove_drops_emptied_buckets(self, store):
        store.remove(Triple(A, LIKES, B))
        self._assert_no_empty_buckets(store)
        assert store.count(predicate=LIKES) == 0
        self._assert_no_empty_buckets(store)
