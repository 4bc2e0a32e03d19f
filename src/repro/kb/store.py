"""A hash-indexed in-memory triple store.

The store is policy over a storage engine (see :mod:`repro.kb.engine`):
deduplication on the (s, p, o) key with highest-confidence witness
election, the monotonic ``version`` counter, the content-chain ``epoch``
identity, and observability.  Each store builds its own
:class:`~repro.kb.engine.InMemoryEngine` — three single-position indexes
(S, P, O) and two composite indexes (SP, PO) so every triple-pattern
shape resolves to a dictionary lookup rather than a scan.
The on-disk counterpart, :class:`~repro.kb.segments.SegmentSnapshot`,
shares the read contract (:class:`~repro.kb.engine.ReadableStore`) but is
immutable.

A store pays for its derived state only when it is read.  An insert
writes the primary ``spo -> Triple`` map and bumps ``version``; the five
bucket indexes are built by the first pattern read and the content
``epoch`` by its first read, and both are maintained incrementally from
then on.  A store that is filled and then only iterated — a build's KB
on its way to ``--out`` or a segment writer, an ingest delta's rebuilt
KB on its way to the diff — never hashes a triple or fills a bucket.

Index buckets are insertion-ordered dicts used as ordered sets (value is
always None), NOT builtin sets: ``match`` results must iterate in an order
that does not depend on the per-process ``PYTHONHASHSEED``, because callers
feed that order into seeded RNGs (corpus synthesis) and into the KB itself.

This is the substrate everything else in the toolkit writes into: the
synthetic-world generator, every extractor, the consistency reasoner, and the
NED and linkage components all read and write :class:`TripleStore` instances.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable, Iterator, Optional

from .engine import InMemoryEngine
from .terms import Entity, Literal, Resource, Term
from .triple import Triple
from . import ns
from ..obs import core as _obs

#: Domain separator folded into every per-triple content hash.
_EPOCH_DOMAIN = b"repro-kb-epoch-v1:"
_EPOCH_MASK = (1 << 128) - 1

#: The epoch of an empty store (the multiset sum over no triples).
EMPTY_EPOCH = 0


def triple_content_hash(triple: Triple) -> int:
    """A 128-bit content digest of one triple (terms, confidence, source,
    scope) — the element hash of the store's multiset epoch.

    The triple's ``repr`` is a deterministic full-fidelity encoding with
    no memory addresses, so this is stable across processes and hash
    seeds.
    """
    digest = hashlib.blake2b(
        _EPOCH_DOMAIN + repr(triple).encode("utf-8"), digest_size=16
    ).digest()
    return int.from_bytes(digest, "little")


def epoch_hex(accumulator: int) -> str:
    """Render a multiset-epoch accumulator as the 32-hex wire form."""
    return f"{accumulator & _EPOCH_MASK:032x}"


def canonical_triples(triples: Iterable[Triple]) -> list[Triple]:
    """The triples a store holds after adding ``triples``, in canonical
    (s, p, o) key order — the order :meth:`TripleStore.merge` inserts them.

    Duplicate keys elect their witness exactly as :meth:`TripleStore.add`
    does (the first triple of the highest confidence), so
    ``kb.add_all(canonical_triples(triples))`` performs the same adds, in
    the same order, as ``kb.merge(TripleStore(triples))`` — without
    building the intermediate store.  Keys sort by ``repr`` (what
    :func:`~repro.determinism.stable.stable_str_key` yields for a tuple),
    which no process hash seed can reorder.
    """
    witness: dict[tuple, Triple] = {}
    for triple in triples:
        key = triple.spo()
        existing = witness.get(key)
        if existing is None or triple.confidence > existing.confidence:
            witness[key] = triple
    return [witness[key] for key in sorted(witness, key=repr)]


class MutationCounts(int):
    """The result of a batched mutation: an ``int`` that still knows more.

    Compares and arithmetics as the number of *new* triples (the
    historical ``add_all``/``merge`` contract, so existing callers keep
    working), while exposing the mutations that int silently omitted:

    * ``new`` — triples whose (s, p, o) key was not present before;
    * ``replaced`` — duplicates that won witness election (strictly higher
      confidence) and therefore bumped ``version``;
    * ``changed`` — ``new + replaced``: every mutation that invalidated
      caches.  Callers detecting change must test this, not the int value.
    """

    new: int
    replaced: int

    def __new__(cls, new: int, replaced: int) -> "MutationCounts":
        self = super().__new__(cls, new)
        self.new = new
        self.replaced = replaced
        return self

    @property
    def changed(self) -> int:
        """Mutations that changed observable state (and bumped version)."""
        return self.new + self.replaced

    def __repr__(self) -> str:
        return f"MutationCounts(new={self.new}, replaced={self.replaced})"


class TripleStore:
    """An in-memory collection of :class:`~repro.kb.triple.Triple` objects."""

    #: Writable: the serving layer takes its engine lock only for mutable
    #: stores (snapshots set this False and are served lock-free).
    mutable = True

    def __init__(self, triples: Iterable[Triple] = ()) -> None:
        # Monotonic mutation counter: bumps on every observable change (new
        # triple, higher-confidence witness replacement, removal).  The
        # serving layer keys its result cache on (epoch, version), so a
        # match is proof a cached answer is still current.  In-memory only —
        # it never reaches the canonical serialization.
        self._version = 0
        # Identity epoch: an incrementally maintained multiset hash of the
        # store's *content* — the sum (mod 2^128) of every live triple's
        # content digest.  Adds add the digest, removes subtract it, and a
        # witness replacement swaps old for new, so two stores share an
        # epoch iff they hold identical triples, regardless of how they got
        # there.  Equal epoch therefore implies equal observable content,
        # which is what makes cached results safe across engine rebinds to
        # copies, filtered views, freshly loaded stores, and segment
        # snapshots.  Deterministic across processes (no randomness, no
        # builtin hash).  Lazy: None until ``epoch`` is first read, which
        # sums the live triples once; the sum is order-free, so the value
        # is the one eager maintenance would have reached.
        self._epoch_acc: Optional[int] = None
        self._engine = InMemoryEngine()
        self.add_all(triples)

    # ------------------------------------------------------------------ write

    def _apply(self, triple: Triple) -> int:
        """Apply one triple; 1 = new, 2 = witness replaced, 0 = no-op."""
        key = triple.spo()
        existing = self._engine.get(key)
        if existing is not None:
            if _obs.ENABLED:
                _obs.count("kb.store.add.duplicate")
            if triple.confidence > existing.confidence:
                self._engine.replace(key, triple)
                self._version += 1
                if self._epoch_acc is not None:
                    self._epoch_acc = (
                        self._epoch_acc
                        - triple_content_hash(existing)
                        + triple_content_hash(triple)
                    ) & _EPOCH_MASK
                return 2
            return 0
        self._engine.insert(key, triple)
        self._version += 1
        if self._epoch_acc is not None:
            self._epoch_acc = (
                self._epoch_acc + triple_content_hash(triple)
            ) & _EPOCH_MASK
        return 1

    def add(self, triple: Triple) -> bool:
        """Add a triple; return True if it was new.

        A duplicate (same s, p, o) replaces the stored witness only when the
        new confidence is strictly higher.
        """
        if _obs.ENABLED:
            _obs.count("kb.store.add")
        return self._apply(triple) == 1

    def add_fact(
        self,
        subject: Resource,
        predicate: Resource,
        obj: Term,
        confidence: float = 1.0,
        source: Optional[str] = None,
        scope=None,
    ) -> bool:
        """Convenience wrapper: build and add a triple in one call."""
        return self.add(Triple(subject, predicate, obj, confidence, source, scope))

    def add_all(self, triples: Iterable[Triple]) -> MutationCounts:
        """Add many triples; returns :class:`MutationCounts`.

        The returned value equals the number of *new* triples as an int
        (the historical contract) and carries ``.replaced`` — the
        higher-confidence witness replacements that also bumped
        ``version``.  Change-detecting callers must look at ``.changed``:
        a batch of replacements returns 0 as an int yet mutated the store.
        """
        new = replaced = 0
        for triple in triples:
            if _obs.ENABLED:
                _obs.count("kb.store.add")
            outcome = self._apply(triple)
            if outcome == 1:
                new += 1
            elif outcome == 2:
                replaced += 1
        return MutationCounts(new, replaced)

    def remove(self, triple: Triple) -> bool:
        """Remove the fact with this triple's (s, p, o) key, if present."""
        if _obs.ENABLED:
            _obs.count("kb.store.remove")
        key = triple.spo()
        existing = self._engine.get(key)
        if existing is None:
            return False
        self._engine.delete(key)
        self._version += 1
        if self._epoch_acc is not None:
            self._epoch_acc = (
                self._epoch_acc - triple_content_hash(existing)
            ) & _EPOCH_MASK
        return True

    def merge(self, other: "TripleStore") -> MutationCounts:
        """Add all of ``other``'s triples into this store, in canonical
        (s, p, o) key order (see :func:`canonical_triples`).

        Insertion order decides index-bucket iteration order, which feeds
        KB output — so merging must not depend on the other store's
        insertion *history*: a delta store assembled in any order merges
        identically.  Same result contract as :meth:`add_all`: int value =
        new triples, ``.replaced`` = witness replacements, ``.changed`` =
        both.
        """
        return self.add_all(canonical_triples(other))

    # ------------------------------------------------------------------- read

    @property
    def version(self) -> int:
        """The monotonic mutation counter (see ``__init__``).

        Strictly increases across adds that change state (a new triple or a
        replaced witness) and successful removes; reads never change it.
        """
        return self._version

    @property
    def epoch(self) -> str:
        """The identity epoch (32 hex digits): a multiset hash of content.

        Two stores share an epoch iff they hold identical triples —
        insertion order and mutation history don't matter, only what is
        in the store now.  A ``copy()``, ``filtered()`` view, or freshly
        loaded store that merely *counts* to the same version as another
        store carries a different epoch unless the content is genuinely
        identical — which is what keeps version-keyed result caches from
        serving stale answers across engine rebinds — while an
        identical-content store (however it was built, including a
        segment snapshot of the same KB) shares the epoch and therefore
        starts with a warm cache.

        The first read sums every live triple's content hash
        (:meth:`_sum_epoch`); later mutations keep the sum current.  That
        first read iterates the store, so against concurrent writers it
        must run under the writers' lock (the serving engine reads it
        when it binds a store).
        """
        if self._epoch_acc is None:
            self._epoch_acc = self._sum_epoch()
        return epoch_hex(self._epoch_acc)

    def _sum_epoch(self) -> int:
        """The multiset-hash accumulator over the live triples."""
        accumulator = EMPTY_EPOCH
        for triple in self._engine.triples():
            accumulator += triple_content_hash(triple)
        return accumulator & _EPOCH_MASK

    @property
    def engine(self) -> InMemoryEngine:
        """The storage engine holding the indexes."""
        return self._engine

    def __len__(self) -> int:
        return len(self._engine)

    def __iter__(self) -> Iterator[Triple]:
        return self._engine.triples()

    def __contains__(self, triple: Triple) -> bool:
        return self._engine.get(triple.spo()) is not None

    def contains_fact(self, subject: Resource, predicate: Resource, obj: Term) -> bool:
        """True if a triple with this exact (s, p, o) exists."""
        return self._engine.get((subject, predicate, obj)) is not None

    def get(self, subject: Resource, predicate: Resource, obj: Term) -> Optional[Triple]:
        """The stored witness for this (s, p, o), or None."""
        return self._engine.get((subject, predicate, obj))

    def match(
        self,
        subject: Optional[Resource] = None,
        predicate: Optional[Resource] = None,
        obj: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Iterate over triples matching a pattern; None is a wildcard."""
        shape, keys = self._engine.plan(subject, predicate, obj)
        if _obs.ENABLED:
            scanned = len(self._engine) if keys is None else len(keys)
            _obs.count("kb.store.match")
            _obs.count(f"kb.store.match.shape.{shape}")
            _obs.observe("kb.store.match.scanned", scanned)
        if keys is None:
            yield from self._engine.triples()
            return
        for key in keys:
            triple = self._engine.get(key)
            if triple is not None:
                yield triple

    def count(
        self,
        subject: Optional[Resource] = None,
        predicate: Optional[Resource] = None,
        obj: Optional[Term] = None,
    ) -> int:
        """Number of triples matching the pattern (cheap for indexed shapes)."""
        __, keys = self._engine.plan(subject, predicate, obj)
        if keys is None:
            return len(self._engine)
        return len(keys)

    def index_stats(self) -> dict[str, dict[str, int]]:
        """Per-index bucket telemetry (buckets / empty / largest).

        ``empty`` is pinned to 0 by the engine invariant: buckets are
        created only for a live key and dropped with their last key, and
        reads never auto-vivify (the indexes are plain dicts, not
        defaultdicts).  Like every pattern read, the first call builds the
        indexes.
        """
        return self._engine.index_stats()

    # ----------------------------------------------------------- conveniences

    def objects(self, subject: Resource, predicate: Resource) -> list[Term]:
        """All objects o with (subject, predicate, o) in the store."""
        return [t.object for t in self.match(subject, predicate, None)]

    def subjects(self, predicate: Resource, obj: Term) -> list[Resource]:
        """All subjects s with (s, predicate, obj) in the store."""
        return [t.subject for t in self.match(None, predicate, obj)]

    def one_object(self, subject: Resource, predicate: Resource) -> Optional[Term]:
        """An arbitrary object for (subject, predicate), or None."""
        for t in self.match(subject, predicate, None):
            return t.object
        return None

    def predicates(self) -> set[Resource]:
        """The set of predicates that occur in the store."""
        return self._engine.predicates()

    def entities(self) -> set[Entity]:
        """Every Entity occurring in subject or object position."""
        found: set[Entity] = set()
        for s, __, o in self._engine.keys():
            if isinstance(s, Entity):
                found.add(s)
            if isinstance(o, Entity):
                found.add(o)
        return found

    def labels_of(self, subject: Resource, lang: Optional[str] = None) -> list[str]:
        """All rdfs:label strings for a subject, optionally for one language."""
        labels = []
        for term in self.objects(subject, ns.LABEL):
            if isinstance(term, Literal) and (lang is None or term.lang == lang):
                labels.append(term.value)
        return labels

    def filtered(self, keep: Callable[[Triple], bool]) -> "TripleStore":
        """A new store containing only the triples that satisfy ``keep``."""
        return TripleStore(t for t in self if keep(t))

    def with_min_confidence(self, threshold: float) -> "TripleStore":
        """A new store keeping triples with confidence >= threshold."""
        return self.filtered(lambda t: t.confidence >= threshold)

    def copy(self) -> "TripleStore":
        """A shallow copy (triples are immutable, so this is safe)."""
        return TripleStore(self)

    def __repr__(self) -> str:
        return (
            f"TripleStore(len={len(self)}, "
            f"predicates={self._engine.predicate_count()})"
        )
