"""A hash-indexed in-memory triple store.

:class:`TripleStore` deduplicates on the (s, p, o) key with
highest-confidence witness election, maintains the content ``epoch``
identity, and counts its reads and writes for observability.  Besides
one primary ``spo -> Triple`` map it keeps three single-position indexes
(S, P, O) and two composite indexes (SP, PO), so every triple-pattern
shape resolves to a dictionary lookup rather than a scan.  The on-disk
counterpart, :class:`~repro.kb.segments.SegmentSnapshot`, shares the
read contract (:class:`ReadableStore`) but is immutable.

A store pays for its derived state only when it is read.  An insert
writes the primary map; the five bucket indexes are built by the first
pattern read and the content ``epoch`` by its first read, and both are
maintained incrementally from then on.  A store that is filled and then
only iterated — a build's KB on its way to ``--out`` or a segment writer,
an ingest delta's rebuilt KB on its way to the diff — never hashes a
triple or fills a bucket.

Index buckets are insertion-ordered dicts used as ordered sets (value is
always None), NOT builtin sets: ``match`` results must iterate in an order
that does not depend on the per-process ``PYTHONHASHSEED``, because callers
feed that order into seeded RNGs (corpus synthesis) and into the KB itself.
The index dicts are deliberately *plain* dicts maintained with explicit
``setdefault`` — never ``defaultdict`` — so a stray keyed read can only
raise, not auto-vivify an empty bucket that would skew ``count()`` and
bucket-size telemetry.

This is the substrate everything else in the toolkit writes into: the
synthetic-world generator, every extractor, the consistency reasoner, and the
NED and linkage components all read and write :class:`TripleStore` instances.
"""

from __future__ import annotations

import hashlib
from typing import (
    Callable,
    Collection,
    Iterable,
    Iterator,
    Optional,
    Protocol,
    runtime_checkable,
)

from .terms import Entity, Literal, Resource, Term
from .triple import Triple
from . import ns
from ..obs import core as _obs

#: The (subject, predicate, object) key every index speaks.
SpoKey = tuple[Resource, Resource, Term]

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


@runtime_checkable
class ReadableStore(Protocol):
    """The read contract shared by :class:`TripleStore` and
    :class:`~repro.kb.segments.SegmentSnapshot`.

    ``epoch`` is a content digest (hex) that two stores share only if
    they hold identical triples.  The query layer (:mod:`repro.kb.query`)
    and the serving layer (:mod:`repro.serving`) are written against this
    protocol; only the in-memory store has write methods, and a reader of
    this protocol never writes.
    """

    @property
    def epoch(self) -> str: ...

    def match(
        self,
        subject: Optional[Resource] = None,
        predicate: Optional[Resource] = None,
        obj: Optional[Term] = None,
    ) -> Iterator[Triple]: ...

    def count(
        self,
        subject: Optional[Resource] = None,
        predicate: Optional[Resource] = None,
        obj: Optional[Term] = None,
    ) -> int: ...

    def get(
        self, subject: Resource, predicate: Resource, obj: Term
    ) -> Optional[Triple]: ...

    def contains_fact(
        self, subject: Resource, predicate: Resource, obj: Term
    ) -> bool: ...

    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator[Triple]: ...


class TripleStore:
    """An in-memory collection of :class:`~repro.kb.triple.Triple` objects.

    Inserts write only the primary ``spo -> Triple`` map until the first
    pattern read (:meth:`match`, :meth:`count`, :meth:`predicates`,
    :meth:`index_stats`); that read builds all five bucket indexes by
    walking the primary map in insertion order.  The bucket orders are the
    ones eager inserts would have produced: a witness replacement keeps a
    key's position and a delete-then-add moves it to the end, in the
    primary map and in every bucket alike.  From then on buckets are
    created on insert (``setdefault``) and deleted when their last key is
    removed, so the index never holds an empty bucket — an invariant
    :meth:`index_stats` exposes and the store tests pin.
    """

    def __init__(self, triples: Iterable[Triple] = ()) -> None:
        # Identity epoch: an incrementally maintained multiset hash of the
        # store's *content* — the sum (mod 2^128) of every live triple's
        # content digest.  Adds add the digest, removes subtract it, and a
        # witness replacement swaps old for new, so two stores share an
        # epoch iff they hold identical triples, regardless of how they got
        # there.  Equal epoch therefore implies equal observable content,
        # across copies, filtered views, freshly loaded stores, and segment
        # snapshots.  Deterministic across processes (no randomness, no
        # builtin hash).  Lazy: None until ``epoch`` is first read, which
        # sums the live triples once; the sum is order-free, so the value
        # is the one eager maintenance would have reached.
        self._epoch_acc: Optional[int] = None
        self._by_spo: dict[SpoKey, Triple] = {}
        self._by_s: dict[Resource, dict[SpoKey, None]] = {}
        self._by_p: dict[Resource, dict[SpoKey, None]] = {}
        self._by_o: dict[Term, dict[SpoKey, None]] = {}
        self._by_sp: dict[tuple[Resource, Resource], dict[SpoKey, None]] = {}
        self._by_po: dict[tuple[Resource, Term], dict[SpoKey, None]] = {}
        # True once the five bucket indexes exist (see the class doc).
        self._indexed = False
        self.add_all(triples)

    def _ensure_indexes(self) -> None:
        """Build the five bucket indexes from the primary map, once.

        The new indexes are filled aside and published before the flag,
        so a concurrent first reader of a store nobody writes (a served
        KB) sees either no indexes, and builds its own identical copy, or
        complete ones: reading needs no lock.
        """
        if self._indexed:
            return
        by_s: dict = {}
        by_p: dict = {}
        by_o: dict = {}
        by_sp: dict = {}
        by_po: dict = {}
        for key in self._by_spo:
            s, p, o = key
            by_s.setdefault(s, {})[key] = None
            by_p.setdefault(p, {})[key] = None
            by_o.setdefault(o, {})[key] = None
            by_sp.setdefault((s, p), {})[key] = None
            by_po.setdefault((p, o), {})[key] = None
        self._by_s, self._by_p, self._by_o = by_s, by_p, by_o
        self._by_sp, self._by_po = by_sp, by_po
        self._indexed = True

    # ------------------------------------------------------------------ write

    def _apply(self, triple: Triple) -> bool:
        """Apply one triple; True if its key was new."""
        key = triple.spo()
        existing = self._by_spo.get(key)
        if existing is not None:
            if _obs.ENABLED:
                _obs.count("kb.store.add.duplicate")
            if triple.confidence > existing.confidence:
                # The key keeps its position in the map and every bucket.
                self._by_spo[key] = triple
                if self._epoch_acc is not None:
                    self._epoch_acc = (
                        self._epoch_acc
                        - triple_content_hash(existing)
                        + triple_content_hash(triple)
                    ) & _EPOCH_MASK
            return False
        self._by_spo[key] = triple
        if self._indexed:
            s, p, o = key
            self._by_s.setdefault(s, {})[key] = None
            self._by_p.setdefault(p, {})[key] = None
            self._by_o.setdefault(o, {})[key] = None
            self._by_sp.setdefault((s, p), {})[key] = None
            self._by_po.setdefault((p, o), {})[key] = None
        if self._epoch_acc is not None:
            self._epoch_acc = (
                self._epoch_acc + triple_content_hash(triple)
            ) & _EPOCH_MASK
        return True

    def add(self, triple: Triple) -> bool:
        """Add a triple; return True if it was new.

        A duplicate (same s, p, o) replaces the stored witness only when the
        new confidence is strictly higher.
        """
        if _obs.ENABLED:
            _obs.count("kb.store.add")
        return self._apply(triple)

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

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add many triples; return the number of *new* triples.

        Each duplicate elects its witness as :meth:`add` does.
        """
        new = 0
        for triple in triples:
            if _obs.ENABLED:
                _obs.count("kb.store.add")
            new += self._apply(triple)
        return new

    def remove(self, triple: Triple) -> bool:
        """Remove the fact with this triple's (s, p, o) key, if present.

        Buckets that become empty are removed outright, preserving the
        no-empty-buckets invariant.
        """
        if _obs.ENABLED:
            _obs.count("kb.store.remove")
        key = triple.spo()
        existing = self._by_spo.pop(key, None)
        if existing is None:
            return False
        if self._indexed:
            s, p, o = key
            for index, index_key in (
                (self._by_s, s),
                (self._by_p, p),
                (self._by_o, o),
                (self._by_sp, (s, p)),
                (self._by_po, (p, o)),
            ):
                bucket = index[index_key]
                del bucket[key]
                if not bucket:
                    del index[index_key]
        if self._epoch_acc is not None:
            self._epoch_acc = (
                self._epoch_acc - triple_content_hash(existing)
            ) & _EPOCH_MASK
        return True

    def merge(self, other: "TripleStore") -> int:
        """Add all of ``other``'s triples into this store, in canonical
        (s, p, o) key order (see :func:`canonical_triples`); return the
        number of new triples.

        Insertion order decides index-bucket iteration order, which feeds
        KB output — so merging must not depend on the other store's
        insertion *history*: a delta store assembled in any order merges
        identically.
        """
        return self.add_all(canonical_triples(other))

    # ------------------------------------------------------------------- read

    @property
    def epoch(self) -> str:
        """The identity epoch (32 hex digits): a multiset hash of content.

        Two stores share an epoch iff they hold identical triples —
        insertion order and mutation history don't matter, only what is
        in the store now.  A ``copy()``, ``filtered()`` view, or freshly
        loaded store that merely holds as many triples as another store
        carries a different epoch unless the content is genuinely
        identical, while an identical-content store (however it was
        built, including a segment snapshot of the same KB) shares it.

        The first read sums every live triple's content hash
        (:meth:`_sum_epoch`); later mutations keep the sum current.  A
        serving engine reads it once, when it is built over the store.
        """
        if self._epoch_acc is None:
            self._epoch_acc = self._sum_epoch()
        return epoch_hex(self._epoch_acc)

    def _sum_epoch(self) -> int:
        """The multiset-hash accumulator over the live triples."""
        accumulator = EMPTY_EPOCH
        for triple in self._by_spo.values():
            accumulator += triple_content_hash(triple)
        return accumulator & _EPOCH_MASK

    def __len__(self) -> int:
        return len(self._by_spo)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._by_spo.values())

    def __contains__(self, triple: Triple) -> bool:
        return triple.spo() in self._by_spo

    def contains_fact(self, subject: Resource, predicate: Resource, obj: Term) -> bool:
        """True if a triple with this exact (s, p, o) exists."""
        return (subject, predicate, obj) in self._by_spo

    def get(self, subject: Resource, predicate: Resource, obj: Term) -> Optional[Triple]:
        """The stored witness for this (s, p, o), or None."""
        return self._by_spo.get((subject, predicate, obj))

    def _plan(self, s, p, o) -> tuple[str, Optional[Collection[SpoKey]]]:
        """(index shape, candidate keys) for a pattern; keys None = scan.

        The shape names the index that serves the query: ``spo`` (exact),
        ``sp``/``po`` (composite), ``s``/``p``/``o`` (single position),
        ``s+o`` (no composite index; the smaller of the S and O buckets is
        filtered by the other position), or ``scan`` (no binding).
        """
        self._ensure_indexes()
        if s is not None and p is not None and o is not None:
            return "spo", ([(s, p, o)] if (s, p, o) in self._by_spo else [])
        if s is not None and p is not None:
            return "sp", self._by_sp.get((s, p), ())
        if p is not None and o is not None:
            return "po", self._by_po.get((p, o), ())
        if s is not None and o is not None:
            s_keys = self._by_s.get(s, ())
            o_keys = self._by_o.get(o, ())
            small, position = (s_keys, 2) if len(s_keys) <= len(o_keys) else (o_keys, 0)
            target = o if position == 2 else s
            return "s+o", [k for k in small if k[position] == target]
        if s is not None:
            return "s", self._by_s.get(s, ())
        if p is not None:
            return "p", self._by_p.get(p, ())
        if o is not None:
            return "o", self._by_o.get(o, ())
        return "scan", None

    def match(
        self,
        subject: Optional[Resource] = None,
        predicate: Optional[Resource] = None,
        obj: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Iterate over triples matching a pattern; None is a wildcard."""
        shape, keys = self._plan(subject, predicate, obj)
        if _obs.ENABLED:
            scanned = len(self._by_spo) if keys is None else len(keys)
            _obs.count(f"kb.store.match.shape.{shape}")
            _obs.observe("kb.store.match.scanned", scanned)
        if keys is None:
            yield from self._by_spo.values()
            return
        for key in keys:
            triple = self._by_spo.get(key)
            if triple is not None:
                yield triple

    def count(
        self,
        subject: Optional[Resource] = None,
        predicate: Optional[Resource] = None,
        obj: Optional[Term] = None,
    ) -> int:
        """Number of triples matching the pattern (cheap for indexed shapes)."""
        __, keys = self._plan(subject, predicate, obj)
        if keys is None:
            return len(self._by_spo)
        return len(keys)

    def index_stats(self) -> dict[str, dict[str, int]]:
        """Bucket accounting per index: total buckets, empty buckets, and
        the largest bucket — the numbers bucket-size telemetry reports.

        ``empty`` must always be 0: buckets are created only for a live key
        (on insert, or by the one-time build from the primary map) and
        removed with their last key, and reads never create them.  Like
        every pattern read, the first call builds the indexes.
        """
        self._ensure_indexes()
        stats: dict[str, dict[str, int]] = {}
        for name, index in (
            ("s", self._by_s),
            ("p", self._by_p),
            ("o", self._by_o),
            ("sp", self._by_sp),
            ("po", self._by_po),
        ):
            stats[name] = {
                "buckets": len(index),
                "empty": sum(1 for bucket in index.values() if not bucket),
                "largest": max((len(b) for b in index.values()), default=0),
            }
        return stats

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
        self._ensure_indexes()
        return set(self._by_p)

    def entities(self) -> set[Entity]:
        """Every Entity occurring in subject or object position."""
        found: set[Entity] = set()
        for s, __, o in self._by_spo:
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
        self._ensure_indexes()
        return f"TripleStore(len={len(self)}, predicates={len(self._by_p)})"
