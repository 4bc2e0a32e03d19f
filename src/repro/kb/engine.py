"""The storage-engine interface behind :class:`~repro.kb.store.TripleStore`.

A *storage engine* is the thing that actually holds indexed triples; the
store is policy (versioning, epochs, observability, convenience API) over
an engine.  Two engines exist:

* :class:`InMemoryEngine` (here) — the original insertion-ordered dict
  indexes (S, P, O single-position plus SP and PO composites), mutable,
  process-local;
* :class:`~repro.kb.segments.SegmentSnapshot` — an immutable, mmap-backed
  view over on-disk sorted-segment files (SPO/POS/OSP permutations with
  per-segment bloom and min/max filters), opened lock-free so any number
  of processes can read one build concurrently.

Both satisfy the :class:`ReadableStore` protocol, which is the contract
the query layer (:mod:`repro.kb.query`) and the serving layer
(:mod:`repro.serving`) are written against: pattern ``match``/``count``,
point ``get``/``contains_fact``, iteration, and the two identity fields —
the monotonic ``version`` counter and the content ``epoch`` — that every
serving response is tagged with.

Index buckets in :class:`InMemoryEngine` are insertion-ordered dicts used
as ordered sets (value always None), NOT builtin sets: ``match`` results
must iterate in an order that does not depend on the per-process
``PYTHONHASHSEED``.  The index dicts are deliberately *plain* dicts
maintained with explicit ``setdefault`` — never ``defaultdict`` — so a
stray keyed read can only raise, not auto-vivify an empty bucket that
would skew ``count()`` and bucket-size telemetry.

The five bucket indexes are *lazy*: a store that is only filled and
iterated (a build's final KB, an ingest delta's rebuilt KB) never pays
for them.  The first read that needs them builds all five from the
primary map, after which inserts and deletes maintain them as before.
Concurrent first readers of a store that nobody writes — a served KB —
each build an identical copy and publish it before the flag, so reading
needs no lock.
"""

from __future__ import annotations

from typing import Iterator, Optional, Protocol, runtime_checkable

from .terms import Resource, Term
from .triple import Triple

#: The (subject, predicate, object) key every index speaks.
SpoKey = tuple[Resource, Resource, Term]


@runtime_checkable
class ReadableStore(Protocol):
    """The read contract shared by mutable stores and immutable snapshots.

    ``version`` is a monotonic per-store mutation counter; ``epoch`` is a
    content digest (hex) that two stores share only if they hold
    identical triples.  Only the mutable store has write methods; a
    reader of this protocol never writes.
    """

    @property
    def version(self) -> int: ...

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


class InMemoryEngine:
    """Insertion-ordered dict indexes: the mutable in-memory engine.

    Keeps one primary ``spo -> Triple`` map plus five bucket indexes so
    every triple-pattern shape resolves to a dictionary lookup rather
    than a scan.  Inserts write only the primary map until the first
    :meth:`plan`, :meth:`predicates`, :meth:`predicate_count` or
    :meth:`index_stats` call; that call builds all five indexes by
    walking the primary map in insertion order (see :attr:`indexed`).
    The bucket orders are the ones eager inserts would have produced:
    a ``replace`` keeps a key's position and a delete-then-insert moves
    it to the end, in the primary map and in every bucket alike.  From
    then on buckets are created on insert (``setdefault``) and deleted
    when their last key is removed, so the index never holds an empty
    bucket — an invariant :meth:`index_stats` exposes and the store
    tests pin.
    """

    __slots__ = (
        "_by_spo", "_by_s", "_by_p", "_by_o", "_by_sp", "_by_po", "_indexed"
    )

    def __init__(self) -> None:
        self._by_spo: dict[SpoKey, Triple] = {}
        self._by_s: dict[Resource, dict[SpoKey, None]] = {}
        self._by_p: dict[Resource, dict[SpoKey, None]] = {}
        self._by_o: dict[Term, dict[SpoKey, None]] = {}
        self._by_sp: dict[tuple[Resource, Resource], dict[SpoKey, None]] = {}
        self._by_po: dict[tuple[Resource, Term], dict[SpoKey, None]] = {}
        self._indexed = False

    @property
    def indexed(self) -> bool:
        """True once the five bucket indexes exist (see the class doc)."""
        return self._indexed

    def _ensure_indexes(self) -> None:
        """Build the five bucket indexes from the primary map, once.

        The new indexes are filled aside and published before the flag,
        so a concurrent reader sees either no indexes (and builds its own
        identical copy) or complete ones.
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

    # ------------------------------------------------------------ primitives

    def get(self, key: SpoKey) -> Optional[Triple]:
        """The stored witness for an (s, p, o) key, or None."""
        return self._by_spo.get(key)

    def insert(self, key: SpoKey, triple: Triple) -> None:
        """Index a triple under a key known to be absent."""
        self._by_spo[key] = triple
        if not self._indexed:
            return
        s, p, o = key
        self._by_s.setdefault(s, {})[key] = None
        self._by_p.setdefault(p, {})[key] = None
        self._by_o.setdefault(o, {})[key] = None
        self._by_sp.setdefault((s, p), {})[key] = None
        self._by_po.setdefault((p, o), {})[key] = None

    def replace(self, key: SpoKey, triple: Triple) -> None:
        """Swap the witness for a key known to be present (buckets keep)."""
        self._by_spo[key] = triple

    def delete(self, key: SpoKey) -> bool:
        """Drop a key from every index; True if it was present.

        Buckets that become empty are removed outright, preserving the
        no-empty-buckets invariant.
        """
        if key not in self._by_spo:
            return False
        del self._by_spo[key]
        if not self._indexed:
            return True
        s, p, o = key
        for index, index_key in (
            (self._by_s, s),
            (self._by_p, p),
            (self._by_o, o),
            (self._by_sp, (s, p)),
            (self._by_po, (p, o)),
        ):
            bucket = index.get(index_key)
            if bucket is not None:
                bucket.pop(key, None)
                if not bucket:
                    del index[index_key]
        return True

    # ----------------------------------------------------------------- reads

    def plan(self, s, p, o) -> tuple[str, Optional[list]]:
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

    def triples(self) -> Iterator[Triple]:
        """All witnesses in insertion order."""
        return iter(self._by_spo.values())

    def keys(self) -> Iterator[SpoKey]:
        """All (s, p, o) keys in insertion order."""
        return iter(self._by_spo)

    def predicates(self) -> set[Resource]:
        """The set of predicates with at least one triple."""
        self._ensure_indexes()
        return set(self._by_p)

    def predicate_count(self) -> int:
        self._ensure_indexes()
        return len(self._by_p)

    def __len__(self) -> int:
        return len(self._by_spo)

    # ------------------------------------------------------------- telemetry

    def index_stats(self) -> dict[str, dict[str, int]]:
        """Bucket accounting per index: total buckets, empty buckets, and
        the largest bucket — the numbers bucket-size telemetry reports.

        ``empty`` must always be 0: buckets are created only for a live key
        (on insert, or by the one-time build from the primary map) and
        removed with their last key, and reads never create them.
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
