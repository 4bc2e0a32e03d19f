"""The request-oriented query engine: the serving layer's read path.

:class:`QueryEngine` serves one :class:`~repro.kb.store.ReadableStore` —
an in-memory :class:`~repro.kb.store.TripleStore` or an on-disk
:class:`~repro.kb.segments.SegmentSnapshot` — behind three request shapes:
SPO point/pattern ``lookup``, conjunctive ``query`` (reusing
:class:`~repro.kb.query.Query`), and ``topk`` by confidence.  Every answer
is memoized in a :class:`~repro.serving.cache.ResultCache`.

One engine serves one frozen KB for its whole lifetime: it reads the
store's content digest, ``kb_epoch``, once, at construction, and tags
every response with it.
Nothing writes the store while it is served, so a cached answer never
goes stale and a cache miss computes without any engine lock: concurrent
cold reads never queue behind one another.  Serving a new KB generation
means building a new engine over it, with a fresh cache.

Payloads are plain JSON-able dicts with deterministic content: triples sort
by their canonical rdfio text key, bindings keep ``Query.run`` order (which
is hash-seed independent per the determinism work), and terms render via
``term_to_text``.  Serializing with ``sort_keys`` therefore yields
byte-identical responses across cold cache, warm cache, and any number of
server threads.

Telemetry: the engine records each serving number once, always on, and
``/metrics`` reads it.  Each endpoint has one bounded latency histogram
(milliseconds, :class:`~repro.obs.core.Histogram`): its ``count`` is the
endpoint's request count, and its percentiles carry at most 1% relative
error.  Hit, miss, and negative-hit counts live in the cache's ``stats()``.
Nothing is mirrored into ``repro.obs``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from ..kb.query import Pattern, Query, Slot, Var, slot_to_text
from ..kb.rdfio import term_from_text, term_to_text
from ..kb.store import ReadableStore
from ..kb.terms import Entity, Relation, Term
from ..kb.triple import Triple
from ..obs.core import Histogram
from .cache import MISS, ResultCache


class BadRequest(ValueError):
    """A malformed request (unparseable term, bad pattern shape, bad k)."""


# ------------------------------------------------------------ wire parsing


def parse_term(text: str, position: str = "s") -> Term:
    """Parse a wire-format term for the given position (``s``/``p``/``o``).

    Accepts the rdfio line syntax (``<world:X>``, ``<<rel:y>>``, quoted
    literals with ``@lang``/``^^type`` suffixes) and, for curl-friendliness,
    bare identifiers — which become a :class:`Relation` in predicate
    position and an :class:`Entity` elsewhere.
    """
    text = text.strip()
    if not text:
        raise BadRequest(f"empty term in {position!r} position")
    if text.startswith("<") or text.startswith('"'):
        try:
            term = term_from_text(text, relation_position=(position == "p"))
        except ValueError as error:
            raise BadRequest(str(error)) from error
        return term
    if text.startswith("?"):
        raise BadRequest(f"variables are not allowed here: {text!r}")
    return Relation(text) if position == "p" else Entity(text)


def parse_slot(text: str, position: str = "s") -> Slot:
    """Parse a pattern slot: ``?name`` is a variable, anything else a term."""
    if not isinstance(text, str):
        raise BadRequest(f"pattern slot must be a string, got {type(text).__name__}")
    stripped = text.strip()
    if stripped.startswith("?"):
        name = stripped[1:]
        if not name:
            raise BadRequest("variable needs a name after '?'")
        return Var(name)
    return parse_term(stripped, position)


def parse_patterns(raw: object) -> list[Pattern]:
    """Parse the JSON ``patterns`` field into :class:`Pattern` objects."""
    if not isinstance(raw, list) or not raw:
        raise BadRequest("patterns must be a non-empty list")
    patterns = []
    for item in raw:
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise BadRequest(f"each pattern must be a [s, p, o] list, got {item!r}")
        s, p, o = item
        patterns.append(
            Pattern(parse_slot(s, "s"), parse_slot(p, "p"), parse_slot(o, "o"))
        )
    return patterns


def spo_params(params: dict) -> tuple[Optional[Term], ...]:
    """The ``s``/``p``/``o`` query parameters as terms; blank or absent
    parameters are wildcards (None)."""
    return tuple(
        None
        if params.get(position) in (None, "")
        else parse_term(params[position], position)
        for position in ("s", "p", "o")
    )


def triple_payload(triple: Triple) -> dict:
    """One triple as a JSON-able dict in wire-format term texts."""
    return {
        "s": term_to_text(triple.subject),
        "p": term_to_text(triple.predicate),
        "o": term_to_text(triple.object),
        "confidence": triple.confidence,
        "source": triple.source,
        "scope": None if triple.scope is None else str(triple.scope),
    }


def canonical_triple_key(triple: Triple) -> tuple[str, str, str]:
    """The canonical (s, p, o) text key triples sort by in responses."""
    return (
        term_to_text(triple.subject),
        term_to_text(triple.predicate),
        term_to_text(triple.object),
    )


# ----------------------------------------------------------------- engine


class QueryEngine:
    """A cached, read-only front over one store."""

    def __init__(self, store: ReadableStore, cache_size: int = 1024) -> None:
        self._store = store
        self._epoch = store.epoch
        self._cache = ResultCache(cache_size)
        # Handler threads record latencies concurrently.
        self._stats_lock = threading.Lock()
        self._latency: dict[str, Histogram] = {}

    @property
    def store(self) -> ReadableStore:
        return self._store

    @property
    def cache(self) -> ResultCache:
        return self._cache

    # -------------------------------------------------------------- reads

    def lookup(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        obj: Optional[Term] = None,
    ) -> dict:
        """All triples matching an SPO pattern (None = wildcard), sorted
        by canonical triple key."""
        key = (
            "lookup",
            None if subject is None else term_to_text(subject),
            None if predicate is None else term_to_text(predicate),
            None if obj is None else term_to_text(obj),
        )

        def compute() -> dict:
            triples = sorted(
                self._store.match(subject, predicate, obj),
                key=canonical_triple_key,
            )
            return {
                "kb_epoch": self._epoch,
                "count": len(triples),
                "triples": [triple_payload(t) for t in triples],
            }

        return self._serve("lookup", key, compute)

    def query(
        self,
        patterns: list[Pattern],
        select: Optional[list[str]] = None,
        distinct: bool = False,
        order_by: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> dict:
        """Conjunctive-join bindings, in ``Query.run`` order."""
        if not patterns:
            raise BadRequest("patterns must be a non-empty list")
        names = set()
        for pattern in patterns:
            names |= pattern.variables()
        if select is not None:
            unknown = [name for name in select if name not in names]
            if unknown:
                raise BadRequest(f"select names unbound variables: {unknown}")
        if order_by is not None and order_by not in names:
            raise BadRequest(f"order_by names an unbound variable: {order_by!r}")
        if limit is not None and limit < 0:
            raise BadRequest("limit must be non-negative")
        key = (
            "query",
            tuple(
                (
                    slot_to_text(p.subject),
                    slot_to_text(p.predicate),
                    slot_to_text(p.object),
                )
                for p in patterns
            ),
            None if select is None else tuple(select),
            distinct,
            order_by,
            limit,
        )

        def compute() -> dict:
            q = Query(
                patterns,
                select=select,
                distinct=distinct,
                order_by=order_by,
                limit=limit,
            )
            bindings = [
                {name: term_to_text(value) for name, value in binding.items()}
                for binding in q.run(self._store)
            ]
            return {
                "kb_epoch": self._epoch,
                "count": len(bindings),
                "vars": sorted(names) if select is None else list(select),
                "bindings": bindings,
            }

        return self._serve("query", key, compute)

    def topk(
        self,
        k: int,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        obj: Optional[Term] = None,
    ) -> dict:
        """The k highest-confidence triples matching a pattern.

        Ties break deterministically on the canonical triple key, so the
        cut at rank k is stable across runs, caches, and thread counts.
        """
        if k < 1:
            raise BadRequest(f"k must be positive, got {k}")
        key = (
            "topk",
            k,
            None if subject is None else term_to_text(subject),
            None if predicate is None else term_to_text(predicate),
            None if obj is None else term_to_text(obj),
        )

        def compute() -> dict:
            ranked = sorted(
                self._store.match(subject, predicate, obj),
                key=lambda t: (-t.confidence, canonical_triple_key(t)),
            )
            return {
                "kb_epoch": self._epoch,
                "k": k,
                "count": min(k, len(ranked)),
                "results": [triple_payload(t) for t in ranked[:k]],
            }

        return self._serve("topk", key, compute)

    # ------------------------------------------------------ JSON adapters

    def lookup_json(self, params: dict) -> dict:
        """``/lookup`` adapter: parse ``s``/``p``/``o`` query parameters."""
        return self.lookup(*spo_params(params))

    def query_json(self, payload: object) -> dict:
        """``/query`` adapter: parse the POSTed JSON body."""
        if not isinstance(payload, dict):
            raise BadRequest("query body must be a JSON object")
        unknown = set(payload) - {"patterns", "select", "distinct", "order_by", "limit"}
        if unknown:
            raise BadRequest(f"unknown query fields: {sorted(unknown)}")
        patterns = parse_patterns(payload.get("patterns"))
        select = payload.get("select")
        if select is not None:
            if not isinstance(select, list) or not all(
                isinstance(name, str) for name in select
            ):
                raise BadRequest("select must be a list of variable names")
            select = [name.lstrip("?") for name in select]
        distinct = payload.get("distinct", False)
        if not isinstance(distinct, bool):
            raise BadRequest("distinct must be a boolean")
        order_by = payload.get("order_by")
        if order_by is not None:
            if not isinstance(order_by, str):
                raise BadRequest("order_by must be a variable name")
            order_by = order_by.lstrip("?")
        limit = payload.get("limit")
        if limit is not None and (isinstance(limit, bool) or not isinstance(limit, int)):
            raise BadRequest("limit must be an integer")
        return self.query(
            patterns, select=select, distinct=distinct, order_by=order_by, limit=limit
        )

    def topk_json(self, params: dict) -> dict:
        """``/topk`` adapter: parse ``k`` plus ``s``/``p``/``o`` parameters."""
        raw_k = params.get("k", "10")
        try:
            k = int(raw_k)
        except (TypeError, ValueError):
            raise BadRequest(f"k must be an integer, got {raw_k!r}") from None
        return self.topk(k, *spo_params(params))

    # ---------------------------------------------------------- telemetry

    def healthz(self) -> dict:
        """Liveness payload: status, epoch, triple count."""
        return {
            "status": "ok",
            "kb_epoch": self._epoch,
            "triples": len(self._store),
        }

    def metrics(self) -> dict:
        """Cache accounting plus per-endpoint request/latency digests."""
        with self._stats_lock:
            endpoints = {
                name: {
                    "requests": histogram.count,
                    "latency_ms": histogram.summary(),
                }
                for name, histogram in self._latency.items()
            }
        return {
            "kb_epoch": self._epoch,
            "triples": len(self._store),
            "cache": self._cache.stats(),
            "endpoints": endpoints,
        }

    # ----------------------------------------------------------- internals

    def _serve(
        self, endpoint: str, key: tuple, compute: Callable[[], dict]
    ) -> dict:
        started = time.perf_counter()
        payload = self._cache.get(key)
        if payload is MISS:
            payload = compute()
            # Empty answers are cached too (negative caching): repeated
            # questions about absent facts are served from memory just
            # like present ones, and accounted separately in stats.
            self._cache.put(key, payload, negative=payload.get("count") == 0)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        with self._stats_lock:
            histogram = self._latency.get(endpoint)
            if histogram is None:
                histogram = self._latency[endpoint] = Histogram(endpoint)
            histogram.observe(elapsed_ms)
        return payload

    def __repr__(self) -> str:
        return (
            f"QueryEngine(triples={len(self._store)}, "
            f"epoch={self._epoch}, cache={self._cache!r})"
        )
