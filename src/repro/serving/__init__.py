"""The KB serving layer: answer queries like a production service.

The paper frames knowledge bases as assets that must *answer* analytics
queries at web scale, not just get built.  This subpackage is the read
path over a built KB:

* :class:`~repro.serving.engine.QueryEngine` — request-oriented SPO
  lookups, conjunctive joins, and top-k-by-confidence over one frozen
  :class:`~repro.kb.store.ReadableStore` (a
  :class:`~repro.kb.store.TripleStore` or a
  :class:`~repro.kb.segments.SegmentSnapshot`), read for the engine's
  whole lifetime and never written, so cache misses take no engine lock;
* :class:`~repro.serving.cache.ResultCache` — an LRU result cache keyed
  on the request alone, with negative (empty-answer) entries accounted
  separately;
* :class:`~repro.serving.http.KBServer` — a stdlib ``http.server`` front
  end (``repro serve``) with a fixed handler-thread pool and JSON
  endpoints ``/lookup``, ``/query``, ``/topk``, ``/healthz``, ``/metrics``.
"""

from .cache import MISS, ResultCache
from .engine import (
    BadRequest,
    QueryEngine,
    canonical_triple_key,
    parse_patterns,
    parse_slot,
    parse_term,
    triple_payload,
)
from .http import (
    DEFAULT_SERVER_WORKERS,
    KBServer,
    dumps,
    resolve_server_workers,
    serve_kb,
)

__all__ = [
    "MISS",
    "ResultCache",
    "BadRequest",
    "QueryEngine",
    "canonical_triple_key",
    "parse_patterns",
    "parse_slot",
    "parse_term",
    "triple_payload",
    "DEFAULT_SERVER_WORKERS",
    "KBServer",
    "dumps",
    "resolve_server_workers",
    "serve_kb",
]
