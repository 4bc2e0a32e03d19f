"""A thread-safe LRU result cache for one served KB.

An engine serves one store for its whole lifetime (see
:mod:`repro.serving.engine`), so a cached answer can never go stale:
entries are keyed on the request alone and live until the LRU evicts
them.  Serving a different KB means building a new engine, with a new
cache.

The cache never touches the store; hits are served entirely from the
cache's own mutex, which is what lets a warm serving layer answer without
reading the store at all.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

#: Sentinel distinguishing "cache miss" from a cached None payload.
MISS = object()


class ResultCache:
    """An LRU map from request keys to (payload, negative) entries.

    The **negative** flag marks an empty answer ("no such triple"), which
    is every bit as cacheable as a full one: in a serving layer fronting
    an incomplete KB the miss-shaped questions repeat at least as often
    as the hit-shaped ones.  Negative entries share the LRU with positive
    ones but are accounted separately (``negative_hits``,
    ``negative_entries``), so operators can see how much of the cache is
    absorbing known-empty lookups.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, tuple[Any, bool]]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.negative_hits = 0

    def get(self, key: Hashable) -> Any:
        """The payload cached for ``key``, or :data:`MISS`; a hit
        refreshes the entry's LRU recency."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return MISS
            self._entries.move_to_end(key)
            self.hits += 1
            payload, negative = entry
            if negative:
                self.negative_hits += 1
            return payload

    def put(self, key: Hashable, payload: Any, negative: bool = False) -> None:
        """Cache ``payload`` for ``key``; ``negative`` marks an empty
        answer, tracked separately in stats."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (payload, negative)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """A JSON-able snapshot of size and hit/miss accounting."""
        with self._lock:
            hits, misses = self.hits, self.misses
            total = hits + misses
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": hits,
                "misses": misses,
                "evictions": self.evictions,
                "hit_rate": (hits / total) if total else 0.0,
                "negative_hits": self.negative_hits,
                "negative_entries": sum(
                    1 for entry in self._entries.values() if entry[1]
                ),
            }

    def __repr__(self) -> str:
        return (
            f"ResultCache(size={len(self)}, capacity={self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )
