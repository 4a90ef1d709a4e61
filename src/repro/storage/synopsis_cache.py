"""Content-addressed memoizing cache for synopses.

The "synopsis once, answer many" economics of offline AQP (VerdictDB,
BlinkDB) only work if a rebuilt benchmark, a repeated query, or a second
session can *find* the synopsis it already paid for. This cache keys
every synopsis by what it is a function of — table content (via
:meth:`Table.fingerprint`), column set, synopsis kind, and build
parameters — so a lookup can never return a synopsis of different data,
and explicit invalidation is only an eviction hint, not a correctness
requirement.

Entries are held under an LRU byte budget; hit/miss/eviction counters
make reuse measurable (the metrics snapshot folds them in as gauges).
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

__all__ = [
    "CacheStats",
    "SynopsisCache",
    "get_global_cache",
    "set_global_cache",
    "configure_global_cache",
]

#: Default byte budget — generous for laptop-scale benchmark synopses,
#: small enough that pathological sweeps still exercise eviction.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


@dataclass
class CacheStats:
    """Lookup counters, read by tests and the metrics registry."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    failed_builds: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "failed_builds": self.failed_builds,
            "hit_rate": self.hit_rate,
        }


@dataclass
class _Entry:
    value: Any
    nbytes: int
    table_name: str


def _estimate_nbytes(value: Any) -> int:
    """Best-effort size of a synopsis, duck-typed across synopsis kinds."""
    for attr in ("memory_bytes", "estimated_bytes"):
        fn = getattr(value, attr, None)
        if callable(fn):
            try:
                return int(fn())
            except Exception:  # pragma: no cover - defensive
                pass
    # WeightedSample-shaped: a sample table plus a weight vector.
    inner = getattr(value, "table", None)
    if inner is not None and hasattr(inner, "estimated_bytes"):
        size = int(inner.estimated_bytes())
        weights = getattr(value, "weights", None)
        if weights is not None and hasattr(weights, "nbytes"):
            size += int(weights.nbytes)
        return size
    # SampleSeekSynopsis-shaped: sample table + postings index.
    inner = getattr(value, "sample_table", None)
    if inner is not None and hasattr(inner, "estimated_bytes"):
        size = int(inner.estimated_bytes())
        index = getattr(value, "index", None)
        if index is not None and hasattr(index, "storage_rows"):
            size += int(index.storage_rows()) * 8
        return size
    return sys.getsizeof(value)


def _freeze(obj: Any) -> Any:
    """Recursively convert params into a hashable, deterministic form."""
    if isinstance(obj, Mapping):
        return tuple(sorted((k, _freeze(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) else obj
        return tuple(_freeze(v) for v in items)
    return obj


class SynopsisCache:
    """Memoizing LRU cache for synopses, keyed by content fingerprints."""

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._entries: "OrderedDict[Tuple, _Entry]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    @staticmethod
    def make_key(
        table,
        kind: str,
        columns: Sequence[str] = (),
        params: Optional[Mapping[str, Any]] = None,
        shard: Optional[int] = None,
    ) -> Tuple:
        """Content-addressed key: identity AND content of the table.

        ``table`` may be a Table (fingerprinted here) or a prefabricated
        ``(name, fingerprint)`` pair.

        ``shard`` must be set for per-shard synopses. Fingerprints probe
        only a bounded sample of values, so two shards of the same parent
        — same name, same length, content differing only at unprobed rows
        — can collide on fingerprint alone; the shard id keeps their
        cache entries disjoint by construction.
        """
        if isinstance(table, tuple):
            name, fingerprint = table
        else:
            name, fingerprint = table.name, table.fingerprint()
        return (
            name,
            fingerprint,
            kind,
            tuple(columns),
            _freeze(params or {}),
            shard,
        )

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def get(self, key: Tuple) -> Optional[Any]:
        from ..obs.metrics import get_metrics

        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                result = "miss"
                value = None
            else:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                result = "hit"
                value = entry.value
        get_metrics().inc("synopsis_cache_lookups_total", result=result)
        return value

    def put(
        self, key: Tuple, value: Any, nbytes: Optional[int] = None
    ) -> None:
        nbytes = _estimate_nbytes(value) if nbytes is None else int(nbytes)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            if nbytes > self.max_bytes:
                # Larger than the whole budget: never admitted, and
                # admitting-then-evicting would just churn the counters.
                return
            self._entries[key] = _Entry(value, nbytes, key[0])
            self._bytes += nbytes
            while self._bytes > self.max_bytes and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self.stats.evictions += 1

    def evict(self, key: Tuple) -> bool:
        """Drop one entry by key. Returns whether anything was dropped."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._bytes -= entry.nbytes
            self.stats.evictions += 1
            return True

    def get_or_build(
        self,
        table,
        kind: str,
        builder: Callable[[], Any],
        columns: Sequence[str] = (),
        params: Optional[Mapping[str, Any]] = None,
        nbytes: Optional[int] = None,
        refresh: bool = False,
        shard: Optional[int] = None,
    ) -> Any:
        """Return the cached synopsis or build + admit it.

        ``builder`` runs outside the lock, so concurrent builders may
        race and both build — last write wins, answers are identical by
        construction of the key. ``refresh=True`` skips the lookup and
        rebuilds unconditionally (maintenance / forced refresh).

        Failure semantics: if ``builder`` raises, the key is evicted
        before the exception propagates, so a build that died halfway —
        even one that self-registered a partial result through a nested
        :meth:`put` — can never leave a poisoned entry behind for the
        next lookup to trust.
        """
        from ..obs.trace import span
        from ..resilience.faults import maybe_fault

        key = self.make_key(table, kind, columns, params, shard=shard)
        if maybe_fault("cache.lookup") == "evict":
            self.evict(key)
        if not refresh:
            value = self.get(key)
            if value is not None:
                return value
        with span(
            "synopsis_build",
            kind=kind,
            table=getattr(table, "name", str(key[0])),
            refresh=refresh,
        ):
            try:
                value = builder()
            except BaseException:
                with self._lock:
                    self.stats.failed_builds += 1
                self.evict(key)
                raise
        self.put(key, value, nbytes=nbytes)
        return value

    # ------------------------------------------------------------------
    # Invalidation / introspection
    # ------------------------------------------------------------------
    def invalidate_table(self, table_name: str) -> int:
        """Drop every entry built from ``table_name``.

        Content addressing already protects correctness when a table is
        replaced; this reclaims the bytes immediately instead of waiting
        for LRU pressure.
        """
        with self._lock:
            doomed = [
                k for k, e in self._entries.items() if e.table_name == table_name
            ]
            for k in doomed:
                entry = self._entries.pop(k)
                self._bytes -= entry.nbytes
            self.stats.invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    @property
    def current_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        return key in self._entries


# ----------------------------------------------------------------------
# Process-wide default instance
# ----------------------------------------------------------------------
_global_cache: Optional[SynopsisCache] = None
_global_lock = threading.Lock()


def get_global_cache() -> SynopsisCache:
    """The process-wide cache the offline builders use by default."""
    global _global_cache
    with _global_lock:
        if _global_cache is None:
            _global_cache = SynopsisCache()
        return _global_cache


def set_global_cache(cache: Optional[SynopsisCache]) -> None:
    """Swap (or, with ``None``, reset) the process-wide cache."""
    global _global_cache
    with _global_lock:
        _global_cache = cache


def configure_global_cache(max_bytes: int) -> SynopsisCache:
    """Install a fresh global cache with the given byte budget."""
    cache = SynopsisCache(max_bytes=max_bytes)
    set_global_cache(cache)
    return cache
