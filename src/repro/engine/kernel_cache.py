"""Plan-signature kernel cache.

The fused executor compiles every (sub)plan it serves into *prepared
kernels* — closures that evaluate predicates, projection items, group
keys and aggregate inputs against a relation without walking the
expression tree node-by-node. Compilation is cheap but not free, and the
steady state this engine targets (millions of users issuing the same
dashboard shapes) repeats plan shapes endlessly; this cache memoizes the
compiled form so a repeated shape skips plan normalization and
expression-tree walking entirely.

Keys are ``(table_fingerprint, plan_signature)``:

* the *plan signature* is a normalized textual form of the operator
  chain (expressions print deterministically, sampling seeds are
  excluded because kernels are seed-independent), and
* the *table fingerprint* (:meth:`repro.engine.table.Table.fingerprint`)
  makes the key content-addressed, exactly like
  :mod:`repro.storage.synopsis_cache`: replacing a table's data yields a
  new fingerprint, so stale kernels (today structurally identical, in
  the future possibly dtype-specialized) can never be served for new
  content, and no explicit invalidation hook is required.

Entries are held under an LRU entry budget; hit/miss/eviction counters
are exported to the metrics registry next to the synopsis-cache stats.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "KernelCacheStats",
    "KernelCache",
    "get_kernel_cache",
    "set_kernel_cache",
    "configure_kernel_cache",
]

#: Default entry budget. Prepared chains are a handful of closures each
#: (no data), so the cap bounds key churn, not memory pressure.
DEFAULT_MAX_ENTRIES = 512


@dataclass
class KernelCacheStats:
    """Lookup counters, read by tests and the metrics registry."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

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
            "hit_rate": self.hit_rate,
        }


class KernelCache:
    """Memoizing LRU cache of prepared kernels, keyed by plan signature."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.stats = KernelCacheStats()
        self._entries: "OrderedDict[Tuple, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get_or_compile(self, key: Tuple, compiler: Callable[[], Any]) -> Any:
        """Return the cached kernel bundle for ``key`` or compile + admit it.

        ``compiler`` runs outside the lock; concurrent compilers of the
        same key may race and both compile — last write wins, and the
        results are interchangeable pure functions of the plan.
        """
        from ..obs.metrics import get_metrics

        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                get_metrics().inc(
                    "kernel_cache_lookups_total", result="hit"
                )
                return value
            self.stats.misses += 1
        get_metrics().inc("kernel_cache_lookups_total", result="miss")
        value = compiler()
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        return key in self._entries


# ----------------------------------------------------------------------
# Process-wide default instance
# ----------------------------------------------------------------------
_global_cache: Optional[KernelCache] = None
_global_lock = threading.Lock()


def get_kernel_cache() -> KernelCache:
    """The process-wide kernel cache the fused executor uses by default."""
    global _global_cache
    with _global_lock:
        if _global_cache is None:
            _global_cache = KernelCache()
        return _global_cache


def set_kernel_cache(cache: Optional[KernelCache]) -> None:
    """Swap (or, with ``None``, reset) the process-wide kernel cache."""
    global _global_cache
    with _global_lock:
        _global_cache = cache


def configure_kernel_cache(max_entries: int) -> KernelCache:
    """Install a fresh global kernel cache with the given entry budget."""
    cache = KernelCache(max_entries=max_entries)
    set_kernel_cache(cache)
    return cache
