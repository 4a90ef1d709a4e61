"""Process-wide metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` instance serves the whole process (like the
kernel and synopsis caches), and the engine's layers feed it always-on —
incrementing an integer can never perturb a query's results, so unlike
tracing there is no off switch. The metric families (DESIGN.md §2.13):

* ``queries_total{engine,technique,rung|mode,tenant}`` /
  ``queries_refused_total``
* ``technique_refusals_total{technique}`` — a technique refused a query
  in the advisor's chain (``Advisor.first_answer``)
* ``deadline_misses_total{site}`` — a :class:`Deadline` checkpoint fired
* ``breaker_transitions_total{breaker,to}`` — circuit-breaker state flips
* ``retry_attempts_total{site}`` — retries beyond the first attempt
* ``shard_hedges_total`` / ``shard_outcomes_total{status}``
* ``faults_injected_total{site,kind}`` — chaos-harness firings
* ``kernel_cache_lookups_total{result}`` /
  ``synopsis_cache_lookups_total{result}`` — plus derived hit-ratio
  gauges in every snapshot

Labels render Prometheus-style (``name{k="v"}``) with sorted keys, so a
snapshot is a flat, diffable JSON object. ``snapshot()`` also folds in
the kernel-/synopsis-cache counters as gauges; ``to_json()`` is the
dump.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, Optional, Tuple

__all__ = ["MetricsRegistry", "get_metrics", "set_metrics"]

_LabelKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, Any]) -> _LabelKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render(key: _LabelKey) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Thread-safe counters/gauges/histograms, snapshotable to JSON."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[_LabelKey, float] = {}
        self._gauges: Dict[_LabelKey, float] = {}
        self._histograms: Dict[_LabelKey, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        with self._lock:
            self._gauges[_key(name, labels)] = float(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one histogram observation (count/sum/min/max summary)."""
        value = float(value)
        key = _key(name, labels)
        with self._lock:
            h = self._histograms.get(key)
            if h is None:
                self._histograms[key] = {
                    "count": 1.0, "sum": value, "min": value, "max": value,
                }
            else:
                h["count"] += 1.0
                h["sum"] += value
                h["min"] = min(h["min"], value)
                h["max"] = max(h["max"], value)

    # ------------------------------------------------------------------
    def counter_value(self, name: str, **labels: Any) -> float:
        with self._lock:
            return self._counters.get(_key(name, labels), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter across every label combination."""
        with self._lock:
            return sum(
                v for (n, _), v in self._counters.items() if n == name
            )

    # ------------------------------------------------------------------
    def snapshot(self, include_caches: bool = True) -> Dict[str, Any]:
        """JSON-able snapshot; optionally folds in the cache counters."""
        with self._lock:
            doc: Dict[str, Any] = {
                "counters": {
                    _render(k): v for k, v in sorted(self._counters.items())
                },
                "gauges": {
                    _render(k): v for k, v in sorted(self._gauges.items())
                },
                "histograms": {
                    _render(k): {
                        **h,
                        "mean": h["sum"] / h["count"] if h["count"] else 0.0,
                    }
                    for k, h in sorted(self._histograms.items())
                },
            }
        if include_caches:
            doc["gauges"].update(self._cache_gauges())
        return doc

    @staticmethod
    def _cache_gauges() -> Dict[str, float]:
        # Imported lazily: metrics must stay dependency-free so the
        # resilience layer can import it without cycles.
        from ..engine.kernel_cache import get_kernel_cache
        from ..storage.synopsis_cache import get_global_cache

        gauges: Dict[str, float] = {}
        for prefix, stats in (
            ("kernel_cache", get_kernel_cache().stats),
            ("synopsis_cache", get_global_cache().stats),
        ):
            for key, value in stats.as_dict().items():
                gauges[f"{prefix}_{key}"] = float(value)
        return gauges

    def to_json(self, include_caches: bool = True) -> str:
        return json.dumps(
            self.snapshot(include_caches=include_caches),
            indent=2,
            sort_keys=True,
        )

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


# ----------------------------------------------------------------------
# Process-wide default instance
# ----------------------------------------------------------------------

_global: Optional[MetricsRegistry] = None
_global_lock = threading.Lock()


def get_metrics() -> MetricsRegistry:
    """The process-wide registry every layer feeds."""
    global _global
    with _global_lock:
        if _global is None:
            _global = MetricsRegistry()
        return _global


def set_metrics(registry: Optional[MetricsRegistry]) -> None:
    """Swap (or, with ``None``, reset) the process-wide registry."""
    global _global
    with _global_lock:
        _global = registry
