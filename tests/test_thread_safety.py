"""Thread-safety audit: shared process-wide state under a 16-thread hammer.

Counters are the easiest thing in the world to corrupt quietly — a lost
`+= 1` under a race produces no crash, just a wrong number months later.
These tests hammer every piece of process-shared mutable state the
serving layer leans on (metrics registry, kernel cache, synopsis cache,
circuit breakers, token buckets, the Database catalog) from 16 threads
and assert *exact* totals, not approximate ones: with correct locking
the counts are deterministic regardless of interleaving.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Database
from repro.engine.kernel_cache import KernelCache
from repro.obs.metrics import MetricsRegistry
from repro.resilience.deadline import ManualClock
from repro.resilience.breaker import CircuitBreaker
from repro.serving import TokenBucket
from repro.storage.synopsis_cache import SynopsisCache

pytestmark = pytest.mark.stress

N_THREADS = 16
N_OPS = 1_000


def _hammer(worker, n_threads: int = N_THREADS):
    """Run ``worker(thread_index)`` in N threads behind a start barrier."""
    barrier = threading.Barrier(n_threads)
    errors = []

    def run(i: int) -> None:
        barrier.wait()
        try:
            worker(i)
        except BaseException as exc:  # noqa: BLE001 — surface in the test
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert not any(t.is_alive() for t in threads), "hammer thread hung"
    if errors:
        raise errors[0]


def test_metrics_registry_exact_totals():
    registry = MetricsRegistry()

    def worker(i: int) -> None:
        for k in range(N_OPS):
            registry.inc("hammer_total", worker=str(i % 4))
            registry.observe("hammer_seconds", float(k))
            registry.set_gauge("hammer_gauge", float(k))

    _hammer(worker)
    assert registry.counter_total("hammer_total") == N_THREADS * N_OPS
    snap = registry.snapshot(include_caches=False)
    hist = snap["histograms"]["hammer_seconds"]
    assert hist["count"] == N_THREADS * N_OPS
    assert hist["sum"] == pytest.approx(
        N_THREADS * sum(range(N_OPS))
    ), "histogram sum lost observations under the race"


def test_kernel_cache_compiles_once_and_counts_exactly():
    cache = KernelCache(max_entries=64)
    compiles = []
    compile_lock = threading.Lock()

    def compiler():
        with compile_lock:
            compiles.append(1)
        return object()

    def worker(i: int) -> None:
        for k in range(N_OPS):
            cache.get_or_compile(("sig", k % 8), compiler)

    _hammer(worker)
    lookups = N_THREADS * N_OPS
    assert cache.stats.hits + cache.stats.misses == lookups
    # Every miss corresponds to exactly one compile — no torn double
    # compilation escaping the lock, no lost counter updates.
    assert cache.stats.misses == len(compiles)
    assert len(cache) == 8


def test_synopsis_cache_exact_counts_under_hammer():
    from repro.engine.table import Table

    cache = SynopsisCache(max_bytes=1 << 24)
    tables = [
        Table({"x": np.full(32, float(t))}, name=f"t{t}") for t in range(8)
    ]
    builds = []
    build_lock = threading.Lock()

    def build():
        with build_lock:
            builds.append(1)
        return np.zeros(16)

    def worker(i: int) -> None:
        for k in range(N_OPS):
            cache.get_or_build(tables[k % 8], "sample", build)

    _hammer(worker)
    lookups = N_THREADS * N_OPS
    assert cache.stats.hits + cache.stats.misses == lookups
    # Builders run outside the lock by design (racing builders both
    # build, last write wins) — but every miss runs exactly one build,
    # so the counts still tie out exactly.
    assert cache.stats.misses == len(builds)
    assert len(cache) == 8


def test_circuit_breaker_counts_exactly():
    breaker = CircuitBreaker(failure_threshold=10**9, cooldown=1)

    def worker(i: int) -> None:
        for _ in range(N_OPS):
            breaker.record_failure()
            breaker.record_success()

    _hammer(worker)
    assert breaker.total_failures == N_THREADS * N_OPS
    assert breaker.total_successes == N_THREADS * N_OPS
    assert breaker.state == "closed"


def test_token_bucket_never_overspends():
    clock = ManualClock()
    capacity = float(N_THREADS * N_OPS)
    bucket = TokenBucket(capacity=capacity, refill_rate=0.0, clock=clock)
    granted = []
    lock = threading.Lock()

    def worker(i: int) -> None:
        ok = 0
        for _ in range(N_OPS * 2):  # 2x demand vs supply
            if bucket.try_charge(1.0):
                ok += 1
        with lock:
            granted.append(ok)

    _hammer(worker)
    # All-or-nothing charges: exactly `capacity` grants, never one more.
    assert sum(granted) == int(capacity)
    assert bucket.available() == pytest.approx(0.0)


def test_database_catalog_safe_under_concurrent_stats_and_append():
    rng = np.random.default_rng(0)
    db = Database()
    for t in range(4):
        db.create_table(
            f"t{t}", {"x": rng.normal(size=2_000)}, block_size=256
        )

    def worker(i: int) -> None:
        for k in range(50):
            name = f"t{(i + k) % 4}"
            stats = db.stats(name)
            assert stats.num_rows > 0
            if i == 0 and k % 10 == 0:
                db.append_rows(name, {"x": np.ones(10)})
            db.table(name)

    _hammer(worker)
    for t in range(4):
        # Stats recompute on demand and describe the final content.
        assert db.stats(f"t{t}").num_rows == db.table(f"t{t}").num_rows


def test_quickr_queries_share_a_database_without_touching_the_catalog():
    """16 threads of Quickr-served grouped queries on one Database: every
    answer is the one its seed gives single-threaded, and the catalog is
    never written (no ``__quickr_tmp`` table for two queries to fight
    over — the sampler is a scan directive)."""
    import sys

    from repro import QueryOptions

    rng = np.random.default_rng(3)
    n = 30_000
    db = Database()
    db.create_table(
        "fact",
        {
            "store": rng.integers(0, 60, n),
            "day": rng.integers(0, 30, n),
            "price": rng.exponential(20.0, n),
        },
        block_size=512,
    )
    sql = (
        "SELECT store, SUM(price) AS s FROM fact WHERE day >= {day} "
        "GROUP BY store ERROR WITHIN 10% CONFIDENCE 95%"
    )
    queries_per_thread = 6

    def run(i: int, k: int):
        options = QueryOptions(seed=100 * i + k, technique="quickr")
        res = db.sql(sql.format(day=k), options)
        assert res.technique == "quickr"
        assert res.diagnostics["sampler"] == "distinct"
        return res.to_pylist(), res.ci_low["s"].tolist()

    expected = {
        (i, k): run(i, k)
        for i in range(N_THREADS)
        for k in range(queries_per_thread)
    }
    catalog_writes = []
    seen_names = set()
    for name in ("create_table", "drop_table", "replace_table"):
        setattr(db, name, lambda *a, _n=name, **kw: catalog_writes.append(_n))

    def worker(i: int) -> None:
        for k in range(queries_per_thread):
            assert run(i, k) == expected[i, k]
            seen_names.update(db.table_names)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _hammer(worker)
    finally:
        sys.setswitchinterval(interval)
    assert catalog_writes == []
    assert seen_names == {"fact"}
