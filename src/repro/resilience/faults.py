"""Deterministic fault injection.

The chaos suite needs real failures in real places — synopsis builders
that throw, cache entries that vanish mid-query, blocks that read
slowly, sample metadata that comes back corrupted — and it needs the
exact same failures on every run of a given seed. This module provides
that: production code calls :func:`maybe_fault(site)` at its hazard
points (a no-op when no injector is installed), and tests install a
:class:`FaultInjector` whose decisions are a pure function of
``(seed, site, arrival_index)``.

Fault kinds:

* ``"error"``   — raise (:class:`InjectedFault` by default, or any
  exception type the spec names) at the site;
* ``"slow"``    — advance the injector's clock by ``delay`` seconds,
  simulating a slow block/build under a ManualClock deadline;
* ``"evict"``   — tell the site to drop its cached state first
  (synopsis cache uses this to model eviction mid-query);
* ``"corrupt"`` — tell the site its metadata failed validation
  (the ladder treats the synopsis as unusable).

``"error"`` faults raise from inside :func:`maybe_fault`; ``"evict"`` /
``"corrupt"`` are *returned* as markers because only the site knows how
to act on them. ``"slow"`` is handled entirely by the injector.

**Concurrency.** A single arrival counter per site would make fault
decisions depend on the thread schedule: two queries racing through the
same site would swap arrival indices from run to run, and with them the
RNG draws. The serving layer therefore wraps each query in
:func:`query_scope`, and when a query id is ambient the injector keys
both the arrival counter and the probability draw on
``splitmix64(seed, site, query_id, arrival)`` — a pure function of the
query, not of the interleaving — so the same fault schedule replays
exactly no matter how many worker threads execute it. Without a query
scope the legacy process-global counters apply unchanged.
"""

from __future__ import annotations

import contextlib
import threading
import zlib
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple, Type

import numpy as np

from ..core.exceptions import InjectedFault
from .deadline import ManualClock

__all__ = [
    "FaultSpec",
    "FaultInjector",
    "get_injector",
    "install_injector",
    "inject",
    "maybe_fault",
    "query_scope",
    "current_query_id",
    "splitmix64",
    "shard_site",
    "kill_shard",
    "slow_shard",
    "corrupt_shard",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(*words: int) -> int:
    """Mix integer words into one 64-bit value (pure, schedule-free).

    The splitmix64 finalizer applied over a running state absorbing each
    word — the same construction the vectorized sketch hashes use, kept
    in pure ints here so fault derivation never touches numpy's
    stateful generators.
    """
    state = 0x9E3779B97F4A7C15
    for word in words:
        state = (state ^ (int(word) & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        state = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        state = ((state ^ (state >> 27)) * 0x94D049BB133111EB) & _MASK64
        state = (state ^ (state >> 31)) & _MASK64
    return state


def splitmix_uniform(*words: int) -> float:
    """A U[0,1) draw that is a pure function of its words."""
    return splitmix64(*words) / float(1 << 64)


# ----------------------------------------------------------------------
# Ambient query identity (set by the serving layer per admitted query)
# ----------------------------------------------------------------------

_QUERY_ID: ContextVar[Optional[int]] = ContextVar(
    "repro_query_id", default=None
)


@contextlib.contextmanager
def query_scope(query_id: Optional[int]) -> Iterator[None]:
    """Make ``query_id`` ambient for the enclosed code.

    The fault injector keys its RNG draws on the ambient query id when
    one is set, which is what decouples chaos determinism from thread
    scheduling. ``None`` inherits any enclosing scope (mirroring
    :func:`repro.resilience.deadline.deadline_scope`).
    """
    prev = _QUERY_ID.get()
    token = _QUERY_ID.set(query_id if query_id is not None else prev)
    try:
        yield
    finally:
        _QUERY_ID.reset(token)


def current_query_id() -> Optional[int]:
    return _QUERY_ID.get()


@dataclass
class FaultSpec:
    """One scheduled fault family at one site.

    ``probability`` is evaluated per arrival with a deterministic RNG
    keyed on (injector seed, site, arrival index); ``after`` skips the
    first N arrivals (let the system warm up, then break it);
    ``max_fires`` caps total firings (a transient outage, not a
    permanent one).
    """

    site: str
    kind: str = "error"  # error | slow | evict | corrupt
    probability: float = 1.0
    after: int = 0
    max_fires: Optional[int] = None
    delay: float = 0.0  # for kind="slow"
    error_type: Type[BaseException] = InjectedFault
    message: str = ""
    fires: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("error", "slow", "evict", "corrupt"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError("probability must be in [0, 1]")


class FaultInjector:
    """Replays a seeded fault schedule against named sites."""

    def __init__(
        self,
        specs: Optional[List[FaultSpec]] = None,
        seed: int = 0,
        clock: Optional[ManualClock] = None,
    ) -> None:
        self.specs: List[FaultSpec] = list(specs or [])
        self.seed = seed
        self.clock = clock
        self._arrivals: dict = {}
        #: (site, kind, arrival_index) of every fault that fired
        self.fired: List[Tuple[str, str, int]] = []
        #: (site, kind, query_id, arrival) — the schedule-free view the
        #: concurrency determinism tests compare as a *set* (list order
        #: still depends on thread interleaving; membership must not)
        self.fired_by_query: List[Tuple[str, str, Optional[int], int]] = []
        self._lock = threading.Lock()

    def add(self, spec: FaultSpec) -> "FaultInjector":
        self.specs.append(spec)
        return self

    # ------------------------------------------------------------------
    def _decide(
        self,
        spec: FaultSpec,
        site: str,
        arrival: int,
        query_id: Optional[int],
    ) -> bool:
        if arrival < spec.after:
            return False
        if spec.max_fires is not None and spec.fires >= spec.max_fires:
            return False
        if spec.probability >= 1.0:
            return True
        if query_id is not None:
            # Pure function of (seed, site, query, arrival-within-query):
            # immune to thread scheduling by construction.
            u = splitmix_uniform(
                self.seed,
                zlib.crc32(site.encode("utf-8")),
                query_id,
                arrival,
            )
        else:
            ss = np.random.SeedSequence(
                [self.seed, zlib.crc32(site.encode("utf-8")), arrival]
            )
            u = np.random.default_rng(ss).random()
        return bool(u < spec.probability)

    def arrive(self, site: str) -> Optional[str]:
        """Record an arrival at ``site``; fire at most one fault.

        Returns ``"evict"`` / ``"corrupt"`` markers for the site to act
        on, ``None`` when nothing fired, and raises for error faults.
        Slow faults advance the clock and return ``None`` (the slowdown
        is visible only through the deadline).

        Arrivals are counted per ``(site, ambient query id)`` so that,
        under the serving layer's :func:`query_scope`, a query's fault
        schedule is independent of what other queries do concurrently.
        With no ambient query id the counter is process-global per site
        (the original single-threaded behaviour, unchanged).
        """
        query_id = current_query_id()
        counter_key = site if query_id is None else (site, query_id)
        with self._lock:
            arrival = self._arrivals.get(counter_key, 0)
            self._arrivals[counter_key] = arrival + 1
            for spec in self.specs:
                if spec.site != site:
                    continue
                if not self._decide(spec, site, arrival, query_id):
                    continue
                spec.fires += 1
                self.fired.append((site, spec.kind, arrival))
                self.fired_by_query.append(
                    (site, spec.kind, query_id, arrival)
                )
                self._record(site, spec.kind, arrival)
                if spec.kind == "slow":
                    if self.clock is not None:
                        self.clock.advance(spec.delay)
                    return None
                if spec.kind in ("evict", "corrupt"):
                    return spec.kind
                # kind == "error"
                message = spec.message or (
                    f"injected fault at {site} (arrival {arrival})"
                )
                if spec.error_type is InjectedFault:
                    raise InjectedFault(message, site=site)
                raise spec.error_type(message)
        return None

    def _record(self, site: str, kind: str, arrival: int) -> None:
        """Every firing is a failed ``fault`` span + a chaos metric.

        The span is marked ``status="error"`` for *all* kinds — a fired
        fault is an injected failure of the site even when the site
        absorbs it (slow/evict/corrupt) — and carries the injector seed,
        which is what lets the chaos suite tie a trace back to the exact
        schedule that produced it.
        """
        from ..obs.metrics import get_metrics
        from ..obs.trace import event

        event(
            "fault",
            status="error",
            error=f"injected:{kind}",
            site=site,
            kind=kind,
            arrival=arrival,
            seed=self.seed,
        )
        get_metrics().inc("faults_injected_total", site=site, kind=kind)

    def fired_at(self, site: str) -> int:
        return sum(1 for s, _, _ in self.fired if s == site)


# ----------------------------------------------------------------------
# Global installation point
# ----------------------------------------------------------------------

_installed: Optional[FaultInjector] = None


def get_injector() -> Optional[FaultInjector]:
    return _installed


def install_injector(injector: Optional[FaultInjector]) -> None:
    global _installed
    _installed = injector


@contextlib.contextmanager
def inject(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Install ``injector`` globally for the duration of the block."""
    previous = _installed
    install_injector(injector)
    try:
        yield injector
    finally:
        install_injector(previous)


def maybe_fault(site: str) -> Optional[str]:
    """The hook production code calls at hazard points.

    Free when no injector is installed. Returns an action marker
    (``"evict"`` / ``"corrupt"``) or ``None``; raises for error faults.
    """
    injector = _installed
    if injector is None:
        return None
    return injector.arrive(site)


# ----------------------------------------------------------------------
# Shard-level fault sites (see repro.sharding.executor)
# ----------------------------------------------------------------------

def shard_site(shard_id: int, op: str) -> str:
    """Canonical fault-site name for a shard operation.

    The scatter-gather executor arrives at ``shard.<i>.exec`` when a
    primary attempt starts, ``shard.<i>.hedge`` when a hedged attempt
    starts, and ``shard.<i>.scan`` at every block/batch boundary of the
    shard's scan.
    """
    return f"shard.{shard_id}.{op}"


def kill_shard(shard_id: int, **overrides) -> FaultSpec:
    """A shard that is simply gone: every attempt against it errors."""
    defaults = dict(
        site=shard_site(shard_id, "exec"),
        kind="error",
        message=f"shard {shard_id} unreachable",
    )
    defaults.update(overrides)
    return FaultSpec(**defaults)


def slow_shard(shard_id: int, delay: float, **overrides) -> FaultSpec:
    """A straggler: each scan boundary costs ``delay`` extra seconds."""
    defaults = dict(
        site=shard_site(shard_id, "scan"), kind="slow", delay=delay
    )
    defaults.update(overrides)
    return FaultSpec(**defaults)


def corrupt_shard(shard_id: int, **overrides) -> FaultSpec:
    """A shard whose data fails checksum validation on read."""
    defaults = dict(site=shard_site(shard_id, "exec"), kind="corrupt")
    defaults.update(overrides)
    return FaultSpec(**defaults)
