"""Chaos suite: seeded fault sweeps against the resilience layer.

Every test here drives real queries through :class:`ResilientEngine`
while a :class:`FaultInjector` breaks the engine's hazard points —
scans that throw or run slow, cache entries that vanish, sample
metadata that comes back corrupted, whole ladder rungs that die — under
a :class:`ManualClock` deadline, so a given ``(seed, schedule)`` replays
byte-identically.

The invariants swept (the serving layer's contract):

1. **Termination**: every query ends within its remaining deadline plus
   the 10% grace allowance, as measured on the fault clock.
2. **Typed failure**: nothing escapes except result objects and
   :class:`ReproError` subclasses (``QueryRefused`` in particular) —
   never a bare ``KeyError`` from three layers down.
3. **Complete provenance**: every answer and every refusal records what
   happened at each rung it passed, in ladder order.
4. **Honest degradation**: a degraded answer never claims an error
   bound tighter than the user's original request, and its widened CIs
   actually cover (pooled across the sweep).

Run via ``pytest -m chaos``; the CI matrix sets ``CHAOS_SEED`` to pin
each job to one schedule family.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import pytest

from repro.core.exceptions import QueryRefused, ReproError
from repro.core.options import QueryOptions
from repro.core.result import ApproximateResult
from repro.engine.table import Table
from repro.engine.database import Database
from repro.offline.catalog import SampleEntry, SynopsisCatalog
from repro.resilience import (
    Deadline,
    FaultInjector,
    FaultSpec,
    LADDER_RUNGS,
    ManualClock,
    ResilientEngine,
    inject,
)
from repro.sampling.row import srs_sample

pytestmark = pytest.mark.chaos

#: CI pins one schedule family per job via CHAOS_SEED; local runs sweep
#: a small matrix so a single ``pytest -m chaos`` covers several.
_seed_env = os.environ.get("CHAOS_SEED")
SEEDS = [int(_seed_env)] if _seed_env else [0, 1, 2]

#: per-fault slow delay; must stay below every deadline's grace window
#: (cooperative checking can overshoot by at most one unchecked delay)
SLOW_DELAY = 0.15

N_ROWS = 6_000
TRIALS_PER_SEED = 6

#: the hazard sites the production code exposes, with the fault kinds
#: that make sense at each
SITE_KINDS = [
    ("executor.scan", "slow"),
    ("executor.scan", "error"),
    ("cache.lookup", "evict"),
    ("sample.metadata", "corrupt"),
    ("catalog.sketch_build", "error"),
    ("ladder.requested", "error"),
    ("ladder.stale_synopsis", "error"),
    ("ladder.cheaper_technique", "error"),
    ("ladder.partial_ola", "error"),
    ("ladder.exact_no_guarantee", "error"),
]

APPROX_SPEC_REL = 0.05

QUERIES = [
    ("SELECT SUM(price) AS s FROM sales ERROR WITHIN 5% CONFIDENCE 95%",
     "s", "sum"),
    ("SELECT AVG(price) AS a FROM sales ERROR WITHIN 5% CONFIDENCE 95%",
     "a", "avg"),
    ("SELECT SUM(price) AS s FROM sales", "s", "exact_sum"),
]


@dataclass
class Outcome:
    """One query's fate under one chaos schedule."""

    kind: str  # "answer" | "refused"
    elapsed: float
    allowed: float  # remaining-at-start + grace
    provenance: List[dict]
    degraded: bool = False
    claimed_rel: Optional[float] = None
    ci_covers: Optional[bool] = None  # None when no CI was reported


def _random_schedule(rng: np.random.Generator, clock: ManualClock) -> FaultInjector:
    """Draw a fault schedule: each site/kind joins with probability 0.4."""
    specs = []
    for site, kind in SITE_KINDS:
        if rng.random() >= 0.4:
            continue
        specs.append(
            FaultSpec(
                site=site,
                kind=kind,
                probability=float(rng.uniform(0.3, 1.0)),
                after=int(rng.integers(0, 2)),
                max_fires=(
                    None if rng.random() < 0.5 else int(rng.integers(1, 4))
                ),
                delay=SLOW_DELAY if kind == "slow" else 0.0,
            )
        )
    return FaultInjector(specs, seed=int(rng.integers(2**31)), clock=clock)


def _build_world(rng: np.random.Generator):
    """A database, its truths, and (sometimes) a stale sample."""
    prices = rng.lognormal(3.0, 1.0, N_ROWS)
    db = Database()
    db.create_table("sales", {"price": prices})
    if rng.random() < 0.5:
        prefix = int(N_ROWS * 0.8)
        sample = srs_sample(
            Table({"price": prices[:prefix]}, name="sales"), 1000, rng
        )
        catalog = SynopsisCatalog(db)
        catalog.add_sample(
            SampleEntry(
                table="sales", sample=sample, kind="uniform",
                built_at_rows=prefix,
            )
        )
    truths = {"sum": float(prices.sum()), "avg": float(prices.mean())}
    return db, truths


def _run_sweep(seed: int) -> List[Outcome]:
    outcomes: List[Outcome] = []
    rng = np.random.default_rng(seed)
    for trial in range(TRIALS_PER_SEED):
        db, truths = _build_world(rng)
        engine = ResilientEngine(db, warn_on_degrade=False)
        clock = ManualClock()
        injector = _random_schedule(rng, clock)
        with inject(injector):
            for sql, alias, truth_key in QUERIES:
                seconds = float(rng.choice([2.0, 5.0]))
                deadline = Deadline(seconds, clock=clock)
                # Simulated queueing delay: some queries start with most
                # (or all) of their deadline already gone.
                clock.advance(float(rng.choice([0.0, 0.6, 1.2])) * seconds)
                remaining = max(deadline.remaining(), 0.0)
                start = clock.now()
                try:
                    result = engine.sql(
                        sql,
                        options=QueryOptions(
                            seed=int(rng.integers(2**31)), deadline=deadline
                        ),
                    )
                except QueryRefused as exc:
                    outcomes.append(
                        Outcome(
                            kind="refused",
                            elapsed=clock.now() - start,
                            allowed=remaining + deadline.grace_seconds,
                            provenance=exc.provenance,
                        )
                    )
                    continue
                # Invariant 2 is enforced by this except clause's shape:
                # anything that is not a ReproError fails the test here.
                truth = truths[truth_key.replace("exact_", "")]
                covers = None
                claimed = None
                if isinstance(result, ApproximateResult):
                    claimed = result.spec.relative_error
                    cell = result.estimate(alias, 0)
                    if math.isfinite(cell.ci_low) and math.isfinite(cell.ci_high):
                        # A fully-scanned OLA reports the exact answer
                        # with a zero-width CI; don't let summation-order
                        # float noise read as a coverage miss.
                        covers = cell.covers(truth) or math.isclose(
                            cell.value, truth, rel_tol=1e-9
                        )
                outcomes.append(
                    Outcome(
                        kind="answer",
                        elapsed=clock.now() - start,
                        allowed=remaining + deadline.grace_seconds,
                        provenance=result.provenance,
                        degraded=result.is_degraded,
                        claimed_rel=claimed,
                        ci_covers=covers,
                    )
                )
    return outcomes


@pytest.fixture(params=SEEDS, ids=lambda s: f"seed{s}")
def sweep(request):
    return _run_sweep(request.param)


class TestChaosInvariants:
    def test_every_query_terminates_within_deadline_plus_grace(self, sweep):
        late = [
            o for o in sweep if o.elapsed > o.allowed + 1e-9
        ]
        assert not late, (
            f"{len(late)}/{len(sweep)} queries overran their deadline + "
            f"grace: {[(o.elapsed, o.allowed) for o in late]}"
        )

    def test_only_typed_outcomes(self, sweep):
        # _run_sweep only catches QueryRefused (a ReproError); reaching
        # this point at all means nothing untyped escaped. Check the
        # sweep actually exercised both outcome kinds across schedules.
        kinds = {o.kind for o in sweep}
        assert "answer" in kinds
        assert len(sweep) == TRIALS_PER_SEED * len(QUERIES)

    def test_provenance_is_complete_and_ordered(self, sweep):
        for o in sweep:
            assert o.provenance, "an outcome with no provenance at all"
            rungs = [p["rung"] for p in o.provenance]
            # Rung order must follow the ladder (exact-only queries use
            # the final rung alone).
            order = [r for r in LADDER_RUNGS if r in rungs]
            assert rungs == order
            for p in o.provenance:
                assert p["outcome"] in ("ok", "failed", "skipped")
                if p["outcome"] == "failed":
                    assert p["error"], "a failure with no recorded error"
            if o.kind == "answer":
                assert o.provenance[-1]["outcome"] == "ok"
                assert all(
                    p["outcome"] != "ok" for p in o.provenance[:-1]
                )
            else:
                assert all(
                    p["outcome"] in ("failed", "skipped")
                    for p in o.provenance
                )

    def test_degraded_answers_never_tighten_the_contract(self, sweep):
        for o in sweep:
            if o.kind != "answer" or o.claimed_rel is None:
                continue
            if o.degraded:
                assert o.claimed_rel >= APPROX_SPEC_REL - 1e-12, (
                    "a degraded answer claimed a tighter error bound "
                    "than the original request"
                )

    def test_degraded_cis_cover_pooled(self, sweep):
        judged = [
            o for o in sweep
            if o.kind == "answer" and o.degraded and o.ci_covers is not None
        ]
        if len(judged) < 8:
            pytest.skip(
                f"only {len(judged)} degraded CI answers in this schedule "
                "family; coverage pooling needs more"
            )
        coverage = sum(o.ci_covers for o in judged) / len(judged)
        # Widened/fixed-stop CIs claim >= 95%; the pooled check allows
        # small-sample slack but catches any systematic lie.
        assert coverage >= 0.85, (
            f"pooled degraded-CI coverage {coverage:.2f} over "
            f"{len(judged)} answers"
        )


def test_sweep_is_deterministic():
    """The same seed replays the exact same fates and provenance."""
    a = _run_sweep(SEEDS[0])
    b = _run_sweep(SEEDS[0])
    assert [(o.kind, o.elapsed, o.claimed_rel) for o in a] == [
        (o.kind, o.elapsed, o.claimed_rel) for o in b
    ]
    assert [o.provenance for o in a] == [o.provenance for o in b]


# ----------------------------------------------------------------------
# Fault spans: every injected fault is visible in the trace
# ----------------------------------------------------------------------

_FAULT_SPAN_SEEDS = [int(_seed_env)] if _seed_env else [0, 1, 2, 3]


@pytest.mark.obs
@pytest.mark.parametrize("seed", _FAULT_SPAN_SEEDS, ids=lambda s: f"seed{s}")
def test_every_injected_fault_appears_as_a_failed_span(seed):
    """Trace/injector agreement: the injector's ``fired`` log and the
    trace's ``fault`` spans are the same sequence, every span is marked
    failed, and every span carries the schedule's seed — so a trace
    alone identifies the exact chaos schedule that produced it."""
    from repro.obs.schema import validate_span
    from repro.obs.trace import Tracer, trace_scope

    rng = np.random.default_rng(seed)
    for _ in range(TRIALS_PER_SEED):
        db, _ = _build_world(rng)
        engine = ResilientEngine(db, warn_on_degrade=False)
        clock = ManualClock()
        injector = _random_schedule(rng, clock)
        tracer = Tracer(clock=clock)
        with trace_scope(tracer):
            with inject(injector):
                for sql, _, _ in QUERIES:
                    deadline = Deadline(5.0, clock=clock)
                    try:
                        engine.sql(
                            sql,
                            options=QueryOptions(
                                seed=int(rng.integers(2**31)), deadline=deadline
                            ),
                        )
                    except QueryRefused:
                        pass
        fault_spans = tracer.find("fault")
        traced = [
            (s.attributes["site"], s.attributes["kind"], s.attributes["arrival"])
            for s in fault_spans
        ]
        assert traced == injector.fired, (
            "trace and injector disagree about what fired"
        )
        for s in fault_spans:
            assert s.status == "error"
            assert s.error == f"injected:{s.attributes['kind']}"
            assert s.attributes["seed"] == injector.seed
            assert validate_span(s.to_dict()) == []
