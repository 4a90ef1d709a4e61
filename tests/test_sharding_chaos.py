"""Chaos suite for the sharded serving layer (``pytest -m chaos -k shard``).

Seeded sweeps drive aggregate queries through
:class:`~repro.sharding.ScatterGatherExecutor` while the fault injector
kills, slows, and corrupts shards under a :class:`ManualClock` deadline.
The scatter-gather contract swept:

1. **Termination**: every query ends within its remaining deadline plus
   grace, measured on the fault clock (cooperative checking may overshoot
   by at most one un-checked slow delay, which stays below grace).
2. **Typed failure**: only result objects and :class:`QueryRefused`
   escape — a dead shard is an outcome, not a stack trace.
3. **Per-shard provenance**: every answer AND every refusal records one
   ``scatter_gather`` step per shard with its fate, plus a summary step
   carrying coverage; answers missing shards are flagged degraded under
   the ``reshard_degraded`` rung.
4. **Honest widening**: an exact-mode answer that lost shards must cover
   the whole-table truth *deterministically* (the envelope is a worst
   case, not an estimate); OLA-mode degraded answers must cover at the
   pooled statistical rate.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import pytest

from repro.core.errorspec import ErrorSpec
from repro.core.exceptions import QueryRefused
from repro.core.options import QueryOptions
from repro.core.result import ApproximateResult
from repro.engine.table import Table
from repro.resilience import (
    Deadline,
    FaultInjector,
    FaultSpec,
    ManualClock,
    RESHARD_RUNG,
    inject,
    shard_site,
)
from repro.sharding import SCATTER_RUNG, ScatterGatherExecutor, ShardedTable

pytestmark = pytest.mark.chaos

_seed_env = os.environ.get("CHAOS_SEED")
SEEDS = [int(_seed_env)] if _seed_env else [0, 1, 2]

#: must stay below every deadline's grace window (see invariant 1)
SLOW_DELAY = 0.15

N_ROWS = 6_000
NUM_SHARDS = 8
TRIALS_PER_SEED = 5

STATUSES = {"served", "served_hedged", "failed", "breaker_open"}

SPEC = ErrorSpec(relative_error=0.10, confidence=0.95)


@dataclass
class Outcome:
    """One query's fate under one shard-fault schedule."""

    kind: str  # "answer" | "refused"
    mode: str
    elapsed: float
    allowed: float
    provenance: List[dict]
    degraded: bool = False
    coverage: Optional[float] = None
    ci_covers: Optional[bool] = None
    value_matches_exact: Optional[bool] = None
    statuses: List[str] = field(default_factory=list)


def _random_schedule(
    rng: np.random.Generator, clock: ManualClock
) -> FaultInjector:
    """Each shard independently draws at most one fault family."""
    specs = []
    for shard_id in range(NUM_SHARDS):
        if rng.random() >= 0.35:
            continue
        kind = rng.choice(["kill", "corrupt", "slow", "scan_error"])
        if kind == "kill":
            spec = FaultSpec(
                site=shard_site(shard_id, "exec"),
                kind="error",
                probability=float(rng.uniform(0.3, 1.0)),
                message=f"shard {shard_id} unreachable",
            )
        elif kind == "corrupt":
            spec = FaultSpec(
                site=shard_site(shard_id, "exec"),
                kind="corrupt",
                probability=float(rng.uniform(0.3, 1.0)),
            )
        elif kind == "slow":
            spec = FaultSpec(
                site=shard_site(shard_id, "scan"),
                kind="slow",
                probability=float(rng.uniform(0.3, 1.0)),
                delay=SLOW_DELAY,
                max_fires=(
                    None if rng.random() < 0.5 else int(rng.integers(1, 4))
                ),
            )
        else:
            spec = FaultSpec(
                site=shard_site(shard_id, "scan"),
                kind="error",
                probability=float(rng.uniform(0.3, 1.0)),
                after=int(rng.integers(0, 2)),
                max_fires=(
                    None if rng.random() < 0.5 else int(rng.integers(1, 3))
                ),
            )
        specs.append(spec)
    return FaultInjector(specs, seed=int(rng.integers(2**31)), clock=clock)


def _build_world(rng: np.random.Generator):
    values = rng.lognormal(3.0, 1.0, N_ROWS)
    table = Table({"value": values}, name="events")
    sharded = ShardedTable.from_table(table, NUM_SHARDS)
    truths = {
        "sum_gt": float(values[values > 20.0].sum()),
        "avg": float(values.mean()),
    }
    return sharded, truths


QUERIES = [
    ("SELECT SUM(value) AS s FROM events WHERE value > 20", "s", "sum_gt",
     "exact"),
    ("SELECT SUM(value) AS s FROM events WHERE value > 20", "s", "sum_gt",
     "ola"),
    ("SELECT AVG(value) AS a FROM events", "a", "avg", "exact"),
]


def _run_sweep(seed: int) -> List[Outcome]:
    outcomes: List[Outcome] = []
    rng = np.random.default_rng(seed)
    for _trial in range(TRIALS_PER_SEED):
        sharded, truths = _build_world(rng)
        executor = ScatterGatherExecutor(sharded, max_workers=1)
        clock = ManualClock()
        injector = _random_schedule(rng, clock)
        with inject(injector):
            for sql, alias, truth_key, mode in QUERIES:
                seconds = float(rng.choice([2.0, 5.0]))
                deadline = Deadline(seconds, clock=clock)
                clock.advance(float(rng.choice([0.0, 0.5])) * seconds)
                remaining = max(deadline.remaining(), 0.0)
                start = clock.now()
                truth = truths[truth_key]
                try:
                    result = executor.sql(
                        sql,
                        options=QueryOptions(
                            spec=SPEC if mode == "ola" else None,
                            seed=int(rng.integers(2**31)),
                            technique=mode,
                            deadline=deadline,
                        ),
                    )
                except QueryRefused as exc:
                    outcomes.append(
                        Outcome(
                            kind="refused",
                            mode=mode,
                            elapsed=clock.now() - start,
                            allowed=remaining + deadline.grace_seconds,
                            provenance=exc.provenance,
                            statuses=[
                                p["status"]
                                for p in exc.provenance
                                if "shard" in p
                            ],
                        )
                    )
                    continue
                covers = None
                matches = None
                if isinstance(result, ApproximateResult):
                    cell = result.estimate(alias, 0)
                    if math.isfinite(cell.ci_low) and math.isfinite(
                        cell.ci_high
                    ):
                        covers = cell.covers(truth) or math.isclose(
                            cell.value, truth, rel_tol=1e-9
                        )
                else:
                    matches = math.isclose(
                        float(result.table[alias][0]), truth, rel_tol=1e-9
                    )
                summary = result.provenance[-1]
                outcomes.append(
                    Outcome(
                        kind="answer",
                        mode=mode,
                        elapsed=clock.now() - start,
                        allowed=remaining + deadline.grace_seconds,
                        provenance=result.provenance,
                        degraded=result.is_degraded,
                        coverage=summary.get("coverage"),
                        ci_covers=covers,
                        value_matches_exact=matches,
                        statuses=[
                            p["status"]
                            for p in result.provenance
                            if "shard" in p
                        ],
                    )
                )
    return outcomes


@pytest.fixture(params=SEEDS, ids=lambda s: f"seed{s}")
def sweep(request):
    return _run_sweep(request.param)


class TestShardChaosInvariants:
    def test_every_query_terminates_within_deadline_plus_grace(self, sweep):
        late = [o for o in sweep if o.elapsed > o.allowed + 1e-9]
        assert not late, (
            f"{len(late)}/{len(sweep)} sharded queries overran deadline + "
            f"grace: {[(o.elapsed, o.allowed) for o in late]}"
        )

    def test_only_typed_outcomes(self, sweep):
        # _run_sweep catches only QueryRefused; reaching here means
        # nothing untyped escaped any shard worker or the gather.
        assert len(sweep) == TRIALS_PER_SEED * len(QUERIES)
        assert {o.kind for o in sweep} <= {"answer", "refused"}

    def test_per_shard_provenance_is_complete(self, sweep):
        for o in sweep:
            shard_steps = [p for p in o.provenance if "shard" in p]
            assert len(shard_steps) == NUM_SHARDS, (
                f"{len(shard_steps)} shard steps for {NUM_SHARDS} shards"
            )
            assert [p["shard"] for p in shard_steps] == list(
                range(NUM_SHARDS)
            )
            for p in shard_steps:
                assert p["rung"] == SCATTER_RUNG
                assert p["status"] in STATUSES
                if p["status"] == "failed":
                    assert p["error"], "a failed shard with no error"
                if p["status"] == "served_hedged":
                    assert "abandoned" in p["attempts"] or p["attempts"]
            summary = o.provenance[-1]
            assert "shard" not in summary
            assert "coverage" in summary
            if o.kind == "answer":
                assert summary["outcome"] == "ok"
            else:
                assert summary["outcome"] == "failed"

    def test_answers_report_true_coverage(self, sweep):
        for o in sweep:
            if o.kind != "answer":
                continue
            served = sum(
                1 for s in o.statuses if s in ("served", "served_hedged")
            )
            assert o.coverage is not None
            assert 0.0 < o.coverage <= 1.0
            if served == NUM_SHARDS:
                assert o.coverage == pytest.approx(1.0)
                assert not o.degraded
            else:
                assert o.degraded
                assert o.provenance[-1]["rung"] == RESHARD_RUNG
                assert o.coverage >= 0.5  # the default quorum floor held

    def test_full_coverage_exact_answers_are_exact(self, sweep):
        for o in sweep:
            if o.kind == "answer" and o.mode == "exact" and not o.degraded:
                if o.value_matches_exact is not None:
                    assert o.value_matches_exact

    def test_exact_mode_widening_covers_deterministically(self, sweep):
        # The missing-shard envelope is a worst case over every possible
        # predicate outcome: with exactly-served survivors it must cover
        # ALWAYS, not just at the confidence level.
        judged = [
            o for o in sweep
            if o.kind == "answer" and o.mode == "exact" and o.degraded
            and o.ci_covers is not None
        ]
        for o in judged:
            assert o.ci_covers, (
                "an exact-mode k-of-n answer failed to cover the "
                "whole-table truth"
            )

    def test_ola_mode_degraded_cis_cover_pooled(self, sweep):
        judged = [
            o for o in sweep
            if o.kind == "answer" and o.mode == "ola"
            and o.ci_covers is not None
        ]
        if len(judged) < 3:
            pytest.skip(
                f"only {len(judged)} OLA answers in this schedule family"
            )
        coverage = sum(o.ci_covers for o in judged) / len(judged)
        assert coverage >= 0.85, (
            f"pooled sharded-OLA coverage {coverage:.2f} over "
            f"{len(judged)} answers"
        )


def test_shard_sweep_is_deterministic():
    """The same seed replays the exact same fates and provenance."""
    a = _run_sweep(SEEDS[0])
    b = _run_sweep(SEEDS[0])
    assert [(o.kind, o.mode, o.elapsed, o.coverage) for o in a] == [
        (o.kind, o.mode, o.elapsed, o.coverage) for o in b
    ]
    assert [o.provenance for o in a] == [o.provenance for o in b]
