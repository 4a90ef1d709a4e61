"""Concurrent chaos sweeps of the serving front-end.

The serving invariants, asserted under worker-thread concurrency and a
seeded fault schedule (the same CHAOS_SEED matrix the single-threaded
chaos suite sweeps):

1. **no deadlock** — every submitted query resolves within a global
   timeout, whatever the injector does;
2. **exactly one outcome** — each query ends as an answer (with CI and
   ladder provenance), a typed :class:`QueryRefused` (with provenance),
   or a typed :class:`QueryRejected`; never an untyped error, never
   more than one;
3. **schedule-free determinism** — with per-query fault keying
   (:func:`query_scope` + splitmix derivation), the same seed produces
   the same fault decisions and the same answers whether the queue is
   drained by 1 worker or 4.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Database
from repro.core.exceptions import QueryRefused, QueryRejected
from repro.core.options import QueryOptions
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import (
    FaultInjector,
    FaultSpec,
    inject,
    query_scope,
    splitmix64,
)
from repro.resilience.ladder import LADDER_RUNGS, ResilientEngine
from repro.serving import OverloadController, ServingFrontend

pytestmark = [pytest.mark.chaos, pytest.mark.stress]

#: same seed matrix the single-threaded chaos suite sweeps
CHAOS_SEEDS = (0, 1, 2, 3)

QUERIES = [
    "SELECT SUM(v) AS s FROM events ERROR WITHIN 20% CONFIDENCE 95%",
    "SELECT COUNT(*) AS c FROM events WHERE v > 2 "
    "ERROR WITHIN 20% CONFIDENCE 95%",
    "SELECT SUM(v) AS s, COUNT(*) AS c FROM events WHERE v > 5",
    "SELECT AVG(v) AS a FROM events ERROR WITHIN 25% CONFIDENCE 90%",
]


@pytest.fixture(scope="module")
def chaos_db():
    rng = np.random.default_rng(23)
    db = Database()
    db.create_table(
        "events",
        {
            "v": rng.exponential(10.0, 30_000),
            "k": rng.integers(0, 10, 30_000),
        },
        block_size=1024,
    )
    return db


def _chaos_injector(seed: int) -> FaultInjector:
    """Probabilistic faults at every ladder rung, keyed by the seed."""
    return FaultInjector(
        [
            FaultSpec("ladder.requested", kind="error", probability=0.6),
            FaultSpec("sample.metadata", kind="corrupt", probability=0.5),
            FaultSpec(
                "ladder.cheaper_technique", kind="error", probability=0.5
            ),
            FaultSpec("ladder.partial_ola", kind="error", probability=0.5),
            FaultSpec(
                "ladder.exact_no_guarantee", kind="error", probability=0.3
            ),
        ],
        seed=seed,
    )


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_concurrent_chaos_exactly_one_outcome(chaos_db, seed):
    """4 workers x faulty ladder: nothing hangs, everything ends typed."""
    n_queries = 24
    fe = ServingFrontend(
        chaos_db,
        workers=4,
        max_queue=8,  # small on purpose: overload rejections are in scope
        seed=seed,
    )
    tickets, rejected = [], []
    lock = threading.Lock()

    def client(client_id: int) -> None:
        for i in range(n_queries // 4):
            query = QUERIES[(client_id + i) % len(QUERIES)]
            try:
                t = fe.submit(
                    query,
                    options=QueryOptions(
                        tenant=f"c{client_id}",
                        priority="interactive" if i % 2 else "batch",
                        seed=seed * 100 + i,
                    ),
                )
                with lock:
                    tickets.append(t)
            except QueryRejected as exc:
                with lock:
                    rejected.append(exc)

    try:
        with inject(_chaos_injector(seed)):
            threads = [
                threading.Thread(target=client, args=(c,)) for c in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert fe.drain(timeout=120.0), "serving queue failed to drain"

        outcomes = {"ok": 0, "refused": 0, "rejected": 0}
        for ticket in tickets:
            assert ticket.wait(timeout=60.0), (
                f"query {ticket.query_id} never resolved (deadlock?)"
            )
            err = ticket.exception()
            if err is None:
                result = ticket.result()
                assert result.provenance, "answers carry ladder provenance"
                assert any(
                    p["outcome"] == "ok" for p in result.provenance
                )
                outcomes["ok"] += 1
            elif isinstance(err, QueryRejected):
                outcomes["rejected"] += 1
            elif isinstance(err, QueryRefused):
                assert err.provenance, "refusals carry full provenance"
                assert all(
                    p["outcome"] in ("failed", "skipped")
                    for p in err.provenance
                )
                outcomes["refused"] += 1
            else:
                pytest.fail(
                    f"untyped error escaped the ladder: {type(err).__name__}: {err}"
                )
        total = sum(outcomes.values()) + len(rejected)
        assert total == n_queries, (
            f"every query must end in exactly one outcome "
            f"({outcomes}, +{len(rejected)} rejected at submit, "
            f"of {n_queries})"
        )
    finally:
        fe.close()


def _run_schedule(db, seed: int, workers: int):
    """One full workload under the chaos seed; returns (faults, answers)."""
    injector = _chaos_injector(seed)
    engine = ResilientEngine(db, warn_on_degrade=False)
    # Breakers count *globally* across queries, so their trips depend on
    # the drain order; disarm them to isolate the per-query RNG claim
    # (breaker determinism is pinned by the sequential suite).
    for rung in LADDER_RUNGS:
        engine.breakers[rung] = CircuitBreaker(
            failure_threshold=10**6, name=f"ladder.{rung}"
        )
    fe = ServingFrontend(
        engine=engine,
        workers=workers,
        max_queue=64,  # never overload: admission must not differ
        controller=OverloadController(64, max_level=0),
        seed=seed,
    )
    answers = {}
    try:
        with inject(injector):
            tickets = {}
            for i, query in enumerate(QUERIES * 3):
                qid = splitmix64(seed, i)
                tickets[qid] = fe.submit(
                    query,
                    options=QueryOptions(seed=i),
                    query_id=qid,
                )
            assert fe.drain(timeout=120.0)
        for qid, ticket in tickets.items():
            err = ticket.exception(timeout=60.0)
            if err is None:
                result = ticket.result()
                answers[qid] = (
                    "ok",
                    {
                        c: np.asarray(result.table[c]).tolist()
                        for c in result.table.column_names
                    },
                    [p["rung"] + ":" + p["outcome"] for p in result.provenance],
                )
            else:
                answers[qid] = ("error", type(err).__name__, str(err))
    finally:
        fe.close()
    return set(injector.fired_by_query), answers


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_same_seed_two_schedules_same_faults_and_answers(chaos_db, seed):
    """1-worker and 4-worker drains of the same workload are identical.

    Fault decisions are pure functions of (seed, site, query_id,
    arrival-within-query), so the thread schedule cannot reorder RNG
    draws; the fired-fault *set* and every per-query answer (values and
    provenance) must match exactly.
    """
    faults_seq, answers_seq = _run_schedule(chaos_db, seed, workers=1)
    faults_par, answers_par = _run_schedule(chaos_db, seed, workers=4)
    assert faults_seq == faults_par, (
        "fault schedule depends on the thread interleaving"
    )
    assert answers_seq.keys() == answers_par.keys()
    for qid in answers_seq:
        assert answers_seq[qid] == answers_par[qid], (
            f"query {qid} diverged between schedules"
        )


def test_fault_decisions_keyed_per_query():
    """Under query_scope, a query's faults ignore other queries' traffic."""

    def draws(query_id: int, injector: FaultInjector):
        fired = []
        with query_scope(query_id):
            for _ in range(8):
                try:
                    injector.arrive("site.x")
                    fired.append(False)
                except Exception:
                    fired.append(True)
        return fired

    # Run query 1 alone...
    inj_a = FaultInjector(
        [FaultSpec("site.x", kind="error", probability=0.5)], seed=9
    )
    alone = draws(1, inj_a)
    # ...and after heavy traffic from query 2: identical decisions.
    inj_b = FaultInjector(
        [FaultSpec("site.x", kind="error", probability=0.5)], seed=9
    )
    draws(2, inj_b)
    draws(2, inj_b)
    interleaved = draws(1, inj_b)
    assert alone == interleaved
