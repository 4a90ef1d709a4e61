"""E8 — maintenance overheads of offline synopses under updates.

Claim: keeping precomputed samples fresh costs real work — eager refresh
pays a full rescan per batch, threshold refresh amortizes but still
rescans periodically, and only designs with an exact append rule (uniform
and stratified samples, folded in by the catalog on every append) enjoy a
cheap incremental path. When updates are frequent relative to queries,
the cumulative maintenance bill of the rest erases the query-time savings.
"""

import numpy as np
import pytest

from common import table, write_report
from repro import Database
from repro.offline import (
    MaintenanceSimulator,
    SampleEntry,
    SynopsisCatalog,
    cumulative_overhead,
)
from repro.sampling.row import srs_sample
from repro.sampling.stratified import stratified_sample
from repro.storage.cost import scan_cost

BATCHES = 10
BATCH_SIZE = 15_000
SAMPLE_ROWS = 8_000


def fresh_db(seed=19, n=150_000):
    rng = np.random.default_rng(seed)
    db = Database()
    db.create_table(
        "stream",
        {
            "value": rng.exponential(10.0, n),
            "key": rng.integers(0, 20, n),
        },
        block_size=1024,
    )
    return db, rng


def register(db, rng, kind):
    catalog = SynopsisCatalog.for_database(db)
    base = db.table("stream")
    if kind == "uniform":
        sample = srs_sample(base, SAMPLE_ROWS, rng)
        entry = SampleEntry(
            table="stream", sample=sample, kind="uniform",
            built_at_rows=base.num_rows,
        )
    else:
        sample = stratified_sample(base, "key", SAMPLE_ROWS, rng=rng)
        entry = SampleEntry(
            table="stream", sample=sample, kind="stratified",
            strata_column="key", built_at_rows=base.num_rows,
        )
    catalog.add_sample(entry)
    return entry


def batch(rng):
    return {
        "value": rng.exponential(10.0, BATCH_SIZE),
        "key": rng.integers(0, 20, BATCH_SIZE),
    }


def test_e08_policy_costs():
    def compute():
        rows = []
        for policy, kind in (
            ("eager", "uniform"),
            ("threshold", "uniform"),
            ("reservoir", "uniform"),
            ("never", "uniform"),
            ("threshold", "stratified"),
        ):
            db, rng = fresh_db()
            entry = register(db, rng, kind)
            sim = MaintenanceSimulator(db, policy=policy, seed=3)
            for _ in range(BATCHES):
                sim.apply_batch("stream", batch(rng))
            final_stale = entry.staleness(db)
            rows.append(
                (
                    f"{policy}/{kind}",
                    sim.log.rebuilds,
                    sim.log.rows_rescanned,
                    round(sim.log.cost, 1),
                    round(final_stale, 3),
                )
            )
        return rows

    rows = compute()
    write_report(
        "e08_policies",
        table(
            ["policy/synopsis", "rebuilds", "rows rescanned", "cost", "final staleness"],
            rows,
        ),
    )
    by = {r[0]: r for r in rows}
    # Shape: eager >> threshold >> reservoir in cost; never is free but stale.
    assert by["eager/uniform"][3] > by["threshold/uniform"][3]
    assert by["threshold/uniform"][3] > by["reservoir/uniform"][3]
    assert by["never/uniform"][3] == 0 and by["never/uniform"][4] > 0.5
    # Without append maintenance a stratified sample pays in rescans.
    assert by["threshold/stratified"][1] >= 1


def test_e08_break_even():
    """Net benefit = savings − maintenance, as the query:update ratio varies."""

    def compute():
        db, rng = fresh_db()
        register(db, rng, "uniform")
        sim = MaintenanceSimulator(db, policy="threshold", seed=4)
        for _ in range(BATCHES):
            sim.apply_batch("stream", batch(rng))
        base = db.table("stream")
        per_query_savings = 0.95 * scan_cost(base.num_blocks, base.num_rows).total
        rows = []
        for queries in (1, 5, 20, 100, 1000):
            rows.append(
                (queries, cumulative_overhead(sim.log, queries, per_query_savings))
            )
        return rows

    rows = compute()
    write_report(
        "e08_break_even",
        table(
            ["queries between update bursts", "net benefit ratio"],
            [(q, f"{r:.2f}") for q, r in rows],
        ),
    )
    # Shape: negative (maintenance dominates) at low query volume,
    # approaching 1 (pure savings) at high volume.
    assert rows[0][1] < 0.5
    assert rows[-1][1] > 0.9
