"""The method common to all workloads: paired operations, rounds, statistics.

Closed loop. Every approximate query runs back to back with its exact
twin -- the same SQL through the same front door with
``QueryOptions(technique="exact")`` -- and which of the two goes first
alternates, so the truth each answer is checked against and the base of
``speedup_vs_exact`` come from the same data state. Statistics are taken
per round and the median over rounds is reported with its quartiles.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro import QueryOptions

#: exact twin and numpy oracle must agree to this relative tolerance
REFERENCE_RTOL = 1e-9


@dataclass(frozen=True)
class Query:
    """One SQL text of a workload's query list."""

    sql: str
    shape: str
    #: group-key and aggregate output aliases
    keys: Tuple[str, ...]
    aggs: Tuple[str, ...]
    #: requested relative error (the ERROR WITHIN clause)
    error: float
    #: techniques the workload expects to serve this text
    expect: Tuple[str, ...]
    #: numpy oracle: () -> {group key tuple: {alias: value}}
    reference: Optional[Callable[[], Dict[tuple, Dict[str, float]]]] = None
    #: QueryOptions.technique to force (the sharded executor's modes)
    technique: Optional[str] = None


@dataclass
class OpRecord:
    """What one operation of the approximate pass did and cost."""

    kind: str  # query | append | tune
    ms: float = 0.0
    exact_ms: float = 0.0
    failed: bool = False
    error: str = ""
    client: int = 0
    qid: int = 0
    shape: str = ""
    technique: str = ""
    degraded: bool = False
    unexpected: bool = False
    cells: int = 0
    covered: int = 0
    met: int = 0
    rows_scanned: int = 0
    exact_rows_scanned: int = 0
    cost: float = 0.0
    fraction_scanned: float = 0.0
    #: serving only
    submit_ms: float = 0.0
    queue_wait_ms: float = 0.0
    exact_queue_wait_ms: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)


def rows_of(result, query: Query) -> Dict[tuple, Dict[str, Tuple[float, float, float]]]:
    """{group key: {alias: (value, ci low, ci high)}} of a result."""
    table = result.table
    n = table.num_rows
    keys = list(zip(*(np.asarray(table[k]).tolist() for k in query.keys))) if query.keys else [()] * n
    ci_low = getattr(result, "ci_low", None) or {}
    ci_high = getattr(result, "ci_high", None) or {}
    out: Dict[tuple, Dict[str, Tuple[float, float, float]]] = {}
    columns = {}
    for alias in query.aggs:
        values = np.asarray(table[alias], dtype=np.float64)
        low = np.asarray(ci_low[alias], dtype=np.float64) if alias in ci_low else values
        high = np.asarray(ci_high[alias], dtype=np.float64) if alias in ci_high else values
        columns[alias] = (values.tolist(), low.tolist(), high.tolist())
    for i, key in enumerate(keys):
        out[tuple(key)] = {
            alias: (cols[0][i], cols[1][i], cols[2][i]) for alias, cols in columns.items()
        }
    return out


def compare_cells(query: Query, approx, exact) -> Tuple[int, int, int]:
    """(cells, cells whose CI holds the exact value, cells within the
    requested relative error). A group the approximate answer lost counts
    as a cell that is neither covered nor within the error."""
    truth = rows_of(exact, query)
    got = rows_of(approx, query)
    cells = covered = met = 0
    for key, row in truth.items():
        for alias, (true_value, _lo, _hi) in row.items():
            cells += 1
            cell = got.get(key, {}).get(alias)
            if cell is None:
                continue
            value, low, high = cell
            if low <= true_value <= high:
                covered += 1
            if abs(value - true_value) <= query.error * abs(true_value):
                met += 1
    return cells, covered, met


def check_reference(query: Query, exact) -> Optional[str]:
    """Compare the exact twin with the numpy oracle; a message on mismatch."""
    if query.reference is None:
        return None
    want = query.reference()
    got = rows_of(exact, query)
    if set(want) != set(got):
        return f"{query.shape}: groups differ ({len(want)} expected, {len(got)} returned)"
    for key, row in want.items():
        for alias, value in row.items():
            have = got[key][alias][0]
            if abs(have - value) > REFERENCE_RTOL * max(abs(value), 1.0):
                return f"{query.shape}: {alias}{key} = {have!r}, oracle says {value!r}"
    return None


def query_seed(seed: int, round_no: int, index: int) -> int:
    """Sampling seed of one query: fixed by (--seed, round, position)."""
    return (seed * 1_000_003 + round_no * 10_007 + index * 101 + 17) % (2**31 - 1)


def run_pair(
    call: Callable[[str, QueryOptions, int], object],
    query: Query,
    options: QueryOptions,
    qid: int,
    approx_first: bool,
    check_expected: bool = True,
) -> Tuple[OpRecord, object]:
    """Run ``query`` and its exact twin; returns the record and the exact
    result. ``call(sql, options, qid)`` is the workload's front door."""
    rec = OpRecord(kind="query", shape=query.shape, qid=qid)
    approx_opts = options.replace(technique=query.technique)
    exact_opts = options.replace(technique="exact")
    approx = exact = None
    for is_approx in ((True, False) if approx_first else (False, True)):
        opts = approx_opts if is_approx else exact_opts
        start = perf_counter()
        try:
            result = call(query.sql, opts, qid if is_approx else -qid)
        except Exception as exc:  # the benchmark boundary: count, don't die
            rec.failed = True
            rec.error = f"{type(exc).__name__}: {exc}"[:200]
            result = None
        elapsed = (perf_counter() - start) * 1e3
        if is_approx:
            rec.ms, approx = elapsed, result
        else:
            rec.exact_ms, exact = elapsed, result
    if approx is None or exact is None:
        rec.failed = True
        return rec, exact
    rec.technique = getattr(approx, "technique", "exact")
    rec.degraded = bool(approx.is_degraded)
    rec.unexpected = check_expected and rec.technique not in query.expect
    rec.cells, rec.covered, rec.met = compare_cells(query, approx, exact)
    rec.rows_scanned = int(approx.stats.rows_scanned)
    rec.exact_rows_scanned = int(exact.stats.rows_scanned)
    rec.cost = float(approx.stats.simulated_cost().total)
    rec.fraction_scanned = float(getattr(approx, "fraction_scanned", 1.0))
    for step in approx.provenance:
        if "coverage" in step:  # the scatter-gather summary step
            rec.extra["coverage"] = float(step["coverage"])
            rec.extra["hedges"] = float(len(step.get("hedged", ())))
    return rec, exact


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) of a run's rounds; a single value is its own
    quartiles. Inclusive: the rounds are all there is, and with five or
    six of them the exclusive method's quartiles are nearly the extremes."""
    if len(values) < 2:
        v = float(values[0]) if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return float(q1), float(q2), float(q3)


def percentile(values: Sequence[float], p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), p)) if len(values) else 0.0


def round_stats(ops: Sequence[OpRecord]) -> Dict[str, float]:
    """The per-round end-to-end timing statistics."""
    done = [o for o in ops if not o.failed]
    queries = [o for o in done if o.kind == "query"]
    latencies = [o.ms for o in queries]
    # Throughput of the approximate pass: each client's completed
    # operations over the wall time it spent in them, summed over clients.
    ops_per_s = 0.0
    for client in {o.client for o in done}:
        mine = [o for o in done if o.client == client]
        busy = sum(o.ms for o in mine) / 1e3
        if busy > 0:
            ops_per_s += len(mine) / busy
    approx_ms = sum(latencies)
    return {
        "query_p50_ms": percentile(latencies, 50),
        "query_p95_ms": percentile(latencies, 95),
        "ops_per_s": ops_per_s,
        "speedup_vs_exact": (sum(o.exact_ms for o in queries) / approx_ms) if approx_ms else 0.0,
    }


def summarize_rounds(rounds: Sequence[Sequence[OpRecord]]) -> Dict[str, Dict[str, float]]:
    """Median over rounds (with quartiles and count) of each timing
    statistic, plus the fractions pooled over every measured operation."""
    per_round = [round_stats(ops) for ops in rounds]
    out: Dict[str, Dict[str, float]] = {}
    for name in ("query_p50_ms", "query_p95_ms", "ops_per_s", "speedup_vs_exact"):
        q1, med, q3 = quartiles([r[name] for r in per_round])
        out[name] = {"value": med, "q1": q1, "q3": q3, "n": len(per_round)}
    ops = [o for r in rounds for o in r]
    attempted = len(ops)
    failed = sum(o.failed for o in ops)
    cells = sum(o.cells for o in ops)
    n_queries = sum(o.kind == "query" for o in ops)
    out["served_frac"] = {"value": 1.0 - failed / max(attempted, 1), "n": attempted}
    out["ci_cover_frac"] = {"value": sum(o.covered for o in ops) / max(cells, 1), "n": cells}
    out["error_met_frac"] = {"value": sum(o.met for o in ops) / max(cells, 1), "n": cells}
    out["_counts"] = {
        "attempted": attempted,
        "failed": failed,
        "queries": n_queries,
        "unexpected": sum(o.unexpected for o in ops),
    }
    return out
