"""Per-layer metrics: span timings, direct probes and program counters.

Every name here is declared in BENCHMARK.json under ``per_layer``; a
layer that does not run in a workload (sharding on ``scan_heavy``) reads
0. README.md says which end-to-end metric each one should move.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro import Database, QueryOptions
from repro.engine.kernel_cache import get_kernel_cache
from repro.obs.trace import Tracer, trace_scope
from repro.resilience.ladder import ResilientEngine
from repro.sampling.block import block_bernoulli_sample
from repro.sampling.distinct import distinct_sample
from repro.sampling.row import bernoulli_sample
from repro.sampling.stratified import group_estimates, stratified_sample
from repro.sharding import ScatterGatherExecutor
from repro.sketches.hyperloglog import hll_from_column
from repro.storage.synopsis_cache import get_global_cache

from harness import OpRecord, percentile
from spans import LAYERS, SpanRecorder

PROBE_REPS = 3
#: Quickr's sampling rate and distinct-sampler cap (online/quickr.py)
QUICKR_RATE = 0.1
QUICKR_FREQUENCY_CAP = 10
#: size of the stratified sample the sampler and estimator probes use
SAMPLE_ROWS = 20_000


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def timed_ms(fn: Callable, reps: int = PROBE_REPS) -> List[float]:
    out = []
    for _ in range(reps):
        start = perf_counter()
        fn()
        out.append((perf_counter() - start) * 1e3)
    return out


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation (average ranks for ties); 0 if constant."""
    if len(x) < 3:
        return 0.0

    def ranks(values):
        values = np.asarray(values, dtype=np.float64)
        order = np.argsort(values, kind="stable")
        rank = np.empty(len(values))
        rank[order] = np.arange(len(values), dtype=np.float64)
        for v in np.unique(values):
            tie = values == v
            rank[tie] = rank[tie].mean()
        return rank

    rx, ry = ranks(x), ranks(y)
    if rx.std() == 0 or ry.std() == 0:
        return 0.0
    return float(np.corrcoef(rx, ry)[0, 1])


# ----------------------------------------------------------------------
# From the benchmark's spans
# ----------------------------------------------------------------------
def span_metrics(recorder: SpanRecorder, traced: Sequence[OpRecord]) -> Dict[str, float]:
    approx = {o.qid for o in traced if o.kind == "query"}
    exact = {-q for q in approx}
    out: Dict[str, float] = {}
    selfs = recorder.self_times()

    def p50(name, qids=None):
        return median(recorder.durations(name, qids))

    out["sql.parse_ms_p50"] = p50("sql.parse")
    out["sql.bind_ms_p50"] = median(
        [selfs[s[0]][0] * 1e3 for s in recorder.spans if s[1] == "sql.bind"]
    )
    out["engine.optimize_ms_p50"] = p50("engine.optimize")
    out["engine.execute_exact_ms_p50"] = p50("engine.execute", exact)
    out["online.pilot_ms_p50"] = p50("online.pilot", approx)
    out["online.quickr_ms_p50"] = p50("online.quickr", approx)
    out["offline.rewrite_ms_p50"] = p50("offline.rewrite", approx)
    out["core.advisor_ms_p50"] = p50("core.advisor", approx)
    out["sharding.scatter_ms_p50"] = p50("sharding.scatter", approx)
    out["sharding.shard_ms_p50"] = p50("sharding.shard", approx)

    # the slowest shard of each scatter sets that query's time
    slowest: Dict[int, float] = {}
    for _sid, name, _l, start, end, parent, qid, _e in recorder.spans:
        if name == "sharding.shard" and qid in approx:
            slowest[parent] = max(slowest.get(parent, 0.0), (end - start) * 1e3)
    out["sharding.slowest_shard_ms_p50"] = median(list(slowest.values()))

    # planner attempts that ended in a refusal are wasted work
    attempts = wasted = 0
    for _sid, name, _l, _s, _e, _p, qid, error in recorder.spans:
        if qid in approx and name in ("online.pilot", "online.quickr", "offline.rewrite"):
            attempts += 1
            wasted += error in ("InfeasiblePlanError", "UnsupportedQueryError")
    out["online.infeasible_frac"] = wasted / attempts if attempts else 0.0

    # time attributed to each layer, per approximate query; the root
    # span's self time is what no stage span accounts for
    per_layer = {layer: 0.0 for layer in LAYERS}
    root_self: List[float] = []
    for sid, name, layer, _s, _e, _p, qid, _err in recorder.spans:
        if qid not in approx:
            continue
        per_layer[layer] += selfs[sid][1] * 1e3
        if name == "query":
            root_self.append(selfs[sid][0] * 1e3)
    n = max(len(approx), 1)
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_query"] = per_layer[layer] / n
    out["core.unattributed_ms_p50"] = median(root_self)
    return out


# ----------------------------------------------------------------------
# From the operation records
# ----------------------------------------------------------------------
def record_metrics(ops: Sequence[OpRecord]) -> Dict[str, float]:
    queries = [o for o in ops if o.kind == "query" and not o.failed]
    attempted = [o for o in ops if o.kind == "query"]
    n = max(len(queries), 1)
    out: Dict[str, float] = {}
    exact_s = sum(o.exact_ms for o in queries) / 1e3
    out["engine.scan_rows_per_s"] = (
        sum(o.exact_rows_scanned for o in queries) / exact_s if exact_s else 0.0
    )
    out["engine.rows_scanned_per_query"] = sum(o.rows_scanned for o in queries) / n
    sampled = [o.fraction_scanned for o in queries if o.technique in ("pilot", "quickr")]
    out["online.fraction_scanned_p50"] = median(sampled)
    out["offline.hit_frac"] = sum(o.technique == "offline_sample" for o in queries) / n
    out["core.approx_served_frac"] = sum(o.technique != "exact" for o in queries) / n
    costed = [o for o in queries if o.cost > 0]
    out["storage.cost_rank_corr"] = spearman([o.cost for o in costed], [o.ms for o in costed])
    out["storage.wall_us_per_cost_unit_p50"] = median([o.ms * 1e3 / o.cost for o in costed])
    out["resilience.degraded_frac"] = sum(o.degraded for o in queries) / n
    out["resilience.refused_frac"] = (
        sum(o.error.startswith("QueryRefused") for o in attempted) / max(len(attempted), 1)
    )
    out["engine.append_ms_p50"] = median([o.ms for o in ops if o.kind == "append" and not o.failed])
    out["tuner.cycle_ms_p50"] = median([o.ms for o in ops if o.kind == "tune" and not o.failed])
    out["sharding.hedges"] = sum(o.extra.get("hedges", 0.0) for o in queries)
    out["sharding.coverage_p50"] = median([o.extra["coverage"] for o in queries if "coverage" in o.extra])
    # serving: zero unless the front door is the frontend
    served = [o for o in queries if o.submit_ms > 0]
    out["serving.submit_ms_p50"] = median([o.submit_ms for o in served])
    waits = [o.queue_wait_ms for o in served]
    out["serving.queue_wait_ms_p50"] = percentile(waits, 50)
    out["serving.queue_wait_ms_p95"] = percentile(waits, 95)
    out["serving.rejected_frac"] = (
        sum(o.error.startswith("QueryRejected") for o in attempted) / max(len(attempted), 1)
    )
    out["serving.shed_frac"] = sum(o.extra.get("shed", 0.0) for o in served) / max(len(served), 1)
    return out


def first_round_counts(first_round: Sequence[OpRecord]) -> Dict[str, float]:
    """Who served the query list's first pass; repeats exactly under a seed."""
    queries = [o for o in first_round if o.kind == "query" and not o.failed]
    return {
        f"core.served_{short}": float(sum(o.technique == technique for o in queries))
        for short, technique in (("exact", "exact"), ("pilot", "pilot"),
                                 ("quickr", "quickr"), ("offline", "offline_sample"))
    }


def pass_ms(rounds: Sequence[Sequence[OpRecord]], both: bool) -> float:
    """Wall ms of one pass over the query list: each position's median
    over ``rounds`` (so one round's stats recompute or tuner cycle does
    not decide it), summed; ``both`` adds the exact twins."""
    total = 0.0
    for position in zip(*([o for o in ops if o.kind == "query"] for ops in rounds)):
        total += median([o.ms + (o.exact_ms if both else 0.0) for o in position if not o.failed])
    return total


def busy_frac(workload, rounds: Sequence[Sequence[OpRecord]]) -> float:
    """Share of the frontend workers' time spent serving: service time
    is a ticket's latency less its submit and queue wait."""
    busy = wall = 0.0
    for ops in rounds:
        if not ops or "round_wall_s" not in ops[0].extra:
            return 0.0
        wall += ops[0].extra["round_wall_s"]
        for o in ops:
            busy += (o.ms - o.submit_ms - o.queue_wait_ms) / 1e3
            busy += (o.exact_ms - o.exact_queue_wait_ms) / 1e3
    return busy / (wall * workload.frontend.workers) if wall else 0.0


# ----------------------------------------------------------------------
# Direct probes (each layer called on the workload's own table)
# ----------------------------------------------------------------------
def sampler_probes(workload, block_rate: float) -> Dict[str, float]:
    table = workload.fact_table()
    rng = np.random.default_rng([workload.seed, 4])
    group, measure = workload.group_column, workload.measure_column
    drawn = {}

    def stratified():
        drawn["s"] = stratified_sample(table, group, total_size=min(SAMPLE_ROWS, table.num_rows), rng=rng)

    probes = {
        "bernoulli": lambda: bernoulli_sample(table, QUICKR_RATE, rng=rng),
        "block": lambda: block_bernoulli_sample(table, block_rate, rng=rng),
        "distinct": lambda: distinct_sample(table, [group], QUICKR_RATE, QUICKR_FREQUENCY_CAP, rng=rng),
        "stratified": stratified,
    }
    out: Dict[str, float] = {}
    total_ms = 0.0
    for name, fn in probes.items():
        times = timed_ms(fn)
        total_ms += sum(times)
        out[f"sampling.{name}_ms_p50"] = median(times)
    out["sampling.rows_per_s"] = table.num_rows * PROBE_REPS * len(probes) / (total_ms / 1e3)

    def estimate():
        for agg in ("sum", "avg"):
            for est in group_estimates(drawn["s"], group, measure, agg).values():
                est.ci(0.95)

    out["estimators.estimate_ms_p50"] = median(timed_ms(estimate))
    return out


def sketch_probes(workload) -> Dict[str, float]:
    column = np.asarray(workload.fact_table()[workload.distinct_column])
    sketches = []
    build_ms = timed_ms(lambda: sketches.append(hll_from_column(column)))
    return {
        "sketches.hll_build_rows_per_s": len(column) / (median(build_ms) / 1e3),
        "sketches.estimate_ms_p50": median(timed_ms(sketches[-1].estimate, reps=9)),
    }


def cheapest_query(workload):
    for shape in ("count_predicate", "covered_count"):
        for q in workload.queries:
            if q.shape == shape:
                return q
    return None


def overhead_probe(slow: Callable, fast: Callable, reps: int = 7) -> float:
    """Median of (slow - fast) wall ms over pairs run in alternating order."""
    deltas = []
    for i in range(reps):
        ms = {}
        for fn in ((slow, fast) if i % 2 else (fast, slow)):
            start = perf_counter()
            fn()
            ms[fn] = (perf_counter() - start) * 1e3
        deltas.append(ms[slow] - ms[fast])
    return median(deltas)


def ladder_probe(workload) -> Dict[str, float]:
    query = cheapest_query(workload)
    if query is None or getattr(workload, "db", None) is None:
        return {"resilience.ladder_overhead_ms_p50": 0.0}
    engine = getattr(workload, "engine", None) or ResilientEngine(workload.db, warn_on_degrade=False)
    opts = QueryOptions(seed=workload.seed)
    return {
        "resilience.ladder_overhead_ms_p50": overhead_probe(
            lambda: engine.sql(query.sql, opts), lambda: workload.db.sql(query.sql, opts)
        )
    }


def frontend_probe(workload) -> Dict[str, float]:
    frontend = getattr(workload, "frontend", None)
    query = cheapest_query(workload)
    if frontend is None or query is None:
        return {"serving.frontend_overhead_ms_p50": 0.0}
    opts = QueryOptions(seed=workload.seed, tenant="tenant0")
    return {
        "serving.frontend_overhead_ms_p50": overhead_probe(
            lambda: frontend.sql(query.sql, opts), lambda: workload.engine.sql(query.sql, opts)
        )
    }


def sharding_probes(workload) -> Dict[str, float]:
    sharded = getattr(workload, "sharded", None)
    if sharded is None:
        return {"sharding.vs_whole_ratio": 0.0, "sharding.pool_vs_seq_ratio": 0.0}
    whole = Database()
    whole.create_table(workload.table, sharded.whole_table())
    sequential = ScatterGatherExecutor(sharded, max_workers=1)
    texts = list(dict.fromkeys(q.sql for q in workload.queries))
    exact = QueryOptions(seed=workload.seed, technique="exact")

    def pass_ms(sql_fn) -> float:
        best = []
        for _ in range(PROBE_REPS):
            start = perf_counter()
            for sql in texts:
                sql_fn(sql, exact)
            best.append((perf_counter() - start) * 1e3)
        return median(best)

    pooled = pass_ms(workload.executor.sql)
    return {
        "sharding.vs_whole_ratio": pooled / pass_ms(whole.sql),
        "sharding.pool_vs_seq_ratio": pooled / pass_ms(sequential.sql),
    }


def program_span_coverage(workload) -> float:
    """Share of the program's own root ``query`` span that its direct
    child spans cover, over one pass of the distinct query shapes."""
    seen, covered, total = set(), 0.0, 0.0
    for query in workload.queries:
        if query.shape in seen:
            continue
        seen.add(query.shape)
        tracer = Tracer()
        with trace_scope(tracer):
            opts = QueryOptions(seed=workload.seed, trace=True, technique=query.technique)
            workload.traceable_door(query.sql, opts)
        for root in tracer.find("query"):
            cursor = root.start
            for child in sorted(root.children, key=lambda s: s.start):
                start, end = max(child.start, cursor), min(child.end or child.start, root.end)
                if end > start:
                    covered += end - start
                    cursor = end
            total += root.duration
    return covered / total if total else 0.0


# ----------------------------------------------------------------------
def counters(workload) -> Dict[str, float]:
    kernel = get_kernel_cache().stats
    synopsis = get_global_cache().stats
    catalog = workload.catalog()
    reports = getattr(workload, "tune_reports", [])
    return {
        "engine.kernel_cache_hit_rate": float(kernel.hit_rate),
        "engine.kernel_cache_evictions": float(kernel.evictions),
        "storage.synopsis_cache_hit_rate": float(synopsis.hit_rate),
        "storage.synopsis_cache_evictions": float(synopsis.evictions),
        "offline.storage_rows": float(catalog.storage_rows()) if catalog else 0.0,
        "offline.build_s": workload.timings.get("offline_build_s", 0.0),
        "storage.stats_compute_ms": workload.timings.get("stats_s", 0.0) * 1e3,
        "sharding.split_s": workload.timings.get("split_s", 0.0),
        "tuner.builds": float(sum(len(r.built) for r in reports)),
        "tuner.evictions": float(sum(len(r.evicted) for r in reports)),
    }


def all_probes(workload, ops: Sequence[OpRecord]) -> Dict[str, float]:
    # the block rate the pilot planner chose in this run (its own pilot
    # rate, 1%, when it served nothing)
    rates = [o.fraction_scanned for o in ops if o.technique == "pilot" and o.fraction_scanned > 0]
    out = sampler_probes(workload, block_rate=median(rates) if rates else 0.01)
    out.update(sketch_probes(workload))
    out.update(ladder_probe(workload))
    out.update(frontend_probe(workload))
    out.update(sharding_probes(workload))
    out["obs.span_coverage_frac"] = program_span_coverage(workload)
    return out
