"""Command-line interface: ``python -m repro``.

Runs SQL (exact or approximate) against a generated benchmark database or
CSV files, printing results and — for approximate runs — the guarantee
diagnostics. Intended as the smallest possible end-to-end demo surface:

.. code-block:: bash

    # one-shot query against generated TPC-H-lite
    python -m repro --demo tpch --scale 2 \\
        "SELECT l_shipmode, SUM(l_extendedprice) AS rev FROM lineitem \\
         GROUP BY l_shipmode ERROR WITHIN 5% CONFIDENCE 95%"

    # interactive session over CSV files
    python -m repro --csv sales=data/sales.csv

    # parallel benchmark harness (-> benchmarks/results/BENCH_results.json)
    python -m repro bench --smoke
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from . import Database
from .core.options import QueryOptions
from .core.result import ApproximateResult
from .workloads import generate_ssb, generate_tpch


def load_csv(database: Database, name: str, path: str) -> None:
    """Load a CSV file as a table, inferring numeric columns."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        raw: List[List[str]] = [row for row in reader if row]
    columns: Dict[str, np.ndarray] = {}
    for i, col in enumerate(header):
        values = [row[i] for row in raw]
        try:
            columns[col] = np.asarray([float(v) for v in values])
        except ValueError:
            columns[col] = np.asarray(values, dtype=object)
    database.create_table(name, columns)


def format_result(result) -> str:
    lines: List[str] = []
    table = result.table
    names = table.column_names
    widths = [
        max(len(n), *(len(f"{table[n][i]}") for i in range(min(table.num_rows, 50))))
        if table.num_rows
        else len(n)
        for n in names
    ]
    lines.append("  ".join(n.ljust(w) for n, w in zip(names, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for i in range(min(table.num_rows, 50)):
        lines.append(
            "  ".join(f"{table[n][i]}".ljust(w) for n, w in zip(names, widths))
        )
    if table.num_rows > 50:
        lines.append(f"... ({table.num_rows} rows total)")
    if isinstance(result, ApproximateResult):
        lines.append("")
        lines.append(
            f"[approximate] technique={result.technique} "
            f"scanned={result.fraction_scanned:.1%} of blocks "
            f"speedup~{result.speedup:.1f}x "
            f"worst CI ±{result.max_relative_half_width():.2%}"
        )
    else:
        lines.append("")
        lines.append(f"[exact] blocks read: {result.stats.blocks_scanned}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Approximate query processing toolkit CLI",
    )
    parser.add_argument(
        "query",
        nargs="?",
        help="SQL to run (omit for an interactive prompt)",
    )
    parser.add_argument(
        "--demo",
        choices=["tpch", "ssb"],
        help="generate a demo benchmark database",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="demo scale factor"
    )
    parser.add_argument(
        "--csv",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="load a CSV file as table NAME (repeatable)",
    )
    parser.add_argument("--seed", type=int, default=0, help="sampling seed")
    return parser


def make_database(args) -> Database:
    db = Database()
    if args.demo == "tpch":
        generate_tpch(db, scale=args.scale, seed=args.seed)
    elif args.demo == "ssb":
        generate_ssb(db, scale=args.scale, seed=args.seed)
    for spec in args.csv:
        if "=" not in spec:
            raise SystemExit(f"--csv expects NAME=PATH, got {spec!r}")
        name, path = spec.split("=", 1)
        load_csv(db, name, path)
    if not db.table_names:
        raise SystemExit("no tables: pass --demo or --csv")
    return db


def run_query(db: Database, sql: str, seed: int) -> str:
    from .obs.explain import ExplainResult

    try:
        result = db.sql(sql, options=QueryOptions(seed=seed))
    except Exception as exc:  # surface library errors cleanly
        return f"error: {type(exc).__name__}: {exc}"
    if isinstance(result, str):  # EXPLAIN: plan text, nothing ran
        return result
    if isinstance(result, ExplainResult):  # EXPLAIN ANALYZE transcript
        return result.render()
    return format_result(result)


def run_trace(argv: List[str]) -> int:
    """``python -m repro trace``: EXPLAIN ANALYZE from the command line.

    Runs the query under a tracer and prints the plan, the span tree,
    and the cost line — the same transcript ``EXPLAIN ANALYZE <sql>``
    returns through the SQL front-end. ``--metrics`` appends the
    process-wide metrics snapshot as JSON.
    """
    from .obs.explain import run_explain_analyze
    from .obs.metrics import get_metrics

    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Run one query under a tracer and print its span tree",
    )
    parser.add_argument("query", help="SQL to trace")
    parser.add_argument(
        "--demo", choices=["tpch", "ssb"], help="generate a demo database"
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--csv", action="append", default=[], metavar="NAME=PATH"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--no-timing",
        action="store_true",
        help="omit durations (stable output for diffing)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="append the metrics-registry snapshot as JSON",
    )
    args = parser.parse_args(argv)
    db = make_database(args)
    explained = run_explain_analyze(
        db, args.query, options=QueryOptions(seed=args.seed)
    )
    print(explained.render(show_timing=not args.no_timing))
    if args.metrics:
        print()
        print(get_metrics().to_json())
    return 0


def _benchmarks_dir() -> str:
    """Locate the repo's ``benchmarks/`` directory.

    Works from a source checkout (benchmarks/ sits next to src/) and
    falls back to the current working directory for odd layouts.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    for root in (os.path.dirname(os.path.dirname(here)), os.getcwd()):
        candidate = os.path.join(root, "benchmarks")
        if os.path.isfile(os.path.join(candidate, "common.py")):
            return candidate
    raise SystemExit("cannot locate benchmarks/ (run from the repo checkout)")


def run_bench(argv: List[str]) -> int:
    """``python -m repro bench``: the parallel benchmark harness.

    Runs the experiment suite in worker processes, writes
    ``benchmarks/results/BENCH_results.json``, and (unless ``--no-check``)
    compares against the committed baseline, failing on regressions.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Run the benchmark suite in parallel workers",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the fast ~30s subset instead of the full suite",
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="worker processes"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="flag experiments slower than THRESHOLD x baseline",
    )
    parser.add_argument(
        "--baseline", default=None, help="baseline JSON to compare against"
    )
    parser.add_argument(
        "--no-check",
        action="store_true",
        help="skip the regression comparison",
    )
    args = parser.parse_args(argv)

    bench_dir = _benchmarks_dir()
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    import common as bench_common

    doc = bench_common.run_suite(smoke=args.smoke, workers=args.workers)
    print(f"\nwrote {bench_common.BENCH_RESULTS_JSON}")
    for exp in doc["experiments"]:
        warm = (
            f"  warm {exp['warm_wall_s']:.2f}s "
            f"(cache hits {exp['warm_cache']['hits']})"
            if "warm_wall_s" in exp
            else ""
        )
        print(
            f"  {exp['status']:>6}  {exp['name']:<28} "
            f"cold {exp['cold_wall_s']:.2f}s{warm}"
        )
    failed = [e for e in doc["experiments"] if e["status"] != "ok"]
    if args.no_check:
        return 1 if failed else 0
    baseline = args.baseline or bench_common.BASELINE_JSON
    problems = bench_common.check_against_baseline(
        doc, baseline_path=baseline, threshold=args.threshold
    )
    real = [p for p in problems if not p.startswith("note:")]
    for p in problems:
        print(("WARN " if p.startswith("note:") else "REGRESSION ") + p)
    if not real and not failed:
        print("regression check: clean")
    return 1 if (real or failed) else 0


def run_servebench(argv: List[str]) -> int:
    """``python -m repro serve-bench``: overload-burst serving demo.

    Stands up a :class:`~repro.serving.ServingFrontend` over a generated
    table, fires a configurable burst of concurrent approximate queries
    at it (default 4x the queue capacity), and prints the serving health
    numbers: outcome counts (served / typed refusals / typed
    rejections), shed rate with the rungs shed to, throughput, and
    queue-wait percentiles.
    """
    import threading
    import time

    from .core.errorspec import ErrorSpec
    from .core.exceptions import QueryRejected, QueryRefused
    from .serving import ServingFrontend

    parser = argparse.ArgumentParser(
        prog="python -m repro serve-bench",
        description="Drive an overload burst through the serving frontend",
    )
    parser.add_argument("--rows", type=int, default=400_000)
    parser.add_argument(
        "--workers", type=int, default=2, help="frontend service threads"
    )
    parser.add_argument(
        "--queue", type=int, default=16, help="admission queue capacity"
    )
    parser.add_argument(
        "--burst",
        type=int,
        default=None,
        help="queries in the burst (default: 4x the queue capacity)",
    )
    parser.add_argument(
        "--clients", type=int, default=8, help="submitting client threads"
    )
    parser.add_argument(
        "--queue-deadline",
        type=float,
        default=5.0,
        dest="queue_deadline",
        help="seconds a query may wait before typed rejection",
    )
    parser.add_argument(
        "--tenant-capacity",
        type=float,
        default=None,
        dest="tenant_capacity",
        help="per-tenant token-bucket capacity (default: unlimited)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    burst = args.burst if args.burst is not None else 4 * args.queue

    rng = np.random.default_rng(args.seed)
    db = Database()
    db.create_table(
        "events",
        {
            "v": rng.exponential(10.0, args.rows),
            "k": rng.integers(0, 100, args.rows),
        },
    )
    query = (
        "SELECT SUM(v) AS s FROM events WHERE v > 5 "
        "ERROR WITHIN 10% CONFIDENCE 95%"
    )
    spec = ErrorSpec(relative_error=0.10, confidence=0.95)
    frontend = ServingFrontend(
        db,
        workers=args.workers,
        max_queue=args.queue,
        queue_deadline_s=args.queue_deadline,
        seed=args.seed,
    )
    if args.tenant_capacity is not None:
        for c in range(args.clients):
            frontend.budgets.configure(
                f"client{c}", capacity=args.tenant_capacity
            )

    tickets: List = []
    rejected: Dict[str, int] = {}
    lock = threading.Lock()

    def client(client_id: int) -> None:
        for i in range(burst // args.clients):
            try:
                t = frontend.submit(
                    query,
                    options=QueryOptions(
                        tenant=f"client{client_id}",
                        priority="interactive" if i % 2 else "batch",
                        spec=spec,
                        seed=client_id * 1000 + i,
                    ),
                )
                with lock:
                    tickets.append(t)
            except QueryRejected as exc:
                with lock:
                    rejected[exc.reason] = rejected.get(exc.reason, 0) + 1

    start = time.perf_counter()
    threads = [
        threading.Thread(target=client, args=(c,))
        for c in range(args.clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    frontend.drain(timeout=300.0)
    elapsed = time.perf_counter() - start

    served, refused, shed_to, waits = 0, 0, {}, []
    for t in tickets:
        t.wait(timeout=60.0)
        err = t.exception()
        if err is None:
            served += 1
            waits.append(t.queue_wait or 0.0)
            if t.shed_to is not None:
                shed_to[t.shed_to] = shed_to.get(t.shed_to, 0) + 1
        elif isinstance(err, QueryRejected):
            rejected[err.reason] = rejected.get(err.reason, 0) + 1
        elif isinstance(err, QueryRefused):
            refused += 1
        else:
            print(f"UNTYPED ERROR: {type(err).__name__}: {err}")
    snapshot = frontend.metrics_snapshot()
    frontend.close()

    print(
        f"{burst} queries from {args.clients} clients into a "
        f"{args.queue}-slot queue ({args.workers} workers) "
        f"in {elapsed:.2f}s"
    )
    print(f"  served:   {served}  ({served / elapsed:.1f} qps)")
    total_shed = sum(shed_to.values())
    rate = total_shed / served if served else 0.0
    print(f"  shed:     {total_shed} ({rate:.1%})", end="")
    if shed_to:
        detail = ", ".join(
            f"{rung}={n}" for rung, n in sorted(shed_to.items())
        )
        print(f"  [{detail}]", end="")
    print()
    print(f"  refused:  {refused} (typed)")
    for reason in sorted(rejected):
        print(f"  rejected: {rejected[reason]} ({reason})")
    if waits:
        arr = np.asarray(waits)
        print(
            f"  queue wait p50 {np.percentile(arr, 50) * 1e3:.1f} ms / "
            f"p99 {np.percentile(arr, 99) * 1e3:.1f} ms / "
            f"max {arr.max() * 1e3:.1f} ms"
        )
    print(f"  final shed level: {snapshot['shed_level']}")
    lost = burst - served - refused - sum(rejected.values())
    if lost:
        print(f"LOST QUERIES: {lost}")
        return 1
    return 0


def run_tune(argv: List[str]) -> int:
    """``python -m repro tune``: one tuning session over a live workload.

    Generates (or loads) a database, replays a seeded two-phase workload
    through it with a :class:`~repro.tuner.TuningDaemon` observing, and
    prints each tuning cycle's decisions plus the final catalog.
    """
    from .offline.catalog import SynopsisCatalog
    from .tuner import TuningDaemon, WorkloadLog, install_workload_log
    from .tuner.replay import (
        make_replay_database,
        run_replay,
        two_phase_workload,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro tune",
        description="Run the synopsis tuner against a seeded workload",
    )
    parser.add_argument("--rows", type=int, default=20_000)
    parser.add_argument(
        "--queries", type=int, default=60, help="queries per workload phase"
    )
    parser.add_argument(
        "--tune-every",
        type=int,
        default=15,
        dest="tune_every",
        help="run a tuning cycle every N queries",
    )
    parser.add_argument(
        "--budget-rows",
        type=int,
        default=10_000,
        dest="budget_rows",
        help="tuner storage budget in sample rows",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    db = make_replay_database(args.seed, rows=args.rows)
    # One phase of memory: when the workload shifts, old demand ages out
    # of the log, the entries it justified go cold, and the daemon
    # evicts them to fund the new phase's synopses.
    log = WorkloadLog(capacity=args.queries)
    daemon = TuningDaemon(
        db,
        log,
        storage_budget_rows=args.budget_rows,
        sample_fraction=0.15,
        seed=args.seed,
        min_demand=2,
    )
    queries = two_phase_workload(args.seed, queries_per_phase=args.queries)
    previous = install_workload_log(log)
    try:
        report = run_replay(
            db, queries, seed=args.seed, daemon=daemon,
            tune_every=args.tune_every,
        )
    finally:
        install_workload_log(previous)

    print(
        f"{report.total} queries ({report.served} served, "
        f"{report.refused} refused), {len(report.tuning)} tuning cycles"
    )
    for cycle in report.tuning:
        built = ", ".join(b["key"] for b in cycle["built"]) or "-"
        evicted = ", ".join(e["key"] for e in cycle["evicted"]) or "-"
        print(
            f"  cycle {cycle['cycle']} ({cycle['triggered_by']}): "
            f"built [{built}] evicted [{evicted}] "
            f"churn={cycle['column_churn']:.2f} "
            f"miss={cycle['error_miss_rate']:.2f}"
        )
    catalog = SynopsisCatalog.for_database(db)
    print(f"catalog after tuning ({len(catalog.samples)} entries):")
    for entry in catalog.samples:
        cols = (
            entry.strata_column or entry.measure_column or "-"
        )
        print(
            f"  {entry.table}: {entry.kind:<15} cols={cols} "
            f"rows={entry.sample.num_rows} source={entry.source} "
            f"v{entry.version}"
        )
    print(f"offline hit rate: {report.hit_rate:.1%}")
    return 0


def run_tune_replay_cli(argv: List[str]) -> int:
    """``python -m repro tune-replay``: static-vs-tuned comparison.

    Replays the seeded two-phase workload twice over identical data —
    once against the static hand-built catalog, once with the tuning
    daemon active — and prints both synopsis hit rates plus the
    improvement factor. Deterministic given the seed.
    """
    from .tuner import run_tune_replay

    parser = argparse.ArgumentParser(
        prog="python -m repro tune-replay",
        description="Replay a two-phase workload static vs. tuned",
    )
    parser.add_argument("--rows", type=int, default=20_000)
    parser.add_argument(
        "--queries", type=int, default=60, help="queries per workload phase"
    )
    parser.add_argument(
        "--tune-every", type=int, default=15, dest="tune_every"
    )
    parser.add_argument(
        "--budget-rows", type=int, default=10_000, dest="budget_rows"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--min-improvement",
        type=float,
        default=None,
        dest="min_improvement",
        help="exit 1 unless tuned/static hit rate >= this factor",
    )
    args = parser.parse_args(argv)

    doc = run_tune_replay(
        seed=args.seed,
        rows=args.rows,
        queries_per_phase=args.queries,
        tune_every=args.tune_every,
        storage_budget_rows=args.budget_rows,
    )
    static, tuned = doc["static"], doc["tuned"]
    print(f"{doc['queries']} queries replayed twice (seed {doc['seed']})")
    for label, rep in (("static", static), ("tuned", tuned)):
        techniques = ", ".join(
            f"{k}={v}" for k, v in sorted(rep["techniques"].items())
        )
        print(
            f"  {label:<7} hit rate {rep['hit_rate']:.1%} "
            f"({rep['offline_hits']}/{rep['served']} offline)  "
            f"[{techniques}]"
        )
    print(
        f"  tuning cycles: {tuned['tuning_cycles']}, "
        f"decisions: {len(tuned['decisions'])}"
    )
    print(f"improvement: {doc['improvement']:.2f}x")
    if (
        args.min_improvement is not None
        and doc["improvement"] < args.min_improvement
    ):
        print(
            f"FAIL: improvement {doc['improvement']:.2f}x below "
            f"required {args.min_improvement:.2f}x"
        )
        return 1
    return 0


def run_audit_cli(argv: List[str]) -> int:
    """``python -m repro audit``: the statistical guarantee audit.

    Replays every registered estimator path for N seeded trials, checks
    each claimed guarantee against an exact-binomial acceptance band,
    writes ``audit/AUDIT_report.json``, and (unless ``--no-check``)
    diffs against the committed baseline. Exit 1 on a broken guarantee
    or a baseline regression.
    """
    from .audit import diff_against_baseline, run_audit, write_report
    from .audit.report import AUDIT_BASELINE_JSON, AUDIT_REPORT_JSON, format_table
    from .audit.runner import DEFAULT_SEED

    parser = argparse.ArgumentParser(
        prog="python -m repro audit",
        description="Audit every estimator's claimed error guarantee",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fewer trials + smaller data (finishes in seconds)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=int(os.environ.get("REPRO_SEED", DEFAULT_SEED)),
        help="base seed (default: $REPRO_SEED or %(default)s); the whole "
        "report is deterministic given the seed",
    )
    parser.add_argument(
        "--trials", type=int, default=None, help="override light-path trials"
    )
    parser.add_argument(
        "--heavy-trials",
        type=int,
        default=None,
        help="override heavy-path (full-planner) trials",
    )
    parser.add_argument(
        "--paths",
        default=None,
        metavar="NAME[,NAME...]",
        help="audit only these paths",
    )
    parser.add_argument(
        "--output", default=AUDIT_REPORT_JSON, help="report JSON destination"
    )
    parser.add_argument(
        "--baseline", default=AUDIT_BASELINE_JSON, help="baseline JSON"
    )
    parser.add_argument(
        "--rebaseline",
        action="store_true",
        help="write this run as the new committed baseline",
    )
    parser.add_argument(
        "--no-check",
        action="store_true",
        help="skip the baseline regression diff",
    )
    args = parser.parse_args(argv)

    doc = run_audit(
        smoke=args.smoke,
        seed=args.seed,
        trials=args.trials,
        heavy_trials=args.heavy_trials,
        path_names=args.paths.split(",") if args.paths else None,
        progress=True,
    )
    rows = [
        (
            p["name"],
            p["claim"],
            p["claimed_coverage"] if p["claimed_coverage"] is not None else "-",
            f"{p['hits']}/{p['effective_trials']}",
            p["empirical_coverage"] if p["empirical_coverage"] is not None else "-",
            p["verdict"] + (" (expected)" if p["expected_failure"] else ""),
            p["mean_relative_error"] if p["mean_relative_error"] is not None else "-",
        )
        for p in doc["paths"]
    ]
    print()
    for line in format_table(
        ["path", "claim", "claimed", "hits", "coverage", "verdict", "mean rel err"],
        rows,
    ):
        print(line)
    path = write_report(doc, args.output)
    print(f"\nwrote {path} (seed {doc['seed']}, mode {doc['mode']})")
    ok = doc["summary"]["all_guarantees_ok"]
    print(
        "guarantee audit: "
        + ("all claims hold" if ok else "BROKEN GUARANTEES")
        + f" ({doc['summary']['num_pass']} pass, "
        f"{doc['summary']['num_conservative']} conservative, "
        f"{doc['summary']['num_expected_failures']} paper-predicted failures, "
        f"{doc['summary']['num_unexpected_failures']} unexpected failures)"
    )
    if args.rebaseline:
        base = write_report(doc, args.baseline)
        print(f"rebaselined -> {base}")
        return 0 if ok else 1
    if args.no_check:
        return 0 if ok else 1
    problems = diff_against_baseline(doc, baseline_path=args.baseline)
    real = [p for p in problems if not p.startswith("note:")]
    for p in problems:
        print(("WARN " if p.startswith("note:") else "REGRESSION ") + p)
    if not real:
        print("baseline check: clean")
    return 0 if ok and not real else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "bench":
        return run_bench(argv[1:])
    if argv and argv[0] == "audit":
        return run_audit_cli(argv[1:])
    if argv and argv[0] == "serve-bench":
        return run_servebench(argv[1:])
    if argv and argv[0] == "trace":
        return run_trace(argv[1:])
    if argv and argv[0] == "tune":
        return run_tune(argv[1:])
    if argv and argv[0] == "tune-replay":
        return run_tune_replay_cli(argv[1:])
    args = build_parser().parse_args(argv)
    db = make_database(args)
    print(f"tables: {', '.join(db.table_names)}", file=sys.stderr)
    if args.query:
        print(run_query(db, args.query, args.seed))
        return 0
    # Interactive loop.
    print("enter SQL (blank line or Ctrl-D to exit):", file=sys.stderr)
    while True:
        try:
            line = input("repro> ").strip()
        except (EOFError, KeyboardInterrupt):
            break
        if not line:
            break
        print(run_query(db, line, args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
