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

    # span tree and cost line of one run
    python -m repro --demo tpch "EXPLAIN ANALYZE SELECT ..."
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
        header = next(reader, None)
        if header is None:
            raise SystemExit(f"{path}: empty CSV file, expected a header line")
        raw: List[List[str]] = []
        for row in reader:
            if not row:
                continue
            if len(row) < len(header):
                raise SystemExit(
                    f"{path}:{reader.line_num}: {len(row)} fields, "
                    f"header has {len(header)}"
                )
            raw.append(row)
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
    if argv and argv[0] == "audit":
        return run_audit_cli(argv[1:])
    if argv and argv[0] == "tune":
        return run_tune(argv[1:])
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
