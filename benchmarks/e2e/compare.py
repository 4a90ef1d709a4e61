#!/usr/bin/env python3
"""Compare two runs of the benchmark, one row per (workload, metric).

    python3 benchmarks/e2e/compare.py A.json B.json

A is the base, B the candidate; each is the JSON that ``run.py --out``
wrote, for one workload or for all of them. A row is

* ``regressed`` when B's median is worse than A's by more than the bound
  BENCHMARK.json fixes for the metric,
* ``improved`` when it is better by more than the bound,
* ``unresolved`` when the spread between the quartiles of the per-round
  values, in either run, is wider than the bound -- the runs cannot tell
  a change of that size from noise, so the row is not called unchanged,
* ``unchanged`` otherwise.

``setup_s`` is exempt from the spread rule, as it is in the driver: it
has three samples a run, the first of them cold. Exits 1 if any row
regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json").read_text())
SPREAD_EXEMPT = ("setup_s",)


def workloads_of(doc: dict) -> dict:
    """{workload: run detail} of a one-workload or an all-workload file."""
    if "workloads" in doc:
        return doc["workloads"]
    return {doc["workload"]: doc}


def spread_of(run: dict, metric: str) -> float:
    """Interquartile range of the per-round values over their median."""
    stat = run.get("spread", {}).get(metric)
    if not stat or not stat["value"]:
        return 0.0
    return abs(stat["q3"] - stat["q1"]) / abs(stat["value"])


def compare(base: dict, cand: dict) -> list:
    rows = []
    a_runs, b_runs = workloads_of(base), workloads_of(cand)
    for workload in (w["name"] for w in SPEC["workloads"]):
        if workload not in a_runs or workload not in b_runs:
            continue
        a, b = a_runs[workload], b_runs[workload]
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if name not in a["metrics"] or name not in b["metrics"]:
                continue
            old, new = a["metrics"][name]["value"], b["metrics"][name]["value"]
            ratio = new / old if old else float("inf")
            worse = (ratio - 1.0) if metric["better"] == "lower" else (1.0 - ratio)
            spread = max(spread_of(a, name), spread_of(b, name))
            if worse > bound:
                verdict = "regressed"
            elif spread > bound and name not in SPREAD_EXEMPT:
                verdict = "unresolved"
            elif worse < -bound:
                verdict = "improved"
            else:
                verdict = "unchanged"
            rows.append((workload, name, metric["unit"], old, new, ratio, bound, spread, verdict))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    base, cand = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(base, cand)
    if not rows:
        sys.exit("the two files share no (workload, end-to-end metric) row")
    print(f"{'workload':20s} {'metric':17s} {'base':>12s} {'new':>12s} {'new/base':>9s} "
          f"{'bound':>6s} {'spread':>7s}  verdict")
    for workload, name, unit, old, new, ratio, bound, spread, verdict in rows:
        print(f"{workload:20s} {name:17s} {old:12.5g} {new:12.5g} {ratio:9.3f} "
              f"{bound:6.3f} {spread:7.3f}  {verdict}  [{unit}]")
    counts = {}
    for row in rows:
        counts[row[-1]] = counts.get(row[-1], 0) + 1
    print(", ".join(f"{n} {verdict}" for verdict, n in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main())
