#!/usr/bin/env python3
"""Wall-clock end-to-end benchmark: approximate vs exact, layer by layer.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1 | --traced] [--smoke] [--out FILE]

With ``--workload`` the workload runs in this process; without it each of
the six runs in a subprocess of its own, one after the other. Every metric
is printed as ``name value unit``; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).
The exit code is non-zero when the correctness gate fails. See README.md.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported: one compute thread per
# Python thread, so the client-thread count is the only parallelism.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULTS = HERE / "results"

#: fewest measured rounds, whatever ``--seconds`` says
MIN_ROUNDS = 3
#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    names = [w["name"] for w in SPEC["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="run one workload in this process")
    ap.add_argument("--seed", type=int, default=0, help="seed of tables, SQL literals and samples")
    ap.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                    help="measured time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: benchmark-side spans on, report the per-layer metrics")
    ap.add_argument("--traced", action="store_true", help="same as --trace 1")
    ap.add_argument("--smoke", action="store_true",
                    help="10x smaller tables, 2 rounds; numbers are not for comparison")
    ap.add_argument("--out", help="write the run's JSON here (default: results/)")
    args = ap.parse_args(argv)
    args.trace = 1 if args.traced else args.trace
    return args


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def measure_rounds(workload, seconds: float, smoke: bool, recorder=None):
    """Run rounds until ``seconds`` have passed. With a recorder, rounds
    alternate untraced / traced, so both see the same data states."""
    untraced, traced = [], []
    start = perf_counter()
    round_no = 0
    fewest = 2 if smoke else (MIN_ROUNDS if recorder is None else 2)
    while round_no < fewest or (not smoke and perf_counter() - start < seconds):
        trace_this = recorder is not None and round_no % 2 == 1
        if trace_this:
            recorder.install()
            workload.recorder = recorder
        try:
            ops = workload.run_round(round_no)
        finally:
            if trace_this:
                workload.recorder = None
                recorder.uninstall()
        (traced if trace_this else untraced).append(ops)
        round_no += 1
    return untraced, traced


def gate(workload, summary) -> list:
    """The correctness gate; returns the reasons it failed (none = pass)."""
    counts = summary["_counts"]
    problems = list(workload.problems)
    if counts["failed"]:
        problems.append(f"{counts['failed']} of {counts['attempted']} operations failed")
    if counts["unexpected"]:
        problems.append(f"{counts['unexpected']} queries were served by an unexpected technique")
    if summary["ci_cover_frac"]["value"] < workload.min_ci_cover:
        problems.append(
            f"ci_cover_frac {summary['ci_cover_frac']['value']:.3f} < {workload.min_ci_cover}"
        )
    return problems


def run_workload(args) -> dict:
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy

    import harness
    import layers
    from spans import SpanRecorder
    from workloads import NPROC, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    repeats = 1 if (args.trace or args.smoke) else SETUP_REPEATS
    setups = []
    for i in range(repeats):
        if i:
            workload.teardown()
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
    gc.collect()
    gc.freeze()  # set-up survivors never get scanned during measurement

    recorder = SpanRecorder() if args.trace else None
    share = 0.6 if args.trace else 1.0  # the rest of a traced run goes to probes
    untraced, traced = measure_rounds(workload, args.seconds * share, args.smoke, recorder)
    summary = harness.summarize_rounds(untraced + traced)
    counts = summary["_counts"]

    values = {}
    if args.trace:
        ops = [o for r in untraced + traced for o in r]
        traced_ops = [o for r in traced for o in r]
        values.update(layers.record_metrics(ops))
        values.update(layers.first_round_counts(untraced[0]))
        values["serving.worker_busy_frac"] = layers.busy_frac(workload, untraced)
        values.update(layers.span_metrics(recorder, traced_ops))
        values.update(layers.counters(workload))
        values.update(layers.all_probes(workload, ops))
        plain, spanned = layers.pass_ms(untraced, both=True), layers.pass_ms(traced, both=True)
        values["obs.trace_overhead_frac"] = (spanned - plain) / plain
        attributed = sum(values[f"{layer}.self_ms_per_query"] for layer in layers.LAYERS)
        queries = sum(o.kind == "query" for o in untraced[0])
        values["obs.reconcile_frac"] = attributed * queries / layers.pass_ms(untraced, both=False)
        RESULTS.mkdir(exist_ok=True)
        recorder.dump(RESULTS / f"trace_{workload.name}.json")
        declared = SPEC["per_layer"]
    else:
        q1, med, q3 = harness.quartiles(setups)
        summary["setup_s"] = {"value": med, "q1": q1, "q3": q3, "n": len(setups)}
        # ru_maxrss is KiB on Linux
        summary["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "n": 1
        }
        values = {name: stat["value"] for name, stat in summary.items() if not name.startswith("_")}
        declared = SPEC["end_to_end"]

    problems = gate(workload, summary)
    workload.teardown()

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}

    print(f"workload {workload.name}" + ("  (smoke: numbers are not for comparison)" if args.smoke else ""))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for problem in problems:
        print(f"FAILED {problem}")

    result = {
        "correct": not problems,
        "attempted": int(counts["attempted"]),
        "failed": int(counts["failed"]),
        "metrics": metrics,
    }
    detail = {
        **result,
        "workload": workload.name,
        "claim": None,
        "problems": problems,
        "smoke": args.smoke,
        "trace": args.trace,
        "rounds": len(untraced) + len(traced),
        "spread": {k: v for k, v in summary.items() if not k.startswith("_") and "q1" in v},
        "setup_timings_s": workload.timings,
        "environment": environment(args, NPROC, numpy.__version__),
    }
    out = Path(args.out) if args.out else RESULTS / f"run_{workload.name}_trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(detail, indent=1))
    return result


def environment(args, nproc: int, numpy_version: str) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": args.seed,
        "seconds": args.seconds,
        "git_sha": sha or "unknown",
    }


# ----------------------------------------------------------------------
# All workloads, one subprocess each
# ----------------------------------------------------------------------
def run_all(args) -> dict:
    RESULTS.mkdir(exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    details = {}
    for spec in SPEC["workloads"]:
        name = spec["name"]
        out = RESULTS / f"run_{name}_trace{args.trace}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
            details[name] = json.loads(out.read_text())
        except (IndexError, ValueError, OSError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        summary["metrics"][name] = result["metrics"]
        summary["correct"] &= result["correct"] and proc.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    out = Path(args.out) if args.out else RESULTS / f"run_all_trace{args.trace}.json"
    out.write_text(json.dumps({**summary, "claim": None, "workloads": details}, indent=1))
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run_workload(args) if args.workload else run_all(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
