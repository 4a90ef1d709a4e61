"""Smoke test of the end-to-end benchmark (outside tier-1 ``testpaths``).

Run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

It runs ``run.py --smoke`` untraced and traced (about 15 s each) and
checks that every workload and every metric BENCHMARK.json names is
printed exactly once per workload, with its unit.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_smoke(tmp_path, *flags):
    out = tmp_path / "run.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "7", "--out", str(out), *flags],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout.splitlines(), json.loads(out.read_text())


def printed_metrics(lines):
    """{workload: [(name, unit), ...]} from the ``name value unit`` lines."""
    seen, current = {}, None
    for line in lines[:-1]:
        parts = line.split()
        if parts[:1] == ["workload"]:
            current = parts[1]
            assert current not in seen, f"workload {current} printed twice"
            seen[current] = []
        elif len(parts) == 3 and current is not None:
            float(parts[1])
            seen[current].append((parts[0], parts[2]))
    return seen


@pytest.mark.parametrize("flags,section", [((), "end_to_end"), (("--traced",), "per_layer")])
def test_every_declared_metric_is_printed_once(tmp_path, flags, section):
    lines, doc = run_smoke(tmp_path, *flags)
    declared = [(m["name"], m["unit"]) for m in SPEC[section]]
    seen = printed_metrics(lines)
    assert list(seen) == [w["name"] for w in SPEC["workloads"]]
    for workload, metrics in seen.items():
        assert "not for comparison" in next(l for l in lines if l.startswith(f"workload {workload}"))
        assert sorted(metrics) == sorted(declared), workload
        for name, _unit in metrics:
            assert NAME.fullmatch(name), name
    summary = json.loads(lines[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    assert doc["claim"] is None
    for workload in seen:
        assert NAME.fullmatch(workload)
        assert set(summary["metrics"][workload]) == {name for name, _ in declared}
        if flags:  # a traced run leaves a span dump behind
            spans = json.loads((HERE / "results" / f"trace_{workload}.json").read_text())["spans"]
            assert spans
            for span in spans:
                assert {"name", "start", "end", "parent", "query"} <= set(span)
                assert span["end"] >= span["start"]


def test_compare_calls_a_run_against_itself_unchanged(tmp_path):
    _lines, doc = run_smoke(tmp_path, "--workload", "tiny_overhead")
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(tmp_path / "run.json"), str(tmp_path / "run.json")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [l for l in proc.stdout.splitlines() if l.startswith("tiny_overhead")]
    assert len(rows) == len(SPEC["end_to_end"])
    assert not any("regressed" in row or "improved" in row for row in rows)
    assert doc["workload"] == "tiny_overhead"
