"""Shared helpers for the experiment benchmarks.

Every benchmark regenerates one claim from DESIGN.md's experiment index
(E1–E14). The measured series are written to ``benchmarks/results/`` so
EXPERIMENTS.md can cite them, and asserted on *shape* (who wins, rough
factors) rather than absolute numbers. Run them all with
``make experiments``.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def write_report(name: str, lines: Iterable[str]) -> str:
    """Persist a claim table under benchmarks/results/ and echo it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = "\n".join(lines) + "\n"
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text)
    print(f"\n[{name}]")
    print(text)
    return path


def table(headers: Sequence[str], rows: Sequence[Sequence]) -> List[str]:
    """Fixed-width text table (shared renderer with the audit reports)."""
    from repro.audit.report import format_table

    return format_table(headers, rows)
