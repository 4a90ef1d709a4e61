"""Query result objects.

Two result types are returned to users:

* :class:`QueryResult` — an exact result: just a table plus execution
  accounting.
* :class:`ApproximateResult` — estimates with per-cell confidence
  intervals, the technique that produced them, and enough diagnostics to
  audit the guarantee (fraction of data read, estimated speedup, planner
  decisions).

Both (plus :class:`~repro.obs.explain.ExplainResult`, which wraps one of
them) expose the **common result envelope**: ``value()`` / ``values()``,
``ci()``, ``provenance``, ``stats``, and ``to_dict()`` with the exact
key set :data:`ENVELOPE_KEYS` — so tooling (the CLI, the workload tuner,
dashboards) can consume any front door's answer without type-switching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..engine.executor import ExecutionStats
from ..engine.table import Table
from .errorspec import ErrorSpec

#: the exact top-level key set of every result's ``to_dict()`` envelope
ENVELOPE_KEYS: Tuple[str, ...] = (
    "kind",
    "technique",
    "values",
    "ci",
    "provenance",
    "stats",
)


def max_relative_half_width(
    table: Table,
    ci_low: Dict[str, np.ndarray],
    ci_high: Dict[str, np.ndarray],
) -> float:
    """Worst relative CI half-width over every cell that carries a CI —
    what an answer achieved, to hold against ``spec.relative_error``. A
    cell whose value is 0 or undefined is unboundedly wide."""
    worst = 0.0
    for alias, lows in ci_low.items():
        values = np.asarray(table[alias], dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            half = (np.asarray(ci_high[alias]) - np.asarray(lows)) / 2.0
            rel = np.where(values != 0, half / np.abs(values), np.inf)
        rel = np.nan_to_num(rel, nan=np.inf, posinf=np.inf)
        worst = max(worst, float(rel.max(initial=0.0)))
    return worst


def claimed_relative_error(
    asked: float,
    table: Table,
    ci_low: Dict[str, np.ndarray],
    ci_high: Dict[str, np.ndarray],
) -> float:
    """The relative error an answer claims beside its intervals: the
    asked error, or what the widest cell achieved when that is wider
    (:func:`max_relative_half_width`), capped at 0.99 — so an answer with
    an unbounded cell claims 0.99."""
    return min(0.99, max(asked, max_relative_half_width(table, ci_low, ci_high)))


class ResultEnvelope:
    """Shared surface of every result type (see module docstring).

    Implementors provide ``table``, ``stats``, ``provenance``, and
    optionally ``ci_low``/``ci_high``/``technique``; the envelope
    methods are derived uniformly from those.
    """

    # -- values --------------------------------------------------------
    def values(self) -> Dict[str, List[object]]:
        """All output columns as plain Python lists, keyed by alias."""
        table = self.table
        return {
            name: np.asarray(table[name]).tolist()
            for name in table.column_names
        }

    def value(self, alias: Optional[str] = None, row: int = 0) -> float:
        """One output cell as a float; bare ``value()`` needs one row."""
        table = self.table
        if alias is None:
            return self.scalar()
        return float(table[alias][row])

    # -- confidence intervals ------------------------------------------
    def ci(
        self, alias: Optional[str] = None, row: Optional[int] = None
    ) -> object:
        """CI bounds, uniformly across exact and approximate results.

        ``ci()`` returns ``{alias: [(low, high), ...]}`` for every
        aggregate that carries intervals (empty for exact results, whose
        answers need none); ``ci(alias, row)`` returns one ``(low,
        high)`` tuple — for exact results the zero-width interval at the
        value, the honest reading of "no sampling error".
        """
        ci_low = getattr(self, "ci_low", None) or {}
        ci_high = getattr(self, "ci_high", None) or {}
        if alias is None:
            return {
                name: list(
                    zip(
                        np.asarray(ci_low[name], dtype=np.float64).tolist(),
                        np.asarray(ci_high[name], dtype=np.float64).tolist(),
                    )
                )
                for name in ci_low
            }
        r = 0 if row is None else row
        if alias in ci_low:
            return (float(ci_low[alias][r]), float(ci_high[alias][r]))
        v = float(self.table[alias][r])
        return (v, v)

    # -- envelope ------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The common envelope: exactly :data:`ENVELOPE_KEYS`."""
        return {
            "kind": (
                "approximate"
                if getattr(self, "is_approximate", False)
                else "exact"
            ),
            "technique": getattr(self, "technique", "exact"),
            "values": self.values(),
            "ci": {
                name: [list(pair) for pair in pairs]
                for name, pairs in self.ci().items()
            },
            "provenance": list(self.provenance),
            "stats": self.stats.to_dict(),
        }


@dataclass
class QueryResult(ResultEnvelope):
    """Exact query output."""

    table: Table
    stats: ExecutionStats
    plan_text: str = ""
    #: degradation-ladder steps taken to produce this answer (see
    #: repro.resilience.ladder); empty when served on the direct path
    provenance: List[Dict[str, object]] = field(default_factory=list)

    @property
    def is_approximate(self) -> bool:
        return False

    @property
    def is_degraded(self) -> bool:
        """True when the degradation ladder fell past the requested rung."""
        return any(step.get("degraded") for step in self.provenance)

    def column(self, name: str) -> np.ndarray:
        return self.table[name]

    def scalar(self) -> float:
        """The single value of a 1x1 result."""
        if self.table.num_rows != 1 or self.table.num_columns != 1:
            raise ValueError(
                f"scalar() needs a 1x1 result, got "
                f"{self.table.num_rows}x{self.table.num_columns}"
            )
        return float(self.table[self.table.column_names[0]][0])

    def to_pylist(self) -> List[Dict[str, object]]:
        return self.table.to_pylist()


@dataclass
class CellEstimate:
    """One estimated aggregate cell (one aggregate in one group)."""

    value: float
    ci_low: float
    ci_high: float

    @property
    def half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    @property
    def relative_half_width(self) -> float:
        if self.value == 0:
            return float("inf")
        return self.half_width / abs(self.value)

    def covers(self, truth: float) -> bool:
        """Does the reported interval contain the exact answer?"""
        return self.ci_low <= truth <= self.ci_high


@dataclass
class ApproximateResult(ResultEnvelope):
    """Approximate query output with confidence intervals.

    ``table`` holds the estimated values under the user's output aliases.
    ``ci_low``/``ci_high`` map each aggregate output alias to arrays
    aligned with the table's rows.
    """

    table: Table
    stats: ExecutionStats
    spec: ErrorSpec
    technique: str
    ci_low: Dict[str, np.ndarray] = field(default_factory=dict)
    ci_high: Dict[str, np.ndarray] = field(default_factory=dict)
    #: fraction of available blocks actually read
    fraction_scanned: float = 0.0
    #: simulated cost of this query vs. the exact plan (work units)
    approx_cost: float = 0.0
    exact_cost: float = 0.0
    #: free-form planner diagnostics (sampling rates, pilot info, ...)
    diagnostics: Dict[str, object] = field(default_factory=dict)
    plan_text: str = ""
    #: degradation-ladder steps taken to produce this answer (see
    #: repro.resilience.ladder); empty when served on the direct path
    provenance: List[Dict[str, object]] = field(default_factory=list)

    @property
    def is_approximate(self) -> bool:
        return True

    @property
    def is_degraded(self) -> bool:
        """True when the degradation ladder fell past the requested rung."""
        return any(step.get("degraded") for step in self.provenance)

    @property
    def speedup(self) -> float:
        """Estimated speedup over exact execution (work-model ratio)."""
        if self.approx_cost <= 0:
            return float("inf")
        return self.exact_cost / self.approx_cost

    def column(self, name: str) -> np.ndarray:
        return self.table[name]

    def scalar(self) -> float:
        if self.table.num_rows != 1:
            raise ValueError("scalar() needs a single-row result")
        aggs = [c for c in self.table.column_names if c in self.ci_low]
        name = aggs[0] if aggs else self.table.column_names[0]
        return float(self.table[name][0])

    def estimate(self, alias: str, row: int = 0) -> CellEstimate:
        """The estimate + CI for one output cell."""
        value = float(self.table[alias][row])
        lo = float(self.ci_low[alias][row]) if alias in self.ci_low else value
        hi = float(self.ci_high[alias][row]) if alias in self.ci_high else value
        return CellEstimate(value=value, ci_low=lo, ci_high=hi)

    def iter_estimates(self) -> List[Tuple[str, int, CellEstimate]]:
        """All (alias, row, estimate) cells that carry CIs."""
        out = []
        for alias in self.ci_low:
            for row in range(self.table.num_rows):
                out.append((alias, row, self.estimate(alias, row)))
        return out

    def max_relative_half_width(self) -> float:
        """Worst-case reported relative CI half-width across all cells."""
        return max_relative_half_width(self.table, self.ci_low, self.ci_high)

    def to_pylist(self) -> List[Dict[str, object]]:
        return self.table.to_pylist()

    def summary(self) -> str:
        """Human-readable one-paragraph description of the run."""
        lines = [
            f"technique={self.technique}  spec={self.spec}  "
            f"scanned={self.fraction_scanned * 100:.2f}% of blocks  "
            f"speedup~{self.speedup:.1f}x"
        ]
        for alias, row, cell in self.iter_estimates()[:10]:
            lines.append(
                f"  {alias}[{row}] = {cell.value:.4g} "
                f"[{cell.ci_low:.4g}, {cell.ci_high:.4g}]"
            )
        return "\n".join(lines)
