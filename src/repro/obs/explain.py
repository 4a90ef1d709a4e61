"""``EXPLAIN`` / ``EXPLAIN ANALYZE`` front-end support.

``EXPLAIN <sql>`` returns the optimized plan text (what
:meth:`Database.explain` always produced); ``EXPLAIN ANALYZE <sql>``
*runs* the query under a fresh :class:`~repro.obs.trace.Tracer` and
returns an :class:`ExplainResult` bundling the real result, the span
tree, and a rendered transcript — the same rendering ``python -m repro
trace <sql>`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..core.result import ResultEnvelope
from .trace import Tracer, render_span_tree, trace_scope

__all__ = ["ExplainResult", "run_explain_analyze"]


@dataclass
class ExplainResult(ResultEnvelope):
    """What ``EXPLAIN ANALYZE`` hands back: answer + trace + transcript.

    Carries the full result envelope (``value()``/``ci()``/
    ``provenance``/``stats``/``to_dict()``) by delegating to the wrapped
    answer, so ``EXPLAIN ANALYZE`` output is consumable anywhere a plain
    result is.
    """

    sql: str
    result: Any
    tracer: Tracer
    plan_text: str = ""
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def table(self):
        """The underlying result table (EXPLAIN ANALYZE still answers)."""
        return self.result.table

    # -- envelope delegation (see repro.core.result.ResultEnvelope) ----
    @property
    def stats(self):
        return self.result.stats

    @property
    def provenance(self):
        return self.result.provenance

    @property
    def ci_low(self):
        return getattr(self.result, "ci_low", {})

    @property
    def ci_high(self):
        return getattr(self.result, "ci_high", {})

    @property
    def technique(self):
        return getattr(self.result, "technique", "exact")

    @property
    def is_approximate(self):
        return getattr(self.result, "is_approximate", False)

    def scalar(self) -> float:
        return self.result.scalar()

    def render(self, show_timing: bool = True) -> str:
        lines = [f"EXPLAIN ANALYZE {self.sql}"]
        if self.plan_text:
            lines.append("")
            lines.append("plan:")
            lines.extend("  " + l for l in self.plan_text.splitlines())
        lines.append("")
        lines.append("trace:")
        tree = render_span_tree(self.tracer, show_timing=show_timing)
        lines.extend("  " + l for l in tree.splitlines())
        stats = getattr(self.result, "stats", None)
        if stats is not None:
            lines.append("")
            cost = stats.simulated_cost().total
            lines.append(
                f"cost: {cost:.1f} work units  "
                f"rows_scanned={stats.rows_scanned}  "
                f"blocks_scanned={stats.blocks_scanned}  "
                f"rows_output={stats.rows_output}"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def run_explain_analyze(
    database,
    sql: str,
    options=None,
    tracer: Optional[Tracer] = None,
) -> ExplainResult:
    """Execute ``sql`` under a tracer and package the transcript.

    ``sql`` here is the *inner* query (the ``EXPLAIN ANALYZE`` prefix
    already stripped by :func:`repro.sql.parser.split_explain`).
    ``options`` is a :class:`~repro.core.options.QueryOptions`.
    """
    tracer = tracer if tracer is not None else Tracer()
    with trace_scope(tracer):
        result = database.sql(sql, options=options)
    try:
        plan_text = database.explain(sql)
    except Exception:  # plans exist only for plannable queries
        plan_text = getattr(result, "plan_text", "")
    return ExplainResult(
        sql=sql, result=result, tracer=tracer, plan_text=plan_text
    )
