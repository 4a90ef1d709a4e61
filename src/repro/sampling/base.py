"""Common sample representation.

Every sampler in this package returns a :class:`WeightedSample`: the
sampled rows, a per-row Horvitz–Thompson weight (``1/π_i``), and the
``method`` and ``params`` of the design that drew them. Estimation reads
the design from those two (:meth:`WeightedSample.moments`), so an SRS, a
stratified, a block and a Poisson sample of the same rows each get their
own design's variance, from :mod:`repro.online.estimation`.

A sampler is its design's selection function — row positions (or block
ids) and their weights, the same call a scan directive makes — followed
by :func:`materialize_sample`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..engine.aggregates import ROWS_COLUMN, encode_groups_arrays
from ..engine.table import Table
from ..estimators.closed_form import Estimate
from ..storage.blocks import BLOCK_ID_COLUMN

#: Designs that draw an SRS of rows (``systematic_sample`` says why) and of
#: blocks (a Bernoulli one read conditional on the blocks drawn, as the
#: pilot does; a bi-level one, whose units are within-block HT subtotals).
SRS_ROW_METHODS = ("srs_rows", "systematic_rows", "join_synopsis")
SRS_BLOCK_METHODS = ("block_fixed", "block_bernoulli", "bilevel")


@dataclass
class WeightedSample:
    """A sample with HT weights.

    Attributes
    ----------
    table:
        The sampled rows.
    weights:
        Per-row HT weights (inverse inclusion probabilities), aligned with
        the table's rows.
    method:
        Sampler name, e.g. ``"uniform_rows"`` or ``"stratified:senate"``.
    population_rows:
        Size of the table the sample was drawn from.
    params:
        Sampler-specific parameters, for diagnostics and catalogs.
    """

    table: Table
    weights: np.ndarray
    method: str
    population_rows: int
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.weights) != self.table.num_rows:
            raise ValueError(
                f"weights ({len(self.weights)}) must align with rows "
                f"({self.table.num_rows})"
            )
        self.weights = np.asarray(self.weights, dtype=np.float64)

    @property
    def num_rows(self) -> int:
        return self.table.num_rows

    @property
    def sampling_fraction(self) -> float:
        if self.population_rows == 0:
            return 0.0
        return self.num_rows / self.population_rows

    # repro.online.estimation is imported when called: repro.online
    # imports the samplers.
    def moments(
        self,
        column: Optional[str] = None,
        by: Optional[str] = None,
        mask: Optional[np.ndarray] = None,
    ) -> Table:
        """The moment table (``sum``, ``count``, their ``__var``, ``__cross``,
        units ``__rows``) of ``SUM(column)`` (of 1 without it) and
        ``COUNT(*)`` over the rows ``mask`` keeps, a cell per ``by`` value,
        under the design ``method`` names. Rows sum per unit — block
        (:data:`SRS_BLOCK_METHODS`, scaled by ``1/row_rate`` in a bi-level
        one), join key (``universe``) or row — and the units are an SRS (of
        blocks, of rows, or per stratum of ``params["strata"]``) or else
        Poisson at their weights (a row of weight 1 is take-all)."""
        from ..online import estimation

        n, method = self.num_rows, self.method
        x = np.ones(n) if mask is None else np.asarray(mask, dtype=bool) * 1.0
        t = x
        if column is not None:
            t = np.where(x > 0, np.asarray(self.table[column], dtype=np.float64), 0.0)
        out: Dict[str, np.ndarray] = {}
        cells, num_cells = np.zeros(n, dtype=np.int64), 1
        if by is not None:
            cells, (out[by],) = encode_groups_arrays([self.table[by]])
            num_cells = len(out[by])
        w, params = self.weights, self.params
        blocks = method in SRS_BLOCK_METHODS
        if blocks or method == "universe":  # sum the rows per (cell, unit)
            units = self.table[BLOCK_ID_COLUMN if blocks else params["key_column"]]
            pairs, (cells, _) = encode_groups_arrays([cells, units])
            w = np.zeros(len(cells))
            w[pairs] = self.weights  # a unit's rows share its weight
            scale = 1.0 / float(params.get("row_rate", 1.0))
            t, x = (np.bincount(pairs, v * scale, len(cells)) for v in (t, x))
        pieces, cross = {"sum": t, "count": x}, ("sum", "count")
        if blocks or method in SRS_ROW_METHODS or method.startswith("stratified:"):
            strata, *sizes = self._strata()
            out.update(
                estimation.srs_cells(cells, num_cells, pieces, *sizes, strata, cross)
            )
        else:
            out.update(estimation.poisson_cells(cells, num_cells, w, pieces, x > 0, cross))
        return Table(out)

    def _strata(self):
        """The SRS's strata: each unit's (None: one), ``n_h`` and ``N_h``."""
        if self.method in SRS_BLOCK_METHODS:
            return None, [self.params["sampled_blocks"]], [self.params["total_blocks"]]
        if not self.method.startswith("stratified:"):
            return None, [self.num_rows], [self.population_rows]
        strata = self.params["strata"]
        column = self.params["strata_column"]
        columns = [column] if isinstance(column, str) else list(column)
        ids, keys = encode_groups_arrays([self.table[c] for c in columns])
        position = {info.key: h for h, info in enumerate(strata)}
        values = zip(*(key.tolist() for key in keys))
        lookup = [position[v[0] if len(columns) == 1 else v] for v in values]
        return (
            np.asarray(lookup, dtype=np.int64)[ids],
            [info.drawn for info in strata],
            [info.population for info in strata],
        )

    def estimate_sum(self, column: str, mask: Optional[np.ndarray] = None) -> Estimate:
        return cell_estimates(self.moments(column, mask=mask), "sum")[0]

    def estimate_count(self, mask: Optional[np.ndarray] = None) -> Estimate:
        return cell_estimates(self.moments(mask=mask), "count")[0]

    def estimate_avg(self, column: str, mask: Optional[np.ndarray] = None) -> Estimate:
        return cell_estimates(self.moments(column, mask=mask), "avg")[0]


def cell_estimates(moments: Table, agg: str) -> List[Estimate]:
    """The per-cell :class:`Estimate` view of a :meth:`WeightedSample.moments`
    table for ``agg`` (an AVG's by :func:`~repro.online.estimation.ratio_moments`)."""
    from ..online.estimation import CROSS_COLUMN, VARIANCE_SUFFIX, ratio_moments

    if agg == "avg":
        value, variance = ratio_moments(
            *(moments[p + s] for p in ("sum", "count") for s in ("", VARIANCE_SUFFIX)),
            moments[CROSS_COLUMN],
        )
    else:
        value, variance = moments[agg], moments[agg + VARIANCE_SUFFIX]
    units = moments[ROWS_COLUMN].tolist()
    return [Estimate(*cell) for cell in zip(value.tolist(), variance.tolist(), units)]


def materialize_sample(
    table: Table,
    rows: np.ndarray,
    weights: np.ndarray,
    method: str,
    params: Dict[str, object],
    block_ids: Optional[np.ndarray] = None,
) -> WeightedSample:
    """The selected ``rows`` (indices or a mask) of ``table`` copied out by
    one ``take``, with their weights and, for a block design, each row's
    block id."""
    sampled = table.take(rows)
    if block_ids is not None:
        sampled = sampled.with_column(BLOCK_ID_COLUMN, block_ids)
    return WeightedSample(sampled, weights, method, table.num_rows, params)
