"""Common sample representation.

Every sampler in this package returns a :class:`WeightedSample`: the
sampled rows plus a per-row Horvitz–Thompson weight (``1/π_i``). That
single convention lets downstream estimation (:mod:`repro.estimators`)
treat uniform, stratified, measure-biased, outlier and block samples
identically, which is exactly how systems like Quickr compose samplers.

A sampler is its design's selection function — row positions (or block
ids) and their weights, the same call a scan directive makes — followed
by :func:`materialize_sample`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..engine.table import Table
from ..estimators.closed_form import Estimate
from ..estimators.horvitz_thompson import ht_count, ht_mean, ht_total
from ..storage.blocks import BLOCK_ID_COLUMN


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

    def inclusion_probabilities(self) -> np.ndarray:
        return 1.0 / np.maximum(self.weights, 1e-300)

    # ------------------------------------------------------------------
    # Estimation shortcuts
    # ------------------------------------------------------------------
    def estimate_sum(self, column: str) -> Estimate:
        return ht_total(
            np.asarray(self.table[column], dtype=np.float64),
            self.inclusion_probabilities(),
        )

    def estimate_count(self) -> Estimate:
        return ht_count(self.inclusion_probabilities())

    def estimate_avg(self, column: str) -> Estimate:
        return ht_mean(
            np.asarray(self.table[column], dtype=np.float64),
            self.inclusion_probabilities(),
        )

    def filtered(self, mask: np.ndarray) -> "WeightedSample":
        """Apply a predicate; weights follow the surviving rows.

        Filtering commutes with sampling for Bernoulli-style designs, so
        the filtered object remains a valid weighted sample of the
        filtered population.
        """
        mask = np.asarray(mask, dtype=bool)
        return WeightedSample(
            table=self.table.take(mask),
            weights=self.weights[mask],
            method=self.method,
            population_rows=self.population_rows,
            params=dict(self.params),
        )


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
