"""A simple, explicit cost model.

The model charges for the two resources AQP trades against accuracy:

* **I/O**: blocks read from the (simulated) storage layer. Block sampling
  is cheaper than row sampling precisely because it reads fewer blocks.
* **CPU**: rows flowing through operators (filters, joins, aggregation).

Costs are unitless "work" numbers; every claim we reproduce compares
*relative* costs (speedups), so only ratios matter. The unit costs weight a
block read as the cost of processing one block's worth of rows times an
I/O amplification factor, which makes scan-bound queries scan-bound —
matching the regime the survey's speedup arguments assume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


#: Unit costs, in work units.
BLOCK_READ_COST = 50.0  #: cost to fetch one block from storage
ROW_CPU_COST = 0.01  #: cost to run one row through one operator
ROW_JOIN_COST = 0.03  #: cost per probe-side row in a hash join
ROW_AGG_COST = 0.02  #: cost per row entering aggregation
SAMPLE_OVERHEAD_PER_BLOCK = 5.0  #: RNG/bookkeeping per candidate block
SEEK_COST = 120.0  #: one random index seek (B-tree descent + page)


@dataclass
class CostEstimate:
    """Decomposed cost of a (sub)plan."""

    io: float = 0.0
    cpu: float = 0.0
    detail: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.io + self.cpu

    def add(self, other: "CostEstimate") -> "CostEstimate":
        merged = dict(self.detail)
        for k, v in other.detail.items():
            merged[k] = merged.get(k, 0.0) + v
        return CostEstimate(io=self.io + other.io, cpu=self.cpu + other.cpu, detail=merged)

    def __repr__(self) -> str:
        return f"CostEstimate(total={self.total:.1f}, io={self.io:.1f}, cpu={self.cpu:.1f})"


def scan_cost(num_blocks: int, num_rows: int) -> CostEstimate:
    """Full sequential scan."""
    return CostEstimate(
        io=num_blocks * BLOCK_READ_COST,
        cpu=num_rows * ROW_CPU_COST,
        detail={"scan_blocks": float(num_blocks)},
    )


def block_sample_cost(
    num_blocks: int,
    block_size: int,
    sampling_rate: float,
) -> CostEstimate:
    """Block Bernoulli sampling: reads ~rate fraction of blocks, plus a small
    per-block decision overhead for *every* block (the sampler must flip a
    coin per block even when it skips it)."""
    expected_blocks = num_blocks * sampling_rate
    return CostEstimate(
        io=expected_blocks * BLOCK_READ_COST,
        cpu=(
            expected_blocks * block_size * ROW_CPU_COST
            + num_blocks * SAMPLE_OVERHEAD_PER_BLOCK * 0.01
        ),
        detail={"sampled_blocks": expected_blocks},
    )


def row_sample_cost(
    num_blocks: int,
    block_size: int,
    sampling_rate: float,
) -> CostEstimate:
    """Row-level Bernoulli sampling on block storage.

    The expected number of blocks touched is ``B * (1 - (1-p)^b)`` for block
    size ``b``: with even modest rates nearly all blocks are read, which is
    why the survey calls row sampling "no cheaper than a scan" on disk.
    """
    prob_block_touched = 1.0 - (1.0 - sampling_rate) ** block_size
    touched = num_blocks * prob_block_touched
    return CostEstimate(
        io=touched * BLOCK_READ_COST,
        cpu=num_blocks * block_size * sampling_rate * ROW_CPU_COST
        + num_blocks * block_size * SAMPLE_OVERHEAD_PER_BLOCK * 0.001,
        detail={"touched_blocks": touched},
    )


def index_seek_cost(matching_rows: float) -> CostEstimate:
    """Point lookups for ``matching_rows`` rows via a secondary index
    (the "seek" half of Sample+Seek)."""
    return CostEstimate(
        io=matching_rows * SEEK_COST * 0.05,  # amortized: clustered postings
        cpu=matching_rows * ROW_CPU_COST,
        detail={"seeks": float(matching_rows)},
    )


def aggregation_cost(input_rows: float) -> CostEstimate:
    return CostEstimate(cpu=input_rows * ROW_AGG_COST)
