"""Partition-tolerant sharded execution (DESIGN.md §2.11).

Split a table into N shards, fan aggregate queries out to shard workers,
and merge partial answers while surviving shard kills, stragglers, and
corruption — widening the CI honestly for whatever was not served.
"""

from .executor import SCATTER_RUNG, ScatterGatherExecutor, ShardOutcome
from .merge import merge_partial_tables, merge_sketches
from .table import (
    ColumnBounds,
    Shard,
    ShardStats,
    ShardedTable,
    compute_shard_stats,
)

__all__ = [
    "ColumnBounds",
    "SCATTER_RUNG",
    "ScatterGatherExecutor",
    "Shard",
    "ShardOutcome",
    "ShardStats",
    "ShardedTable",
    "compute_shard_stats",
    "merge_partial_tables",
    "merge_sketches",
]
