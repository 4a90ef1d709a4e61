"""Block storage model, catalog statistics, and the cost model."""

from .blocks import (
    AccessStats,
    BLOCK_ID_COLUMN,
    clustered_layout,
    shuffled_layout,
)
from .cost import CostEstimate, CostParameters, DEFAULT_COST
from .statistics import ColumnStats, TableStats, compute_table_stats
from .synopsis_cache import (
    CacheStats,
    SynopsisCache,
    configure_global_cache,
    get_global_cache,
    set_global_cache,
)

__all__ = [
    "AccessStats",
    "BLOCK_ID_COLUMN",
    "CacheStats",
    "ColumnStats",
    "CostEstimate",
    "CostParameters",
    "DEFAULT_COST",
    "SynopsisCache",
    "TableStats",
    "configure_global_cache",
    "get_global_cache",
    "set_global_cache",
    "clustered_layout",
    "compute_table_stats",
    "shuffled_layout",
]
