"""Merging per-shard partial results into whole-table answers.

Two families of partials come back from shard workers, each with its own
merge algebra:

* **Mergeable sketches** (CM/CS/HLL/KMV/Bloom/SpaceSaving) — closed
  under ``merge``; merging shard sketches is *equivalent* to sketching
  the whole table (exactly for the deterministic structures, to the
  sketch's own guarantee for SpaceSaving). The property tests in
  ``tests/test_merge_property.py`` assert this shard/whole equivalence.
* **Partial aggregate tables** — what the engine's prepared kernels
  produce when folded over a row range: key columns plus additive
  components (sums, counts, and — for sampled techniques — *squared* CI
  half-widths, which add because independent estimates' variances add).
  Merging is the same operation for blocks within a shard and shards
  within a table: concatenate, regroup on the keys, add the columns.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np

from ..core.exceptions import MergeError
from ..engine.aggregates import encode_groups_arrays, grouped_sum
from ..engine.table import Table

__all__ = ["merge_sketches", "merge_partial_tables"]


def merge_sketches(sketches: Sequence[object]):
    """Fold shard sketches with their own ``merge`` into one."""
    if not sketches:
        raise MergeError("nothing to merge")
    return reduce(lambda a, b: a.merge(b), sketches)


def merge_partial_tables(
    tables: Sequence[Table], key_aliases: Sequence[str]
) -> Table:
    """Add partial aggregate tables that share one schema.

    Groups come back in the engine's own order (``encode_groups_arrays``
    sorts by key value) and every component is accumulated in input
    order, so merging blocks into a shard and then shards into a table
    rounds exactly like one sequential pass over the partials.
    """
    if not tables:
        raise MergeError("nothing to merge")
    if key_aliases:
        # A range with no matching rows has no groups — and no key dtype
        # to contribute (its key columns are empty float arrays).
        tables = [t for t in tables if t.num_rows] or tables[:1]
    if len(tables) == 1:
        return tables[0]
    stacked = Table.concat(tables)
    if key_aliases:
        group_ids, key_columns = encode_groups_arrays(
            [stacked[alias] for alias in key_aliases]
        )
        cols = dict(zip(key_aliases, key_columns))
        num_groups = len(key_columns[0])
    else:
        group_ids = np.zeros(stacked.num_rows, dtype=np.int64)
        cols, num_groups = {}, 1
    for name in stacked.column_names:
        if name not in cols:
            cols[name] = grouped_sum(group_ids, stacked[name], num_groups)
    return Table(cols, name="aggregate")
