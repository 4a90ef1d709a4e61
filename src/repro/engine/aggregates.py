"""Aggregate functions and grouped reduction kernels.

The engine supports the standard SQL aggregates. The AQP layers classify
them the way the survey does: *linear* aggregates (SUM, COUNT, AVG) admit
unbiased sampling estimators with CLT error analysis, whereas MIN/MAX and
COUNT DISTINCT do not — that asymmetry is the root of several of the
paper's "no silver bullet" arguments (experiments E5, E14).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.exceptions import PlanError
from .expressions import Expression

#: Aggregates for which sampling yields unbiased, CLT-analyzable estimates.
LINEAR_AGGREGATES = frozenset({"sum", "count", "avg"})

#: All aggregates the engine can execute exactly.
SUPPORTED_AGGREGATES = frozenset(
    {"sum", "count", "avg", "min", "max", "var", "stddev", "count_distinct"}
)


@dataclass
class AggregateSpec:
    """One aggregate in a SELECT list.

    ``func`` is lower-case; ``argument`` is ``None`` only for ``COUNT(*)``.
    """

    func: str
    argument: Optional[Expression]
    alias: str
    distinct: bool = False

    def __post_init__(self) -> None:
        func = self.func.lower()
        if func == "count" and self.distinct:
            func = "count_distinct"
        if func not in SUPPORTED_AGGREGATES:
            raise PlanError(f"unsupported aggregate function {self.func!r}")
        self.func = func
        if func != "count" and func != "count_distinct" and self.argument is None:
            raise PlanError(f"{func.upper()} requires an argument")

    @property
    def is_linear(self) -> bool:
        return self.func in LINEAR_AGGREGATES

    def columns(self) -> frozenset:
        if self.argument is None:
            return frozenset()
        return self.argument.columns()

    def __repr__(self) -> str:
        inner = "*" if self.argument is None else repr(self.argument)
        distinct = "DISTINCT " if self.func == "count_distinct" else ""
        return f"{self.func.upper()}({distinct}{inner}) AS {self.alias}"


#: rows behind each group of a mergeable partial (matched rows for an
#: exact fold, rows read or sampled for an estimate)
ROWS_COLUMN = "__rows"


def expanded_aggregates(bound) -> List[AggregateSpec]:
    """The simple SUM/COUNT pieces each user aggregate of a bound query
    decomposes into.

    AVG(x) becomes SUM(x) + COUNT(*); SUM/COUNT pass through. Aliases are
    suffixed so all planners and estimators agree on names.
    """
    out: List[AggregateSpec] = []
    seen = set()
    for agg in bound.aggregates:
        if agg.func == "sum":
            pieces = [("sum", agg.argument, f"{agg.alias}__sum")]
        elif agg.func == "count":
            pieces = [("count", None, f"{agg.alias}__count")]
        else:  # avg
            pieces = [
                ("sum", agg.argument, f"{agg.alias}__sum"),
                ("count", None, f"{agg.alias}__count"),
            ]
        for func, arg, alias in pieces:
            if alias not in seen:
                seen.add(alias)
                out.append(AggregateSpec(func=func, argument=arg, alias=alias))
    return out


# ----------------------------------------------------------------------
# Group encoding
# ----------------------------------------------------------------------

#: Integer-like dtype kinds eligible for the packed-int64 fast path.
_INT_KINDS = frozenset("iub")

#: Packed codes must stay comfortably inside int64; leave headroom so the
#: per-column span products can be checked with exact Python ints.
_PACK_LIMIT = 2 ** 62

#: Packed codes are renumbered by counting rather than sorting while their
#: range is at most this many slots per row (the count array is the only
#: allocation that grows with the range).
_DENSE_SPAN_PER_ROW = 4


def _integer_pack(key_arrays: Sequence[np.ndarray]) -> Optional[Tuple[np.ndarray, List[int], List[int]]]:
    """Try to pack integer key columns into one int64 code per row.

    Returns ``(packed, mins, spans)`` or ``None`` when any column is
    non-integer or the combined span would overflow int64. Packing uses
    ``(arr - min) * multiplier`` with the rightmost column varying
    fastest, so the packed codes are non-negative and sort in the same
    lexicographic order as the raw values — group ids come out identical
    to the generic rank-based encoding.
    """
    mins: List[int] = []
    spans: List[int] = []
    for arr in key_arrays:
        if arr.dtype.kind not in _INT_KINDS:
            return None
        lo = int(arr.min())
        hi = int(arr.max())
        if hi - lo + 1 > _PACK_LIMIT or hi >= 2 ** 63:
            return None
        mins.append(lo)
        spans.append(hi - lo + 1)
    capacity = 1
    for span in spans:
        capacity *= span
        if capacity > _PACK_LIMIT:
            return None
    packed = None
    multiplier = 1
    for arr, lo, span in zip(reversed(key_arrays), reversed(mins), reversed(spans)):
        codes = arr.astype(np.int64, copy=False) - lo
        if multiplier != 1:
            codes *= multiplier
        if packed is None:
            packed = codes
        else:
            packed += codes
        multiplier *= span
    return packed, mins, spans


def _unique_codes(codes: np.ndarray, capacity: int) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(codes, return_inverse=True)`` for codes in
    ``[0, capacity)``, without the sort when the range is dense.

    With ``capacity`` proportional to the row count, one ``bincount``
    finds the occupied codes (already in ascending order) and a lookup
    table renumbers them — O(n + capacity) against the O(n log n) sort
    inside ``np.unique``, with identical output.
    """
    if capacity > _DENSE_SPAN_PER_ROW * len(codes):
        uniq, inverse = np.unique(codes, return_inverse=True)
        return uniq, inverse.astype(np.int64, copy=False)
    present = np.flatnonzero(np.bincount(codes, minlength=capacity))
    if len(present) == capacity:
        return present, codes
    lookup = np.empty(capacity, dtype=np.int64)
    lookup[present] = np.arange(len(present), dtype=np.int64)
    return present, lookup[codes]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)``, by sorting when the dtype is integer or bool.

    numpy 2 answers a plain ``np.unique`` of integers from a hash table,
    which at a million high-cardinality int64 values is some forty times
    slower than a sort and a neighbour compare. Integer and bool values
    take that sort here; every other dtype goes to ``np.unique``, which
    keeps its NaN-collapsing float semantics. The output is identical.
    """
    values = np.asarray(values)
    if values.dtype.kind not in _INT_KINDS:
        return np.unique(values)
    ordered = np.sort(values, axis=None)
    if len(ordered) < 2:
        return ordered
    first = np.empty(len(ordered), dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def encode_groups_arrays(
    key_arrays: Sequence[np.ndarray],
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Map composite keys to dense group ids, columnar key output.

    Returns ``(group_ids, key_columns)`` where ``key_columns[pos][g]`` is
    the value of key column ``pos`` for group ``g``. This is the kernel
    behind :func:`encode_groups`; the executor uses it directly so
    grouped aggregation never builds per-row (or even per-group) Python
    tuples.

    Fast paths:

    * keys whose columns are all integer/bool dtypes are packed into one
      int64 code per row (span-based, order-preserving); a dense code
      range is then renumbered by ``bincount`` + lookup table with no
      sort at all, a sparse one by a single ``np.unique`` call;
    * any other single key column goes straight through
      ``np.unique(..., return_inverse=True)``.

    Both fast paths produce group ids and key values identical to the
    generic rank-based encoding (the property test in
    ``tests/test_fused_executor.py`` fuzzes this equivalence).
    """
    if not key_arrays:
        raise PlanError("encode_groups requires at least one key array")
    key_arrays = [np.asarray(arr) for arr in key_arrays]
    n = len(key_arrays[0])
    if n == 0:
        return np.array([], dtype=np.int64), [
            np.array([], dtype=arr.dtype) for arr in key_arrays
        ]
    packed = _integer_pack(key_arrays)
    if packed is not None:
        codes, mins, spans = packed
        uniq_codes, inverse = _unique_codes(codes, math.prod(spans))
        key_columns: List[np.ndarray] = [None] * len(key_arrays)  # type: ignore[list-item]
        rem = uniq_codes
        for pos in range(len(key_arrays) - 1, -1, -1):
            rem, offs = np.divmod(rem, spans[pos])
            key_columns[pos] = (offs + mins[pos]).astype(key_arrays[pos].dtype)
        return inverse, key_columns
    if len(key_arrays) == 1:
        uniques, inverse = np.unique(key_arrays[0], return_inverse=True)
        return inverse.astype(np.int64), [uniques]
    # Generic path: factorize each key column, then combine the rank codes.
    codes_list = []
    levels = []
    for arr in key_arrays:
        uniq, inv = np.unique(arr, return_inverse=True)
        codes_list.append(inv.astype(np.int64))
        levels.append(uniq)
    combined = np.zeros(n, dtype=np.int64)
    multiplier = 1
    for code, uniq in zip(reversed(codes_list), reversed(levels)):
        combined += code * multiplier
        multiplier *= len(uniq)
    uniq_combined, inverse = np.unique(combined, return_inverse=True)
    key_columns = [None] * len(key_arrays)  # type: ignore[list-item]
    rem = uniq_combined
    for pos in range(len(key_arrays) - 1, -1, -1):
        rem, idx = np.divmod(rem, len(levels[pos]))
        key_columns[pos] = levels[pos][idx]
    return inverse.astype(np.int64), key_columns


def encode_groups(key_arrays: Sequence[np.ndarray]) -> Tuple[np.ndarray, List[Tuple]]:
    """Map composite keys to dense group ids.

    Returns ``(group_ids, key_tuples)`` where ``group_ids[i]`` indexes into
    ``key_tuples``. Keys are ordered by first appearance is *not* guaranteed;
    they follow numpy's sort order, which is fine because SQL group order is
    unspecified.

    This is the tuple-producing facade over :func:`encode_groups_arrays`
    (which callers on hot paths should prefer — it skips building Python
    tuples entirely).
    """
    group_ids, key_columns = encode_groups_arrays(key_arrays)
    if len(group_ids) == 0:
        return group_ids, []
    if len(key_columns) == 1:
        return group_ids, [(u,) for u in key_columns[0].tolist()]
    return group_ids, list(zip(*key_columns))


# ----------------------------------------------------------------------
# Grouped kernels
# ----------------------------------------------------------------------

def grouped_sum(group_ids: np.ndarray, values: np.ndarray, num_groups: int) -> np.ndarray:
    vals = np.asarray(values, dtype=np.float64)
    return np.bincount(group_ids, weights=vals, minlength=num_groups)


def grouped_count(group_ids: np.ndarray, num_groups: int) -> np.ndarray:
    return np.bincount(group_ids, minlength=num_groups).astype(np.float64)


def grouped_min(group_ids: np.ndarray, values: np.ndarray, num_groups: int) -> np.ndarray:
    out = np.full(num_groups, np.inf)
    np.minimum.at(out, group_ids, np.asarray(values, dtype=np.float64))
    return out


def grouped_max(group_ids: np.ndarray, values: np.ndarray, num_groups: int) -> np.ndarray:
    out = np.full(num_groups, -np.inf)
    np.maximum.at(out, group_ids, np.asarray(values, dtype=np.float64))
    return out


def grouped_var(
    group_ids: np.ndarray, values: np.ndarray, num_groups: int, ddof: int = 1
) -> np.ndarray:
    """Per-group sample variance (ddof=1), NaN for singleton groups."""
    vals = np.asarray(values, dtype=np.float64)
    counts = np.bincount(group_ids, minlength=num_groups).astype(np.float64)
    sums = np.bincount(group_ids, weights=vals, minlength=num_groups)
    sumsq = np.bincount(group_ids, weights=vals * vals, minlength=num_groups)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        ss = sumsq - counts * means * means
        ss = np.maximum(ss, 0.0)  # guard tiny negative round-off
        denom = counts - ddof
        var = np.where(denom > 0, ss / np.maximum(denom, 1), np.nan)
    return var


def grouped_count_distinct(
    group_ids: np.ndarray, values: np.ndarray, num_groups: int
) -> np.ndarray:
    """Exact per-group distinct counts: the distinct (group, value) pairs,
    packed into one int64 code each, counted per group."""
    if len(values) == 0:
        return np.zeros(num_groups, dtype=np.float64)
    packed = _integer_pack([group_ids, values])
    if packed is None:  # not integers, or too wide to pack beside the groups
        # Value codes pack for any dtype; NaNs share one code, as in np.unique.
        _, value_codes = np.unique(values, return_inverse=True)
        packed = _integer_pack([group_ids, value_codes])
    pairs, mins, spans = packed
    pair_groups = sorted_unique(pairs) // spans[1] + mins[0]
    return np.bincount(pair_groups, minlength=num_groups).astype(np.float64)


def compute_aggregate_values(
    spec: AggregateSpec, values: Optional[np.ndarray], num_rows: int
) -> float:
    """Ungrouped (scalar) aggregate over a value vector.

    ``values`` may be ``None`` only for plain COUNT, which needs just the
    row count. The executor calls it on masked column views, so no Table
    wrapper is ever allocated.
    """
    if spec.func == "count":
        return float(num_rows)
    if spec.func == "count_distinct":
        return float(len(sorted_unique(values)))
    vals = np.asarray(values, dtype=np.float64)
    if len(vals) == 0:
        return 0.0 if spec.func == "sum" else float("nan")
    if spec.func == "sum":
        return float(np.sum(vals))
    if spec.func == "avg":
        return float(np.mean(vals))
    if spec.func == "min":
        return float(np.min(vals))
    if spec.func == "max":
        return float(np.max(vals))
    if spec.func == "var":
        return float(np.var(vals, ddof=1)) if len(vals) > 1 else float("nan")
    if spec.func == "stddev":
        return float(np.std(vals, ddof=1)) if len(vals) > 1 else float("nan")
    raise PlanError(f"unreachable aggregate {spec.func!r}")


def compute_grouped_aggregate_values(
    spec: AggregateSpec,
    values: Optional[np.ndarray],
    group_ids: np.ndarray,
    num_groups: int,
) -> np.ndarray:
    """Per-group aggregates over a value vector aligned with ``group_ids``.

    ``values`` may be ``None`` only for plain COUNT.
    """
    if spec.func == "count":
        return grouped_count(group_ids, num_groups)
    if spec.func == "count_distinct":
        return grouped_count_distinct(group_ids, values, num_groups)
    if spec.func == "sum":
        return grouped_sum(group_ids, values, num_groups)
    if spec.func == "avg":
        counts = grouped_count(group_ids, num_groups)
        sums = grouped_sum(group_ids, values, num_groups)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    if spec.func == "min":
        return grouped_min(group_ids, values, num_groups)
    if spec.func == "max":
        return grouped_max(group_ids, values, num_groups)
    if spec.func == "var":
        return grouped_var(group_ids, values, num_groups)
    if spec.func == "stddev":
        return np.sqrt(grouped_var(group_ids, values, num_groups))
    raise PlanError(f"unreachable aggregate {spec.func!r}")
