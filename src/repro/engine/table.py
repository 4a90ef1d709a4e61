"""Columnar in-memory tables.

The engine stores data column-wise in numpy arrays, which is the layout
assumed throughout the AQP literature the paper surveys: scans touch only
the referenced columns, and block/page structure is expressed as contiguous
row ranges (see :mod:`repro.storage.blocks`).
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.exceptions import SchemaError

#: Values sampled per column by :meth:`Table.fingerprint`. Enough that a
#: table swap is detected with near-certainty, small enough that the
#: fingerprint stays O(columns) regardless of row count.
_FINGERPRINT_SAMPLES = 64

#: Default number of rows per storage block. Chosen so that laptop-scale
#: tables (1e5-1e7 rows) have enough blocks for block sampling to be
#: meaningful, mirroring an 8KB page holding ~1000 narrow rows.
DEFAULT_BLOCK_SIZE = 1024


def _as_column_array(values: Iterable) -> np.ndarray:
    """Coerce ``values`` into a 1-D numpy array suitable for a column.

    Numeric and boolean data keep their native dtypes; anything else
    (strings, mixed) is stored as ``object`` so equality and hashing work
    uniformly in joins and group-bys.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise SchemaError(f"columns must be 1-D, got shape {arr.shape}")
    if arr.dtype.kind in ("i", "u", "f", "b"):
        return arr
    if arr.dtype.kind == "U" or arr.dtype.kind == "S" or arr.dtype == object:
        return arr.astype(object)
    if arr.dtype.kind == "M":  # datetimes: keep as int64 days for simplicity
        return arr.astype("datetime64[D]").astype(np.int64)
    raise SchemaError(f"unsupported column dtype: {arr.dtype}")


class Table:
    """An immutable, named collection of equal-length columns.

    Parameters
    ----------
    columns:
        Mapping from column name to array-like of values.
    name:
        Optional table name used in error messages and plans.
    block_size:
        Number of rows per storage block; drives block sampling and the
        cost model's notion of I/O.
    """

    __slots__ = ("_columns", "name", "block_size", "_fingerprint_cache")

    #: Monotonic count of Table constructions in this process. The fused
    #: executor's "zero intermediate Tables" guarantee is asserted against
    #: deltas of this counter (see :func:`count_table_allocations`).
    _allocations: int = 0

    def __init__(
        self,
        columns: Mapping[str, Iterable],
        name: str = "",
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        Table._allocations += 1
        if block_size <= 0:
            raise SchemaError("block_size must be positive")
        self._columns: Dict[str, np.ndarray] = {}
        nrows: Optional[int] = None
        for col_name, values in columns.items():
            arr = _as_column_array(values)
            if nrows is None:
                nrows = len(arr)
            elif len(arr) != nrows:
                raise SchemaError(
                    f"column {col_name!r} has {len(arr)} rows, expected {nrows}"
                )
            self._columns[col_name] = arr
        self.name = name
        self.block_size = block_size
        self._fingerprint_cache: Optional[str] = None

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    @property
    def column_names(self) -> List[str]:
        return list(self._columns)

    def __len__(self) -> int:
        return self.num_rows

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"no column {name!r} in table {self.name or '<anonymous>'} "
                f"(have {self.column_names})"
            ) from None

    def column(self, name: str) -> np.ndarray:
        """Alias of ``table[name]``."""
        return self[name]

    def columns_dict(self) -> Dict[str, np.ndarray]:
        """A shallow copy of the name -> array mapping."""
        return dict(self._columns)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray, name: Optional[str] = None) -> "Table":
        """Row subset/reorder by integer indices or boolean mask.

        Exactly two selector forms are accepted, and they are
        distinguished by dtype, never by length:

        * **boolean mask** — must have exactly ``num_rows`` entries; rows
          where the mask is True are kept, in table order (the Filter and
          HAVING call sites).
        * **integer index array** — any length; rows are gathered in the
          given order, duplicates and reordering allowed (the sampling
          and ORDER BY call sites). Empty arrays of any dtype are
          treated as an empty integer selector.

        Any other dtype (e.g. a float array that "looks like" indices)
        raises :class:`SchemaError` so mask-vs-index semantics can never
        silently diverge at a call site.
        """
        indices = np.asarray(indices)
        if indices.ndim != 1:
            raise SchemaError(
                f"take() selector must be 1-D, got shape {indices.shape}"
            )
        if indices.dtype == bool:
            if len(indices) != self.num_rows:
                raise SchemaError(
                    f"boolean mask length {len(indices)} != rows {self.num_rows}"
                )
        elif indices.dtype.kind not in ("i", "u"):
            if indices.size == 0:
                indices = indices.astype(np.int64)
            else:
                raise SchemaError(
                    "take() selector must be a boolean mask or integer "
                    f"indices, got dtype {indices.dtype}"
                )
        return Table(
            {k: v[indices] for k, v in self._columns.items()},
            name=name if name is not None else self.name,
            block_size=self.block_size,
        )

    def select(self, names: Sequence[str], name: Optional[str] = None) -> "Table":
        """Column subset (projection)."""
        return Table(
            {n: self[n] for n in names},
            name=name if name is not None else self.name,
            block_size=self.block_size,
        )

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Return a table with columns renamed per ``mapping``."""
        return Table(
            {mapping.get(k, k): v for k, v in self._columns.items()},
            name=self.name,
            block_size=self.block_size,
        )

    def with_column(self, name: str, values: Iterable) -> "Table":
        """Return a copy with column ``name`` added or replaced."""
        cols = dict(self._columns)
        cols[name] = values
        return Table(cols, name=self.name, block_size=self.block_size)

    def head(self, n: int) -> "Table":
        return self.take(np.arange(min(n, self.num_rows)))

    def slice_rows(self, start: int, stop: int) -> "Table":
        return Table(
            {k: v[start:stop] for k, v in self._columns.items()},
            name=self.name,
            block_size=self.block_size,
        )

    @staticmethod
    def concat(tables: Sequence["Table"], name: str = "") -> "Table":
        """Vertical concatenation (bag UNION ALL)."""
        if not tables:
            return Table({}, name=name)
        names = tables[0].column_names
        for t in tables[1:]:
            if t.column_names != names:
                raise SchemaError(
                    f"UNION ALL schema mismatch: {names} vs {t.column_names}"
                )
        cols = {}
        for col in names:
            parts = [t[col] for t in tables]
            if any(p.dtype == object for p in parts):
                parts = [p.astype(object) for p in parts]
            cols[col] = np.concatenate(parts)
        return Table(cols, name=name, block_size=tables[0].block_size)

    @staticmethod
    def empty_like(template: "Table") -> "Table":
        return template.take(np.array([], dtype=np.int64))

    def split_by_assignment(
        self, assignment: np.ndarray, num_parts: int
    ) -> List["Table"]:
        """Partition rows into ``num_parts`` tables by an assignment vector.

        ``assignment[i]`` names the part row ``i`` belongs to; parts with
        no rows come back empty. Row order within each part follows the
        original table (a stable partition), which keeps block structure
        and downstream fingerprints deterministic.
        """
        assignment = np.asarray(assignment)
        if len(assignment) != self.num_rows:
            raise SchemaError(
                f"assignment length {len(assignment)} != rows {self.num_rows}"
            )
        if num_parts < 1:
            raise SchemaError("num_parts must be >= 1")
        if len(assignment) and (
            assignment.min() < 0 or assignment.max() >= num_parts
        ):
            raise SchemaError(
                f"assignment values must lie in [0, {num_parts})"
            )
        order = np.argsort(assignment, kind="stable")
        sorted_assign = assignment[order]
        ids = np.arange(num_parts)
        starts = np.searchsorted(sorted_assign, ids, side="left")
        stops = np.searchsorted(sorted_assign, ids, side="right")
        return [
            self.take(order[start:stop])
            for start, stop in zip(starts, stops)
        ]

    # ------------------------------------------------------------------
    # Blocks
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        if self.num_rows == 0:
            return 0
        return (self.num_rows + self.block_size - 1) // self.block_size

    def block_bounds(self, block_id: int) -> Tuple[int, int]:
        """Row range ``[start, stop)`` covered by ``block_id``."""
        if not 0 <= block_id < self.num_blocks:
            raise IndexError(f"block {block_id} out of range [0, {self.num_blocks})")
        start = block_id * self.block_size
        stop = min(start + self.block_size, self.num_rows)
        return start, stop

    def block(self, block_id: int) -> "Table":
        start, stop = self.block_bounds(block_id)
        return self.slice_rows(start, stop)

    def block_ids_of_rows(self, row_indices: np.ndarray) -> np.ndarray:
        """Block id of each row index."""
        return np.asarray(row_indices) // self.block_size

    # ------------------------------------------------------------------
    # Convenience / debug
    # ------------------------------------------------------------------
    def iter_rows(self) -> Iterator[Tuple]:
        """Iterate rows as tuples (slow; tests/debug only)."""
        arrays = list(self._columns.values())
        for i in range(self.num_rows):
            yield tuple(arr[i] for arr in arrays)

    def to_pylist(self) -> List[Dict[str, object]]:
        """Rows as list of dicts (slow; tests/debug only)."""
        names = self.column_names
        return [dict(zip(names, row)) for row in self.iter_rows()]

    def fingerprint(self) -> str:
        """Cheap, deterministic content hash for synopsis-cache keys.

        Hashes the schema (column names + dtypes), the row count, and a
        checksum of up to ``_FINGERPRINT_SAMPLES`` evenly spaced values
        per column (always including the first and last row). Any length
        change and almost any content change flips the digest; a change
        confined entirely to unsampled rows of an equal-length table can
        escape — the documented price of an O(columns) fingerprint.

        Tables are immutable, so the digest is computed once and cached.
        """
        if self._fingerprint_cache is not None:
            return self._fingerprint_cache
        from ..sketches.hashing import hash64
        from .aggregates import sorted_unique

        h = hashlib.blake2b(digest_size=16)
        n = self.num_rows
        h.update(f"rows={n};block={self.block_size};".encode())
        if n:
            take = min(n, _FINGERPRINT_SAMPLES)
            probe = sorted_unique(
                np.concatenate(
                    [np.linspace(0, n - 1, take).astype(np.int64), [0, n - 1]]
                )
            )
        else:
            probe = np.array([], dtype=np.int64)
        for name in sorted(self._columns):
            arr = self._columns[name]
            h.update(f"{name}:{arr.dtype.str};".encode())
            if len(probe):
                # Position-sensitive: the raw hash vector, not a reduction.
                h.update(np.ascontiguousarray(hash64(arr[probe], seed=1)).tobytes())
        self._fingerprint_cache = h.hexdigest()
        return self._fingerprint_cache

    def estimated_bytes(self) -> int:
        """Rough in-memory footprint used by the cost model."""
        total = 0
        for arr in self._columns.values():
            if arr.dtype == object:
                total += arr.size * 24  # pointer + small-string estimate
            else:
                total += arr.nbytes
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Table(name={self.name!r}, rows={self.num_rows}, "
            f"cols={self.column_names})"
        )


class TableAllocationProbe:
    """Handle yielded by :func:`count_table_allocations`."""

    __slots__ = ("_start",)

    def __init__(self, start: int) -> None:
        self._start = start

    @property
    def count(self) -> int:
        """Tables constructed since the probe was opened."""
        return Table._allocations - self._start


@contextmanager
def count_table_allocations() -> Iterator[TableAllocationProbe]:
    """Count Table constructions inside a ``with`` block.

    The counter is process-global and monotonic, so the probe is a pure
    observer — nesting probes or running them around arbitrary engine
    code has no side effects. The differential tests use this to assert
    the fused executor's zero-intermediate-Table property.
    """
    yield TableAllocationProbe(Table._allocations)
