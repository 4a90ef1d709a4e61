"""Reservoir sampling: fixed-size uniform samples over streams.

Offline AQP systems keep their precomputed samples fresh under inserts by
maintaining them as reservoirs — each arriving row replaces a random
reservoir slot with probability ``k/seen``. The resulting reservoir is an
exact SRS of everything seen so far. :mod:`repro.sampling.maintain`
applies the same rule a batch at a time when catalog samples absorb an
append.

Algorithm L (Li 1994) is used for skipping, so feeding a large batch costs
O(k·log(n/k)) RNG draws rather than one per row.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence

import numpy as np


class ReservoirSampler:
    """Maintains a uniform fixed-size sample of a stream of items."""

    def __init__(self, capacity: int, seed: Optional[int] = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self._reservoir: List[object] = []
        self._seen = 0
        # Algorithm L state
        self._w = math.exp(math.log(self._rng.random()) / capacity)
        self._next_index = capacity  # index of the next item to admit

    @property
    def seen(self) -> int:
        """Total number of items offered so far."""
        return self._seen

    def offer(self, item) -> None:
        """Offer one item to the reservoir."""
        if self._seen < self.capacity:
            self._reservoir.append(item)
            self._seen += 1
            return
        if self._seen == self._next_index:
            slot = int(self._rng.integers(0, self.capacity))
            self._reservoir[slot] = item
            self._advance()
        self._seen += 1

    def offer_many(self, items: Iterable) -> None:
        """Offer a batch; uses Algorithm L's skip counts to touch only the
        admitted items when the reservoir is already full.

        Numpy arrays are indexed in place — no O(n) list copy — so the
        per-batch cost is O(admitted · log) regardless of batch size.
        """
        if not isinstance(items, np.ndarray):
            items = list(items)
        i = 0
        n = len(items)
        # Fill phase (bulk-extend instead of one append per row).
        if i < n and self._seen < self.capacity:
            take = min(n, self.capacity - self._seen)
            self._reservoir.extend(items[:take])
            self._seen += take
            i = take
        # Skip phase
        while i < n:
            if self._seen + (n - i) <= self._next_index:
                # Whole rest of the batch is skipped.
                self._seen += n - i
                return
            jump = self._next_index - self._seen
            i += jump
            self._seen += jump
            if i < n:
                slot = int(self._rng.integers(0, self.capacity))
                self._reservoir[slot] = items[i]
                self._advance()
                self._seen += 1
                i += 1

    def _advance(self) -> None:
        """Draw the index of the next admitted item (Algorithm L)."""
        r = self._rng.random()
        skip = int(math.floor(math.log(r) / math.log(1.0 - self._w))) + 1
        self._next_index = self._seen + skip
        self._w *= math.exp(math.log(self._rng.random()) / self.capacity)

    def sample(self) -> List[object]:
        """Current reservoir contents (uniform sample of items seen)."""
        return list(self._reservoir)

    def sample_array(self) -> np.ndarray:
        return np.asarray(self._reservoir)

    @property
    def weight(self) -> float:
        """HT weight of each reservoir item: seen / reservoir size."""
        size = len(self._reservoir)
        return self._seen / size if size else 1.0

    def __len__(self) -> int:
        return len(self._reservoir)
