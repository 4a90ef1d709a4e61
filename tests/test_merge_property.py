"""Mergeability property tests: shard sketches ≡ whole-table sketch.

Every mergeable structure must satisfy the defining property of
Agarwal et al.'s *Mergeable Summaries*: sketching N disjoint shards
and merging gives the same answer (bit-for-bit for the deterministic
linear structures, to the structure's own guarantee for SpaceSaving)
as sketching the concatenated stream once. This is what makes the
scatter-gather layer's merge step semantics-preserving rather than a
new approximation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sharding import merge_sketches
from repro.sketches.bloom import BloomFilter
from repro.sketches.countmin import CountMinSketch
from repro.sketches.countsketch import CountSketch
from repro.sketches.hyperloglog import HyperLogLog
from repro.sketches.kmv import KMVSketch
from repro.sketches.spacesaving import SpaceSaving

NUM_SHARDS = 5


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(101)
    # zipf-ish skew so heavy hitters exist and duplicates cross shards
    data = rng.zipf(1.5, 20_000) % 5_000
    shards = np.array_split(data, NUM_SHARDS)
    return data, shards


class TestSketchShardEquivalence:
    """Deterministic structures: merged state is bit-for-bit identical."""

    def test_count_min(self, stream):
        data, shards = stream
        whole = CountMinSketch(epsilon=0.005, delta=0.01, seed=3)
        whole.add(data)
        parts = []
        for chunk in shards:
            s = CountMinSketch(epsilon=0.005, delta=0.01, seed=3)
            s.add(chunk)
            parts.append(s)
        merged = merge_sketches(parts)
        assert np.array_equal(merged.counters, whole.counters)
        assert merged.total == whole.total

    def test_count_sketch(self, stream):
        data, shards = stream
        whole = CountSketch(depth=5, width=1024, seed=3)
        whole.add(data)
        parts = []
        for chunk in shards:
            s = CountSketch(depth=5, width=1024, seed=3)
            s.add(chunk)
            parts.append(s)
        merged = merge_sketches(parts)
        assert np.array_equal(merged.counters, whole.counters)
        assert merged.total == whole.total

    def test_hyperloglog(self, stream):
        data, shards = stream
        whole = HyperLogLog(precision=11, seed=3)
        whole.add(data)
        parts = []
        for chunk in shards:
            s = HyperLogLog(precision=11, seed=3)
            s.add(chunk)
            parts.append(s)
        merged = merge_sketches(parts)
        assert np.array_equal(merged.registers, whole.registers)
        assert merged.estimate() == whole.estimate()

    def test_kmv(self, stream):
        data, shards = stream
        whole = KMVSketch(k=256, seed=3)
        whole.add(data)
        parts = []
        for chunk in shards:
            s = KMVSketch(k=256, seed=3)
            s.add(chunk)
            parts.append(s)
        merged = merge_sketches(parts)  # exercises the merge alias
        assert np.array_equal(merged.values, whole.values)
        assert merged.estimate() == whole.estimate()

    def test_bloom(self, stream):
        data, shards = stream
        whole = BloomFilter(expected_items=20_000, fp_rate=0.01, seed=3)
        whole.add(data)
        parts = []
        for chunk in shards:
            s = BloomFilter(expected_items=20_000, fp_rate=0.01, seed=3)
            s.add(chunk)
            parts.append(s)
        merged = merge_sketches(parts)
        assert np.array_equal(merged.bits, whole.bits)
        probe = np.unique(data)[:500]
        assert bool(np.all(merged.contains(probe)))


class TestSpaceSavingMerge:
    """Merged SpaceSaving keeps its guarantees, not its exact state."""

    def test_merge_preserves_count_error_invariant(self, stream):
        data, shards = stream
        true_counts = dict(zip(*np.unique(data, return_counts=True)))
        parts = []
        for chunk in shards:
            s = SpaceSaving(capacity=128)
            s.add(chunk)
            parts.append(s)
        merged = merge_sketches(parts)
        assert merged.total == len(data)
        assert len(merged.counters) <= merged.capacity
        for item, (count, error) in merged.counters.items():
            true = int(true_counts.get(item, 0))
            assert count >= true, "SpaceSaving count must overestimate"
            assert count - error <= true, (
                f"guaranteed count {count - error} exceeds truth {true} "
                f"for {item!r}"
            )

    def test_merge_retains_heavy_hitters(self, stream):
        data, shards = stream
        values, counts = np.unique(data, return_counts=True)
        parts = []
        for chunk in shards:
            s = SpaceSaving(capacity=128)
            s.add(chunk)
            parts.append(s)
        merged = merge_sketches(parts)
        # every item heavier than N/capacity must still be tracked
        threshold = len(data) / merged.capacity
        for item in values[counts > threshold]:
            assert merged.estimate(item.item()) > 0
