"""Bounded accounting: online stats, mergeable sketches, the result sink."""

from __future__ import annotations

import base64
import itertools
import json
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.streaming import (
    BoundedReservoir,
    ChannelStats,
    LogBucketHistogram,
    OnlineStats,
    StreamingResultSink,
)


def _values(seed: int, count: int, scale: float = 1000.0):
    rng = random.Random(seed)
    return [rng.random() * scale for _ in range(count)]


class TestOnlineStats:
    def test_matches_direct_computation(self):
        values = _values(1, 500)
        stats = OnlineStats()
        for value in values:
            stats.observe(value)
        assert stats.count == 500
        assert stats.mean == pytest.approx(sum(values) / 500)
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)

    def test_merge_equals_single_pass(self):
        values = _values(2, 400)
        merged = OnlineStats()
        for value in values:
            merged.observe(value)
        left, right = OnlineStats(), OnlineStats()
        for value in values[:150]:
            left.observe(value)
        for value in values[150:]:
            right.observe(value)
        left.merge(right)
        assert left.count == merged.count
        assert left.minimum == merged.minimum
        assert left.maximum == merged.maximum
        assert left.mean == pytest.approx(merged.mean)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            OnlineStats().observe(float("nan"))

    def test_round_trips_through_json(self):
        stats = OnlineStats()
        for value in _values(3, 50):
            stats.observe(value)
        clone = OnlineStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert clone.count == stats.count
        assert clone.minimum == stats.minimum
        assert clone.maximum == stats.maximum


class TestLogBucketHistogram:
    def test_quantiles_within_bucket_resolution(self):
        values = _values(4, 2000, scale=5000.0)
        histogram = LogBucketHistogram()
        for value in values:
            histogram.observe(value)
        exact = sorted(values)[int(0.5 * (len(values) - 1))]
        # Geometric buckets grow 5 % per step; the midpoint estimate is
        # within one bucket of the true quantile.
        assert histogram.quantile(0.5) == pytest.approx(exact, rel=0.06)

    def test_merge_is_exactly_order_independent(self):
        chunks = [_values(seed, 300) for seed in (5, 6, 7)]
        quantiles = []
        for order in itertools.permutations(range(3)):
            merged = LogBucketHistogram()
            for index in order:
                part = LogBucketHistogram()
                for value in chunks[index]:
                    part.observe(value)
                merged.merge(part)
            quantiles.append([merged.quantile(q)
                              for q in (0.5, 0.95, 0.99)])
        assert all(q == quantiles[0] for q in quantiles)

    def test_zero_lands_in_underflow(self):
        histogram = LogBucketHistogram()
        histogram.observe(0.0)
        assert histogram.underflow == 1
        assert histogram.quantile(0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LogBucketHistogram().observe(-1.0)

    def test_merge_rejects_different_shapes(self):
        with pytest.raises(ValueError):
            LogBucketHistogram().merge(LogBucketHistogram(growth=1.1))

    def test_round_trips_through_json(self):
        histogram = LogBucketHistogram()
        for value in _values(8, 100):
            histogram.observe(value)
        clone = LogBucketHistogram.from_dict(
            json.loads(json.dumps(histogram.to_dict())))
        assert clone.total == histogram.total
        assert clone.quantile(0.9) == histogram.quantile(0.9)


class TestBoundedReservoir:
    def test_exact_until_capacity(self):
        reservoir = BoundedReservoir(capacity=100, seed=1)
        values = _values(9, 100)
        for value in values:
            reservoir.observe(value)
        assert reservoir.exact
        assert reservoir.values() == sorted(values)
        reservoir.observe(1.0)
        assert not reservoir.exact
        assert len(reservoir.values()) == 100

    def test_merge_is_associative_and_commutative(self):
        parts = []
        for seed in (10, 11, 12, 13):
            reservoir = BoundedReservoir(capacity=50, seed=seed)
            for value in _values(seed, 40):
                reservoir.observe(value)
            parts.append(reservoir)
        outcomes = []
        for order in itertools.permutations(range(4)):
            merged = BoundedReservoir(capacity=50, seed=99)
            for index in order:
                clone = BoundedReservoir.from_dict(parts[index].to_dict(),
                                                   seed=index)
                merged.merge(clone)
            outcomes.append((merged.seen, merged.values()))
        assert all(outcome == outcomes[0] for outcome in outcomes)

    def test_merge_rejects_different_capacities(self):
        with pytest.raises(ValueError):
            BoundedReservoir(capacity=10).merge(BoundedReservoir(capacity=20))

    def test_round_trips_through_json(self):
        reservoir = BoundedReservoir(capacity=10, seed=3)
        for value in _values(14, 25):
            reservoir.observe(value)
        clone = BoundedReservoir.from_dict(
            json.loads(json.dumps(reservoir.to_dict())), seed=3)
        assert clone.seen == reservoir.seen
        assert clone.values() == reservoir.values()

    def test_rejects_malformed_items(self):
        payload = BoundedReservoir(capacity=2, seed=3).to_dict()
        for floats in ([0.5, 1.0, 0.25], [0.5, 1.0] * 3):
            payload["items"] = base64.b64encode(
                struct.pack(f"<{len(floats)}d", *floats)).decode()
            with pytest.raises(ValueError, match="malformed"):
                BoundedReservoir.from_dict(payload)


#: ``(priority, value)`` pairs; a few fixed priorities force ties.
_PAIRS = st.lists(
    st.tuples(st.one_of(st.sampled_from([0.0, 0.25, 0.5]),
                        st.floats(0.0, 1.0, exclude_max=True)),
              st.floats(0.0, 1e9)),
    max_size=60)


def _inserted(capacity: int, pairs) -> BoundedReservoir:
    """The per-item reference: one ``_insert`` per pair."""
    reservoir = BoundedReservoir(capacity=capacity)
    for priority, value in pairs:
        reservoir.seen += 1
        reservoir._insert(priority, value)
    return reservoir


def _bits(reservoir: BoundedReservoir):
    """The kept ``(priority, value)`` multiset, bit for bit."""
    return sorted(struct.pack("<dd", -neg, value)
                  for neg, value in reservoir._heap)


def _is_heap(heap) -> bool:
    return all(heap[(i - 1) // 2] <= heap[i] for i in range(1, len(heap)))


class TestReservoirProperties:
    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(1, 40), pairs=_PAIRS)
    def test_json_round_trip_is_bit_exact(self, capacity, pairs):
        reservoir = _inserted(capacity, pairs)
        clone = BoundedReservoir.from_dict(
            json.loads(json.dumps(reservoir.to_dict())))
        assert (clone.capacity, clone.seen) \
            == (reservoir.capacity, reservoir.seen)
        assert _bits(clone) == _bits(reservoir)
        assert clone.to_dict() == reservoir.to_dict()
        assert _is_heap(clone._heap)

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(1, 40), left=_PAIRS, right=_PAIRS)
    @example(capacity=40, left=[(0.5, 1.0)] * 3, right=[(0.25, 2.0)] * 3)
    @example(capacity=2, left=[(0.5, 1.0)] * 3, right=[(0.5, 2.0)] * 3)
    def test_merge_equals_per_item_insert(self, capacity, left, right):
        merged = _inserted(capacity, left)
        other = _inserted(capacity, right)
        reference = _inserted(capacity, left)
        reference.seen += other.seen
        for neg, value in other._heap:
            reference._insert(-neg, value)
        merged.merge(other)
        assert merged.seen == reference.seen
        assert _bits(merged) == _bits(reference)
        # Still a heap, so later inserts evict the largest priority.
        assert _is_heap(merged._heap)


class TestChannelStats:
    def test_percentile_exact_below_cap(self):
        channel = ChannelStats(reservoir_capacity=1000, seed=0)
        values = _values(15, 500)
        for value in values:
            channel.observe(value)
        ordered = sorted(values)
        assert channel.exact
        assert channel.percentile(0.0) == ordered[0]
        assert channel.percentile(100.0) == ordered[-1]

    def test_percentile_falls_back_to_histogram(self):
        channel = ChannelStats(reservoir_capacity=50, seed=0)
        values = _values(16, 400)
        for value in values:
            channel.observe(value)
        assert not channel.exact
        exact = sorted(values)[int(0.95 * 399)]
        assert channel.percentile(95.0) == pytest.approx(exact, rel=0.06)


class _FakeLatency:
    def __init__(self):
        self.scheduling_ms = 2.0
        self.cold_start_ms = 0.0
        self.queuing_ms = 1.0
        self.execution_ms = 47.0


class _FakeInvocation:
    def __init__(self, e2e: float, error=None):
        self.error = error
        self.end_to_end_ms = e2e
        self.response_latency_ms = e2e
        self.latency = _FakeLatency()


class TestStreamingResultSink:
    def test_counts_and_channels(self):
        sink = StreamingResultSink()
        sink.observe_invocation(_FakeInvocation(50.0))
        sink.observe_invocation(_FakeInvocation(70.0))
        sink.observe_invocation(_FakeInvocation(0.0, error=RuntimeError()))
        assert sink.completed == 2
        assert sink.failed == 1
        assert sink.channel(sink.E2E).count == 2
        assert sink.latency_percentile(100.0) == 70.0

    def test_merge_permutations_agree_exactly(self):
        shards = []
        for seed in range(4):
            sink = StreamingResultSink(reservoir_capacity=200, seed=seed)
            for value in _values(20 + seed, 80):
                sink.observe_invocation(_FakeInvocation(value))
            shards.append(sink.to_dict())
        outcomes = []
        for order in itertools.permutations(range(4)):
            merged = StreamingResultSink.merged(
                [StreamingResultSink.from_dict(shards[i]) for i in order])
            outcomes.append((merged.completed,
                             merged.channel(merged.E2E).reservoir.values(),
                             [merged.latency_percentile(q)
                              for q in (50, 95, 99)]))
        assert all(outcome == outcomes[0] for outcome in outcomes)

    def test_merged_equals_single_sink_below_cap(self):
        values = _values(30, 300)
        single = StreamingResultSink(reservoir_capacity=1000, seed=7)
        for value in values:
            single.observe_invocation(_FakeInvocation(value))
        parts = []
        for start in range(0, 300, 100):
            part = StreamingResultSink(reservoir_capacity=1000,
                                       seed=100 + start)
            for value in values[start:start + 100]:
                part.observe_invocation(_FakeInvocation(value))
            parts.append(part)
        merged = StreamingResultSink.merged(parts)
        assert merged.completed == single.completed
        assert merged.channel(merged.E2E).reservoir.values() \
            == single.channel(single.E2E).reservoir.values()
        for q in (50.0, 95.0, 98.0, 99.0):
            assert merged.latency_percentile(q) \
                == single.latency_percentile(q)

    def test_merge_rejects_mismatched_capacity(self):
        with pytest.raises(ValueError):
            StreamingResultSink(reservoir_capacity=10).merge(
                StreamingResultSink(reservoir_capacity=20))

    def test_round_trips_through_json(self):
        sink = StreamingResultSink(reservoir_capacity=64, seed=5)
        for value in _values(31, 50):
            sink.observe_invocation(_FakeInvocation(value))
        clone = StreamingResultSink.from_dict(
            json.loads(json.dumps(sink.to_dict())))
        assert clone.completed == sink.completed
        assert clone.channel(clone.E2E).reservoir.values() \
            == sink.channel(sink.E2E).reservoir.values()
        assert clone.summary() == sink.summary()

    def test_summary_shape(self):
        sink = StreamingResultSink()
        for value in _values(32, 40):
            sink.observe_invocation(_FakeInvocation(value))
        summary = sink.summary()
        assert summary["count"] == 40
        assert summary["exact"] is True
        for key in ("mean", "min", "max", "p50", "p95", "p98", "p99"):
            assert isinstance(summary[key], float)
