"""The simulation kernel's future-event structure: one binary heap.

The kernel splits its pending events into two tiers: *current-instant*
events live in plain deques inside :class:`~repro.sim.kernel.Environment`
(urgent before normal, FIFO within each class), and *future* events — the
only ones that ever carry a timestamp beyond ``now`` — live in the
:class:`HeapQueue` defined here: O(log n) push and pop over flat
``(when, seq, event)`` triples, as in SimPy.

The module keeps its historical name because the benchmark's layer map
(``perfbench/layers.py``) names it.

Ordering contract: pops come out in ascending ``(when, seq)`` — *seq* is
the kernel's monotone sequence number, so events scheduled for the same
instant preserve FIFO creation order.

Cancellation is lazy: a cancelled :class:`Timeout` stays as a *tombstone*
until the heap would surface it (dropped and accounted against
``env._cancelled``) or until :meth:`HeapQueue.compact` sweeps it (called
by the environment once tombstones outnumber live entries, which bounds
memory).
"""

from __future__ import annotations

import heapq
from typing import Any, List, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.sim.kernel import Event

#: One pending future event: ``(when_ms, sequence, event)``.  The sequence
#: is unique, so tuple comparison never reaches the event object.
Entry = Tuple[float, int, "Event"]

_INF = float("inf")


class HeapQueue:
    """Binary-heap future-event structure (see module docstring)."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[Entry] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, when: float, seq: int, event: "Event") -> None:
        heapq.heappush(self._heap, (when, seq, event))

    def push_batch(self, entries: List[Entry]) -> None:
        """Bulk push of entries sorted by ``(when, seq)`` ascending."""
        heap = self._heap
        if not heap:
            # A sorted list satisfies the heap invariant as-is.
            heap.extend(entries)
            return
        for entry in entries:
            heapq.heappush(heap, entry)

    def min_when(self) -> float:
        """Time of the earliest live entry (+inf when empty).

        Tombstones surfacing at the head are dropped here, accounted
        against their environment's cancellation counter.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            if not event.cancelled:
                return entry[0]
            heapq.heappop(heap)
            event._callbacks = None
            event.env._cancelled -= 1
        return _INF

    def pop(self) -> "Event":
        """Remove and return the earliest live event."""
        heap = self._heap
        while True:
            event = heapq.heappop(heap)[2]
            if not event.cancelled:
                return event
            event._callbacks = None
            event.env._cancelled -= 1

    def next_due(self, now: float) -> "Any":
        """Pop and return the earliest live event if due (``when <= now``);
        otherwise return its firing time as a float (``inf`` when empty),
        leaving it queued.

        Fuses the kernel's ``min_when`` + ``pop`` pair into one call on
        the dispatch hot path; the caller type-switches on the result
        (``float`` means "not yet").
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            if event.cancelled:
                heapq.heappop(heap)
                event._callbacks = None
                event.env._cancelled -= 1
                continue
            when = entry[0]
            if when <= now:
                heapq.heappop(heap)
                return event
            return when
        return _INF

    def pop_until(self, bound: float) -> "Any":
        """Pop and return the earliest live *entry* if ``when <= bound``;
        otherwise return its firing time as a float (``inf`` when empty).

        The hook-free kernel loop uses this to fuse "peek, advance the
        clock, pop" into one call: the returned ``(when, seq, event)``
        tuple carries the timestamp the clock must advance to, so an
        advance-then-dispatch costs a single queue operation instead of
        two ``next_due`` calls and an extra loop lap.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            if event.cancelled:
                heapq.heappop(heap)
                event._callbacks = None
                event.env._cancelled -= 1
                continue
            if entry[0] <= bound:
                heapq.heappop(heap)
                return entry
            return entry[0]
        return _INF

    def compact(self) -> int:
        """Physically drop every tombstone; returns the number removed."""
        heap = self._heap
        retained = [entry for entry in heap if not entry[2].cancelled]
        removed = len(heap) - len(retained)
        if removed:
            for entry in heap:
                if entry[2].cancelled:
                    entry[2]._callbacks = None
            heap[:] = retained
            heapq.heapify(heap)
        return removed

    def entries(self) -> List[Entry]:
        """Snapshot of pending entries (live + tombstones), unordered."""
        return list(self._heap)


__all__ = ["Entry", "HeapQueue"]
