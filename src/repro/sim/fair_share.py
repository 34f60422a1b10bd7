"""Two-level max-min fair (water-filling) CPU engine, settled lazily.

This is the substrate that makes the paper's latency effects emerge:

* The worker VM has ``cores`` physical cores.
* Every running computation is a :class:`CpuTask` with an amount of *work*
  in core-milliseconds; one task (one thread) uses at most one core.
* Tasks belong to a :class:`CpuGroup` (a container, or the host group for
  platform work).  A group can be capped (``cpuset_cpus`` / ``cpu_count`` in
  the paper's prototype).
* Capacity is divided by **two-level water-filling**: max-min fairness across
  groups (each group demands one core per task, bounded by its cap), then an
  equal split across the tasks inside each group.

This approximates Linux CFS with cgroup cpusets closely enough to reproduce
the paper's observations: e.g. when Vanilla launches hundreds of containers,
platform scheduling work and cold-start work contend with function execution
and *everything* slows down proportionally; whereas FaaSBatch's single
container receives the same aggregate core share as hundreds of Monopoly
containers would for the same work (Fig. 1's "Sharing ≈ Monopoly").

The exact integer specification (ticks, units, the water level, per-group
carries) is in :mod:`repro.sim.engine`; the eager reference
:class:`repro.sim.legacy_cpu.LegacyFairShareCpu` implements it directly and
this engine must match it byte for byte.

Lazy settlement
---------------
The eager engine touches every task on every event.  This one touches only
the groups an event changes, so an event costs O(log n) plus one step per
distinct demand value:

* **Group clocks.**  All tasks of a group share one rate, so a group keeps
  one virtual clock ``v`` (work served to each member) and a task its
  *finish tag* ``v_at_submit + work``.  The clock is settled lazily from a
  reference point ``x`` by floor division with carry; since
  ``(c + a) // n + (c' + b) // n == (c + a + b) // n`` when ``c'`` is the
  carry ``(c + a) % n``, one settlement equals per-tick settlement exactly.
* **Two regimes.**  A *granted* group is served its demand ``D``, so its
  clock runs on the tick clock (``D`` units per tick).  A *held* group is
  served the water level ``L``, so its clock runs on one global level
  clock ``lam`` that advances by ``L`` per tick: a change of ``L`` touches
  no held group.  After a waterfill only the groups whose demand lies
  between the old and the new level change regime.
* **Wake-up.**  Each group's earliest finish tag goes into one of two
  heaps, keyed by tick (granted) or by ``lam`` (held).  Entries carry a
  version stamp and are dropped lazily once superseded.  One timer is armed
  at the earlier top.
* **State.**  A group has lazy state only while it has runnable tasks; the
  state is freed when the group empties, so removed groups hold none.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from heapq import heappop, heappush
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.sim.engine import (TICKS_PER_MS, UNITS_PER_CORE, CpuGroup,
                              CpuTask, FairShareBase, water_level)
from repro.sim.kernel import Environment


class _Share:
    """The lazy state of one runnable group."""

    __slots__ = ("group", "tags", "n", "cap", "demand", "granted", "v",
                 "carry", "x", "stamp")

    def __init__(self, group: CpuGroup, cap: Optional[int]) -> None:
        self.group = group
        #: Heap of ``(finish tag, seq, task)`` of the group's tasks.
        self.tags: List[Tuple[int, int, CpuTask]] = []
        self.n = 0
        self.cap = cap
        self.demand = 0
        self.granted = True
        #: Virtual clock (work served to each member) and carry, as of the
        #: reference point ``x`` on the tick clock (granted) or on ``lam``
        #: (held).
        self.v = 0
        self.carry = 0
        self.x = 0
        #: Stamp of the live heap entry; 0 once the state is freed.
        self.stamp = 0


class FairShareCpu(FairShareBase):
    """The two-level processor-sharing CPU of one worker machine.

    Public operations:

    * :meth:`create_group` / :meth:`remove_group` — container cgroups.
    * :meth:`submit` — run ``work`` core-ms in a group; returns an event that
      triggers when the work completes.
    * :attr:`utilization` / :meth:`busy_core_ms` — accounting for the paper's
      CPU-cost figures (13c / 14c).

    Schedules are byte-identical to the eager reference
    (:class:`repro.sim.legacy_cpu.LegacyFairShareCpu`); see the module
    docstring for how settlement is deferred without changing them.
    """

    def __init__(self, env: Environment, cores: float) -> None:
        super().__init__(env, cores)
        self._shares: Dict[CpuGroup, _Share] = {}
        #: Distinct demands (ascending) and the shares demanding each.
        self._demands: List[int] = []
        self._by_demand: Dict[int, Dict[_Share, None]] = {}
        #: Water level (None: every demand granted) and the level clock.
        self._level: Optional[int] = None
        self._lam = 0
        self._tick_heap: List[Tuple[int, int, _Share]] = []
        self._lam_heap: List[Tuple[int, int, _Share]] = []
        self._stamp = 0
        self._active = 0

    @property
    def active_tasks(self) -> int:
        return self._active

    def abort_group_tasks(self, name: str) -> int:
        """Drop every runnable task of *name* without firing its done event.

        Used by container-crash teardown: the processes waiting on those
        events were interrupted, so the events must *not* fire — the work
        simply vanishes.  Returns the number dropped.
        """
        group = self.group(name)
        if not group.tasks:
            return 0
        tick = self._advance()
        share = self._shares[group]
        dropped = len(group.tasks)
        group.tasks.clear()
        self._active -= dropped
        share.tags.clear()
        share.n = 0
        share.stamp = 0
        self._commit(tick, {share: None})
        return dropped

    # -- events ------------------------------------------------------------------

    def _add(self, task: CpuTask) -> None:
        tick = self._advance()
        group = task.group
        share = self._shares.get(group)
        if share is None:
            share = self._shares[group] = _Share(group,
                                                 self._cap_units(group))
        else:
            self._settle(share, tick)
        share.carry = 0
        share.n += 1
        heappush(share.tags, (share.v + task.remaining, task.seq, task))
        group.tasks[task] = None
        self._active += 1
        self._commit(tick, {share: None})

    def _recap(self, group: CpuGroup) -> None:
        tick = self._advance()
        share = self._shares.get(group)
        if share is None:
            self._commit(tick, {})
            return
        self._settle(share, tick)
        share.cap = self._cap_units(group)
        self._commit(tick, {share: None})

    def _wake(self) -> None:
        self._commit(self._advance(), {})

    # -- internals ----------------------------------------------------------------

    def _advance(self) -> int:
        """Move the global accounts to the current tick; return it."""
        tick = round(self.env.now * TICKS_PER_MS)
        elapsed = tick - self._tick
        if elapsed > 0:
            self._busy += self._rate * elapsed
            if self._level is not None:
                self._lam += self._level * elapsed
            self._tick = tick
        return tick

    def _settle(self, share: _Share, tick: int) -> None:
        """Fold the work served since ``share.x`` into its clock."""
        if share.granted:
            served = share.demand * (tick - share.x)
            share.x = tick
        else:
            served = self._lam - share.x
            share.x = self._lam
        if served:
            step, share.carry = divmod(share.carry + served, share.n)
            share.v += step

    def _commit(self, tick: int, touched: Dict[_Share, None]) -> None:
        """Complete, re-waterfill, re-key *touched* shares and re-arm.

        Every share in *touched* is settled to *tick* already.
        """
        finished: List[CpuTask] = []
        self._reap_due(self._tick_heap, tick, tick, finished, touched)
        self._reap_due(self._lam_heap, self._lam, tick, finished, touched)
        if finished:
            if len(finished) > 1:
                finished.sort(key=attrgetter("seq"))
            self._finish(finished, self.env.now)
        reshaped = False
        for share in touched:
            demand = share.n * UNITS_PER_CORE
            if share.cap is not None and share.cap < demand:
                demand = share.cap
            if demand != share.demand:
                if share.demand:
                    self._unfile(share)
                if share.n:
                    self._file(share, demand)
                else:
                    share.stamp = 0
                    del self._shares[share.group]
                reshaped = True
        if reshaped:
            self._rewaterfill(touched)
        for share in touched:
            if share.n:
                self._rekey(share)
        self._arm(self._next_tick())

    def _reap_due(self, heap: List[Tuple[int, int, _Share]], bound: int,
                  tick: int, finished: List[CpuTask],
                  touched: Dict[_Share, None]) -> None:
        """Pop the finished tasks of every share keyed at most *bound*."""
        while heap and heap[0][0] <= bound:
            _key, stamp, share = heappop(heap)
            if stamp != share.stamp:
                continue  # superseded entry
            self._settle(share, tick)
            tags = share.tags
            while tags and tags[0][0] <= share.v:
                task = heappop(tags)[2]
                del share.group.tasks[task]
                finished.append(task)
            self._active -= share.n - len(tags)
            share.n = len(tags)
            share.carry = 0
            touched[share] = None

    def _file(self, share: _Share, demand: int) -> None:
        share.demand = demand
        bucket = self._by_demand.get(demand)
        if bucket is None:
            bucket = self._by_demand[demand] = {}
            insort(self._demands, demand)
        bucket[share] = None

    def _unfile(self, share: _Share) -> None:
        demand = share.demand
        bucket = self._by_demand[demand]
        del bucket[share]
        if not bucket:
            del self._by_demand[demand]
            del self._demands[bisect_right(self._demands, demand) - 1]
        share.demand = 0

    def _rewaterfill(self, touched: Dict[_Share, None]) -> None:
        """Recompute the level; touch the shares that change regime."""
        old = self._level
        level, granted, held = water_level(
            self._capacity, self._demands, self._by_demand, len(self._shares))
        if level == 0 and held:
            raise SimulationError(
                "CPU starvation: runnable tasks but zero allocation")
        self._level = level
        self._rate = granted if level is None else granted + level * held
        if level == old:
            return
        if old is None or (level is not None and level < old):
            low, high = level, old
        else:
            low, high = old, level
        demands = self._demands
        start = bisect_right(demands, low)
        stop = len(demands) if high is None else bisect_right(demands, high)
        tick = self._tick
        for demand in demands[start:stop]:
            for share in self._by_demand[demand]:
                if share not in touched:
                    self._settle(share, tick)
                    touched[share] = None

    def _rekey(self, share: _Share) -> None:
        """Put the share on its regime's clock and file its finish key."""
        self._stamp += 1
        share.stamp = self._stamp
        need = share.n * (share.tags[0][0] - share.v) - share.carry
        level = self._level
        if level is None or share.demand <= level:
            share.granted = True
            share.x = self._tick
            heappush(self._tick_heap,
                     (self._tick - (-need // share.demand), self._stamp,
                      share))
        else:
            share.granted = False
            share.x = self._lam
            heappush(self._lam_heap, (self._lam + need, self._stamp, share))

    def _next_tick(self) -> Optional[int]:
        """The earliest finish tick over both heaps."""
        wake = _live_top(self._tick_heap)
        lam = _live_top(self._lam_heap)
        if lam is not None:
            assert self._level is not None
            tick = self._tick - (-(lam - self._lam) // self._level)
            if wake is None or tick < wake:
                wake = tick
        return wake


def _live_top(heap: List[Tuple[int, int, _Share]]) -> Optional[int]:
    """The smallest live key of *heap*, dropping superseded tops."""
    while heap and heap[0][1] != heap[0][2].stamp:
        heappop(heap)
    return heap[0][0] if heap else None
