"""The eager reference fair-share CPU engine.

:class:`LegacyFairShareCpu` implements the integer fair-share
specification (:mod:`repro.sim.engine`) the direct way.  On every event it
settles every task at the rates in force since the last event, scans every
task for completions, runs the full waterfill over every group and
recomputes every group's finish tick: O(total tasks) per event.

It stays in the tree as the **equivalence oracle**: integer sums are
exact, so the lazy :class:`repro.sim.fair_share.FairShareCpu` must produce
byte-identical traces, event logs and metrics; the golden-trace and
random-program tests assert it.  The perf bench does not run it.

Keep it obvious rather than fast: its value is being the specification.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.errors import SimulationError
from repro.sim.engine import (TICKS_PER_MS, UNITS_PER_CORE, CpuGroup,
                              CpuTask, FairShareBase, waterfill)
from repro.sim.kernel import Environment


class LegacyFairShareCpu(FairShareBase):
    """Two-level processor sharing, settled eagerly on every event."""

    def __init__(self, env: Environment, cores: float) -> None:
        super().__init__(env, cores)
        #: Runnable tasks in submission order.
        self._tasks: Dict[CpuTask, None] = {}
        #: Rate (units per tick) and carry of every runnable group.
        self._rates: Dict[CpuGroup, int] = {}
        self._carry: Dict[CpuGroup, int] = {}

    @property
    def active_tasks(self) -> int:
        return len(self._tasks)

    def abort_group_tasks(self, name: str) -> int:
        """Drop every runnable task of *name* without firing its done event.

        Used by container-crash teardown: the processes waiting on those
        events were interrupted, so the events must *not* fire — the work
        simply vanishes.  Returns the number dropped.
        """
        group = self.group(name)
        if not group.tasks:
            return 0
        self._settle()
        dropped = len(group.tasks)
        for task in group.tasks:
            del self._tasks[task]
        group.tasks.clear()
        self._reallocate()
        return dropped

    # -- internals ----------------------------------------------------------------

    def _add(self, task: CpuTask) -> None:
        self._settle()
        task.group.tasks[task] = None
        self._tasks[task] = None
        self._carry[task.group] = 0
        self._reallocate()

    def _wake(self) -> None:
        self._settle()
        self._reallocate()

    def _recap(self, group: CpuGroup) -> None:
        self._wake()

    def _settle(self) -> None:
        """Serve every task the work of the ticks since the last event."""
        tick = round(self.env.now * TICKS_PER_MS)
        elapsed = tick - self._tick
        if elapsed <= 0:
            return
        for group, rate in self._rates.items():
            served, self._carry[group] = divmod(
                self._carry[group] + rate * elapsed, len(group.tasks))
            for task in group.tasks:
                task.remaining -= served
        self._busy += self._rate * elapsed
        self._tick = tick

    def _reallocate(self) -> None:
        """Complete finished tasks, waterfill, arm the next finish tick."""
        finished = [task for task in self._tasks if task.remaining <= 0]
        for task in finished:
            del self._tasks[task]
            del task.group.tasks[task]
            self._carry[task.group] = 0
        self._finish(finished, self.env.now)
        groups: List[CpuGroup] = [group for group in self._groups.values()
                                  if group.tasks]
        demands = []
        for group in groups:
            demand = len(group.tasks) * UNITS_PER_CORE
            cap = self._cap_units(group)
            demands.append(demand if cap is None else min(demand, cap))
        rates = waterfill(self._capacity, demands)
        self._rates = dict(zip(groups, rates))
        self._carry = {group: self._carry.get(group, 0) for group in groups}
        self._rate = sum(rates)
        wake = None
        for group, rate in self._rates.items():
            if rate == 0:
                raise SimulationError(
                    "CPU starvation: runnable tasks but zero allocation")
            lowest = min(task.remaining for task in group.tasks)
            need = len(group.tasks) * lowest - self._carry[group]
            tick = self._tick - (-need // rate)
            if wake is None or tick < wake:
                wake = tick
        self._arm(wake)
