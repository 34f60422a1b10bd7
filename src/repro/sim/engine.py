"""CPU-engine substrate shared by every CPU scheduling discipline.

A worker machine's CPU is modeled by a *CPU engine*: a service that accepts
units of work (:class:`CpuTask`) grouped into container cgroups
(:class:`CpuGroup`) and decides how fast each one runs.  The repo ships
three engines with one interface (:class:`CpuEngine`):

* :class:`repro.sim.fair_share.FairShareCpu` — two-level max-min fair
  processor sharing, settled lazily per group (the default).
* :class:`repro.sim.sfs_cpu.SfsCpu` — the SFS user-space discipline
  (per-core adaptive time slices).
* :class:`repro.sim.legacy_cpu.LegacyFairShareCpu` — the eager reference
  for the same fair-share specification: it settles every task on every
  event.  It is the equivalence oracle the tests hold the lazy engine to.

:class:`CpuEngineBase` holds the scaffolding every engine repeats —
group bookkeeping, validation, utilization accounting — and
:class:`FairShareBase` what the two fair-share engines share.

The integer fair-share specification
------------------------------------
Both fair-share engines implement one exact integer model.  Integer sums
do not depend on the order they are taken in, so the lazy and the eager
engine agree byte for byte, and no float rounding can stall the clock:

* **Time** is counted in ticks of 2**-20 ms.  An instant ``now`` is tick
  ``round(now * 2**20)``; tick ``k`` is the exact float ``k / 2**20``, so a
  wake-up armed for a tick fires exactly on it.
* **Capacity** is 2**16 units per core.  A task uses at most one core, so a
  group of ``n`` tasks demands ``min(n * 2**16, cap)`` units, with its cap
  rounded to units (at least one).
* **Work** is counted in units x ticks: one core-ms is 2**36.
* **Groups** share the machine by integer water-filling
  (:func:`water_level`).  The level ``L`` is the largest integer with
  ``sum(min(D, L)) <= capacity`` over the group demands ``D``.  A group
  with ``D <= L`` is *granted* its demand; the others are *held* at ``L``.
  The remainder, fewer units than there are held groups, stays idle.
* **Tasks** of a group share its rate equally.  Each tick, a group of
  ``n`` tasks at rate ``r`` serves every member ``(carry + r) // n`` and
  keeps ``(carry + r) % n`` as its carry.  The carry restarts at zero
  whenever the group's membership changes: each member forfeits the
  fraction of one unit-tick it was owed.  A task finishes at the first
  tick by which its group has served it all its work.
* **Events.**  Every submit, abort, cap change and wake-up settles the
  elapsed ticks, applies its change, completes the finished tasks in
  submission order, re-runs the waterfill and arms one wake-up timer at
  the earliest finish tick.  The timer is re-armed only when that tick
  changes.
* **Accounting.**  Busy work is the sum of the group rates over the
  elapsed ticks.  The observers (:meth:`FairShareBase.busy_core_ms`,
  ``current_rate``, ``utilization``) compute their answers from these
  integers and never change engine state, so observing the CPU cannot
  change the schedule.
"""

from __future__ import annotations

from typing import (Dict, List, Mapping, Optional, Protocol, Sequence, Sized,
                    Tuple, runtime_checkable)

from repro.common.errors import SimulationError
from repro.sim.kernel import Environment, Event, Timeout

#: Clock ticks per simulated millisecond.
TICKS_PER_MS = 1 << 20
#: Capacity units per core.
UNITS_PER_CORE = 1 << 16
#: Work units (unit x tick) per core-millisecond.
WORK_PER_CORE_MS = TICKS_PER_MS * UNITS_PER_CORE


def to_units(cores: float) -> int:
    """A capacity of *cores* in units (at least one)."""
    return max(1, round(cores * UNITS_PER_CORE))


class CpuTask:
    """One unit of computation being serviced by the CPU."""

    __slots__ = ("work_total", "remaining", "group", "done", "started_at",
                 "label", "seq")

    def __init__(self, work: float, group: "CpuGroup", done: Event,
                 started_at: float, label: str, seq: int) -> None:
        self.work_total = work
        #: Work still to serve, in units x ticks.  The eager engine counts
        #: it down; the lazy engine reads it once to set the finish tag.
        self.remaining = max(1, round(work * WORK_PER_CORE_MS))
        self.group = group
        self.done = done
        self.started_at = started_at
        self.label = label
        #: Global submission rank: same-instant completions fire in it.
        self.seq = seq

    def __repr__(self) -> str:
        return (f"<CpuTask {self.label or self.seq} "
                f"work={self.work_total:.3f}>")


class CpuGroup:
    """A set of tasks sharing a cap (a container, or the uncapped host)."""

    __slots__ = ("name", "cap", "tasks")

    def __init__(self, name: str, cap: Optional[float]) -> None:
        if cap is not None and cap <= 0:
            raise ValueError(f"group cap must be > 0, got {cap}")
        self.name = name
        self.cap = cap  # None = unbounded (host group)
        # Insertion-ordered on purpose: CpuTask hashes by identity, so a
        # set's iteration order would vary run to run (nondeterminism).
        self.tasks: Dict[CpuTask, None] = {}

    def __repr__(self) -> str:
        return f"<CpuGroup {self.name} cap={self.cap} tasks={len(self.tasks)}>"


def water_level(capacity: int, demands: Sequence[int],
                members: Mapping[int, Sized],
                total: int) -> Tuple[Optional[int], int, int]:
    """Integer max-min water level over distinct demand values.

    *demands* lists the distinct demands in ascending order, ``members[d]``
    the groups demanding ``d`` and *total* their overall number.  Returns
    ``(level, granted, held)``: ``level`` is the largest integer ``L`` with
    ``sum(min(d, L))`` over all groups at most *capacity*, or ``None`` when
    every demand fits; ``granted`` is the sum of the demands ``d <= L``
    (served in full) and ``held`` the number of groups held at ``L``.
    Costs one step per distinct demand value.
    """
    granted = 0
    left = total
    for demand in demands:
        if granted + demand * left > capacity:
            return (capacity - granted) // left, granted, left
        count = len(members[demand])
        granted += demand * count
        left -= count
    return None, granted, 0


def waterfill(capacity: int, demands: Sequence[int]) -> List[int]:
    """Integer max-min fair allocation of *capacity* across *demands*.

    Each entity receives ``min(demand, L)`` for the water level ``L`` of
    :func:`water_level`; non-positive demands receive nothing.  The
    allocation never exceeds *capacity*, and falls short of
    ``min(capacity, sum(demands))`` by less than the number of entities
    held at the level.
    """
    members: Dict[int, List[int]] = {}
    for index, demand in enumerate(demands):
        if demand > 0:
            members.setdefault(demand, []).append(index)
    level, _granted, _held = water_level(
        capacity, sorted(members), members,
        sum(len(group) for group in members.values()))
    return [0 if demand <= 0 else
            demand if level is None or demand <= level else level
            for demand in demands]


@runtime_checkable
class CpuEngine(Protocol):
    """The interface a worker machine requires of its CPU service.

    All three engines (fair-share, SFS, legacy fair-share) satisfy it;
    :func:`repro.sim.machine.build_cpu` returns one.
    """

    HOST_GROUP: str
    env: Environment
    cores: float

    def create_group(self, name: str, cap: Optional[float]) -> CpuGroup: ...

    def remove_group(self, name: str) -> None: ...

    def group(self, name: str) -> CpuGroup: ...

    def has_group(self, name: str) -> bool: ...

    def set_group_cap(self, name: str, cap: Optional[float]) -> None: ...

    def abort_group_tasks(self, name: str) -> int: ...

    def submit(self, work: float, group: str = ...,
               label: str = ...) -> Event: ...

    @property
    def active_tasks(self) -> int: ...

    def busy_core_ms(self) -> float: ...

    def current_rate(self) -> float: ...

    def utilization(self) -> float: ...

    def runnable_group_count(self) -> int: ...


class CpuEngineBase:
    """Group bookkeeping and accounting shared by the concrete engines.

    Subclasses implement the scheduling policy (``submit`` and friends);
    this base owns the group registry, the validation rules and the
    utilization arithmetic that were previously duplicated per engine.
    """

    HOST_GROUP = "host"

    def __init__(self, env: Environment, cores: float) -> None:
        self.env = env
        self.cores = cores
        self._groups: Dict[str, CpuGroup] = {
            self.HOST_GROUP: CpuGroup(self.HOST_GROUP, cap=None)}
        self._task_sequence = 0
        self._busy_core_ms = 0.0

    # -- groups ----------------------------------------------------------------

    def _clamp_cap(self, cap: float) -> float:
        """Bound a non-None group cap; identity unless a subclass overrides."""
        return cap

    def create_group(self, name: str, cap: Optional[float]) -> CpuGroup:
        """Create a capped group (one per container)."""
        if name in self._groups:
            raise SimulationError(f"CPU group {name!r} already exists")
        if cap is not None:
            cap = self._clamp_cap(cap)
        group = self._groups[name] = CpuGroup(name, cap)
        return group

    def remove_group(self, name: str) -> None:
        """Remove an (empty) group when its container is torn down."""
        if name == self.HOST_GROUP:
            raise SimulationError("cannot remove the host group")
        group = self._groups.pop(name, None)
        if group is None:
            raise SimulationError(f"unknown CPU group {name!r}")
        if group.tasks:
            raise SimulationError(
                f"CPU group {name!r} still has {len(group.tasks)} tasks")

    def group(self, name: str) -> CpuGroup:
        try:
            return self._groups[name]
        except KeyError:
            raise SimulationError(f"unknown CPU group {name!r}") from None

    def has_group(self, name: str) -> bool:
        return name in self._groups

    # -- shared validation / helpers --------------------------------------------

    @staticmethod
    def _validate_work(work: float) -> None:
        if work < 0:
            raise ValueError(f"negative work: {work}")

    def _completed_event(self) -> Event:
        """A zero-work submission: completes via a zero-delay event."""
        done = self.env.event()
        done.succeed(0.0)
        return done

    # -- accounting --------------------------------------------------------------

    def current_rate(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def utilization(self) -> float:
        """Instantaneous utilization in [0, 1]."""
        return self.current_rate() / self.cores

    def runnable_group_count(self) -> int:
        """Groups with at least one runnable task (a telemetry probe)."""
        return sum(1 for group in self._groups.values() if group.tasks)


class FairShareBase(CpuEngineBase):
    """Units, observers and the wake-up timer of the fair-share engines.

    Subclasses implement the specification in the module docstring:
    ``_add`` (a submitted task), ``_recap`` (a group's cap changed),
    ``abort_group_tasks`` and ``_wake`` (the timer fired).  They keep
    ``_tick`` (the last settled tick), ``_busy`` (units x ticks served up
    to it) and ``_rate`` (units per tick being served) current.
    """

    def __init__(self, env: Environment, cores: float) -> None:
        if cores <= 0:
            raise ValueError(f"cores must be > 0, got {cores}")
        super().__init__(env, float(cores))
        self._capacity = to_units(self.cores)
        self._tick = round(env.now * TICKS_PER_MS)
        self._busy = 0
        self._rate = 0
        self._wake_tick: Optional[int] = None
        self._wake_timer: Optional[Timeout] = None

    def _clamp_cap(self, cap: float) -> float:
        return min(cap, self.cores)

    def _cap_units(self, group: CpuGroup) -> Optional[int]:
        return None if group.cap is None else to_units(group.cap)

    def set_group_cap(self, name: str, cap: Optional[float]) -> None:
        """Re-cap *name* at runtime (the straggler-slowdown fault hook).

        Work done before the change is charged at the old rates.
        """
        if cap is not None:
            if cap <= 0:
                raise ValueError(f"group cap must be > 0, got {cap}")
            cap = min(cap, self.cores)
        group = self.group(name)
        group.cap = cap
        self._recap(group)

    def submit(self, work: float, group: str = CpuEngineBase.HOST_GROUP,
               label: str = "") -> Event:
        """Execute *work* core-ms in *group*; the event fires on completion.

        A task uses at most one core.  Zero work completes after a
        zero-delay event.
        """
        self._validate_work(work)
        if work == 0.0:
            return self._completed_event()
        group_obj = self.group(group)
        self._task_sequence += 1
        task = CpuTask(work, group_obj, self.env.event(), self.env.now,
                       label, self._task_sequence)
        self._add(task)
        return task.done

    # -- observers (pure) ------------------------------------------------------------

    def busy_core_ms(self) -> float:
        """Total core-milliseconds of work served so far."""
        elapsed = round(self.env.now * TICKS_PER_MS) - self._tick
        return (self._busy + self._rate * elapsed) / WORK_PER_CORE_MS

    def current_rate(self) -> float:
        """Aggregate core usage right now (cores being consumed)."""
        return self._rate / UNITS_PER_CORE

    # -- internals ----------------------------------------------------------------

    @staticmethod
    def _finish(finished: List[CpuTask], now: float) -> None:
        """Fire the done events of *finished* (already in seq order)."""
        for task in finished:
            task.done.succeed(now - task.started_at)

    def _arm(self, tick: Optional[int]) -> None:
        """Make the wake-up timer fire at *tick* (``None``: idle)."""
        if tick == self._wake_tick:
            return
        if self._wake_timer is not None:
            self._wake_timer.cancel()
        self._wake_tick = tick
        if tick is None:
            self._wake_timer = None
            return
        timer = self.env.timeout_at(tick / TICKS_PER_MS)
        self._wake_timer = timer
        timer._callbacks = self._on_wakeup  # the timer's only waiter

    def _on_wakeup(self, _event: Event) -> None:
        self._wake_timer = None
        self._wake_tick = None
        self._wake()
