"""Lazy-engine behavior: eager equivalence, pure observers, heap bounds.

Byte-for-byte schedule equivalence with the eager reference engine on the
golden scenarios is proven by ``tests/integration/test_engine_equivalence.py``;
these tests drive both engines with random operation sequences, pin that
observing the CPU never changes a schedule, and cover the compatibility
shims around the engines.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.vanilla import VanillaScheduler
from repro.bench import BenchConfig, bench_trace
from repro.common.errors import SimulationError
from repro.platformsim.experiment import run_experiment
from repro.sim import cpu as cpu_shim
from repro.sim.engine import UNITS_PER_CORE, CpuEngine, waterfill
from repro.sim.fair_share import FairShareCpu
from repro.sim.kernel import Environment
from repro.sim.legacy_cpu import LegacyFairShareCpu
from repro.sim.machine import CPU_ENGINES
from repro.sim.sfs_cpu import SfsCpu
from repro.workload.generator import fib_family_specs


class TestCoalescing:
    """Same-instant submits are reallocated before anything observes them."""

    def test_flush_on_read_sees_final_rates(self, env):
        cpu = FairShareCpu(env, cores=4)
        for i in range(8):
            cpu.submit(100.0, label=f"t{i}")
        # 8 one-core tasks on 4 cores: fully utilized, 0.5 each.
        assert cpu.utilization() == pytest.approx(1.0)
        assert cpu.current_rate() == pytest.approx(4.0)

    def test_deferred_flush_completes_work_exactly(self, env):
        cpu = FairShareCpu(env, cores=2)
        done = [cpu.submit(10.0, label=f"t{i}") for i in range(4)]
        env.run()
        assert all(event.triggered for event in done)
        assert cpu.active_tasks == 0
        assert cpu.busy_core_ms() == pytest.approx(40.0)
        # 4 x 10 core-ms on 2 cores, equal shares -> everyone ends at t=20.
        assert env.now == pytest.approx(20.0)


def _programs(cores, caps, works, advances):
    """Random engine programs: a machine size, four group caps, operations.

    The round *works* and *advances* make same-instant completions and
    events that land on finish ticks common.
    """
    cap = st.sampled_from(caps)
    group = st.integers(0, 3)
    submit = st.tuples(st.just("submit"), st.integers(-1, 3), st.one_of(
        st.sampled_from(works), st.floats(works[0], works[-1] * 20)))
    advance = st.tuples(st.just("advance"), st.one_of(
        st.sampled_from(advances), st.floats(0.0, advances[-1] * 20)))
    operation = st.one_of(
        submit, submit, submit, advance, advance,
        st.tuples(st.just("create"), group, cap),
        st.tuples(st.just("remove"), group),
        st.tuples(st.just("abort"), group),
        st.tuples(st.just("cap"), st.integers(-1, 3), cap),
        st.tuples(st.just("observe")))
    return st.tuples(st.sampled_from(cores),
                     st.lists(cap, min_size=4, max_size=4),
                     st.lists(operation, min_size=10, max_size=60))


UNIT = 1 / UNITS_PER_CORE  # one capacity unit, in cores
PROGRAMS = st.one_of(
    _programs(cores=[1, 2, 3.5, 8], caps=[None, 0.3, 0.5, 1.0, 1.5, 3.0],
              works=[0.5, 1.0, 2.0], advances=[0.0, 0.5, 1.0]),
    # A machine of a few capacity units: at such rates a lost carry, a
    # missed regime change or a reordered tie moves finish ticks visibly.
    _programs(cores=[3 * UNIT, 5 * UNIT, 7 * UNIT],
              caps=[None, UNIT, 2 * UNIT, 3 * UNIT, 5 * UNIT],
              works=[1e-5, 2e-5, 5e-5], advances=[0.0, 0.001, 0.005]))


def _drive(engine, cores, caps, program):
    """Run *program* on a fresh *engine*; return everything observable.

    Groups ``g0``..``g3`` start out created with *caps*; operations on a
    group that does not exist (or, for ``remove``, is busy) are skipped.
    Starvation (more held groups than capacity units) ends the program,
    and where it does is logged too.
    """
    env = Environment()
    cpu = engine(env, cores)
    log = []

    def group_name(index):
        return cpu.HOST_GROUP if index < 0 else f"g{index}"

    def on_done(label):
        return lambda event: log.append(("done", label, env.now, event.value))

    for index, cap in enumerate(caps):
        cpu.create_group(group_name(index), cap)
    try:
        _run(env, cpu, program, group_name, on_done, log)
    except SimulationError as error:
        log.append(("starved", env.now, str(error)))
        return log
    log.append(("end", env.now, cpu.busy_core_ms(), cpu.active_tasks))
    return log


def _run(env, cpu, program, group_name, on_done, log):
    """Apply *program* to *cpu*, then run the clock until idle."""
    for step, (kind, *args) in enumerate(program):
        if kind == "create" and not cpu.has_group(group_name(args[0])):
            cpu.create_group(group_name(args[0]), args[1])
        elif kind == "remove" and cpu.has_group(group_name(args[0])) \
                and not cpu.group(group_name(args[0])).tasks:
            cpu.remove_group(group_name(args[0]))
        elif kind == "submit" and cpu.has_group(group_name(args[0])):
            label = f"t{step}"
            cpu.submit(args[1], group=group_name(args[0]),
                       label=label).callbacks.append(on_done(label))
        elif kind == "abort" and cpu.has_group(group_name(args[0])):
            log.append(("abort", step,
                        cpu.abort_group_tasks(group_name(args[0]))))
        elif kind == "cap" and cpu.has_group(group_name(args[0])):
            cpu.set_group_cap(group_name(args[0]), args[1])
        elif kind == "advance":
            env.run(until=env.now + args[0])
        elif kind == "observe":
            log.append(("observe", env.now, cpu.busy_core_ms(),
                        cpu.current_rate(), cpu.utilization(),
                        cpu.active_tasks, cpu.runnable_group_count()))
    env.run()


class TestEagerVsLazy:
    """The lazy engine agrees with the eager reference on any program."""

    @settings(max_examples=300, deadline=None)
    @given(PROGRAMS)
    # A carry kept across a cap change: two tasks share 5 units, and the
    # clock stops on an odd tick.
    @example((5 * UNIT, [None] * 4,
              [("submit", 0, 0.001), ("submit", 0, 0.0009),
               ("advance", 0.005), ("cap", 0, UNIT)]))
    # Regime changes: the host task lowers the level below the granted
    # demands of g0 and g1, which nothing else touches.
    @example((2, [None] * 4,
              [("submit", 0, 1.0), ("submit", 1, 1.0), ("submit", -1, 1.0)]))
    # A same-instant tie whose heap entries are in reverse submission order.
    @example((4, [None] * 4,
              [("submit", 0, 2.0), ("submit", -1, 2.0), ("cap", 0, 2.0)]))
    def test_random_programs_agree(self, case):
        cores, caps, program = case
        lazy = _drive(FairShareCpu, cores, caps, program)
        eager = _drive(LegacyFairShareCpu, cores, caps, program)
        assert lazy == eager

    def test_same_instant_finishes_complete_in_submission_order(self):
        # t0's group is re-keyed after t1's, so t0's heap entry is the
        # younger one; both finish at t=2 and must complete in submission
        # order all the same.
        program = [("submit", 0, 2.0), ("submit", -1, 2.0),
                   ("cap", 0, 2.0)]
        for engine in (FairShareCpu, LegacyFairShareCpu):
            log = _drive(engine, 4, [None] * 4, program)
            assert [entry[1] for entry in log if entry[0] == "done"] \
                == ["t0", "t1"]


def _stamps(engine):
    """A 2000-invocation Vanilla bench run's per-invocation stamps."""
    trace = bench_trace(BenchConfig(invocations=2000, seed=13))
    result = run_experiment(VanillaScheduler(), trace, fib_family_specs(8),
                            strict_memory=False, cpu_engine=engine)
    return [(inv.invocation_id, inv.arrival_ms, inv.execution_start_ms,
             inv.completed_ms) for inv in result.invocations]


class TestPureObservers:
    @pytest.mark.parametrize("engine", ["incremental", "legacy"])
    def test_observing_the_cpu_leaves_the_schedule_unchanged(
            self, engine, monkeypatch):
        base = CPU_ENGINES[engine]

        class Probed(base):
            """The same engine, read every 0.37 ms by a probe process."""

            def __init__(self, env, cores):
                super().__init__(env, cores)
                env.process(self._probe())

            def _probe(self):
                while self.env.now < 70_000.0:
                    yield self.env.timeout(0.37)
                    self.busy_core_ms()
                    self.utilization()

        monkeypatch.setitem(CPU_ENGINES, "probed", Probed)
        assert _stamps("probed") == _stamps(engine)


class TestHeapBounded:
    def test_high_churn_run_keeps_the_event_heap_bounded(self):
        # Regression for lazy wake-up-timer cancellation: every arrival
        # re-arms the engine's wake-up timer, abandoning the previous one.
        # Without cancellation + compaction the heap accumulates one stale
        # timer per arrival; with them it stays proportional to live events.
        env = Environment()
        cpu = FairShareCpu(env, cores=2)
        total = 400

        def driver():
            for i in range(total):
                cpu.submit(1.5, label=f"churn-{i}")
                yield env.timeout(1.0)

        env.process(driver())
        max_heap = 0
        while env.peek() != float("inf"):
            max_heap = max(max_heap, len(env._queue))
            env.step()
        assert cpu.active_tasks == 0
        assert cpu.busy_core_ms() == pytest.approx(total * 1.5)
        assert max_heap <= 2 * Environment.COMPACT_THRESHOLD


class TestCompatibilityShims:
    def test_cpu_module_reexports_the_new_layout(self):
        assert cpu_shim.FairShareCpu is FairShareCpu
        assert cpu_shim.waterfill is waterfill

    def test_shim_constructor_signature_unchanged(self):
        env = Environment()
        cpu = cpu_shim.FairShareCpu(env, cores=4)
        assert cpu.cores == 4.0
        assert cpu.HOST_GROUP == "host"

    def test_all_engines_satisfy_the_protocol(self):
        env = Environment()
        assert isinstance(FairShareCpu(env, cores=2), CpuEngine)
        assert isinstance(LegacyFairShareCpu(env, cores=2), CpuEngine)
        assert isinstance(SfsCpu(env, cores=2), CpuEngine)
