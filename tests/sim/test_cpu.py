"""Tests for the two-level fair-share CPU model."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.sim.cpu import FairShareCpu, waterfill
from repro.sim.kernel import Environment


def run_tasks(env, cpu, specs):
    """Submit (work, group) specs; return dict label -> finish time."""
    finished = {}

    def worker(label, work, group):
        yield cpu.submit(work, group=group, label=label)
        finished[label] = env.now

    for index, (work, group) in enumerate(specs):
        env.process(worker(f"t{index}", work, group))
    env.run()
    return finished


class TestWaterfill:
    """The integer waterfill; capacities and demands are in units."""

    def test_satisfies_all_when_capacity_ample(self):
        assert waterfill(10, [1, 2, 3]) == [1, 2, 3]

    def test_equal_split_when_scarce(self):
        assert waterfill(3, [5, 5, 5]) == [1, 1, 1]

    def test_small_demands_fully_served_first(self):
        assert waterfill(16, [2, 40, 40]) == [2, 7, 7]

    def test_zero_capacity(self):
        assert waterfill(0, [1, 2]) == [0, 0]

    def test_empty_demands(self):
        assert waterfill(5, []) == []

    def test_zero_demand_entries_receive_nothing(self):
        # Zero-demand entities must neither absorb capacity nor perturb the
        # shares of the active ones.
        assert waterfill(4, [0, 3, 0, 3]) == [0, 2, 0, 2]

    def test_all_zero_demands(self):
        assert waterfill(4, [0, 0, 0]) == [0, 0, 0]

    def test_mixed_bounded_and_unbounded(self):
        # The two small demands are satisfiable (granted); the two large
        # ones split what remains equally (held at the level).
        assert waterfill(24, [2, 4, 40, 40]) == [2, 4, 9, 9]

    def test_demand_exactly_at_equal_share_is_bounded(self):
        assert waterfill(4, [2, 2]) == [2, 2]

    def test_unbounded_round_exhausts_capacity(self):
        assert waterfill(3, [5, 5, 5]) == [1, 1, 1]

    def test_remainder_stays_idle(self):
        # 10 units over 3 equal demands: the level is 3, one unit idles.
        assert waterfill(10, [5, 5, 5]) == [3, 3, 3]

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(0, 1 << 23),
           demands=st.lists(st.integers(0, 1 << 19), min_size=1,
                            max_size=20))
    def test_waterfill_invariants(self, capacity, demands):
        allocation = waterfill(capacity, demands)
        # Never exceeds any individual demand, nor the capacity.
        assert all(0 <= a <= d for a, d in zip(allocation, demands))
        assert sum(allocation) <= capacity
        unsatisfied = [a for a, d in zip(allocation, demands) if a < d]
        if not unsatisfied:
            return
        # Every unsatisfied entity is held at one common level, which no
        # allocation exceeds (max-min fairness) ...
        level = unsatisfied[0]
        assert all(a == level for a in unsatisfied)
        assert max(allocation) == level
        # ... and the level is maximal: one more unit each would overflow,
        # so the idle remainder is below one unit per held entity.
        assert sum(min(d, level + 1) for d in demands) > capacity
        assert capacity - sum(allocation) < len(unsatisfied)


class TestFairShareCpu:
    def test_single_task_runs_at_full_core(self, env):
        cpu = FairShareCpu(env, cores=4)
        finished = run_tasks(env, cpu, [(100.0, "host")])
        assert finished["t0"] == pytest.approx(100.0)

    def test_sharing_is_work_conserving(self, env):
        cpu = FairShareCpu(env, cores=2)
        finished = run_tasks(env, cpu, [(100.0, "host")] * 4)
        # 400 core-ms on 2 cores, all equal -> all finish at 200.
        assert all(t == pytest.approx(200.0) for t in finished.values())
        assert cpu.busy_core_ms() == pytest.approx(400.0)

    def test_fractional_cap_slows_single_task(self, env):
        cpu = FairShareCpu(env, cores=8)
        cpu.create_group("half", cap=0.5)
        finished = run_tasks(env, cpu, [(100.0, "half")])
        assert finished["t0"] == pytest.approx(200.0)

    def test_group_cap_enforced(self, env):
        cpu = FairShareCpu(env, cores=8)
        cpu.create_group("limited", cap=1.0)
        finished = run_tasks(env, cpu, [(100.0, "limited")] * 2)
        # Two tasks share the group's single core: 200 core-ms / 1 core.
        assert all(t == pytest.approx(200.0) for t in finished.values())

    def test_groups_share_fairly(self, env):
        cpu = FairShareCpu(env, cores=2)
        cpu.create_group("a", cap=None)
        cpu.create_group("b", cap=None)
        # Group a has 3 tasks, group b has 1: group-level fairness gives
        # each group 1 core, so b's task finishes in 100 ms while a's three
        # tasks share one core.
        finished = run_tasks(env, cpu, [
            (100.0, "a"), (100.0, "a"), (100.0, "a"),
            (100.0, "b"),
        ])
        assert finished["t3"] == pytest.approx(100.0)
        # Group a had 1 core until t=100 (33.3 core-ms done per task), then
        # inherits both cores: 200 remaining core-ms / 2 cores -> t=200.
        assert all(finished[f"t{i}"] == pytest.approx(200.0)
                   for i in range(3))

    def test_sharing_equals_monopoly(self, env):
        """Fig. 1's core claim: N tasks in one group == N groups of 1 task."""
        cores = 8
        cpu = FairShareCpu(env, cores=cores)
        cpu.create_group("shared", cap=None)
        shared = run_tasks(env, cpu, [(100.0, "shared")] * 16)

        env2 = Environment()
        cpu2 = FairShareCpu(env2, cores=cores)
        for i in range(16):
            cpu2.create_group(f"mono-{i}", cap=None)
        finished2 = {}

        def worker(label, group):
            yield cpu2.submit(100.0, group=group, label=label)
            finished2[label] = env2.now

        for i in range(16):
            env2.process(worker(f"t{i}", f"mono-{i}"))
        env2.run()
        for key in shared:
            assert shared[key] == pytest.approx(finished2[key])

    def test_late_arrival_slows_running_task(self, env):
        cpu = FairShareCpu(env, cores=1)
        finished = {}

        def first():
            yield cpu.submit(100.0, label="first")
            finished["first"] = env.now

        def second():
            yield env.timeout(50.0)
            yield cpu.submit(50.0, label="second")
            finished["second"] = env.now

        env.process(first())
        env.process(second())
        env.run()
        # At t=50 the first task has 50 remaining; both share the core and
        # finish together at t=150.
        assert finished["first"] == pytest.approx(150.0)
        assert finished["second"] == pytest.approx(150.0)

    def test_zero_work_completes_immediately(self, env):
        cpu = FairShareCpu(env, cores=1)
        event = cpu.submit(0.0)
        env.run()
        assert event.triggered

    def test_negative_work_rejected(self, env):
        cpu = FairShareCpu(env, cores=1)
        with pytest.raises(ValueError):
            cpu.submit(-1.0)

    def test_unknown_group_rejected(self, env):
        cpu = FairShareCpu(env, cores=1)
        with pytest.raises(SimulationError):
            cpu.submit(10.0, group="nope")

    def test_duplicate_group_rejected(self, env):
        cpu = FairShareCpu(env, cores=1)
        cpu.create_group("g", cap=1.0)
        with pytest.raises(SimulationError):
            cpu.create_group("g", cap=1.0)

    def test_remove_nonempty_group_rejected(self, env):
        cpu = FairShareCpu(env, cores=1)
        cpu.create_group("g", cap=1.0)
        cpu.submit(100.0, group="g")
        with pytest.raises(SimulationError):
            cpu.remove_group("g")

    def test_remove_host_group_rejected(self, env):
        cpu = FairShareCpu(env, cores=1)
        with pytest.raises(SimulationError):
            cpu.remove_group("host")

    def test_utilization_tracks_active_rate(self, env):
        cpu = FairShareCpu(env, cores=4)
        cpu.submit(100.0)
        assert cpu.utilization() == pytest.approx(0.25)
        cpu.submit(100.0)
        assert cpu.utilization() == pytest.approx(0.5)

    @settings(max_examples=30, deadline=None)
    @given(works=st.lists(st.floats(1.0, 500.0), min_size=1, max_size=12),
           cores=st.integers(1, 8))
    def test_total_busy_equals_total_work(self, works, cores):
        env = Environment()
        cpu = FairShareCpu(env, cores=cores)
        for index, work in enumerate(works):
            cpu.submit(work, label=f"w{index}")
        env.run()
        assert math.isclose(cpu.busy_core_ms(), sum(works),
                            rel_tol=1e-6, abs_tol=1e-3)
        assert cpu.active_tasks == 0

    @settings(max_examples=30, deadline=None)
    @given(works=st.lists(st.floats(1.0, 300.0), min_size=2, max_size=10))
    def test_makespan_bounds(self, works):
        """Makespan is between max(work) and sum(work) on one core-equivalent."""
        env = Environment()
        cores = 2
        cpu = FairShareCpu(env, cores=cores)
        for index, work in enumerate(works):
            cpu.submit(work, label=f"w{index}")
        env.run()
        lower = max(max(works), sum(works) / cores)
        assert env.now >= lower - 1e-6
        assert env.now <= sum(works) + 1e-6
