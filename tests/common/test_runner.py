"""The child-process runner shared by bench cells and cluster shards."""

from __future__ import annotations

import io
import json
import sys

import pytest

from repro.common.runner import Child, ChildFailure, child_main, run_children


def children(count: int):
    return [Child(f"child {index}", "unused", {}) for index in range(count)]


@pytest.mark.parametrize("parallel", [None, 1, 2])
def test_results_follow_child_order_and_progress_is_forwarded(
        parallel, protocol_child, route_spawns):
    # Later children finish first when run together; results still come
    # back in child order (a result line needs no final newline), and
    # with parallel=1 the children run one after another.
    delays = {"child 0": 0.6, "child 1": 0.3, "child 2": 0.0}
    spawned = route_spawns(lambda child: protocol_child(
        child.name, delays[child.name]))
    progress = []
    results = run_children(children(3), parallel=parallel,
                           on_progress=progress.append)
    assert results == [{"n": f"child {index}"} for index in range(3)]
    assert sorted(message["n"] for message in progress) \
        == ["child 0", "child 1", "child 2"]
    assert all(message["type"] == "progress" for message in progress)
    assert [proc.returncode for proc in spawned.values()] == [0, 0, 0]
    order = [message["n"] for message in progress]
    if parallel == 1:
        assert order == ["child 0", "child 1", "child 2"]
    if parallel is None:
        assert order == ["child 2", "child 1", "child 0"]


def test_no_children_runs_nothing(route_spawns):
    route_spawns(lambda _child: pytest.fail("spawned"))
    assert run_children([]) == []


def test_exit_without_result_fails(stderr_flood, route_spawns):
    route_spawns(lambda _child: stderr_flood(0))
    with pytest.raises(ChildFailure,
                       match=r"^child 0 failed \(exit 0 without a result\)"):
        run_children(children(1))


def test_failure_starts_no_further_child(exit_or_sleep, route_spawns):
    spawned = route_spawns(lambda _child: exit_or_sleep(3))
    with pytest.raises(ChildFailure) as failure:
        run_children(children(3), parallel=1)
    assert len(spawned) == 1
    assert str(failure.value) == "child 0 failed (exit 3)"


def test_child_main_speaks_the_protocol(monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"x": 2}'))
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)

    def handle(spec, progress):
        progress({"step": 1})
        return {"double": spec["x"] * 2}

    assert child_main(handle) == 0
    assert [json.loads(line) for line in out.getvalue().splitlines()] == [
        {"type": "progress", "step": 1},
        {"type": "result", "payload": {"double": 4}}]
