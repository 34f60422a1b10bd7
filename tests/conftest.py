"""Shared fixtures for the test suite."""

from __future__ import annotations

import subprocess
import sys
import threading

import pytest

from repro.common import runner
from repro.model.calibration import DEFAULT_CALIBRATION
from repro.sim.kernel import Environment
from repro.sim.machine import Machine


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def machine(env: Environment) -> Machine:
    """A default 32-core / 64 GB worker machine."""
    return Machine(env)


@pytest.fixture
def small_machine(env: Environment) -> Machine:
    """A 4-core machine for contention-sensitive unit tests."""
    return Machine(env, cores=4, memory_gb=8.0)


@pytest.fixture
def calibration():
    """The default calibration (immutable; copy with with_overrides)."""
    return DEFAULT_CALIBRATION


#: A child that writes ~1.2 MB to stderr (far past a pipe buffer), then —
#: given ``result`` as its second argument — an empty result message to
#: stdout, then exits with the code given as its first argument.
_STDERR_FLOOD = (
    "import sys\n"
    "sys.stderr.write('noise\\n' * 200_000 + 'last words\\n')\n"
    "if sys.argv[2:] == ['result']:\n"
    "    print('{\"type\": \"result\", \"payload\": {}}')\n"
    "sys.exit(int(sys.argv[1]))\n"
)

#: A child that prints one non-JSON line, then ~1.2 MB of well-formed
#: progress lines to stdout (far past a pipe buffer), then exits 0.
_STDOUT_GARBAGE = (
    "import json\n"
    "print('Traceback? not json ' + 'x' * 200)\n"
    "for n in range(20_000):\n"
    "    print(json.dumps({'type': 'progress', 'shard': 0,\n"
    "                      'completed': n, 'rss_mb': 1.0}))\n"
)

#: A child that exits at once with the code given on its command line, or
#: sleeps for ten minutes when given ``sleep``.
_EXIT_OR_SLEEP = (
    "import sys, time\n"
    "if sys.argv[1] == 'sleep':\n"
    "    time.sleep(600)\n"
    "sys.exit(int(sys.argv[1]))\n"
)

#: A well-behaved child: sleeps the seconds given as its second argument,
#: then sends a progress and a result message carrying its first argument
#: (the result line without a final newline).
_PROTOCOL_CHILD = (
    "import json, sys, time\n"
    "time.sleep(float(sys.argv[2]))\n"
    "print(json.dumps({'type': 'progress', 'n': sys.argv[1]}))\n"
    "sys.stdout.write(json.dumps({'type': 'result',\n"
    "                             'payload': {'n': sys.argv[1]}}))\n"
)


def _watched_children(script: str, timeout_s: float):
    """Fixture body: a spawner of *script* children, killed after
    *timeout_s* and always reaped with their pipes closed.

    The kill unblocks a reader that deadlocked on the child, so such a
    regression fails on the child's exit code instead of hanging.
    """
    procs: list = []

    def spawn(*args: object) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, "-c", script, *map(str, args)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        procs.append(proc)
        return proc

    watchdog = threading.Timer(timeout_s, lambda: [p.kill() for p in procs])
    watchdog.start()
    yield spawn
    watchdog.cancel()
    for proc in procs:
        with proc:  # closes stdout/stderr, then waits
            proc.kill()


@pytest.fixture
def stderr_flood():
    """Spawner of stderr-flooding children, all killed after 60 s."""
    yield from _watched_children(_STDERR_FLOOD, 60.0)


@pytest.fixture
def exit_or_sleep():
    """Spawner of children that exit at once or sleep, all killed after
    30 s."""
    yield from _watched_children(_EXIT_OR_SLEEP, 30.0)


@pytest.fixture
def protocol_child():
    """Spawner of well-behaved protocol children, all killed after 30 s."""
    yield from _watched_children(_PROTOCOL_CHILD, 30.0)


@pytest.fixture
def stdout_garbage():
    """Spawner of children whose first stdout line is not JSON, all
    killed after 15 s."""
    yield from _watched_children(_STDOUT_GARBAGE, 15.0)


@pytest.fixture
def route_spawns(monkeypatch):
    """Route the child-process runner's spawns to a test spawner.

    ``route_spawns(spawn)`` makes every child the runner starts come from
    ``spawn(child)`` and returns the spawned processes by child name.
    """
    def route(spawn):
        spawned: dict = {}

        def spawn_child(child):
            spawned[child.name] = spawn(child)
            return spawned[child.name]

        monkeypatch.setattr(runner, "_spawn", spawn_child)
        return spawned

    return route


def run_all(env: Environment, until: float | None = None) -> None:
    """Convenience: drive the environment to quiescence."""
    env.run(until=until)
