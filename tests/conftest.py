"""Shared fixtures for the test suite."""

from __future__ import annotations

import subprocess
import sys
import threading

import pytest

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


#: A child that writes ~1.2 MB to stderr (far past a pipe buffer), then
#: ``{}`` to stdout, then exits with the code given on its command line.
_STDERR_FLOOD = (
    "import sys\n"
    "sys.stderr.write('noise\\n' * 200_000 + 'last words\\n')\n"
    "print('{}')\n"
    "sys.exit(int(sys.argv[1]))\n"
)


@pytest.fixture
def stderr_flood():
    """Spawner of stderr-flooding children, all killed after 60 s.

    The kill unblocks a reader that deadlocked on the flood, so such a
    regression fails on the child's exit code instead of hanging.
    """
    procs: list = []

    def spawn(code: int) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, "-c", _STDERR_FLOOD, str(code)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        procs.append(proc)
        return proc

    watchdog = threading.Timer(60.0, lambda: [p.kill() for p in procs])
    watchdog.start()
    yield spawn
    watchdog.cancel()
    for proc in procs:
        proc.kill()
        proc.wait()


def run_all(env: Environment, until: float | None = None) -> None:
    """Convenience: drive the environment to quiescence."""
    env.run(until=until)
