"""Deprecated module location — the CPU engines moved (kept as a shim).

The fair-share CPU model now lives in :mod:`repro.sim.fair_share` (the
lazy engine) on top of the shared substrate in :mod:`repro.sim.engine`
(``CpuEngine`` protocol, ``CpuTask``/``CpuGroup``, the integer
specification and its ``waterfill``); the eager reference engine for the
same specification is :mod:`repro.sim.legacy_cpu`.

This module re-exports the public names so existing imports from
``cluster/``, ``platformsim/`` and external examples keep working —
``FairShareCpu(env, cores)`` keeps its constructor signature.
"""

from repro.sim.engine import CpuEngine, CpuGroup, CpuTask, waterfill
from repro.sim.fair_share import FairShareCpu

__all__ = [
    "CpuEngine",
    "CpuGroup",
    "CpuTask",
    "FairShareCpu",
    "waterfill",
]
