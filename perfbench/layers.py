"""Layer map of ``src/repro`` and per-layer self time from a profile.

Every module under ``src/repro`` belongs to exactly one layer (pinned by
``test_perfbench.py``, so a new or renamed module cannot silently fall
into ``unattributed``).  A traced run profiles one repetition with
:mod:`cProfile`; :func:`layer_self_times` then sums each function's own
time (``tottime``) into its module's layer.  Time in a function outside
``src/repro`` — a builtin, the standard library — counts towards the
layer of its caller, split over its callers by the time spent under each
call edge; time whose chain of callers never reaches ``src/repro`` (the
benchmark's own harness) is ``unattributed``.  The layer times therefore
sum to the profiled total.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Iterable, List, Tuple

#: Layer names, in report order.  ``unattributed`` is not a layer of the
#: program; it collects time the benchmark itself spent.
LAYERS = ("kernel", "cpu", "sfs", "machine", "sched", "platform",
          "workload", "cluster", "faults", "live", "obs", "common",
          "tools", "unattributed")

#: Module pattern -> layer.  ``pkg.*`` matches every module inside
#: ``pkg`` (the package itself included); any other pattern matches one
#: module exactly.  The most specific match wins.  A module that matches
#: nothing makes :func:`layer_of_module` raise, so ``test_perfbench.py``
#: catches a new module before it can land in ``unattributed``.
LAYER_MAP: Dict[str, str] = {
    # Event kernel: dispatch loop, event queue, processes and resources.
    "repro.sim.kernel": "kernel",
    "repro.sim.calendar_queue": "kernel",
    "repro.sim.primitives": "kernel",
    # Fair-share CPU engine (incremental, frozen legacy, shim).
    "repro.sim.fair_share": "cpu",
    "repro.sim.engine": "cpu",
    "repro.sim.legacy_cpu": "cpu",
    "repro.sim.cpu": "cpu",
    # SFS's own CPU discipline.
    "repro.sim.sfs_cpu": "sfs",
    # Worker machine and memory accounting.
    "repro.sim": "machine",
    "repro.sim.machine": "machine",
    "repro.sim.memory": "machine",
    # Scheduling policies and the FaaSBatch dispatch path.
    "repro.baselines.*": "sched",
    "repro.core.*": "sched",
    "repro.platformsim.windows": "sched",
    # Simulated platform and container model.
    "repro.platformsim.*": "platform",
    "repro.model.*": "platform",
    # Input synthesis (``repro.bench`` provides ``bench_trace``).
    "repro.workload.*": "workload",
    "repro.bench": "workload",
    # Sharded cluster runner and balancers.
    "repro.cluster.*": "cluster",
    # Fault injection and the resilience layer.
    "repro.faults.*": "faults",
    # Live tier: asyncio gateway over the thread-pool local runtime.
    "repro.gateway.*": "live",
    "repro.local.*": "live",
    # Observability.
    "repro.obs.*": "obs",
    # Shared helpers and the package root.
    "repro": "common",
    "repro.common.*": "common",
    # Offline analysis and the command line.
    "repro.analysis.*": "tools",
    "repro.cli": "tools",
    "repro.__main__": "tools",
}


def layer_of_module(module: str) -> str:
    """Layer of a dotted module name under ``repro``; KeyError otherwise."""
    if module in LAYER_MAP:
        return LAYER_MAP[module]
    best = None
    for pattern in LAYER_MAP:
        if not pattern.endswith(".*"):
            continue
        package = pattern[:-2]
        if module == package or module.startswith(package + "."):
            if best is None or len(pattern) > len(best):
                best = pattern
    if best is None:
        raise KeyError(module)
    return LAYER_MAP[best]


def repro_modules(src_root: str) -> List[str]:
    """Every dotted module name under ``<src_root>/repro``."""
    package_root = os.path.join(src_root, "repro")
    modules: List[str] = []
    for directory, _dirs, files in os.walk(package_root):
        rel = os.path.relpath(directory, src_root)
        package = rel.replace(os.sep, ".")
        for name in files:
            if not name.endswith(".py"):
                continue
            stem = name[:-3]
            modules.append(package if stem == "__init__"
                           else f"{package}.{stem}")
    return sorted(modules)


class LayerResolver:
    """Maps profiled source files under ``src/repro`` to layers."""

    def __init__(self, src_root: str) -> None:
        self.package_root = os.path.join(os.path.abspath(src_root), "repro")
        self._cache: Dict[str, object] = {}

    def layer_of_file(self, filename: str):
        """Layer of *filename*, or ``None`` when it is outside the package."""
        if filename in self._cache:
            return self._cache[filename]
        path = os.path.abspath(filename)
        layer = None
        if path.startswith(self.package_root + os.sep) \
                and path.endswith(".py"):
            rel = os.path.relpath(path, os.path.dirname(self.package_root))
            module = rel[:-3].replace(os.sep, ".")
            if module.endswith(".__init__"):
                module = module[:-len(".__init__")]
            layer = layer_of_module(module)
        self._cache[filename] = layer
        return layer


FuncKey = Tuple[str, int, str]


def layer_self_times(stats: pstats.Stats,
                     resolver: LayerResolver) -> Tuple[Dict[str, float],
                                                       float]:
    """``(layer -> self seconds, profiled total seconds)`` of a profile."""
    table = stats.stats  # type: ignore[attr-defined]
    shares: Dict[FuncKey, Dict[str, float]] = {}
    resolving = set()

    def share_of(func: FuncKey) -> Dict[str, float]:
        """Fractions of *func*'s self time per layer (sum to 1)."""
        if func in shares:
            return shares[func]
        own = resolver.layer_of_file(func[0])
        if own is not None:
            result = {own: 1.0}
        elif func in resolving:
            result = {"unattributed": 1.0}  # recursion among non-repro code
        else:
            resolving.add(func)
            callers = table[func][4] if func in table else {}
            weights = _edge_weights(callers.items())
            total = sum(weights.values())
            result = {}
            if total <= 0.0:
                result = {"unattributed": 1.0}
            else:
                for caller, weight in weights.items():
                    for layer, fraction in share_of(caller).items():
                        result[layer] = (result.get(layer, 0.0)
                                         + fraction * weight / total)
            resolving.discard(func)
        shares[func] = result
        return result

    times = {layer: 0.0 for layer in LAYERS}
    profiled_total = 0.0
    for func, (_cc, _nc, tottime, _ct, _callers) in table.items():
        profiled_total += tottime
        for layer, fraction in share_of(func).items():
            times[layer] += tottime * fraction
    return times, profiled_total


def _edge_weights(edges: Iterable) -> Dict[FuncKey, float]:
    """Caller -> weight: time under the edge, else its call count."""
    edges = list(edges)
    by_time = {caller: float(stat[2]) for caller, stat in edges}
    if sum(by_time.values()) > 0.0:
        return by_time
    return {caller: float(stat[1]) for caller, stat in edges}
