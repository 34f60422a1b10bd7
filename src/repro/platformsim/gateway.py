"""The request gateway: replays a trace into the platform.

The paper's client VM fires invocations at the worker according to the
trace's timestamps; the client side is not a bottleneck (§IV separates a
small client VM from the large worker VM), so replay itself is free — cost
starts accruing when the platform handles the request.

Injection is the kernel's batch-arrival fast path: the injector is a plain
event callback (no generator process), it submits a whole same-instant
burst of arrivals in one pass without touching the event queue between
records, and it re-arms a single reusable timer per inter-arrival gap — a
sequence-number bump and one heap push.  The observable schedule is
bit-identical to the historical generator replay: each positive gap costs
exactly one timer event with the same ``now + delay`` float arithmetic and
the same sequence allocation point, and zero-delay records are submitted
inline exactly as the generator did.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.platformsim.platform import ServerlessPlatform
from repro.sim.kernel import Environment, Event, Timeout
from repro.workload.trace import Trace


class ReplayInjector:
    """Drives timestamped records into a submit callable on schedule.

    Starts via :meth:`Environment.defer`, so the first records flow at the
    same urgent-phase position the historical replay process started at.
    ``on_finished`` (if given) runs right after the last record is
    submitted — at the same instant the generator replay fell off its loop.
    """

    __slots__ = ("env", "_submit", "_records", "_pending", "_timer",
                 "_on_finished")

    def __init__(self, env: Environment, records: Iterable[Any],
                 submit: Callable[[Any], None],
                 on_finished: Optional[Callable[[], None]] = None) -> None:
        self.env = env
        self._submit = submit
        self._records = iter(records)
        self._pending: Any = None
        self._timer: Optional[Timeout] = None
        self._on_finished = on_finished
        env.defer(self._pump)

    def _on_timer(self, _event: Event) -> None:
        self._pump()

    def _pump(self) -> None:
        """Submit every due record, then arm one timer for the next gap."""
        env = self.env
        submit = self._submit
        records = self._records
        now = env._now
        record = self._pending
        while True:
            if record is None:
                try:
                    record = next(records)
                except StopIteration:
                    self._pending = None
                    if self._on_finished is not None:
                        self._on_finished()
                    return
            delay = record.arrival_ms - now
            if delay > 0:
                self._pending = record
                timer = self._timer
                if timer is not None and timer._callbacks is None:
                    # Inline re-arm (Timeout.reset minus its guards): the
                    # injector owns the timer, it is fully processed and
                    # never cancelled.  ``now + delay`` keeps the exact
                    # float arithmetic of a fresh ``timeout(delay)``.
                    when = now + delay
                    timer.delay = delay
                    if when > now:
                        env._future.push(when, env._sequence, timer)
                        env._sequence += 1
                    else:
                        env._immediate.append(timer)
                else:
                    timer = env.timeout(delay)
                    self._timer = timer
                timer._callbacks = self._on_timer
                return
            submit(record)
            record = None


def start_replay(platform: ServerlessPlatform, trace: Trace) -> ReplayInjector:
    """Start the replay; requests hit the platform on schedule."""
    return ReplayInjector(platform.env, trace, platform.submit)
