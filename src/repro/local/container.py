"""Local (threading) containers: thread-pool execution with a multiplexer.

:class:`LocalContainer` is the real-runtime analogue of
:class:`repro.model.container.SimContainer`: invocations of one function
execute as parallel threads inside it (the paper's inline parallelism),
optionally gated to a fixed concurrency, and share the container's
:class:`~repro.local.multiplexer.ResourceMultiplexer`.

The executing threads come from a grow-on-demand pool owned by the
container: a worker is created when a batch needs more concurrency than
the pool has seen, parks itself when its invocation finishes, and is
reused by later batches.  Steady-state serving therefore creates zero
threads per request — at gateway rates (tens of thousands of RPS)
per-invocation ``Thread()`` construction was the throughput ceiling.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Set

from repro.common.errors import ContainerStateError, InvocationTimeout
from repro.local.multiplexer import ResourceMultiplexer

#: A function handler: ``handler(payload, context) -> result``.
Handler = Callable[[Any, "InvocationContext"], Any]


@dataclass
class LocalInvocation:
    """One request flowing through the local runtime."""

    invocation_id: str
    function_name: str
    payload: Any
    future: Future = field(default_factory=Future)
    submitted_at: float = field(default_factory=time.monotonic)
    dispatched_at: Optional[float] = None
    started_at: Optional[float] = None
    completed_at: Optional[float] = None
    #: Outcome of the latest attempt, recorded before the future resolves
    #: so the platform's retry layer can intercept failures.
    result: Any = None
    error: Optional[BaseException] = None
    attempts: int = 1
    #: ``submitted_at`` of attempt 1 (``submitted_at`` is the current
    #: attempt's re-enqueue time once retries happen).
    first_submitted_at: Optional[float] = None
    #: Sequence number of the dispatch window whose batch this attempt ran
    #: in (stamped by the platform).  Retried attempts re-enter the queue
    #: and land in a strictly later window — the re-batching tests assert
    #: monotonicity across :attr:`attempt_history`.
    window_seq: Optional[int] = None
    #: One record per finished attempt: attempt number, window sequence,
    #: container id and error type (``None`` for a success).
    attempt_history: List[dict] = field(default_factory=list)

    @property
    def latency_seconds(self) -> float:
        if self.completed_at is None:
            raise ContainerStateError(
                f"{self.invocation_id} has not completed")
        return self.completed_at - self.submitted_at

    @property
    def execution_seconds(self) -> float:
        if self.completed_at is None or self.started_at is None:
            raise ContainerStateError(
                f"{self.invocation_id} has not completed")
        return self.completed_at - self.started_at

    @property
    def total_latency_seconds(self) -> float:
        """First submission to final completion, retries + backoffs included."""
        if self.completed_at is None:
            raise ContainerStateError(
                f"{self.invocation_id} has not completed")
        origin = (self.first_submitted_at
                  if self.first_submitted_at is not None
                  else self.submitted_at)
        return self.completed_at - origin

    def resolve(self) -> None:
        """Resolve the caller's future from the recorded outcome."""
        if self.future.done():
            return
        if self.error is not None:
            self.future.set_exception(self.error)
        else:
            self.future.set_result(self.result)

    def reset_for_retry(self) -> None:
        """Re-arm for another attempt (caller re-enqueues afterwards)."""
        if self.error is None:
            raise ContainerStateError(
                f"{self.invocation_id} retried without a failure")
        if self.first_submitted_at is None:
            self.first_submitted_at = self.submitted_at
        self.attempts += 1
        self.submitted_at = time.monotonic()
        self.dispatched_at = None
        self.started_at = None
        self.completed_at = None
        self.result = None
        self.error = None


@dataclass(frozen=True)
class InvocationContext:
    """What a handler sees: its container identity and the shared resources.

    Handlers create expensive clients through
    ``context.create_resource(factory, *args)`` — the interception point of
    §III-D.  Without a multiplexer (Vanilla mode) the factory is simply
    called.
    """

    container_id: str
    function_name: str
    multiplexer: Optional[ResourceMultiplexer]

    def create_resource(self, factory: Callable[..., Any], *args: Any,
                        **kwargs: Any) -> Any:
        if self.multiplexer is None:
            return factory(*args, **kwargs)
        return self.multiplexer.get_or_create(factory, *args, **kwargs)


class _PooledWorker:
    """One reusable execution thread of a container's worker pool.

    The worker blocks on its own task box; ``submit`` hands it exactly
    one callable.  After the callable returns the worker parks itself
    back in the container's idle pool — so a worker abandoned by a
    timed-out handler is simply unavailable until that handler finally
    returns, and is then reused instead of leaked.
    """

    __slots__ = ("_box", "thread")

    def __init__(self, container_id: str, index: int,
                 park: Callable[["_PooledWorker"], None]) -> None:
        self._box: "queue.SimpleQueue[Optional[Callable[[], None]]]" = (
            queue.SimpleQueue())
        self.thread = threading.Thread(
            target=self._loop, args=(park,), daemon=True,
            name=f"{container_id}:worker-{index}")
        self.thread.start()

    def submit(self, task: Callable[[], None]) -> None:
        self._box.put(task)

    def retire(self) -> None:
        self._box.put(None)

    def _loop(self, park: Callable[["_PooledWorker"], None]) -> None:
        while True:
            task = self._box.get()
            if task is None:
                return
            try:
                task()
            finally:
                park(self)


class LocalContainer:
    """A warm 'container' (thread pool) for one function."""

    def __init__(self, container_id: str, function_name: str,
                 handler: Handler,
                 concurrency: Optional[int] = None,
                 use_multiplexer: bool = True,
                 cold_start_seconds: float = 0.0,
                 timeout_seconds: Optional[float] = None,
                 defer_resolution: bool = False) -> None:
        if concurrency is not None and concurrency < 1:
            raise ValueError(
                f"concurrency must be >= 1 or None, got {concurrency}")
        if timeout_seconds is not None and timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be > 0 or None, got {timeout_seconds}")
        self.container_id = container_id
        self.function_name = function_name
        self.handler = handler
        self.multiplexer = ResourceMultiplexer() if use_multiplexer else None
        #: Wall-clock budget per handler call.  A handler that overruns is
        #: abandoned on its (daemon) worker thread and the invocation fails
        #: with :class:`InvocationTimeout` — Python threads cannot be
        #: killed, so the overrunning call leaks until process exit.
        self.timeout_seconds = timeout_seconds
        #: When True the container only *records* each outcome on the
        #: invocation; the platform's retry layer decides when the caller's
        #: future resolves.  Direct/standalone use keeps the default
        #: (futures resolve as each invocation finishes).
        self.defer_resolution = defer_resolution
        self._slots = (threading.Semaphore(concurrency)
                       if concurrency is not None else None)
        self._active = 0
        self._lock = threading.Lock()
        self._idle_workers: List[_PooledWorker] = []
        #: Every worker the pool ever started, and those still running a
        #: handler that overran its budget (not waited for by ``stop``).
        self._workers: List[_PooledWorker] = []
        self._abandoned: Set[_PooledWorker] = set()
        self._worker_counter = 0
        self.workers_created = 0
        self.invocations_served = 0
        self.invocations_timed_out = 0
        self.stopped = False
        if cold_start_seconds > 0:
            # The provisioning cost (image pull, runtime boot) of a real
            # cold start, scaled down for tests/examples.
            time.sleep(cold_start_seconds)

    @property
    def active_invocations(self) -> int:
        with self._lock:
            return self._active

    @property
    def is_idle(self) -> bool:
        return self.active_invocations == 0 and not self.stopped

    def stop(self, timeout: Optional[float] = None) -> None:
        """Retire the worker pool; with *timeout*, wait for it to exit.

        Workers still running an overrunning handler are not waited for:
        they retire themselves when the handler finally returns.
        """
        if self.active_invocations:
            raise ContainerStateError(
                f"{self.container_id} is busy ({self.active_invocations})")
        with self._lock:
            self.stopped = True
            idle, self._idle_workers = self._idle_workers, []
            waited = [worker for worker in self._workers
                      if worker not in self._abandoned]
        for worker in idle:
            worker.retire()
        if timeout is not None:
            deadline = time.monotonic() + timeout
            for worker in waited:
                worker.thread.join(max(0.0, deadline - time.monotonic()))

    # -- worker pool --------------------------------------------------------------

    def _checkout(self) -> _PooledWorker:
        with self._lock:
            if self._idle_workers:
                return self._idle_workers.pop()
            self._worker_counter += 1
            self.workers_created += 1
            index = self._worker_counter
        worker = _PooledWorker(self.container_id, index, self._park)
        with self._lock:
            self._workers.append(worker)
        return worker

    def _park(self, worker: _PooledWorker) -> None:
        with self._lock:
            self._abandoned.discard(worker)
            if not self.stopped:
                self._idle_workers.append(worker)
                return
        worker.retire()

    # -- execution ---------------------------------------------------------------

    def execute_batch(self, invocations: List[LocalInvocation]) -> None:
        """Run *invocations* inside this container; blocks until all done.

        Mirrors §III-C step 3: one request expands the whole batch as
        threads and returns when every invocation completed.
        """
        if self.stopped:
            raise ContainerStateError(f"{self.container_id} is stopped")
        if not invocations:
            raise ValueError("empty batch")
        done = threading.Event()
        remaining = [len(invocations)]

        def run(invocation: LocalInvocation) -> None:
            try:
                self._run_one(invocation)
            finally:
                with self._lock:
                    remaining[0] -= 1
                    finished = remaining[0] == 0
                if finished:
                    done.set()

        for invocation in invocations:
            invocation.dispatched_at = time.monotonic()
            worker = self._checkout()
            worker.submit(lambda invocation=invocation: run(invocation))
        done.wait()

    def _run_one(self, invocation: LocalInvocation) -> None:
        with self._lock:
            self._active += 1
        if self._slots is not None:
            self._slots.acquire()
        context = InvocationContext(
            container_id=self.container_id,
            function_name=self.function_name,
            multiplexer=self.multiplexer)
        invocation.started_at = time.monotonic()
        try:
            invocation.result, invocation.error = self._call_handler(
                invocation, context)
            invocation.completed_at = time.monotonic()
            if not self.defer_resolution:
                invocation.resolve()
        finally:
            if self._slots is not None:
                self._slots.release()
            with self._lock:
                self._active -= 1
                self.invocations_served += 1

    def _call_handler(self, invocation: LocalInvocation,
                      context: InvocationContext):
        """Run the handler, enforcing the per-invocation timeout if set.

        Returns ``(result, error)`` — exactly one is meaningful.  Timeouts
        run the handler on a second pooled worker and abandon it when the
        budget elapses (the thread itself cannot be cancelled); the
        abandoned worker re-parks itself whenever the handler finally
        returns, so it is stalled rather than leaked.
        """
        if self.timeout_seconds is None:
            try:
                return self.handler(invocation.payload, context), None
            except BaseException as error:  # handler failure -> recorded
                return None, error
        outcome: dict = {}
        finished = threading.Event()

        def call() -> None:
            try:
                outcome["result"] = self.handler(invocation.payload, context)
            except BaseException as error:
                outcome["error"] = error
            finally:
                finished.set()

        worker = self._checkout()
        worker.submit(call)
        if not finished.wait(self.timeout_seconds):
            with self._lock:
                self.invocations_timed_out += 1
                if not finished.is_set():
                    self._abandoned.add(worker)
            return None, InvocationTimeout(
                f"{invocation.invocation_id} exceeded "
                f"{self.timeout_seconds}s on {self.container_id} "
                f"(attempt {invocation.attempts})")
        return outcome.get("result"), outcome.get("error")
