"""Property suite: HeapQueue against a sorted-list reference model.

Drives the kernel's future-event heap through random operation sequences
(push, push_batch, pop, next_due, pop_until, min_when, cancel, compact)
and checks every observable output against a plain sorted list of live
``(when, seq)`` keys: pop order (including FIFO ties at the same
instant), peeked firing times, and tombstone accounting against the
owning environment's cancellation counter.

The timestamp strategy mixes dense sub-millisecond clusters, sparse
spreads, same-instant bursts (seq-order ties) and far-future outliers.  A
kernel-level test replays one random timeout/cancel workload on an
:class:`Environment` and checks that the timeouts fire in the model's
``(when, creation order)`` order.
"""

from __future__ import annotations

import bisect
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.calendar_queue import HeapQueue
from repro.sim.kernel import Environment

_INF = float("inf")


class _FakeEnv:
    """Just the cancellation counter the queue accounts against."""

    __slots__ = ("_cancelled",)

    def __init__(self) -> None:
        self._cancelled = 0


class _FakeEvent:
    """The three attributes the queue touches, plus an id for the model."""

    __slots__ = ("uid", "cancelled", "_callbacks", "env")

    def __init__(self, uid: int, env: _FakeEnv) -> None:
        self.uid = uid
        self.cancelled = False
        self._callbacks = []
        self.env = env


class _Checked:
    """A HeapQueue driven in lockstep with a sorted list of live keys.

    The model holds ``(when, seq)`` for every live (pushed, not popped,
    not cancelled) entry; ``seq`` doubles as the event's uid.  After each
    operation the environment's cancellation counter must equal the number
    of tombstones the heap still physically holds.
    """

    def __init__(self) -> None:
        self.queue = HeapQueue()
        self.env = _FakeEnv()
        self.seq = 0
        self.model: list[tuple[float, int]] = []
        self.events: dict[int, _FakeEvent] = {}

    @property
    def live(self) -> int:
        return len(self.model)

    def _new(self, when: float) -> tuple[float, int, _FakeEvent]:
        self.seq += 1
        event = _FakeEvent(self.seq, self.env)
        self.events[self.seq] = event
        bisect.insort(self.model, (when, self.seq))
        return when, self.seq, event

    def _take_head(self) -> tuple[float, int]:
        head = self.model.pop(0)
        del self.events[head[1]]
        return head

    def check_tombstones(self) -> None:
        tombstones = sum(1 for entry in self.queue.entries()
                         if entry[2].cancelled)
        assert self.env._cancelled == tombstones
        assert len(self.queue) == self.live + tombstones

    def push(self, when: float) -> None:
        self.queue.push(*self._new(when))

    def push_batch(self, whens: list[float]) -> None:
        """Bulk push through the heap's sorted-batch entry point."""
        self.queue.push_batch([self._new(when) for when in sorted(whens)])

    def cancel(self, uid: int) -> None:
        event = self.events.pop(uid)
        assert not event.cancelled
        event.cancelled = True
        self.env._cancelled += 1
        self.model.remove(next(key for key in self.model if key[1] == uid))

    def check_pop(self) -> None:
        event = self.queue.pop()
        assert event.uid == self._take_head()[1]

    def check_min_when(self) -> None:
        expected = self.model[0][0] if self.model else _INF
        assert self.queue.min_when() == expected

    def check_next_due(self, now: float) -> None:
        got = self.queue.next_due(now)
        if self.model and self.model[0][0] <= now:
            assert got.uid == self._take_head()[1]
        else:
            assert got == (self.model[0][0] if self.model else _INF)

    def check_pop_until(self, bound: float) -> None:
        got = self.queue.pop_until(bound)
        if self.model and self.model[0][0] <= bound:
            when, seq = self._take_head()
            assert (got[0], got[1], got[2].uid) == (when, seq, seq)
        else:
            assert got == (self.model[0][0] if self.model else _INF)

    def compact(self) -> None:
        # The kernel owns the counter decrement at the compaction site
        # (``self._cancelled -= self._future.compact()``); mirror that.
        self.env._cancelled -= self.queue.compact()
        assert all(not entry[2].cancelled for entry in self.queue.entries())
        assert sorted((when, seq) for when, seq, _event
                      in self.queue.entries()) == self.model

    def drain(self) -> None:
        """Pop everything live in model order, then surface the end."""
        while self.live:
            self.check_min_when()
            self.check_pop()
            self.check_tombstones()
        assert self.queue.min_when() == _INF
        # Surfacing the end drops every remaining tombstone; the accounting
        # must return the counter exactly to zero (every cancel matched by
        # one drop).
        assert self.env._cancelled == 0
        assert len(self.queue) == 0


#: Timestamp regimes: dense, sparse, same-instant ties, far future.
_WHENS = st.one_of(
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False,
              allow_infinity=False),
    st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False,
              allow_infinity=False),
    # Integral instants collide constantly, exercising the (when, seq)
    # FIFO tie-break.
    st.integers(min_value=0, max_value=12).map(float),
    st.floats(min_value=1e9, max_value=1e12, allow_nan=False,
              allow_infinity=False),
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _WHENS),
        st.tuples(st.just("batch"),
                  st.lists(_WHENS, min_size=1, max_size=8)),
        st.tuples(st.just("pop"), st.none()),
        st.tuples(st.just("next_due"), _WHENS),
        st.tuples(st.just("pop_until"), _WHENS),
        st.tuples(st.just("min_when"), st.none()),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("compact"), st.none()),
    ),
    min_size=1, max_size=120,
)


class TestQueueEquivalenceProperties:
    @settings(max_examples=200, deadline=None)
    @given(ops=_OPS)
    def test_random_interleavings_agree(self, ops):
        checked = _Checked()
        for op, arg in ops:
            if op == "push":
                checked.push(arg)
            elif op == "batch":
                checked.push_batch(arg)
            elif op == "pop":
                if checked.live:
                    checked.check_pop()
            elif op == "next_due":
                checked.check_next_due(arg)
            elif op == "pop_until":
                checked.check_pop_until(arg)
            elif op == "min_when":
                checked.check_min_when()
            elif op == "cancel":
                if checked.events:
                    uids = sorted(checked.events)
                    checked.cancel(uids[arg % len(uids)])
            elif op == "compact":
                checked.compact()
            checked.check_tombstones()
        checked.drain()

    @settings(max_examples=50, deadline=None)
    @given(whens=st.lists(_WHENS, min_size=1, max_size=200),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_bulk_schedule_then_drain(self, whens, seed):
        """Pure schedule-everything-then-drain, the replay-injection shape."""
        checked = _Checked()
        rng = random.Random(seed)
        for when in whens:
            if rng.random() < 0.3:
                checked.push_batch([when, when + rng.random()])
            else:
                checked.push(when)
        for uid in rng.sample(sorted(checked.events),
                              k=len(checked.events) // 4):
            checked.cancel(uid)
        checked.drain()


class TestQueueRegressions:
    def test_same_instant_burst_preserves_fifo(self):
        checked = _Checked()
        for _ in range(64):
            checked.push(7.0)
        order = []
        while checked.live:
            order.append(checked.queue.pop().uid)
            checked._take_head()
        assert order == sorted(order)

    def test_cancel_everything_then_reuse(self):
        checked = _Checked()
        for i in range(32):
            checked.push(float(i))
        for uid in list(checked.events):
            checked.cancel(uid)
        assert checked.queue.min_when() == _INF
        assert checked.env._cancelled == 0
        checked.push(3.25)
        checked.drain()

    def test_pop_until_returns_entry_not_event(self):
        queue = HeapQueue()
        event = _FakeEvent(1, _FakeEnv())
        queue.push(2.5, 9, event)
        entry = queue.pop_until(2.5)
        assert entry == (2.5, 9, event)
        assert queue.pop_until(100.0) == _INF


class TestKernelLevelEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_timeout_workload_matches(self, seed):
        """Live timeouts fire once each, in (when, creation order)."""
        rng = random.Random(seed)
        env = Environment()
        scheduled: list[tuple[float, int]] = []
        fired: list[tuple[float, int]] = []

        def track(timeout, when: float) -> None:
            key = (when, len(scheduled))
            scheduled.append(key)
            timeout.callbacks.append(
                lambda _event: fired.append((env.now, key[1])))

        def worker():
            for _step in range(rng.randrange(1, 5)):
                delay = rng.choice([0.0, 0.125, 1.0, 3.5, 1e7])
                timeout = env.timeout(delay)
                track(timeout, env.now + delay)
                if rng.random() < 0.2:
                    env.timeout(delay + 1.0).cancel()
                yield timeout

        for tag in range(12):
            env.process(worker(), name=f"w{tag}")
        whens = sorted(rng.uniform(0.0, 50.0) for _ in range(40))
        for timeout, when in zip(env.timeout_batch(whens), whens):
            track(timeout, when)
        env.run()
        assert fired == sorted(scheduled)
        assert env._cancelled == 0
        assert env._queue == []
