"""Tests for the platform lifecycle: accepting → draining → stopped."""

from __future__ import annotations

import threading
import time

import pytest

from repro.common.errors import (
    PlatformDraining,
    PlatformStateError,
    PlatformStopped,
)
from repro.local.runtime import (
    STATE_ACCEPTING,
    STATE_DRAINING,
    STATE_STOPPED,
    LocalPlatform,
    LocalPlatformConfig,
)


def make_platform(**kwargs) -> LocalPlatform:
    defaults = dict(window_seconds=0.005, cold_start_seconds=0.0)
    defaults.update(kwargs)
    platform = LocalPlatform(LocalPlatformConfig(**defaults))
    platform.register("echo", lambda payload, context: payload)
    return platform


class TestLifecycle:
    def test_fresh_platform_is_accepting(self):
        platform = make_platform()
        try:
            assert platform.state == STATE_ACCEPTING
        finally:
            platform.shutdown()

    def test_shutdown_reaches_stopped(self):
        platform = make_platform()
        assert platform.invoke("echo", 1).result(timeout=5) == 1
        platform.shutdown()
        assert platform.state == STATE_STOPPED

    def test_invoke_after_stop_raises_platform_stopped(self):
        platform = make_platform()
        platform.shutdown()
        with pytest.raises(PlatformStopped):
            platform.invoke("echo", 1)

    def test_submit_group_after_stop_raises(self):
        platform = make_platform()
        platform.shutdown()
        with pytest.raises(PlatformStopped):
            platform.submit_group("echo", [1, 2])

    def test_invoke_while_draining_raises_platform_draining(self):
        release = threading.Event()

        def gated(payload, context):
            release.wait(5)
            return payload

        platform = LocalPlatform(LocalPlatformConfig(
            window_seconds=0.001, cold_start_seconds=0.0))
        platform.register("gated", gated)
        future = platform.invoke("gated", 1)
        shutdown_thread = threading.Thread(target=platform.shutdown)
        time.sleep(0.05)  # let the invocation reach a container
        shutdown_thread.start()
        deadline = time.monotonic() + 5
        while platform.state != STATE_DRAINING:
            assert time.monotonic() < deadline, "never started draining"
            time.sleep(0.001)
        with pytest.raises(PlatformDraining):
            platform.invoke("gated", 2)
        release.set()
        shutdown_thread.join(timeout=5)
        assert not shutdown_thread.is_alive()
        assert platform.state == STATE_STOPPED
        assert future.result(timeout=1) == 1  # drained, not dropped

    def test_lifecycle_errors_share_a_base_type(self):
        assert issubclass(PlatformDraining, PlatformStateError)
        assert issubclass(PlatformStopped, PlatformStateError)

    def test_shutdown_is_idempotent(self):
        platform = make_platform()
        platform.shutdown()
        platform.shutdown()  # second call must be a no-op
        assert platform.state == STATE_STOPPED

    def test_shutdown_stops_container_workers(self):
        before = set(threading.enumerate())
        platform = make_platform()
        platform.register("echo2", lambda payload, context: payload)
        futures = (platform.invoke_many("echo", list(range(8)))
                   + platform.invoke_many("echo2", list(range(8))))
        assert [f.result(timeout=5) for f in futures] == list(range(8)) * 2
        assert platform.containers_created >= 2
        platform.shutdown()
        alive = [thread.name for thread in threading.enumerate()
                 if thread not in before and ":worker-" in thread.name]
        assert alive == []

    def test_registered_functions_survive_shutdown(self):
        platform = make_platform()
        platform.shutdown()
        assert platform.has_function("echo")
        assert platform.registered_functions() == ["echo"]
