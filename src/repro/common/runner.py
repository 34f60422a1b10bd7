"""One child-process runner for the bench cells and the cluster shards.

A child is ``python -m <module>`` (:func:`child_main` on its side).  It
reads one JSON spec from stdin and writes JSON lines to stdout: any number
of ``{"type": "progress", ...}`` heartbeats, then one
``{"type": "result", "payload": ...}``; then it exits 0.

:func:`run_children` drains every child's stdout and stderr from one
``selectors`` loop in the calling thread, so a child that floods a pipe
never blocks and no reader thread inflates the parent's RSS.  The first
failure — a non-zero exit, a line that is not a progress or result
message, or an exit without a result — kills and reaps the siblings still
running and raises one :class:`ChildFailure` naming the child, the reason,
the stopped siblings and the child's last stderr lines.  Every pipe is
closed on every path.
"""

from __future__ import annotations

import json
import os
import resource
import selectors
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.common.errors import SimulationError

#: ``ru_maxrss`` unit: bytes on macOS, kilobytes everywhere else.
_MAXRSS_PER_MB = (1024.0 * 1024.0) if sys.platform == "darwin" else 1024.0

#: Stderr lines a :class:`ChildFailure` quotes.
_TAIL_LINES = 12

#: Bytes per pipe read, and the stderr bytes kept for the quoted tail.
_CHUNK = 64 * 1024

Progress = Callable[[Dict[str, object]], None]


def peak_rss_mb() -> float:
    """This process's lifetime peak RSS in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / _MAXRSS_PER_MB


@dataclass(frozen=True)
class Child:
    """One child to run: ``python -m <module>`` fed *spec* on stdin."""

    name: str
    module: str
    spec: Dict[str, object]


class ChildFailure(SimulationError):
    """A child failed; its siblings were stopped and every pipe closed."""


def child_main(handle: Callable[[Dict[str, object], Progress],
                                Dict[str, object]]) -> int:
    """Child side: send ``handle(spec, progress)`` as the result line."""
    spec = json.load(sys.stdin)

    def send(message: Dict[str, object]) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    result = handle(spec, lambda fields: send({"type": "progress", **fields}))
    send({"type": "result", "payload": result})
    return 0


def _spawn(child: Child) -> "subprocess.Popen[bytes]":
    """Start *child* with this checkout's ``src`` on ``PYTHONPATH``."""
    import repro
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src_root if not existing
                         else src_root + os.pathsep + existing)
    proc = subprocess.Popen([sys.executable, "-m", child.module],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    try:
        proc.stdin.write(json.dumps(child.spec).encode())  # type: ignore[union-attr]
    except BrokenPipeError:
        pass  # the child died before reading; its exit code says why
    finally:
        proc.stdin.close()  # type: ignore[union-attr]
    return proc


class _Failed(Exception):
    """Internal: ``(run, reason)`` of the first failure seen."""


class _Run:
    """One started child: unread stdout, stderr tail, result so far."""

    def __init__(self, index: int, proc: "subprocess.Popen[bytes]") -> None:
        self.index = index
        self.proc = proc
        self.open_pipes = 2
        self.partial = bytearray()
        self.stderr = b""
        self.result: Optional[Dict[str, object]] = None

    def take(self, line: bytes, on_progress: Optional[Progress]) -> None:
        """Act on one stdout line."""
        if not line.strip():
            return
        try:
            message = json.loads(line)
        except ValueError:
            message = None
        kind = message.get("type") if isinstance(message, dict) else None
        if kind == "progress":
            if on_progress is not None:
                on_progress(message)  # type: ignore[arg-type]
        elif kind == "result" and "payload" in message:  # type: ignore[operator]
            self.result = message["payload"]  # type: ignore[index]
        else:
            text = line.decode(errors="replace").strip()
            shown = text if len(text) <= 80 else text[:77] + "..."
            raise _Failed(self, f"bad stdout line {shown!r}")

    def keep_stderr(self, chunk: bytes) -> None:
        self.stderr = (self.stderr + chunk)[-_CHUNK:]

    def stop(self) -> None:
        """Kill (if still running) and reap."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def tail(self) -> str:
        """The last stderr lines, read to EOF (the child is reaped)."""
        pipe = self.proc.stderr
        while pipe is not None and not pipe.closed:
            chunk = os.read(pipe.fileno(), _CHUNK)
            if not chunk:
                break
            self.keep_stderr(chunk)
        lines = self.stderr.decode(errors="replace").strip().splitlines()
        return "\n".join(lines[-_TAIL_LINES:])


def run_children(children: Sequence[Child], parallel: Optional[int] = None,
                 on_progress: Optional[Progress] = None,
                 ) -> List[Dict[str, object]]:
    """Run *children*, at most *parallel* at a time (default: all); returns
    their result payloads in *children* order."""
    width = len(children) if parallel is None else max(1, int(parallel))
    results: List[Optional[Dict[str, object]]] = [None] * len(children)
    started: List[_Run] = []
    running: Dict[int, _Run] = {}
    selector = selectors.DefaultSelector()
    try:
        while len(started) < len(children) or running:
            while len(started) < len(children) and len(running) < width:
                run = _Run(len(started), _spawn(children[len(started)]))
                started.append(run)
                running[run.index] = run
                for pipe in (run.proc.stdout, run.proc.stderr):
                    selector.register(pipe, selectors.EVENT_READ, run)
            for key, _events in selector.select():
                run = key.data
                chunk = os.read(key.fd, _CHUNK)
                if key.fileobj is run.proc.stderr:
                    run.keep_stderr(chunk)
                elif b"\n" in chunk:
                    *lines, run.partial = (run.partial + chunk).split(b"\n")
                    for line in lines:
                        run.take(line, on_progress)
                else:
                    run.partial += chunk
                if chunk:
                    continue
                selector.unregister(key.fileobj)
                run.open_pipes -= 1
                if run.open_pipes == 0:
                    code = run.proc.wait()
                    if code != 0:
                        raise _Failed(run, f"exit {code}")
                    run.take(run.partial, on_progress)  # needs no "\n"
                    if run.result is None:
                        raise _Failed(run, "exit 0 without a result")
                    results[run.index] = run.result
                    del running[run.index]
    except _Failed as failure:
        failed, reason = failure.args
        stopped = [children[run.index].name for run in running.values()
                   if run is not failed and run.proc.poll() is None]
        for run in running.values():
            run.stop()
        message = f"{children[failed.index].name} failed ({reason})"
        if stopped:
            message += f"; stopped {', '.join(stopped)}"
        tail = failed.tail()
        raise ChildFailure(message + (f":\n{tail}" if tail else "")) from None
    finally:
        for run in started:
            run.stop()
            for pipe in (run.proc.stdout, run.proc.stderr):
                if pipe is not None:
                    pipe.close()
        selector.close()
    return results  # type: ignore[return-value]


__all__ = [
    "Child",
    "ChildFailure",
    "child_main",
    "peak_rss_mb",
    "run_children",
]
