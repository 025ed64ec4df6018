"""Independent computations run once each, in forked workers when more than
one CPU is available.

A `Jobs` holds zero-argument callables.  `add` only queues one; the first
`result` asked of a queued job dispatches every queued job:

* With `os.fork` and more than one CPU that this process may run on
  (`len(os.sched_getaffinity(0))`), min(CPUs, queued jobs) workers are
  forked, if that is at least two.  They reach the callables through fork,
  so no job is pickled.  They pull job numbers from one pipe, the largest
  `cost` first, and write each pickled result to a temporary file of its
  own.  On a pipe of its own, a worker notes each job it starts and each
  job it finishes.
* Otherwise each job runs inline, in this process, at its first `result`:
  the same jobs in the order they are read.

`result` returns the job's value, or raises the exception the job raised,
when it is read.  So readers that ask in the serial order raise the serial
program's first error, with the same type and message.  A worker that dies
inside a job (a signal, `os._exit`) makes that job an `IntegrationFailure`
that names it.  Workers exit once the queue is drained; the last `result`
reaps them, and `close` kills and reaps any that are left.  A worker never
flushes the stdio buffers it inherits, and they are flushed before a fork,
so buffered output is written once.

Fork, not spawn: the jobs are closures over a model and its compiled
kernels, which a spawned worker would import and build again.  The only
threads at a fork are OpenBLAS's, which shuts its pool down before a fork
and starts it again when it is next needed.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct
import sys
import tempfile
from typing import Any, Callable

from .errors import IntegrationFailure

_TASK = struct.Struct("<i")   # a job number on the task pipe
_NOTE = struct.Struct("<i?")  # (job, finished) on a worker's note pipe


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


class Jobs:
    """Queued jobs and their results (module docstring)."""

    def __init__(self):
        self._jobs: list[tuple[str, float, Callable[[], Any]]] = []
        self._queued: list[int] = []
        self._files: dict[int, Any] = {}          # dispatched, not yet read back
        self._done: dict[int, tuple[bool, Any]] = {}
        self._workers: dict[int, list] = {}       # note fd -> [pid, job or None]

    def add(self, name: str, cost: float, fn: Callable[[], Any]) -> int:
        """Queue `fn`, described as `name` in errors, with a relative cost
        that orders dispatch; returns the job's number."""
        self._jobs.append((name, cost, fn))
        self._queued.append(len(self._jobs) - 1)
        return len(self._jobs) - 1

    def result(self, job: int) -> Any:
        """The value of `job`, or the exception it raised, raised here."""
        while job not in self._done:
            if job in self._queued:
                if not self._fork():
                    self._run(job)
            elif self._workers:
                self._receive()
            else:
                self._failed(job, f"no worker finished {self._jobs[job][0]}")
        if not self._files:  # the workers are done: reap them
            while self._workers:
                self._receive()
        ok, value = self._done[job]
        if not ok:
            raise value
        return value

    def close(self) -> None:
        """Kill and reap the workers still running; drop every job and
        result (a job that refers to its owner would keep it alive)."""
        for fd, (pid, _) in list(self._workers.items()):
            os.kill(pid, signal.SIGKILL)
            self._reap(fd)
        for f in self._files.values():
            f.close()
        self._files.clear()
        self._jobs.clear()
        self._queued.clear()
        self._done.clear()

    def __enter__(self) -> "Jobs":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _run(self, job: int) -> None:
        self._queued.remove(job)
        try:
            self._done[job] = (True, self._jobs[job][2]())
        except Exception as exc:
            self._done[job] = (False, exc)
            raise

    def _fork(self) -> bool:
        """Dispatch every queued job to forked workers; False, dispatching
        nothing, if fewer than two workers would run."""
        n = min(_cpus(), len(self._queued)) if hasattr(os, "fork") else 0
        if n < 2:
            return False
        order = sorted(self._queued, key=lambda j: -self._jobs[j][1])
        self._queued = []
        for j in order:
            self._files[j] = tempfile.TemporaryFile()
        task_r, task_w = os.pipe()
        # written whole before any worker reads; a pipe holds 1024 jobs or more
        os.write(task_w, b"".join(_TASK.pack(j) for j in order))
        os.close(task_w)
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
        forked = 0
        try:
            for _ in range(n):
                note_r, note_w = os.pipe()
                try:
                    pid = os.fork()
                except OSError:  # no more processes: run with those forked
                    os.close(note_r)
                    os.close(note_w)
                    break
                if pid == 0:
                    self._serve(task_r, note_w)
                os.close(note_w)
                self._workers[note_r] = [pid, None]
                forked += 1
        finally:
            os.close(task_r)
        if not forked:  # not one: run the jobs inline after all
            for j in order:
                self._files.pop(j).close()
            self._queued = order
            return False
        return True

    def _serve(self, task_r: int, note_w: int) -> None:
        """A worker: run the jobs pulled from `task_r` until it is empty,
        then exit without flushing anything; never returns."""
        code = 1
        try:
            while len(task := os.read(task_r, _TASK.size)) == _TASK.size:
                (job,) = _TASK.unpack(task)
                fn = self._jobs[job][2]
                os.write(note_w, _NOTE.pack(job, False))
                try:
                    out = (True, fn())
                except Exception as exc:  # raised in the parent when read
                    out = (False, exc)
                # a result that cannot be pickled ends the worker: the
                # parent reports the job's worker as dead
                f = self._files[job]
                f.write(pickle.dumps(out, pickle.HIGHEST_PROTOCOL))
                f.flush()
                os.write(note_w, _NOTE.pack(job, True))
            code = 0
        finally:
            os._exit(code)

    def _receive(self) -> None:
        """Wait for the workers' next notes and act on them."""
        ready, _, _ = select.select(list(self._workers), [], [])
        for fd in ready:
            worker = self._workers[fd]
            note = os.read(fd, _NOTE.size)
            if not note:  # the worker exited
                status = self._reap(fd)
                if worker[1] is not None:
                    self._failed(worker[1], f"the worker process running "
                                 f"{self._jobs[worker[1]][0]} died ({status})")
                continue
            job, finished = _NOTE.unpack(note)
            worker[1] = None if finished else job
            if finished:
                f = self._files.pop(job)
                with f:
                    f.seek(0)
                    try:
                        self._done[job] = pickle.load(f)
                    except Exception as exc:
                        self._failed(job, f"the result of {self._jobs[job][0]}"
                                     f" cannot be read back: {exc}")

    def _failed(self, job: int, message: str) -> None:
        f = self._files.pop(job, None)
        if f is not None:
            f.close()
        self._done[job] = (False, IntegrationFailure(message))

    def _reap(self, fd: int) -> str:
        """Close a worker's note pipe and reap it; how it ended."""
        os.close(fd)
        pid = self._workers.pop(fd)[0]
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        return f"signal {-code}" if code < 0 else f"exit status {code}"
