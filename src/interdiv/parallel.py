"""Independent jobs shared out over forked worker processes.

:func:`fork_map` runs ``[fn(job) for job in jobs]`` on up to :func:`cpus`
processes: the calling process works through its own share of the jobs,
and each forked worker keeps one pickled ``(ok, value-or-exception)`` per
job of its share and sends them all through a pipe when its share is done.
With one process the same loop runs every job in process. Workers inherit
the caller's memory, so ``fn`` and the jobs are never pickled, only the
results; what a worker changes in its own memory (a counter, a cache, a
traced span) stays there. The results are bit-identical to the serial
loop's. The jobs are the fits of an ensemble and blocks of rows to
predict; none of them calls ``fork_map``.
"""
from __future__ import annotations

import io
import os
import pickle
import threading
import traceback

from .errors import InterdivError


def cpus() -> int:
    """The processes :func:`fork_map` may use: the CPUs of this process's
    affinity mask, or 1 where ``os.sched_getaffinity`` is missing or other
    Python threads run (a forked child holds only the forking thread, so a
    lock another thread held would stay locked in it)."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _call(fn, job):
    try:
        return True, fn(job)
    except Exception as exc:
        return False, exc


def _work(fn, jobs, fd) -> None:
    """A worker's life: run every job, then send their results through
    ``fd`` at once, and leave through ``os._exit``, so that no ``atexit``
    hook, buffered output or test teardown inherited from the parent runs a
    second time. The caller reads only after its own share, so a result
    written before the next job ran could fill the pipe and hold that job
    back."""
    code = 1
    try:
        sent = []
        for job in jobs:
            ok, value = result = _call(fn, job)
            if not (ok or isinstance(value, InterdivError)):
                os.write(2, "".join(traceback.format_exception(value)).encode())
            try:
                data = pickle.dumps(result)
                if not ok:
                    pickle.loads(data)  # an exception class may not rebuild from its args
            except Exception as exc:
                data = pickle.dumps((False, RuntimeError(
                    f"{type(value).__name__}: {value} (not sent from the worker: {exc!r})"
                )))
            sent.append(data)
        with open(fd, "wb") as fh:
            fh.writelines(sent)
        code = 0
    finally:
        os._exit(code)


def _exit_error(pid: int, status: int) -> ChildProcessError:
    import signal  # only where a worker failed: importing it costs each command ~4 ms

    code = os.waitstatus_to_exitcode(status)
    how = f"was killed by {signal.Signals(-code).name}" if code < 0 else f"exited with code {code}"
    return ChildProcessError(f"worker process {pid} {how} before sending all its results")


def fork_map(fn, jobs) -> list:
    """``[fn(job) for job in jobs]``, with job ``i`` run by process
    ``i % min(len(jobs), cpus())``; process 0 is the caller.

    An exception raised by a job is raised here, that of the first failed
    job in job order, after every job has run. A worker's exception comes
    back with its type and message, and its traceback goes to stderr unless
    it is an ``InterdivError``. A worker that dies without sending all its
    results raises ``ChildProcessError`` naming its signal or exit code.
    Every worker is reaped before this returns or raises; if the caller's
    own share raises a ``BaseException`` such as ``KeyboardInterrupt``,
    the workers are killed first.
    """
    jobs = list(jobs)
    n = max(1, min(len(jobs), cpus()))
    workers = []  # (pid, read end of its pipe)
    sent, statuses = [], []
    finished = False
    try:
        for k in range(1, n):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)
                _work(fn, jobs[k::n], w)
            os.close(w)
            workers.append((pid, r))
        results = [None] * len(jobs)
        results[::n] = [_call(fn, job) for job in jobs[::n]]
        for _, r in workers:
            with open(r, "rb", closefd=False) as fh:
                sent.append(fh.read())  # to the end: the worker has exited
        finished = True
    finally:
        for pid, r in workers:
            os.close(r)
            if not finished:
                import signal  # as in _exit_error

                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    for k, ((pid, _), data, status) in enumerate(zip(workers, sent, statuses), 1):
        if status != 0:
            raise _exit_error(pid, status)
        fh = io.BytesIO(data)
        results[k::n] = [pickle.load(fh) for _ in jobs[k::n]]
    for ok, value in results:
        if not ok:
            raise value
    return [value for _, value in results]
