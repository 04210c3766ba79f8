"""Two pieces of one command's work at once, the second in a forked child.

:func:`both` is how ``sigtest`` and ``matrix`` use a second CPU.  The
child only computes: it sends its result back pickled through a pipe
and leaves with ``os._exit``, so it runs no ``finally`` block, exit
handler or buffer flush of the caller, and its standard output and
error, as file descriptors and as Python streams, go to ``os.devnull``.
A child that fails or dies without a result costs only time, because
the caller then runs the second piece itself: the errors a call raises,
and their order, are those of running the two pieces in turn.  The
child inherits the caller's garbage collector setting: under the
``ruleparse`` process entry (``cli.run_main``) the cyclic collector is
off in both processes.

A fork copies only the thread that calls it, so :func:`both` forks only
a process that runs one thread.  Each of the two processes is to take
one of two CPUs, so while they run ``OMP_NUM_THREADS`` is 1 unless the
caller set it.  A library that reads it once, when it loads, keeps that
value: numpy first imported during a split call keeps one OpenBLAS
thread in this process after the call.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, TypeVar

First = TypeVar("First")
Second = TypeVar("Second")


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _threads() -> int:
    """The threads this process runs: every thread of the operating
    system where Linux lists them, else the ones Python started."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:  # no /proc: only Python's own threads can be seen
        import threading
        return threading.active_count()


def both(first: Callable[[], First],
         second: Callable[[], Second]) -> tuple[First, Second]:
    """``(first(), second())``, with ``second`` run in a forked child
    while this process runs ``first``.

    If ``first`` raises, the child is killed and the error goes on.  If
    the child fails or dies without a result, ``second`` runs here after
    ``first``.  The child is reaped on every path.  Where ``os.fork`` is
    missing or fails, only one CPU is usable, or this process runs more
    than one thread, the two run here in turn.

    ``second`` runs in the child on the state the fork copied, before
    ``first`` ran, and its result must pickle.
    """
    if not hasattr(os, "fork") or _cpus() < 2 or _threads() > 1:
        return first(), second()
    chosen = "OMP_NUM_THREADS" in os.environ
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    try:
        return _split(first, second)
    finally:
        if not chosen:
            os.environ.pop("OMP_NUM_THREADS", None)


def _split(first: Callable[[], First],
           second: Callable[[], Second]) -> tuple[First, Second]:
    """:func:`both` with the fork."""
    # Here, so that a call that never forks does not load them.
    import pickle
    import signal

    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to be had: the two run here in turn
        os.close(read_end)
        os.close(write_end)
        return first(), second()
    if pid == 0:
        _child(read_end, write_end, second)
    os.close(write_end)
    received = False
    try:
        with open(read_end, "rb") as pipe:
            head = first()
            data = pipe.read()
        received = True
    finally:
        if not received:
            os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
    if status == 0:
        return head, pickle.loads(data)
    return head, second()


def _child(read_end: int, write_end: int, second: Callable[[], Second]) -> None:
    """The forked child of :func:`both`: ``second()`` pickled into
    ``write_end``, then exit status 0; any failure exits 1."""
    import pickle

    status = 1
    try:
        os.close(read_end)
        quiet = os.open(os.devnull, os.O_WRONLY)
        os.dup2(quiet, 1)
        os.dup2(quiet, 2)
        # The caller's text streams may write elsewhere than to 1 and 2.
        sys.stdout = sys.stderr = open(quiet, "w")
        data = pickle.dumps(second(), protocol=pickle.HIGHEST_PROTOCOL)
        with open(write_end, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)
