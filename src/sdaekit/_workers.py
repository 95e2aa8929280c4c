"""Forked worker processes for independent jobs: the path batches of an
ensemble, and the output files of a CLI solve.

``count(jobs)`` is the number of processes a run of ``jobs`` jobs uses:
W = min(jobs, usable CPUs), the caller included, or 1 when there is one
job, one usable CPU, no ``os.fork``/``os.sched_getaffinity``, or another
Python thread alive (forking a process with threads is unsafe).  An
ensemble asks for ``count(paths)`` and cuts its paths into a multiple of W
batches (``stats.run_ensemble``).  ``run(job, jobs, W)`` calls ``job(i)``
for every i, job i in process i % W; process 0 is the caller, which forks
the W - 1 workers before it runs its own jobs.  Whatever a job changes in a
worker's memory is lost when the worker exits, so a worker's results must
leave it another way: an ensemble batch writes into buffers from
``shared``, anonymous shared mappings made before the fork, and an output
job writes its file.

A worker exits only through ``os._exit``.  It sends an exception to the
caller pickled through a pipe, with its traceback as a note, and the caller
re-raises it; a worker that dies without one is reported as a RuntimeError
naming its signal or exit status.  On Linux a worker is killed when the
caller dies.  The caller reaps every worker before ``run`` returns or
raises: after a failure of its own, or an interrupt, it first sends them
SIGTERM.
"""

from __future__ import annotations

import ctypes
import mmap
import os
import pickle
import signal
import sys
import threading
import traceback
from typing import BinaryIO, Callable, NoReturn

import numpy as np

_PR_SET_PDEATHSIG = 1  # prctl option, <linux/prctl.h>


def count(jobs: int) -> int:
    """Processes, the caller included, that ``run`` spreads ``jobs`` jobs over."""
    if (
        jobs < 2
        or not hasattr(os, "fork")
        or not hasattr(os, "sched_getaffinity")
        or threading.active_count() > 1
    ):
        return 1
    return min(jobs, len(os.sched_getaffinity(0)))


def shared(nbytes: int) -> np.ndarray:
    """A writable uint8 array in an anonymous shared mapping of ``nbytes``
    (> 0): what a forked worker writes into it, the caller reads."""
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=np.uint8)


def run(job: Callable[[int], None], jobs: int, workers: int) -> None:
    """``job(i)`` for i in range(jobs), job i in process i % workers.

    A job's return value is discarded; only what the caller's own jobs change
    is kept in this process.  A worker's exception is re-raised here with its
    type once every worker is reaped."""
    parent = os.getpid()
    children: dict[int, BinaryIO] = {}  # pid -> read end of its pipe, until reaped
    try:
        for w in range(1, workers):
            r, w_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w_fd)
                raise
            if pid == 0:
                os.close(r)
                _work(job, range(w, jobs, workers), w_fd, parent)
            os.close(w_fd)
            children[pid] = os.fdopen(r, "rb")
        for i in range(0, jobs, workers):
            job(i)
        errors = [_collect(pid, children) for pid in list(children)]
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGTERM)
        raise
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.waitpid(pid, 0)
    for err in errors:
        if err is not None:
            raise err


def _collect(pid: int, children: dict[int, BinaryIO]) -> BaseException | None:
    """Read worker ``pid``'s pipe to its end and reap it; its exception, if any."""
    with children[pid] as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    del children[pid]
    if payload:
        return pickle.loads(payload)
    if os.WIFSIGNALED(status):
        return RuntimeError(
            f"ensemble worker {pid} was killed by {signal.Signals(os.WTERMSIG(status)).name}"
        )
    code = os.waitstatus_to_exitcode(status)
    return RuntimeError(f"ensemble worker {pid} exited with status {code}") if code else None


def _work(job, indices, fd: int, parent: int) -> NoReturn:
    """A worker's whole life: its jobs, then ``os._exit``."""
    code = 0
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        _die_with(parent)
        for i in indices:
            job(i)
    except BaseException as exc:
        code = 1
        _send(fd, exc)
    finally:
        os._exit(code)


def _die_with(parent: int) -> None:
    """On Linux, have the kernel kill this process when ``parent`` dies."""
    if not sys.platform.startswith("linux"):
        return
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent:  # the parent died before prctl took effect
        os._exit(1)


def _send(fd: int, exc: BaseException) -> None:
    """Pickle ``exc`` into the pipe, or a RuntimeError with its traceback
    when ``exc`` does not survive a pickle round trip."""
    text = "".join(traceback.format_exception(exc))
    try:
        exc.add_note(f"raised in ensemble worker {os.getpid()}:\n{text}")
        payload = pickle.dumps(exc)
        pickle.loads(payload)
    except Exception:
        payload = pickle.dumps(RuntimeError(f"ensemble worker {os.getpid()} raised:\n{text}"))
    with os.fdopen(fd, "wb") as pipe:
        pipe.write(payload)
