"""Forked workers for work that splits into independent parts, in order.

leave_one_out's trials and both of exact_dmd's passes over the snapshots
run through in_order: the caller splits its parts into one contiguous
share per process, the calling process computes the first share and a
forked worker each of the others, and the results come back in the order
of the parts, the serial one.  Each process is pinned to its own CPU of
the affinity set: a forked process otherwise stays on its parent's CPU.
On 2 vCPUs an unpinned leave-one-out worker got 0-7% of the second CPU's
ticks, and 30 trials of a 8,016 x 144 rank-17 decomposition took 178 ms
on two unpinned processes, 155 ms on one and 88 ms on two pinned ones.
"""
from __future__ import annotations

import os
import pickle
import signal
import threading
from typing import Callable, Sequence


def _cpus() -> int:
    """How many processes in_order's callers may split their work over:
    the size of the affinity set, or 1 where the platform cannot fork or
    report it, or where the process runs a second thread.  A fork would
    copy the locks that thread holds, and a BLAS pool's threads would
    compete with the workers' for the same CPUs: with two OpenBLAS
    threads on two CPUs, forking made leave_one_out 3.6 times slower, not
    faster."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or _threads() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _threads() -> int:
    """The process's threads, Python's and native ones such as a BLAS
    pool; where /proc cannot tell, the Python threads."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def in_order(shares: Sequence[Sequence], compute: Callable) -> list:
    """compute(part) for every part of every share, listed in the order of
    the shares and of the parts within each.

    The calling process computes shares[0]; with more than one share it
    forks one worker per further share, which computes its share up to
    the first part that raises, pipes back the pickled results and ends
    with os._exit, so the parent's buffered output, atexit hooks and
    finalizers never run twice.  Before its own share the parent pins
    itself to the first CPU of its affinity set, and worker k pins itself
    to the k-th; a process whose pin fails (an OSError) runs unpinned.
    A part without a result, because its worker could not start, exited
    non-zero, stopped short or raised, is computed by the parent, in
    order, once every worker is reaped: the results are those of a
    serial run, and so is the first exception, which propagates from the
    parent's own call.  An exception or interrupt in the parent kills and
    reaps the workers before it propagates.  The parent's affinity set is
    restored on the way out.
    """
    got = [[] for _ in shares]
    if len(shares) > 1:
        before = os.sched_getaffinity(0)
        cpus = sorted(before)
        workers: dict[int, tuple[int, int]] = {}
        try:
            for k in range(1, len(shares)):
                worker = _fork(shares[k], compute, cpus[k])
                if worker is not None:
                    workers[k] = worker
            _pin(cpus[0])
            got[0] = _computed(shares[0], compute)
            for k, (pid, fd) in list(workers.items()):
                with open(fd, "rb", closefd=False) as pipe:
                    payload = pipe.read()  # to its end, before the worker is reaped
                status = os.waitpid(pid, 0)[1]
                del workers[k]
                os.close(fd)
                got[k] = pickle.loads(payload) if status == 0 else []
        finally:
            for pid, fd in workers.values():  # left by an exception: end them
                os.close(fd)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            try:
                os.sched_setaffinity(0, before)
            except OSError:
                pass
    out = []
    for share, done in zip(shares, got):
        out += done
        out += [compute(part) for part in share[len(done):]]
    return out


def _pin(cpu: int) -> None:
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:  # a CPU outside the real set, say: run unpinned
        pass


def _computed(parts: Sequence, compute: Callable) -> list:
    """compute(part) for each part in turn, up to the first that raises."""
    out = []
    for part in parts:
        try:
            out.append(compute(part))
        except Exception:
            break
    return out


def _fork(share: Sequence, compute: Callable, cpu: int) -> tuple[int, int] | None:
    """Fork a worker, pinned to cpu, that pipes back the pickled
    _computed(share, compute).  Returns (pid, read end of the pipe), or
    None when no worker could be started."""
    try:
        fd, wfd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(fd)
        os.close(wfd)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(fd)
            _pin(cpu)
            with open(wfd, "wb") as fh:
                pickle.dump(_computed(share, compute), fh, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    return pid, fd
