"""Forked workers for work that splits into independent parts, in order.

in_order is the one place that decides how work is spread over CPUs:
leave_one_out's trials and both of exact_dmd's passes over the snapshots
only state what each part costs.  It cuts the parts into one contiguous
run of near-equal cost per CPU of the affinity set, the calling process
computes the first run and a forked worker each of the others, and the
results come back in the order of the parts, the serial one.  Each
process is pinned to its own CPU of the set: a forked process otherwise
stays on its parent's CPU.  On 2 vCPUs an unpinned leave-one-out worker
got 0-7% of the second CPU's ticks, and 30 trials of a 8,016 x 144
rank-17 decomposition took 178 ms on two unpinned processes, 155 ms on
one and 88 ms on two pinned ones.
"""
from __future__ import annotations

import os
import pickle
import signal
import threading
from typing import Callable, Sequence

import numpy as np


def _cpus() -> list[int]:
    """The CPUs in_order may spread its work over: the affinity set, in
    order, or none where the platform cannot fork or report it, or where
    the process runs a second thread.  A fork would copy the locks that
    thread holds, and a BLAS pool's threads would compete with the
    workers' for the same CPUs: with two OpenBLAS threads on two CPUs,
    forking made leave_one_out 3.6 times slower, not faster."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or _threads() > 1:
        return []
    return sorted(os.sched_getaffinity(0))


def _threads() -> int:
    """The process's threads, Python's and native ones such as a BLAS
    pool; where /proc cannot tell, the Python threads."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _runs(costs: Sequence[float], count: int) -> list[range]:
    """Contiguous runs of the parts 0..len(costs)-1, at most count of them,
    of near-equal cost.  A run ends after the parts whose middle comes
    before its share of the cost."""
    costs = np.asarray(costs)
    w = min(count, costs.size)
    mids = np.cumsum(costs) - costs / 2
    cuts = [0, *np.searchsorted(mids, np.arange(1, w) * (costs.sum() / w)).tolist(), costs.size]
    return [range(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]


def in_order(costs: Sequence[float], compute: Callable[[range], list]) -> list:
    """The lists compute(run) returns, joined in the order of the runs,
    where the runs cut the parts 0..len(costs)-1, part k costing costs[k].

    The affinity set is read once (_cpus), and the parts are cut into at
    most one run per CPU of it (_runs).  The calling process computes the
    first run; with more than one run it forks one worker per further
    run, which pipes back its pickled list and ends with os._exit, so the
    parent's buffered output, atexit hooks and finalizers never run
    twice.  The parent and worker k are pinned to the k-th CPU of that
    read; a process whose pin fails (an OSError) runs unpinned.  A run
    whose worker could not start, exited non-zero or raised is computed
    again by the parent, in order, once every worker is reaped: the
    results are those of a serial run, and so is the first exception,
    which propagates from the parent's own call.  An exception or
    interrupt in the parent kills and reaps the workers before it
    propagates.  The parent's affinity set, the one read, is restored on
    the way out.
    """
    cpus = _cpus()
    runs = _runs(costs, max(len(cpus), 1))
    got: list[list | None] = [None] * len(runs)
    if len(runs) > 1:
        workers: dict[int, tuple[int, int]] = {}
        try:
            for k in range(1, len(runs)):
                worker = _fork(runs[k], compute, cpus[k])
                if worker is not None:
                    workers[k] = worker
            _pin(cpus[0])
            got[0] = compute(runs[0])
            for k, (pid, fd) in list(workers.items()):
                with open(fd, "rb", closefd=False) as pipe:
                    payload = pipe.read()  # to its end, before the worker is reaped
                status = os.waitpid(pid, 0)[1]
                del workers[k]
                os.close(fd)
                got[k] = pickle.loads(payload) if status == 0 else None
        finally:
            for pid, fd in workers.values():  # left by an exception: end them
                os.close(fd)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            try:
                os.sched_setaffinity(0, cpus)
            except OSError:
                pass
    out = []
    for run, done in zip(runs, got):
        out += compute(run) if done is None else done
    return out


def _pin(cpu: int) -> None:
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:  # a CPU outside the real set, say: run unpinned
        pass


def _fork(run: range, compute: Callable, cpu: int) -> tuple[int, int] | None:
    """Fork a worker, pinned to cpu, that pipes back the pickled
    compute(run).  Returns (pid, read end of the pipe), or None when no
    worker could be started."""
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
                pickle.dump(compute(run), fh, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    return pid, fd
