"""Both passes over the snapshots on every CPU.

Pass 1 reduces a tree over leaves of two row blocks whose shape depends
on D and N only, and pass 2 splits the same leaves by row range, so a
decomposition writes the same bits on any number of CPUs; an input of
one leaf forks nothing and factors as one sequential fold did.  The
forks go through _workers.in_order, which pins each process to its own
CPU and restores the parent's affinity set.  The block size is patched
down to a few rows, so that inputs of many leaves run at test sizes.
"""
import os
import signal
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmode import _workers, dmd
from koopmode.cli import main
from koopmode.dmd import DmdOptions, exact_dmd
from koopmode.fileio import open_snapshots, write_snapshots
from koopmode.grids import SnapshotMatrix, scalar_layout
from koopmode.oracle import generate, tidal_spec
from koopmode.ranking import leave_one_out

from dspace_reference import sequential_factor
from test_ranking import assert_no_child_left, forks_beside_threads, loo_records, on_cpus

REAL_AFFINITY = os.sched_getaffinity


def tidal_file(folder: str, d: int, n: int = 20, seed: int = 0):
    snap, _ = generate(tidal_spec(d=d, n=n, noise_sigma=1e-3, seed=seed))
    path = Path(folder) / "snap.dmds"
    write_snapshots(path, snap)
    return open_snapshots(path)


def file_bytes(result) -> bytes:
    fd = result.modes_file._fh.fileno()
    return os.pread(fd, os.fstat(fd).st_size, 0)


def fingerprint(result) -> tuple:
    """What two runs must share bit for bit: the spectrum, the amplitudes,
    the singular values, pass 1's R factor, mean and norms, and the mode
    file."""
    fac = result.factor
    return (result.mu.tobytes(), result.b.tobytes(), result.singular_values.tobytes(),
            fac.r.tobytes(), None if fac.mean is None else fac.mean.tobytes(),
            fac.norms.tobytes(), file_bytes(result))


# ------------------------------------------------------------- the tree

@given(leaves=st.integers(1, 70), cpus=st.integers(1, 5))
def test_each_run_is_tiled_by_its_subtrees_in_order(leaves, cpus):
    runs = _workers._runs([16] + [8] * (leaves - 1), cpus)
    assert [j for run in runs for j in run] == list(range(leaves))
    assert 1 <= len(runs) <= min(cpus, leaves)
    for run in runs:
        covered = []
        for h, j in dmd._subtrees(run, leaves):
            covered += range(j << h, min((j + 1) << h, leaves))
        assert covered == list(run)


def test_leaves_are_two_blocks_after_a_first_that_reaches_n_rows():
    with mock.patch.object(dmd, "_BLOCK_ROWS", 4):
        assert dmd._leaves(30, 5) == [(0, 8), (8, 16), (16, 24), (24, 30)]
        assert dmd._leaves(30, 10) == [(0, 12), (12, 20), (20, 28), (28, 30)]
        assert dmd._leaves(9, 10) == [(0, 9)]
    assert dmd._leaves(8192, 144) == [(0, 8192)]
    assert dmd._leaves(8193, 144) == [(0, 8192), (8192, 8193)]


@given(seed=st.integers(0, 10_000), d=st.integers(1, 60), n=st.integers(2, 30),
       block_rows=st.sampled_from([1, 2, 3, 5, 8, 13, 4096]), center=st.booleans())
@settings(max_examples=60, deadline=None)
def test_one_leaf_factors_as_the_sequential_fold(seed, d, n, block_rows, center):
    """An input of one leaf (D up to two blocks, or up to the blocks R
    needs to reach N rows) is factored to the bits of the sequential fold
    pass 1 ran before the tree."""
    data = np.random.default_rng(seed).standard_normal((d, n)) + 3.0
    snap = SnapshotMatrix(data, dt=1.0, t0=0.0, layout=scalar_layout(d))
    with mock.patch.object(dmd, "_BLOCK_ROWS", block_rows):
        if len(dmd._leaves(d, n)) > 1:
            return
        fac = dmd._factor(snap, center)
        r, mean, norms = sequential_factor(snap, center)
    assert np.array_equal(fac.r, r)
    assert np.array_equal(fac.norms, norms)
    assert (fac.mean is None) == (mean is None)
    if center:
        assert np.array_equal(fac.mean, mean)


# ----------------------------------------------------- on 1, 2 and 3 CPUs

@forks_beside_threads
@pytest.mark.parametrize("center", [False, True], ids=["plain", "centered"])
def test_multi_leaf_decomposition_is_the_same_on_1_2_and_3_cpus(monkeypatch, center):
    """12 leaves: every CPU count gives the same bits, and w CPUs fork
    w - 1 workers in each of pass 1 and pass 2.  On a
    runner with fewer than 3 CPUs the third worker's pin fails, and it
    runs unpinned."""
    opts = DmdOptions(r=8, use_tlsq=True, normalize_columns=True, remove_mean=center,
                      b_fit="multi:10")
    got = {}
    with tempfile.TemporaryDirectory() as folder:
        monkeypatch.setattr(dmd, "_BLOCK_ROWS", 8)
        src = tidal_file(folder, d=200)
        assert len(dmd._leaves(src.d, src.n)) == 12
        for cpus in (1, 2, 3):
            forks = on_cpus(monkeypatch, cpus)
            got[cpus] = fingerprint(exact_dmd(src, opts))
            assert len(forks) == 2 * (cpus - 1)
            assert_no_child_left()
        in_memory = fingerprint(exact_dmd(generate(tidal_spec(d=200, n=20, noise_sigma=1e-3,
                                                                  seed=0))[0], opts))
    assert got[1] == got[2] == got[3] == in_memory


@forks_beside_threads
def test_one_leaf_forks_nothing(monkeypatch):
    monkeypatch.setattr(dmd, "_BLOCK_ROWS", 8)
    data = np.random.default_rng(2).standard_normal((16, 20))
    forks = on_cpus(monkeypatch, 3)
    exact_dmd(SnapshotMatrix(data, dt=1.0, t0=0.0, layout=scalar_layout(16)),
              DmdOptions(r=8, remove_mean=True))
    assert forks == []


@forks_beside_threads
def test_a_nan_block_read_by_a_worker_exits_4_as_on_one_cpu(monkeypatch, capsys, tmp_path):
    """The NaN sits in the last leaf, which the last worker reads in pass
    1: the parent reads it again, in order, and raises its error."""
    monkeypatch.setattr(dmd, "_BLOCK_ROWS", 8)
    d, n = 200, 20
    path = tmp_path / "nan.dmds"
    data = np.random.default_rng(1).standard_normal((d, n))
    write_snapshots(path, SnapshotMatrix(data, dt=1.0, t0=0.0, layout=scalar_layout(d)))
    raw = bytearray(path.read_bytes())
    at = 40 + 8 * (3 * d + d - 2)
    raw[at:at + 8] = np.float64(np.nan).tobytes()
    path.write_bytes(raw)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"input = {path}\nrank = 5\n")
    errors = {}
    for cpus in (1, 3):
        forks = on_cpus(monkeypatch, cpus)
        out = tmp_path / f"out{cpus}"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 4
        errors[cpus] = capsys.readouterr().err
        assert not out.exists()
        assert len(forks) == cpus - 1
        assert_no_child_left()
    assert errors[1] == errors[3]
    assert "non-finite values" in errors[1]


# ------------------------------------------------ pinning and its undoing

def pin_calls(monkeypatch):
    """Record the parent's sched_setaffinity calls, which still act."""
    calls, pin, parent = [], os.sched_setaffinity, os.getpid()

    def recorded(pid, cpus):
        if os.getpid() == parent:
            calls.append(set(cpus))
        pin(pid, cpus)
    monkeypatch.setattr(os, "sched_setaffinity", recorded)
    return calls


def multi_leaf_result(folder):
    return exact_dmd(tidal_file(folder, d=200), DmdOptions(r=8, remove_mean=True))


@forks_beside_threads
@pytest.mark.parametrize("call", ["exact_dmd", "leave_one_out"])
@pytest.mark.parametrize("event", ["none", "worker killed", "parent interrupted"])
def test_the_parents_affinity_set_is_restored(monkeypatch, call, event):
    """The parent pins itself to the first CPU of its affinity set while
    its workers run, and leaves with the set it had, also when a worker is
    killed (its parts are recomputed: the bits are the serial ones) or an
    interrupt ends the call."""
    real = REAL_AFFINITY(0)
    if len(real) < 2:
        pytest.skip("needs two CPUs to pin a worker")
    monkeypatch.setattr(dmd, "_BLOCK_ROWS", 8)
    parent = os.getpid()
    with tempfile.TemporaryDirectory() as folder:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(real))
        monkeypatch.setattr(_workers, "_threads", lambda: 1)
        base = multi_leaf_result(folder)
        monkeypatch.setattr(_workers, "_threads", lambda: 2)
        serial = (fingerprint(multi_leaf_result(folder)) if call == "exact_dmd"
                  else leave_one_out(base, trials=10, seed=3).pooled().tobytes())
        monkeypatch.setattr(_workers, "_threads", lambda: 1)
        calls = pin_calls(monkeypatch)
        in_order = _workers.in_order

        def eventful(costs, compute):
            def run(parts):
                if event == "worker killed" and os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                if event == "parent interrupted" and os.getpid() == parent:
                    raise KeyboardInterrupt
                return compute(parts)
            return in_order(costs, run)
        monkeypatch.setattr(_workers, "in_order", eventful)
        try:
            got = (fingerprint(multi_leaf_result(folder)) if call == "exact_dmd"
                   else leave_one_out(base, trials=10, seed=3).pooled().tobytes())
        except KeyboardInterrupt:
            assert event == "parent interrupted"
        else:
            assert event != "parent interrupted"
            assert got == serial
    assert REAL_AFFINITY(0) == real
    assert calls[:2] == [{min(real)}, real]
    assert_no_child_left()


@forks_beside_threads
@pytest.mark.parametrize("call", ["exact_dmd", "leave_one_out"])
def test_an_affinity_set_that_shrinks_after_its_first_read_gives_the_serial_bits(
        monkeypatch, call):
    """The set reads as 3 CPUs once and as 1 CPU after that, as when an
    outside taskset shrinks it while a command runs: the call that read 3
    forks 2 workers and pins each to a CPU of that read, every later call
    runs serially, and the bits are the serial ones."""
    monkeypatch.setattr(dmd, "_BLOCK_ROWS", 8)
    with tempfile.TemporaryDirectory() as folder:
        on_cpus(monkeypatch, 1)
        base = multi_leaf_result(folder)
        serial = (fingerprint(base) if call == "exact_dmd"
                  else loo_records(leave_one_out(base, trials=10, seed=3)))
        forks, reads = on_cpus(monkeypatch, 3), []

        def shrinking(pid):
            reads.append(pid)
            return {0, 1, 2} if len(reads) == 1 else {0}
        monkeypatch.setattr(os, "sched_getaffinity", shrinking)
        got = (fingerprint(multi_leaf_result(folder)) if call == "exact_dmd"
               else loo_records(leave_one_out(base, trials=10, seed=3)))
    assert got == serial
    assert len(forks) == 2
    assert_no_child_left()


@forks_beside_threads
def test_in_order_reads_the_affinity_set_once_per_call(monkeypatch):
    forks, reads = on_cpus(monkeypatch, 3), []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: reads.append(pid) or {0, 1, 2})
    squares = _workers.in_order([1] * 7, lambda run: [k * k for k in run])
    assert squares == [k * k for k in range(7)]
    assert len(reads) == 1
    assert len(forks) == 2
    assert_no_child_left()


def test_a_worker_whose_pin_fails_runs_unpinned(monkeypatch):
    """A CPU outside the real set cannot be pinned to: the worker given it
    keeps the set it was forked with, and its results are kept; every
    other process runs on its own CPU."""
    real = REAL_AFFINITY(0)
    cpus = sorted(real) + [4095]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
    monkeypatch.setattr(_workers, "_threads", lambda: 1)
    got = _workers.in_order([1] * len(cpus),
                            lambda run: [(k, os.getpid(), REAL_AFFINITY(0)) for k in run])
    assert [g[0] for g in got] == list(range(len(cpus)))
    assert [g[2] for g in got] == [{cpu} for cpu in cpus[:-1]] + [real]
    assert got[0][1] == os.getpid()
    assert len({g[1] for g in got}) == len(cpus)
    assert REAL_AFFINITY(0) == real
    assert_no_child_left()
