"""Shared builders for the test suite."""
from __future__ import annotations

import os

import numpy as np
import pytest

from koopmode.grids import (SnapshotMatrix, VelocityField, scalar_layout,
                            velocity_layout)


def make_rng(seed):
    return np.random.default_rng(seed)


def random_mask(rng, nz, ny, nx, keep=0.7):
    """Random ocean mask with at least one unmasked cell."""
    mask = rng.random((nz, ny, nx)) < keep
    if not mask.any():
        mask[rng.integers(nz), rng.integers(ny), rng.integers(nx)] = True
    return mask


def random_velocity(rng, nz, ny, nx, scale=1.0):
    shape = (nz, ny, nx)
    return VelocityField(
        ux=scale * rng.standard_normal(shape),
        uy=scale * rng.standard_normal(shape),
        uz=scale * rng.standard_normal(shape),
    )


def linear_trajectory(rng, d, n, spectral_radius=1.0):
    """Snapshots of x[k+1] = A x[k] for a random dense A, plus A itself."""
    a = rng.standard_normal((d, d))
    rho = max(abs(np.linalg.eigvals(a)))
    a = a * (spectral_radius / rho)
    x = np.empty((d, n))
    x[:, 0] = rng.standard_normal(d)
    for k in range(1, n):
        x[:, k] = a @ x[:, k - 1]
    return x, a


def snapshots_from_array(data, dt=1.0, t0=0.0):
    return SnapshotMatrix(np.asarray(data, dtype=float), dt=dt, t0=t0,
                          layout=scalar_layout(np.asarray(data).shape[0]))


@pytest.fixture(autouse=True)
def keep_affinity():
    """Give the process back its affinity set after a test that made the
    code under test see another one, which it restores on the way out."""
    if not hasattr(os, "sched_getaffinity"):
        yield
        return
    before = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, before)


@pytest.fixture
def rng():
    return make_rng(1234)


def rank_critical_snapshots(n=12, seed=3):
    """A planar linear trajectory plus a third direction that only the
    first and the last snapshot carry.  Deleting pair column 0 leaves the
    first matrix of the pair with rank 2, below the pair's rank 3."""
    x, _ = linear_trajectory(make_rng(seed), 2, n)
    data = np.zeros((3, n))
    data[:2] = x
    data[2, 0] = 1.0
    data[2, -1] = 0.5
    return snapshots_from_array(data)
