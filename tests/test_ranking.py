"""Mode ranking: windowed RMS weights, persistence cuts, spectral kernel
densities, leave-one-out robustness, and density clustering."""
import itertools
import math
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import ndimage

from koopmode.cli import main
from koopmode.dmd import DmdOptions, exact_dmd
from koopmode.errors import NumericalError
from koopmode.grids import velocity_layout
from koopmode import _workers, ranking
from koopmode.ranking import (CLUSTER_BANDWIDTH, KDE_MAX_CELLS, KdeDensity,
                              build_mode_table, cluster_eigenvalues,
                              component_rms, half_life_cutoff, kde_eval,
                              kde_grid, label_clusters, leave_one_out,
                              persistence_filter, rms_contribution,
                              robustness_scores)

from conftest import (linear_trajectory, make_rng, rank_critical_snapshots,
                      snapshots_from_array)


# ------------------------------------------------------------ rms weight

def quadrature_rms(b, sigma, t_window, panels=200_000):
    t = np.linspace(0.0, t_window, panels + 1)
    y = (abs(b) * np.exp(sigma * t)) ** 2
    return math.sqrt(np.trapezoid(y, t) / t_window)


@pytest.mark.parametrize("sigma_t", [-5.0, -1.0, 1.0, 5.0])
def test_rms_matches_quadrature(sigma_t):
    t_window = 143.0
    sigma = sigma_t / t_window
    closed = rms_contribution(2.0 + 1.0j, complex(sigma, 0.7), t_window)
    assert closed == pytest.approx(quadrature_rms(2.0 + 1.0j, sigma, t_window),
                                   rel=1e-6)


def test_rms_neutral_limit():
    assert rms_contribution(3.0 + 4.0j, 0.0 + 1.0j, 143.0) == 5.0
    tiny = rms_contribution(3.0 + 4.0j, complex(1e-12, 1.0), 143.0)
    assert tiny == 5.0  # below the series cutoff the limit value is used


def test_rms_rejects_bad_window():
    with pytest.raises(ValueError, match="window"):
        rms_contribution(1.0, 0.1 + 0j, 0.0)


def test_rms_beyond_float_range_is_inf():
    # mu = 15 over a 143 h window: exp(2 sigma T) overflows a float
    assert rms_contribution(1.0, complex(math.log(15.0), 0.2), 143.0) == math.inf
    assert rms_contribution(1.0, complex(-math.log(15.0), 0.2), 143.0) < 1.0


@given(bmag=st.floats(0.01, 10), sigma_t=st.floats(-6, 6))
@settings(max_examples=80, deadline=None)
def test_rms_envelope_properties(bmag, sigma_t):
    t_window = 100.0
    gamma = complex(sigma_t / t_window, 0.3)
    val = rms_contribution(bmag, gamma, t_window)
    # scales linearly with |b|
    assert rms_contribution(2 * bmag, gamma, t_window) == pytest.approx(2 * val)
    # growing envelopes weigh more than |b|, decaying ones less
    if sigma_t > 1e-6:
        assert val > bmag
    elif sigma_t < -1e-6:
        assert val < bmag


def test_component_rms_bounded_by_total(rng):
    phi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    phi = phi / np.linalg.norm(phi)
    gamma = complex(-0.01, 0.5)
    total = rms_contribution(1.5, gamma, 50.0)
    part = component_rms(phi[:5], 1.5, gamma, 50.0)
    assert part <= total + 1e-12
    full = component_rms(phi, 1.5, gamma, 50.0)
    assert full == pytest.approx(total, rel=1e-12)


# ----------------------------------------------------------- persistence

def test_persistence_boundary():
    t_window = 143.0
    sigma_cut = math.log(0.1) / t_window
    assert persistence_filter(complex(sigma_cut, 1.0), t_window)
    assert not persistence_filter(complex(sigma_cut * (1 + 1e-9), 1.0), t_window)
    assert persistence_filter(complex(sigma_cut * (1 - 1e-9), 1.0), t_window)
    assert persistence_filter(0.0 + 1.0j, t_window)
    assert persistence_filter(0.05 + 0j, t_window)  # growth always survives


def test_persistence_beyond_float_range():
    # gamma.real * T far past the exp overflow at 709
    assert persistence_filter(complex(10.0, 0.3), 1000.0)
    assert not persistence_filter(complex(-10.0, 0.3), 1000.0)


def test_persistence_validation():
    with pytest.raises(ValueError, match="window"):
        persistence_filter(0j, -1.0)
    with pytest.raises(ValueError, match="factor"):
        persistence_filter(0j, 1.0, factor=1.0)


def test_half_life_cutoff_reference():
    cut = half_life_cutoff(143.0, 0.1)
    assert cut == pytest.approx(143.0 * math.log(2) / math.log(0.1))
    assert cut == pytest.approx(-43.047, abs=5e-4)
    # a mode whose half-life sits exactly at the cutoff is the slowest
    # non-survivor boundary: it still passes the filter there
    sigma = math.log(2) / cut
    assert persistence_filter(complex(sigma, 0.2), 143.0)


# ------------------------------------------------------------------- kde

def test_kde_single_point_peak():
    h = 2e-3
    d = KdeDensity(points=np.array([0.5 + 0.5j]), weights=np.array([1.0]),
                   bandwidth=h)
    assert kde_eval(d, 0.5 + 0.5j) == pytest.approx(1.0 / (math.pi * h ** 2))
    # one bandwidth away the kernel drops by e
    away = kde_eval(d, 0.5 + 0.5j + h)
    assert away == pytest.approx(math.exp(-1.0) / (math.pi * h ** 2))


def test_kde_raw_and_normalized():
    h = 0.1
    d = KdeDensity(points=np.array([0j, 1 + 0j]),
                   weights=np.array([2.0, 1.0]), bandwidth=h)
    raw = kde_eval(d, 0j, normalized=False)
    assert raw == pytest.approx(2.0 + math.exp(-1.0 / h ** 2), rel=1e-12)
    assert kde_eval(d, 0j) == pytest.approx(raw / d.normalization)
    assert d.normalization == pytest.approx(3.0 * math.pi * h ** 2)


def test_kde_validation():
    with pytest.raises(ValueError, match="point"):
        KdeDensity(points=np.array([]), weights=np.array([]), bandwidth=0.1)
    with pytest.raises(ValueError, match="length"):
        KdeDensity(points=np.array([0j]), weights=np.array([1.0, 2.0]),
                   bandwidth=0.1)
    with pytest.raises(ValueError, match="non-negative"):
        KdeDensity(points=np.array([0j]), weights=np.array([-1.0]),
                   bandwidth=0.1)
    with pytest.raises(ValueError, match="positive"):
        KdeDensity(points=np.array([0j]), weights=np.array([0.0]),
                   bandwidth=0.1)
    with pytest.raises(ValueError, match="bandwidth"):
        KdeDensity(points=np.array([0j]), weights=np.array([1.0]),
                   bandwidth=0.0)


def test_kde_grid_matches_pointwise(rng):
    pts = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) * 0.02
    w = rng.uniform(0.5, 2.0, 6)
    d = KdeDensity(points=pts, weights=w, bandwidth=2.5e-2)
    re_axis, im_axis, vals = kde_grid(d)
    assert re_axis[1] - re_axis[0] == pytest.approx(d.bandwidth / 4)
    # direct evaluation at a block of grid nodes agrees with the raster
    ii = np.arange(0, re_axis.size, 7)
    jj = np.arange(0, im_axis.size, 7)
    q = re_axis[ii][:, None] + 1j * im_axis[jj][None, :]
    direct = kde_eval(d, q)
    assert np.allclose(vals[np.ix_(ii, jj)], direct, rtol=1e-10, atol=1e-12)


def test_kde_grid_unit_mass(rng):
    pts = (rng.standard_normal(5) + 1j * rng.standard_normal(5)) * 0.01
    d = KdeDensity(points=pts, weights=np.ones(5), bandwidth=2.5e-2)
    re_axis, im_axis, vals = kde_grid(d, margin=8 * d.bandwidth)
    step = re_axis[1] - re_axis[0]
    mass = vals.sum() * step * step
    assert mass == pytest.approx(1.0, abs=1e-3)


def test_kde_grid_covers_extra_points():
    d = KdeDensity(points=np.array([0j]), weights=np.array([1.0]),
                   bandwidth=0.01)
    far = np.array([1.0 + 1.0j])
    re_axis, im_axis, _ = kde_grid(d, extra_points=far)
    assert re_axis[-1] >= 1.0 and im_axis[-1] >= 1.0


def test_kde_grid_refuses_a_box_beyond_the_cell_bound():
    """Two points 100 apart at the cluster bandwidth span 16025 x 16025
    cells (2 GB of float64): an error naming the box, not an allocation."""
    d = KdeDensity(points=np.array([0j, 100 + 100j]), weights=np.ones(2),
                   bandwidth=CLUSTER_BANDWIDTH)
    with pytest.raises(NumericalError, match=r"16025x16025 cells over re \[-0.075"):
        kde_grid(d)


def test_kde_grid_cell_bound_is_inclusive(monkeypatch):
    d = KdeDensity(points=np.array([0j, 1 + 0.5j]), weights=np.ones(2), bandwidth=0.1)
    re_axis, im_axis, _ = kde_grid(d)
    cells = re_axis.size * im_axis.size
    assert cells < KDE_MAX_CELLS
    monkeypatch.setattr(ranking, "KDE_MAX_CELLS", cells)
    assert kde_grid(d)[2].size == cells
    monkeypatch.setattr(ranking, "KDE_MAX_CELLS", cells - 1)
    with pytest.raises(NumericalError, match="h=0.1 exceeds"):
        kde_grid(d)


def brute_kde_grid(density, re_axis, im_axis):
    """kde_grid's raster cell by cell: each point adds
    w exp(-(dre^2 + dim^2) / h^2) to the cells of the square window of
    30 steps (7.5 h) around its nearest node."""
    h = density.bandwidth
    step = h / 4.0
    reach = 30
    i = np.arange(re_axis.size)[:, None]
    j = np.arange(im_axis.size)[None, :]
    values = np.zeros((re_axis.size, im_axis.size))
    for p, w in zip(density.points.tolist(), density.weights.tolist()):
        ci = round((p.real - re_axis[0]) / step)
        cj = round((p.imag - im_axis[0]) / step)
        inside = (abs(i - ci) <= reach) & (abs(j - cj) <= reach)
        d2 = (re_axis[:, None] - p.real) ** 2 + (im_axis[None, :] - p.imag) ** 2
        values += np.where(inside, w * np.exp(-d2 / h ** 2), 0.0)
    return values / density.normalization


@pytest.mark.parametrize("chunk", [1, 4, ranking._KDE_CHUNK])
@pytest.mark.parametrize("case", ["weighted", "clipped", "extra"])
def test_kde_grid_matches_a_brute_force_raster(monkeypatch, chunk, case):
    """The separable, chunked raster is the per-cell sum over each
    point's square window, to 1e-14 of its maximum, and cells that no
    window reaches hold exactly 0."""
    monkeypatch.setattr(ranking, "_KDE_CHUNK", chunk)
    rng = make_rng(5)
    h = CLUSTER_BANDWIDTH
    pts = 0.9 * np.exp(1j * rng.uniform(-3, 3, 9)) * rng.uniform(0.8, 1.0, 9)
    kwargs = {}
    if case == "clipped":  # windows cut by every edge of the raster
        kwargs["margin"] = 0.5 * h
    elif case == "extra":  # a far base eigenvalue leaves cells out of every window
        kwargs["extra_points"] = np.array([1.6 + 1.2j])
    d = KdeDensity(points=pts, weights=rng.uniform(0.1, 3.0, pts.size), bandwidth=h)
    re_axis, im_axis, values = kde_grid(d, **kwargs)
    boxed = np.concatenate([pts, kwargs.get("extra_points", [])])
    margin = kwargs.get("margin", 3 * h)
    assert np.array_equal(re_axis, boxed.real.min() - margin + h / 4 * np.arange(re_axis.size))
    assert np.array_equal(im_axis, boxed.imag.min() - margin + h / 4 * np.arange(im_axis.size))
    ref = brute_kde_grid(d, re_axis, im_axis)
    assert np.abs(values - ref).max() <= 1e-14 * ref.max()
    assert np.array_equal(values == 0, ref == 0)
    if case == "extra":
        assert (ref == 0).any()


def test_kde_grid_working_memory_does_not_grow_with_the_points():
    """100,000 points (and base eigenvalues) on a 345 x 345 raster: the
    peak traced allocation stays below two rasters plus one chunk of
    per-axis factors, so neither the box nor the kernels copy the points."""
    h = CLUSTER_BANDWIDTH
    rng = make_rng(11)
    pts = rng.uniform(0.0, 2.0, 100_000) + 1j * rng.uniform(0.0, 2.0, 100_000)
    d = KdeDensity(points=pts, weights=np.ones(pts.size), bandwidth=h)
    tracemalloc.start()
    try:
        values = kde_grid(d, extra_points=np.array([0.5 + 0.5j, 1.5 + 1j]))[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (345, 345)
    chunk = ranking._KDE_CHUNK * 61 * values.itemsize  # one axis's factors
    assert peak < 2 * values.nbytes + chunk


# ------------------------------------------------------- component labels

def same_partition(labels, reference):
    """Equal supports, and the two labelings pair their ids one to one."""
    if not np.array_equal(labels > 0, reference > 0):
        return False
    on = reference > 0
    pairs = set(zip(labels[on].tolist(), reference[on].tolist()))
    return len(pairs) == np.unique(labels[on]).size == np.unique(reference[on]).size


@given(mask=arrays(np.bool_, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40)))
@example(mask=np.zeros((1, 1), dtype=bool))
@example(mask=np.ones((1, 1), dtype=bool))
@example(mask=np.zeros((40, 40), dtype=bool))
@example(mask=np.ones((40, 40), dtype=bool))
@example(mask=np.ones((7, 40), dtype=bool))
@example(mask=make_rng(45).random((40, 40)) < 0.45)
@example(mask=make_rng(60).random((40, 40)) < 0.6)  # near the percolation threshold
@example(mask=make_rng(80).random((13, 29)) < 0.8)
@settings(max_examples=200, deadline=None)
def test_component_labels_are_the_ndimage_partition(mask):
    assert same_partition(ranking._label_components(mask), ndimage.label(mask)[0])


def spiral(n):
    """A one-cell-wide square spiral on an n x n raster, inward from the
    top-left corner."""
    mask = np.zeros((n, n), dtype=bool)
    i = j = 0
    di, dj = 0, 1
    mask[0, 0] = True
    for length in range(n - 1, 0, -2):
        for _ in range(2):
            for _ in range(length):
                i, j = i + di, j + dj
                mask[i, j] = True
            di, dj = dj, -di
        i, j = i + di, j + dj
        if not (0 <= i < n and 0 <= j < n) or length <= 2:
            break
        mask[i, j] = True
        length -= 1
    return mask


@pytest.mark.parametrize("name", ["single cells", "comb", "nested Us", "spiral", "stairs"])
def test_component_labels_join_runs_through_later_rows(name):
    """Runs whose only link is a row further down, or a diagonal touch,
    which 4-connectivity does not join."""
    if name == "single cells":
        mask = np.zeros((9, 9), dtype=bool)
        mask[::2, ::2] = True
    elif name == "comb":  # six teeth that meet only in the last row
        mask = np.zeros((8, 11), dtype=bool)
        mask[:, ::2] = True
        mask[-1] = True
    elif name == "nested Us":  # three U shapes, one inside the other, apart
        mask = np.zeros((12, 23), dtype=bool)
        for k in range(0, 6, 2):
            mask[:12 - k, k] = mask[:12 - k, 22 - k] = True
            mask[11 - k, k:23 - k] = True
    elif name == "spiral":
        mask = spiral(25)
    else:  # cells that touch only at corners stay apart
        mask = np.eye(10, dtype=bool) | np.eye(10, k=2, dtype=bool)
    labels = ranking._label_components(mask)
    reference, count = ndimage.label(mask)
    assert same_partition(labels, reference)
    assert np.unique(labels[mask]).size == count


# ----------------------------------------------------------- leave-one-out

def loo_setup(seed=7, d=6, n=24, r=6):
    rng = make_rng(seed)
    x, _ = linear_trajectory(rng, d, n)
    snap = snapshots_from_array(x)
    return snap, DmdOptions(r=r)


def test_loo_deterministic():
    snap, opts = loo_setup()
    a = leave_one_out(exact_dmd(snap, opts), trials=10, seed=3)
    b = leave_one_out(exact_dmd(snap, opts), trials=10, seed=3)
    assert [t.omitted_column for t in a.trials] == [t.omitted_column for t in b.trials]
    assert np.array_equal(a.pooled(), b.pooled())
    c = leave_one_out(exact_dmd(snap, opts), trials=10, seed=4)
    assert [t.omitted_column for t in a.trials] != [t.omitted_column for t in c.trials]


def test_loo_unique_columns_within_budget():
    snap, opts = loo_setup(n=24)
    cols = snap.n - 1
    res = leave_one_out(exact_dmd(snap, opts), trials=cols, seed=0)
    omitted = [t.omitted_column for t in res.trials]
    assert sorted(omitted) == list(range(cols))
    # beyond the budget every column appears at least once
    res2 = leave_one_out(exact_dmd(snap, opts), trials=cols + 5, seed=0)
    omitted2 = [t.omitted_column for t in res2.trials]
    assert set(omitted2) == set(range(cols))
    assert len(omitted2) == cols + 5


@given(cols=st.one_of(st.integers(1, 1100), st.integers(1, 30_000)),
       trials=st.integers(1, 1100), seed=st.one_of(st.integers(0, 100), st.integers(0, 2**128)))
@example(cols=1, trials=1100, seed=1)
@example(cols=1100, trials=1100, seed=0)
@example(cols=30_000, trials=1100, seed=2**128)
@settings(max_examples=300, deadline=None)
def test_draws_keep_their_contract(cols, trials, seed):
    """Every drawn column lies in range; while the budget allows they are
    distinct, and beyond it a permutation of every column comes first,
    then repeats; a seed draws the same list each time."""
    drawn = ranking._draw_omitted(cols, trials, seed)
    assert len(drawn) == trials
    assert all(0 <= c < cols for c in drawn)
    if trials <= cols:
        assert len(set(drawn)) == trials
    else:
        assert sorted(drawn[:cols]) == list(range(cols))
    assert ranking._draw_omitted(cols, trials, seed) == drawn


def test_draws_are_pinned():
    """A change of the draws changes this list: every column once, then
    three repeats."""
    assert ranking._draw_omitted(11, 14, 0) == [9, 8, 5, 2, 7, 4, 0, 1, 6, 10, 3, 5, 3, 8]
    with pytest.raises(ValueError, match="seed"):
        ranking._draw_omitted(11, 14, -1)


def test_loo_caps_rank_to_reduced_columns():
    rng = make_rng(2)
    x, _ = linear_trajectory(rng, 4, 5)  # pair has 4 columns
    snap = snapshots_from_array(x)
    base = exact_dmd(snap, DmdOptions(r=4))
    res = leave_one_out(base, trials=3, seed=0)
    assert base.r == 4
    assert all(t.mu.size == 3 for t in res.trials)


def test_loo_pooled_closed_and_scores_flat():
    """Noiseless trials reproduce the spectrum exactly, so every base
    eigenvalue collects the same pooled density."""
    snap, opts = loo_setup(seed=11, d=6, n=30)
    base = exact_dmd(snap, opts)
    res = leave_one_out(base, trials=12, seed=1)
    for t in res.trials:  # each trial spectrum is closed under conjugation
        assert np.array_equal(np.sort(t.mu), np.sort(t.mu.conj()))
    scores = robustness_scores(base.mu, res)
    assert scores.shape == (base.r,)
    assert scores.max() <= scores.min() * 1.01


def test_loo_rejects_bad_budget():
    snap, opts = loo_setup()
    with pytest.raises(ValueError, match="trial"):
        leave_one_out(exact_dmd(snap, opts), trials=0)
    with pytest.raises(ValueError, match="seed"):
        leave_one_out(exact_dmd(snap, opts), seed=-1)


def test_loo_records_failed_trial_and_goes_on():
    snap = rank_critical_snapshots()
    cols = snap.n - 1
    res = leave_one_out(exact_dmd(snap, DmdOptions(r=3)), trials=cols, seed=0)
    assert [f.omitted_column for f in res.failures] == [0]
    assert "rank deficiency" in res.failures[0].message
    assert sorted(t.omitted_column for t in res.trials) == list(range(1, cols))
    assert res.pooled().size == 3 * (cols - 1)


def test_loo_raises_when_every_trial_fails():
    snap = rank_critical_snapshots()
    seed = next(s for s in itertools.count() if ranking._draw_omitted(snap.n - 1, 1, s) == [0])
    with pytest.raises(NumericalError, match="all 1 leave-one-out trials failed.*column 0"):
        leave_one_out(exact_dmd(snap, DmdOptions(r=3)), trials=1, seed=seed)


# ------------------------------------------------ leave-one-out on many CPUs

# The tests below fork from the test process, whose BLAS may run a thread
# pool, which leave_one_out itself never forks from; Python >= 3.12 warns
# on such a fork.
forks_beside_threads = pytest.mark.filterwarnings(
    "ignore:This process .* is multi-threaded:DeprecationWarning")


def on_cpus(monkeypatch, count):
    """Make leave_one_out and exact_dmd see an affinity set of count CPUs
    and no other thread, and count their forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(_workers, "_threads", lambda: 1)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def loo_records(res):
    """The trials and failures of a leave-one-out result, comparable bit for bit."""
    return ([(t.omitted_column, t.mu.dtype, t.mu.tobytes()) for t in res.trials],
            [(f.omitted_column, f.message) for f in res.failures])


@forks_beside_threads
@pytest.mark.parametrize("case", ["linear", "rank-critical"])
def test_loo_on_1_2_and_3_cpus_gives_the_serial_records(monkeypatch, case):
    """The same trials, failures, messages and order on any CPU count; one
    CPU forks nothing, w CPUs fork w - 1 workers."""
    if case == "linear":
        snap, opts = loo_setup()
    else:  # the trial omitting pair column 0 fails
        snap, opts = rank_critical_snapshots(), DmdOptions(r=3)
    base = exact_dmd(snap, opts)
    got = {}
    for cpus in (1, 2, 3):
        forks = on_cpus(monkeypatch, cpus)
        got[cpus] = loo_records(leave_one_out(base, trials=snap.n - 1, seed=5))
        assert len(forks) == cpus - 1
        assert_no_child_left()
    assert got[1] == got[2] == got[3]
    assert len(got[1][0]) + len(got[1][1]) == snap.n - 1
    assert bool(got[1][1]) == (case == "rank-critical")


@forks_beside_threads
def test_loo_on_many_cpus_raises_the_serial_error_when_every_trial_fails(monkeypatch):
    snap, opts = loo_setup()
    base = exact_dmd(snap, opts)

    def fail(result, column):
        raise NumericalError(f"no spectrum without column {column}")
    monkeypatch.setattr(ranking, "deletion_spectrum", fail)
    messages = set()
    for cpus in (1, 2, 3):
        on_cpus(monkeypatch, cpus)
        with pytest.raises(NumericalError, match="all 10 leave-one-out trials failed"
                           ) as exc:
            leave_one_out(base, trials=10, seed=3)
        messages.add(str(exc.value))
        assert_no_child_left()
    assert len(messages) == 1


@forks_beside_threads
def test_loo_raises_the_first_other_error_in_draw_order(monkeypatch):
    """Draws 4 and 7 raise ValueError: on 2 CPUs the parent's and the
    worker's, on 3 CPUs those of two workers.  Every CPU count raises draw
    4's, as a serial run does."""
    snap, opts = loo_setup()
    base = exact_dmd(snap, opts)
    drawn = ranking._draw_omitted(snap.n - 1, 10, 3)
    spectrum = ranking.deletion_spectrum

    def flaky(result, column):
        if column in (drawn[4], drawn[7]):
            raise ValueError(f"bad column {column}")
        return spectrum(result, column)
    monkeypatch.setattr(ranking, "deletion_spectrum", flaky)
    for cpus in (1, 2, 3):
        on_cpus(monkeypatch, cpus)
        with pytest.raises(ValueError, match=f"^bad column {drawn[4]}$"):
            leave_one_out(base, trials=10, seed=3)
        assert_no_child_left()


@forks_beside_threads
def test_loo_recomputes_the_stride_of_a_killed_worker(monkeypatch):
    snap, opts = loo_setup()
    base = exact_dmd(snap, opts)
    on_cpus(monkeypatch, 1)
    serial = loo_records(leave_one_out(base, trials=10, seed=3))
    parent = os.getpid()
    spectrum = ranking.deletion_spectrum

    def killed_in_a_worker(result, column):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return spectrum(result, column)
    monkeypatch.setattr(ranking, "deletion_spectrum", killed_in_a_worker)
    for cpus in (2, 3):
        forks = on_cpus(monkeypatch, cpus)
        assert loo_records(leave_one_out(base, trials=10, seed=3)) == serial
        assert len(forks) == cpus - 1
        assert_no_child_left()


@forks_beside_threads
def test_loo_ends_its_workers_when_the_parent_is_interrupted(monkeypatch):
    snap, opts = loo_setup()
    base = exact_dmd(snap, opts)
    parent = os.getpid()
    spectrum = ranking.deletion_spectrum

    def interrupted_in_the_parent(result, column):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return spectrum(result, column)
    monkeypatch.setattr(ranking, "deletion_spectrum", interrupted_in_the_parent)
    forks = on_cpus(monkeypatch, 3)
    with pytest.raises(KeyboardInterrupt):
        leave_one_out(base, trials=10, seed=3)
    assert len(forks) == 2
    assert_no_child_left()


def test_loo_runs_serially_when_no_worker_can_start(monkeypatch):
    snap, opts = loo_setup()
    base = exact_dmd(snap, opts)
    on_cpus(monkeypatch, 1)
    serial = loo_records(leave_one_out(base, trials=10, seed=3))

    def no_fork():
        raise BlockingIOError("fork refused")
    on_cpus(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", no_fork)
    assert loo_records(leave_one_out(base, trials=10, seed=3)) == serial
    assert_no_child_left()


def test_loo_forks_nothing_beside_another_thread(monkeypatch):
    """A second thread, a Python one here or a BLAS pool, keeps every
    trial in the calling process."""
    snap, opts = loo_setup()
    base = exact_dmd(snap, opts)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside a thread"))
    before = _workers._threads()
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert _workers._threads() == before + 1
        assert _workers._cpus() == []
        res = leave_one_out(base, trials=10, seed=3)
    finally:
        release.set()
        thread.join()
    assert len(res.trials) == 10


def test_loo_with_workers_prints_its_line_once_into_a_pipe(tmp_path):
    """A worker ends with os._exit: it neither flushes the parent's
    buffered stdout nor goes on to run the rest of the command."""
    data = tmp_path / "synth"
    synth = tmp_path / "synth.cfg"
    synth.write_text(f"out = {data}\nsynth_d = 60\nsynth_n = 48\n")
    assert main(["synth", "--config", str(synth)]) == 0
    cfg = tmp_path / "loo.cfg"
    cfg.write_text(f"input = {data / 'oracle.dmds'}\nrank = 17\nloo_trials = 5\n"
                   f"out = {tmp_path / 'loo'}\n")
    code = ("import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "fork, forks = os.fork, []\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "from koopmode.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(len(forks), 'forks', file=sys.stderr)\n"
            "sys.exit(code)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, "loo", "--config", str(cfg)],
                          env=env, capture_output=True, timeout=120, check=True)
    assert proc.stderr.decode() == "2 forks\n"
    loo_lines = [line for line in proc.stdout.decode().splitlines()
                 if line.startswith("loo:")]
    assert len(loo_lines) == 1
    assert loo_lines[0].startswith("loo: 5 trials, 85 pooled eigenvalues, ")


# ------------------------------------------------------------- clustering

def two_group_spectrum(gap_hours=10.0):
    """Eigenvalues of two oscillation families separated in period."""
    dt = 1.0
    mus = []
    for period in (12.0, 12.05, 12.1):  # tight semidiurnal-like family
        mus.append(np.exp(2j * np.pi / period * dt))
    for period in (12.0 + gap_hours, 12.1 + gap_hours):
        mus.append(np.exp(2j * np.pi / period * dt))
    return np.array(mus)


def test_two_groups_two_clusters():
    mus = two_group_spectrum()
    labels = cluster_eigenvalues(mus)
    assert labels[:3] == [1, 1, 1]
    assert labels[3:] == [2, 2]


def cluster_density(points):
    """A unit-weight density at the clustering bandwidth, as
    cluster_eigenvalues forms."""
    return KdeDensity(points=points, weights=np.ones(points.size), bandwidth=CLUSTER_BANDWIDTH)


def test_cluster_weights_override_counts():
    mus = two_group_spectrum()
    density = cluster_density(mus)
    w = np.array([1.0, 1.0, 1.0, 10.0, 10.0])
    labels = label_clusters(density, kde_grid(density), mus, weights=w)
    assert labels[:3] == [2, 2, 2]
    assert labels[3:] == [1, 1]


def test_unclustered_point_gets_none():
    pooled = np.repeat(two_group_spectrum()[:3], 20)
    base = np.concatenate([two_group_spectrum()[:3], [0.2 + 0.1j]])
    density = cluster_density(pooled)
    labels = label_clusters(density, kde_grid(density, extra_points=base), base)
    assert labels[:3] == [1, 1, 1]
    assert labels[3] is None


def test_cluster_empty_input():
    assert cluster_eigenvalues(np.array([])) == []


def test_cluster_level_validation():
    mus = two_group_spectrum()
    density = cluster_density(mus)
    with pytest.raises(ValueError, match="level_fraction"):
        label_clusters(density, kde_grid(density), mus, 0.0)


# ------------------------------------------------------------ mode table

def test_build_mode_table_alignment(rng):
    x, _ = linear_trajectory(rng, 6, 40)
    res = exact_dmd(snapshots_from_array(x), DmdOptions(r=6))
    t_window = 39.0
    infos = build_mode_table(res, t_window)
    assert [i.index for i in infos] == list(range(1, 7))
    partner = res.partner
    for k, info in enumerate(infos):
        assert info.mu == complex(res.mu[k])
        assert info.rms == pytest.approx(
            rms_contribution(complex(res.b[k]), complex(res.gamma[k]), t_window))
        assert info.rms_vertical is None
        expect = None if partner[k] is None else partner[k] + 1
        assert info.conj_partner == expect
        assert info.robustness is None and info.cluster is None


def test_a_pair_has_one_rms_and_one_vertical_rms():
    """Both members of a conjugate pair share b and are conjugate modes,
    so their rows give bitwise-equal rms and rms_vertical: leave-one-out
    weighs a cluster and its mirror alike, and its tie-break numbers
    them."""
    layout = velocity_layout(4, 3, 2, np.ones((2, 3, 4), dtype=bool))
    x = make_rng(11).standard_normal((layout.dim, 40))
    res = exact_dmd(snapshots_from_array(x), DmdOptions(r=20, b_fit="multi:10"))
    infos = build_mode_table(res, 39.0, layout=layout)
    pairs = [(k, p) for k, p in enumerate(res.partner) if p is not None and k < p]
    assert len(pairs) >= 5
    for k, p in pairs:
        assert infos[k].rms == infos[p].rms, (k, p)
        assert infos[k].rms_vertical == infos[p].rms_vertical, (k, p)


def test_build_mode_table_vertical_component():
    rng = make_rng(5)
    layout = velocity_layout(3, 2, 2, np.ones((2, 2, 3), dtype=bool))
    x = rng.standard_normal((layout.dim, 20))
    snap = snapshots_from_array(x)
    res = exact_dmd(snap, DmdOptions(r=4))
    infos = build_mode_table(res, 19.0, layout=layout)
    sel = layout.channel_slice("uz")
    for k, info in enumerate(infos):
        expect = component_rms(res.modes[sel, k], complex(res.b[k]),
                               complex(res.gamma[k]), 19.0)
        assert info.rms_vertical == pytest.approx(expect)


