"""Mode ranking: windowed RMS weights, persistence cuts, spectral kernel
densities, leave-one-out robustness, and density clustering."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmode.dmd import DmdOptions, exact_dmd
from koopmode.errors import NumericalError
from koopmode.grids import velocity_layout
from koopmode import ranking
from koopmode.ranking import (CLUSTER_BANDWIDTH, KDE_MAX_CELLS, KdeDensity,
                              build_mode_table, cluster_eigenvalues,
                              component_rms, half_life_cutoff, kde_eval,
                              kde_grid, leave_one_out, persistence_filter,
                              rms_contribution, robustness_scores)

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


# ----------------------------------------------------------- leave-one-out

def loo_setup(seed=7, d=6, n=24, r=6):
    rng = make_rng(seed)
    x, _ = linear_trajectory(rng, d, n)
    snap = snapshots_from_array(x)
    return snap, DmdOptions(r=r)


def test_loo_deterministic():
    snap, opts = loo_setup()
    a = leave_one_out(snap, opts, trials=10, seed=3)
    b = leave_one_out(snap, opts, trials=10, seed=3)
    assert [t.omitted_column for t in a.trials] == [t.omitted_column for t in b.trials]
    assert np.array_equal(a.pooled(), b.pooled())
    c = leave_one_out(snap, opts, trials=10, seed=4)
    assert [t.omitted_column for t in a.trials] != [t.omitted_column for t in c.trials]


def test_loo_unique_columns_within_budget():
    snap, opts = loo_setup(n=24)
    cols = snap.n - 1
    res = leave_one_out(snap, opts, trials=cols, seed=0)
    omitted = [t.omitted_column for t in res.trials]
    assert sorted(omitted) == list(range(cols))
    # beyond the budget every column appears at least once
    res2 = leave_one_out(snap, opts, trials=cols + 5, seed=0)
    omitted2 = [t.omitted_column for t in res2.trials]
    assert set(omitted2) == set(range(cols))
    assert len(omitted2) == cols + 5


def test_loo_caps_rank_to_reduced_columns():
    rng = make_rng(2)
    x, _ = linear_trajectory(rng, 4, 5)  # pair has 4 columns
    snap = snapshots_from_array(x)
    res = leave_one_out(snap, DmdOptions(r=4), trials=3, seed=0)
    assert res.base.r == 4
    assert all(t.mu.size == 3 for t in res.trials)


def test_loo_pooled_closed_and_scores_flat():
    """Noiseless trials reproduce the spectrum exactly, so every base
    eigenvalue collects the same pooled density."""
    snap, opts = loo_setup(seed=11, d=6, n=30)
    res = leave_one_out(snap, opts, trials=12, seed=1)
    for t in res.trials:  # each trial spectrum is closed under conjugation
        assert np.array_equal(np.sort(t.mu), np.sort(t.mu.conj()))
    scores = robustness_scores(res.base.mu, res)
    assert scores.shape == (res.base.r,)
    assert scores.max() <= scores.min() * 1.01


def test_loo_rejects_bad_budget():
    snap, opts = loo_setup()
    with pytest.raises(ValueError, match="trial"):
        leave_one_out(snap, opts, trials=0)


def test_loo_records_failed_trial_and_goes_on():
    snap = rank_critical_snapshots()
    cols = snap.n - 1
    res = leave_one_out(snap, DmdOptions(r=3), trials=cols, seed=0)
    assert [f.omitted_column for f in res.failures] == [0]
    assert "rank deficiency" in res.failures[0].message
    assert sorted(t.omitted_column for t in res.trials) == list(range(1, cols))
    assert res.pooled().size == 3 * (cols - 1)


def test_loo_raises_when_every_trial_fails():
    snap = rank_critical_snapshots()
    # seed 23 draws pair column 0 for a single trial
    with pytest.raises(NumericalError, match="all 1 leave-one-out trials failed.*column 0"):
        leave_one_out(snap, DmdOptions(r=3), trials=1, seed=23)


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


def test_cluster_weights_override_counts():
    mus = two_group_spectrum()
    w = np.array([1.0, 1.0, 1.0, 10.0, 10.0])
    labels = cluster_eigenvalues(mus, weights=w)
    assert labels[:3] == [2, 2, 2]
    assert labels[3:] == [1, 1]


def test_unclustered_point_gets_none():
    pooled = np.repeat(two_group_spectrum()[:3], 20)
    base = np.concatenate([two_group_spectrum()[:3], [0.2 + 0.1j]])
    labels = cluster_eigenvalues(base, pooled)
    assert labels[:3] == [1, 1, 1]
    assert labels[3] is None


def test_cluster_empty_input():
    assert cluster_eigenvalues(np.array([])) == []


def test_cluster_level_validation():
    with pytest.raises(ValueError, match="level_fraction"):
        cluster_eigenvalues(two_group_spectrum(), level_fraction=0.0)


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


