"""The QR-compressed decomposition against the D-row reference pipeline.

exact_dmd factors the snapshots once, and it and leave_one_out work on
the R factor; orthogonal invariance makes that exact up to round-off, which
these tests bound on tidal oracles.  They also hold the memory of one
decomposition and of 30 trials to a small multiple of the data.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from koopmode.dmd import DmdOptions, exact_dmd, modified_options
from koopmode.errors import NumericalError
from koopmode.grids import SnapshotMatrix, scalar_layout
from koopmode.oracle import PROFILE_POLICIES, generate, tidal_spec
from koopmode.ranking import leave_one_out

from conftest import make_rng
from dspace_reference import (reference_exact_dmd, reference_operator_norm,
                              reference_trial_gap, reference_trial_mu, regression_pair)


def nearest(mu: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Index of the nearest reference eigenvalue for each eigenvalue.

    Round-off may swap the two members of a conjugate pair in the result
    order, so eigenvalues are matched by position in the plane.
    """
    match = np.abs(mu[:, None] - ref[None, :]).argmin(axis=1)
    assert np.unique(match).size == mu.size, "eigenvalues do not match one to one"
    return match


def assert_spectra_match(mu, ref, tol=1e-10):
    assert mu.shape == ref.shape
    match = nearest(mu, ref)
    assert np.abs(mu - ref[match]).max() <= tol
    return match


def mode_tolerance(snap, opts, ref_mu: np.ndarray) -> np.ndarray:
    """1e-10 per mode, raised where the eigenvector's sensitivity to
    round-off, s = ||K||_2 / gap, exceeds 30: K is the reference's
    reduced operator and gap the distance to the nearest other
    eigenvalue.  Near a collision, or for a non-normal K even at a gap
    near the spectral radius, an eigenvector moves with s."""
    gap = np.abs(ref_mu[:, None] - ref_mu[None, :])
    np.fill_diagonal(gap, np.inf)
    s = reference_operator_norm(snap, opts) / gap.min(axis=1)
    return 1e-10 * np.maximum(1.0, s / 30.0)


def mode_errors(modes: np.ndarray, ref_modes: np.ndarray) -> np.ndarray:
    """The largest entry of each mode's difference from the reference's,
    once the reference is turned by the unit factor nearest the mode.  A
    mode carries the phase of its amplitude, which is as well determined
    as the amplitude, not as the eigenvector: the amplitude checks
    compare that phase through the products phi * b."""
    align = np.sum(ref_modes.conj() * modes, axis=0)
    unit = np.divide(align, np.abs(align), out=np.ones_like(align), where=align != 0)
    return np.abs(modes - ref_modes * unit).max(axis=0)


def trial_tolerance(snap, opts, omitted: int) -> float:
    """1e-10 for a leave-one-out trial's spectrum, raised to eps / gap
    where a truncation the trial makes sits in a relative singular-value
    gap below eps / 1e-10 = 2.2e-6 (reference_trial_gap).  Round-off
    turns the kept subspace by about eps / gap, and the eigenvalues of
    the operator restricted to it move with it."""
    return max(1e-10, np.finfo(float).eps / reference_trial_gap(snap, opts, omitted))


def parallel_groups(modes: np.ndarray, cos: float = 0.99) -> list[np.ndarray]:
    """Groups of unit modes linked by |<phi_i, phi_j>| >= cos."""
    _, labels = connected_components(np.abs(modes.conj().T @ modes) >= cos)
    return [np.flatnonzero(labels == g) for g in np.unique(labels)]


def check_against_reference(seed, wide, remove_mean, b_fit, use_tlsq, normalize):
    """The body of test_qr_path_matches_dspace_reference."""
    n = 40
    d = 3 * n if wide else 25
    snap, _ = generate(tidal_spec(d=d, n=n, noise_sigma=1e-3, seed=seed))
    opts = DmdOptions(r=16 if remove_mean else 17, use_tlsq=use_tlsq, normalize_columns=normalize,
                      remove_mean=remove_mean, b_fit=b_fit)
    ref = reference_exact_dmd(snap, opts)
    res = exact_dmd(snap, opts)

    match = assert_spectra_match(res.mu, ref.mu)
    m = match.tolist()
    assert [None if p is None else m[p] for p in res.partner] == [ref.partner[i] for i in m]
    tol = mode_tolerance(snap, opts, ref.mu)
    assert np.all(mode_errors(res.modes, ref.modes[:, match]) <= tol[match])
    # a noise-level amplitude moves with the 1e-10 mode differences above,
    # so each bound has a floor of 1e-13 of the largest amplitude
    floor = 1e-13 * np.abs(ref.b).max()
    at = np.argsort(match)  # res position of each reference mode
    for group in parallel_groups(ref.modes):
        if group.size == 1:
            ref_b, b = ref.b[group], res.b[at[group]]
            b_tol = 1e-8 * np.abs(ref_b) + floor
            assert np.all(np.abs(b - ref_b) <= b_tol)
            # the modes carry the phase of the amplitudes they are scaled by
            got, want = res.modes[:, at[group]] * b, ref.modes[:, group] * ref_b
            assert np.linalg.norm(got - want) <= b_tol[0] + np.sqrt(d) * tol[group[0]] * abs(ref_b[0])
        else:
            # nearly parallel modes share what the fit determines, their
            # superposition, not each amplitude on its own
            ref_sum = ref.modes[:, group] @ ref.b[group]
            got = res.modes[:, at[group]] @ res.b[at[group]]
            assert np.linalg.norm(got - ref_sum) <= 1e-8 * np.linalg.norm(ref_sum) + floor
    assert np.allclose(res.singular_values, ref.singular_values,
                       rtol=0, atol=1e-13 * ref.singular_values[0])

    loo = leave_one_out(res, trials=3, seed=seed)
    for trial in loo.trials:
        assert_spectra_match(trial.mu, reference_trial_mu(snap, opts, trial.omitted_column),
                             trial_tolerance(snap, opts, trial.omitted_column))
    # a trial fails exactly where the reference fails
    for failure in loo.failures:
        with pytest.raises(NumericalError):
            reference_trial_mu(snap, opts, failure.omitted_column)


@given(seed=st.integers(0, 10_000),
       wide=st.booleans(),
       remove_mean=st.booleans(),
       b_fit=st.sampled_from(["first", "multi:2", "multi:5", "multi:10"]),
       use_tlsq=st.booleans(),
       normalize=st.booleans())
@example(seed=7406, wide=True, remove_mean=True, b_fit="multi:2", use_tlsq=False,
         normalize=True)
@example(seed=1963, wide=False, remove_mean=False, b_fit="first", use_tlsq=True,
         normalize=False)
# Beyond a fixed 1e-10 mode bound: a fast eigenvalue (|mu| = 0.0016) of a
# non-normal reduced operator (324), and two more with ||K||_2 / gap
# near 5e3 (5410, 710).
@example(seed=324, wide=False, remove_mean=True, b_fit="multi:5", use_tlsq=True,
         normalize=True)
@example(seed=5410, wide=False, remove_mean=True, b_fit="first", use_tlsq=True,
         normalize=True)
@example(seed=710, wide=False, remove_mean=True, b_fit="first", use_tlsq=True,
         normalize=False)
# Two modes with |<phi_1, phi_2>| = 0.99974: their amplitudes are
# ill-conditioned, their superposition is not.
@example(seed=4473, wide=True, remove_mean=False, b_fit="multi:10", use_tlsq=False,
         normalize=True)
# A trial (omitting pair column 18) whose conjugate pair -0.698 +- 1.8e-4i
# is about to collide: a one-ulp change of the centered data moves it by
# ~5e-10, so the factor must round as the centered data's own QR does.
@example(seed=1924, wide=False, remove_mean=True, b_fit="first", use_tlsq=True,
         normalize=False)
# A trial (omitting pair column 21) whose TLSQ truncation sits in a gap
# of 1.6e-7 sigma_1 (sigma_17 = 1.663e-3, sigma_18 = 1.662e-3): its
# spectrum differs from the reference's by 2.5e-10, within eps / gap.
@example(seed=1278, wide=False, remove_mean=False, b_fit="first", use_tlsq=True,
         normalize=True)
@settings(max_examples=40, deadline=None)
def test_qr_path_matches_dspace_reference(seed, wide, remove_mean, b_fit, use_tlsq,
                                          normalize):
    """D > N (wide) and D < N tidal oracles, every option switch, at the
    rank of the signal: the oracle's 17 modes, 16 once centering has
    removed the constant one.  A rank that cuts through the signal, or
    one that adds a noise mode, leaves eigenpairs that move by ~1e-10
    under any round-off, an orthogonal rotation of the reference's input
    included.  The mode bound grows with each eigenvector's sensitivity
    (mode_tolerance), a trial's spectrum bound with the gaps at its
    truncations (trial_tolerance).  A mode carries its amplitude's
    phase, so modes are compared up to a unit factor (mode_errors) and
    each product phi * b against the reference's, nearly parallel modes
    by their superposition (parallel_groups)."""
    check_against_reference(seed, wide, remove_mean, b_fit, use_tlsq, normalize)


@given(seed=st.integers(0, 10_000),
       d=st.sampled_from([20, 30, 120]),
       n=st.sampled_from([24, 40]),
       noise=st.sampled_from([0.0, 1e-6, 1e-3]),
       profile=st.sampled_from(PROFILE_POLICIES),
       remove_mean=st.booleans())
@settings(max_examples=60, deadline=None)
def test_data_rank_from_r_equals_dspace_matrix_rank(seed, d, n, noise, profile,
                                                    remove_mean):
    """The data rank counted on R[:, :-1] is numpy's matrix_rank of the
    D-row regression matrix, centered under mean removal: D < N and
    D > N, a clean oracle (rank 17, or 16 centered) and noisy ones."""
    snap, _ = generate(tidal_spec(d=d, n=n, noise_sigma=noise, seed=seed, profile=profile))
    opts = DmdOptions(r=1, remove_mean=remove_mean)
    x1, _, _, _ = regression_pair(snap, opts)
    assert exact_dmd(snap, opts).data_rank == np.linalg.matrix_rank(x1)


def test_data_rank_tolerance_keeps_the_d_row_dimension():
    """A singular value of 3e-14 * sigma_1 lies below matrix_rank's
    tolerance for the 300 x 11 regression matrix (300 * eps = 6.7e-14)
    but above that of an 11 x 11 R pair (11 * eps = 2.4e-15): the count
    on R must use D."""
    rng = make_rng(11)
    d, n = 300, 12
    u, _ = np.linalg.qr(rng.standard_normal((d, n - 1)))
    v, _ = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))
    sigma = np.r_[np.logspace(0, -3, n - 2), 3e-14]
    x1 = (u * sigma) @ v.T
    snap = SnapshotMatrix(np.c_[x1, x1[:, -1]], dt=1.0, t0=0.0, layout=scalar_layout(d))
    assert np.linalg.matrix_rank(x1) == n - 2
    assert exact_dmd(snap, DmdOptions(r=1)).data_rank == n - 2


def test_fast_spurious_mode_leaves_two_snapshot_fit_full_rank():
    """A spurious mode growing as mu**n inflates the largest singular
    value of the stacked multi:2 amplitude system.  The fit scales its
    columns first, so the trial omitting pair column 37 no longer reads
    as rank deficient (13 < 16) and matches the reference trial."""
    snap, _ = generate(tidal_spec(d=25, n=40, noise_sigma=1e-3, seed=1767))
    opts = DmdOptions(r=16, use_tlsq=True, normalize_columns=True, remove_mean=True,
                      b_fit="multi:2")
    loo = leave_one_out(exact_dmd(snap, opts), trials=39)  # every pair column once
    assert loo.failures == ()
    trial = next(t for t in loo.trials if t.omitted_column == 37)
    assert_spectra_match(trial.mu, reference_trial_mu(snap, opts, 37))


def test_graded_columns_keep_relative_accuracy_on_r():
    """Columns scaled over 1e-12..1: the singular values of the R-factor
    pair agree with those of the D-row pipeline entry by entry, the
    small ones to 1e-10 relative."""
    rng = make_rng(5)
    d, n = 300, 24
    basis, _ = np.linalg.qr(rng.standard_normal((d, n)))
    data = (basis @ rng.standard_normal((n, n))) * np.logspace(0, -12, n)[None, :]
    snap = SnapshotMatrix(data, dt=1.0, t0=0.0, layout=scalar_layout(d))
    opts = DmdOptions(r=n - 1)
    ref = reference_exact_dmd(snap, opts)
    res = exact_dmd(snap, opts)
    assert res.singular_values[-1] < 1e-11 * res.singular_values[0]
    assert np.allclose(res.singular_values, ref.singular_values, rtol=1e-10, atol=0)
    assert_spectra_match(res.mu, ref.mu)


@pytest.fixture(scope="module")
def ocean_sized():
    """D = 20000, N = 144 tidal oracle: 23 MB of float64 snapshots."""
    snap, _ = generate(tidal_spec(d=20000, n=144, noise_sigma=1e-3, seed=0))
    return snap


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_dmd_peak_memory_within_three_times_data(ocean_sized):
    peak = traced_peak(lambda: exact_dmd(ocean_sized, modified_options(17)))
    assert peak <= 3 * ocean_sized.data.nbytes


def test_leave_one_out_peak_memory_within_three_times_data(ocean_sized):
    peak = traced_peak(
        lambda: leave_one_out(exact_dmd(ocean_sized, modified_options(17)), trials=30))
    assert peak <= 3 * ocean_sized.data.nbytes
