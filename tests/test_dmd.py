"""Core decomposition pipeline: preprocessing, SVD, eigenstructure,
amplitude fits, ordering, and reconstruction."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmode import dmd
from koopmode.dmd import (DmdOptions, column_normalize, default_fit_indices,
                          exact_dmd, fit_coefficients_multi, mode_time_sum,
                          modified_options, truncated_svd)
from koopmode.errors import NumericalError
from koopmode.grids import SnapshotMatrix, scalar_layout
from koopmode.rom import build_rom, reconstruct_rom

from conftest import linear_trajectory, make_rng, snapshots_from_array
from dspace_reference import fit_coefficients_first
from dspace_reference import fit_coefficients_multi as copying_fit


# ---------------------------------------------------------------- options

def test_options_fit_count_parsing():
    assert DmdOptions(r=3).fit_count() is None
    assert DmdOptions(r=3, b_fit="multi:7").fit_count() == 7
    with pytest.raises(ValueError, match="b_fit"):
        DmdOptions(r=3, b_fit="multi:x")
    with pytest.raises(ValueError, match="count"):
        DmdOptions(r=3, b_fit="multi:1")
    with pytest.raises(ValueError, match="b_fit"):
        DmdOptions(r=3, b_fit="last")
    with pytest.raises(ValueError, match="rank"):
        DmdOptions(r=0)


def test_modified_options_flags():
    opts = modified_options(17)
    assert opts.use_tlsq and opts.normalize_columns
    assert opts.fit_count() == 10


# ---------------------------------------------------------- preprocessing

def test_column_normalize_roundtrip(rng):
    x1 = rng.standard_normal((6, 10))
    x2 = rng.standard_normal((6, 10))
    x1n, x2n, scales = column_normalize(x1, x2)
    assert np.allclose(np.linalg.norm(x1n, axis=0), 1.0, rtol=1e-14)
    assert np.allclose(x1n * scales, x1, rtol=1e-15, atol=0)
    assert np.allclose(x2n * scales, x2, rtol=1e-15, atol=0)


def test_column_normalize_zero_column(rng):
    x1 = rng.standard_normal((4, 5))
    x1[:, 2] = 0.0
    with pytest.raises(NumericalError, match="column 2"):
        column_normalize(x1, rng.standard_normal((4, 5)))


def test_tlsq_energy_identity(rng):
    """The stacked pair keeps exactly the leading singular energy."""
    x1 = rng.standard_normal((6, 12))
    x2 = rng.standard_normal((6, 12))
    z = np.vstack([x1, x2])
    s = np.linalg.svd(z, compute_uv=False)
    for rank in (3, 7, 12):
        v = dmd._tlsq_basis(x1, x2, rank)
        p1, p2 = x1 @ v, x2 @ v
        kept = np.linalg.norm(p1) ** 2 + np.linalg.norm(p2) ** 2
        assert kept == pytest.approx(np.sum(s[:rank] ** 2), rel=1e-12)


def test_tlsq_rank_bounds(rng):
    """_spectrum bounds the rank by D and the pair columns, before the
    TLSQ projection, whose basis only checks the pair's shapes."""
    x1 = rng.standard_normal((4, 6))
    for d, r in ((4, 5), (3, 4), (9, 7)):
        for use_tlsq in (True, False):
            with pytest.raises(ValueError, match=(
                    f"^rank {r} infeasible for a {d}x6 regression matrix; "
                    f"the largest feasible rank is {min(d, 6)}$")):
                dmd._spectrum(x1, x1, d, DmdOptions(r=r, use_tlsq=use_tlsq))
    with pytest.raises(ValueError, match="shape"):
        dmd._tlsq_basis(x1, x1[:, :-1], 2)


# -------------------------------------------------------------------- svd

def test_truncated_svd_orthonormal_and_tail(rng):
    a = rng.standard_normal((8, 6))
    svd = truncated_svd(a, 4)
    assert np.allclose(svd.u.T @ svd.u, np.eye(4), atol=1e-13)
    assert np.allclose(svd.v.T @ svd.v, np.eye(4), atol=1e-13)
    assert svd.sigma.shape == (4,) and svd.sigma_tail.shape == (2,)
    assert np.all(np.diff(svd.singular_values) <= 0)
    # best rank-4 approximation error equals the first discarded value
    err = np.linalg.norm(a - svd.u @ np.diag(svd.sigma) @ svd.v.T, 2)
    assert err == pytest.approx(svd.sigma_tail[0], rel=1e-10)


def test_truncated_svd_graded(rng):
    """A spectrum graded over 1e-12..1 comes back with every singular
    value to 1e-4 relative."""
    q1, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    q2, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    sig = np.logspace(0, -12, 20)
    a = (q1 * sig) @ q2.T
    svd = truncated_svd(a, 20)
    assert np.allclose(svd.sigma, sig, rtol=1e-4)


def test_truncated_svd_rank_bounds(rng):
    a = rng.standard_normal((5, 4))
    with pytest.raises(ValueError, match="rank"):
        truncated_svd(a, 0)
    with pytest.raises(ValueError, match="rank"):
        truncated_svd(a, 5)


# ---------------------------------------------------------- amplitude fit

def test_default_fit_indices_examples():
    idx = default_fit_indices(144, 10)
    assert idx[0] == 0 and idx[-1] == 143
    assert idx.size == 10
    assert np.all(np.diff(idx) > 0)
    # more requested than available collapses to everything
    assert np.array_equal(default_fit_indices(4, 10), [0, 1, 2, 3])
    with pytest.raises(ValueError, match="two"):
        default_fit_indices(10, 1)


@given(n=st.integers(2, 500), count=st.integers(2, 40))
@settings(max_examples=60, deadline=None)
def test_default_fit_indices_properties(n, count):
    idx = default_fit_indices(n, count)
    assert idx[0] == 0 and idx[-1] == n - 1
    assert np.all(np.diff(idx) > 0)
    assert idx.size <= count


def test_fit_multi_matches_first_for_exact_data(rng):
    """On data exactly generated by the modes, the fit over snapshot 0
    and the fit over ten snapshots agree."""
    d, r, n = 12, 4, 20
    modes, _ = np.linalg.qr(rng.standard_normal((d, r))
                            + 1j * rng.standard_normal((d, r)))
    mu = np.exp(1j * rng.uniform(-np.pi, np.pi, r)) * rng.uniform(0.9, 1.0, r)
    b_true = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    data = modes @ (mu[:, None] ** np.arange(n)[None, :] * b_true[:, None])
    b1 = fit_coefficients_multi(modes, mu, data, [0])
    bm = fit_coefficients_multi(modes, mu, data, default_fit_indices(n, 10))
    assert np.allclose(b1, b_true, rtol=1e-10)
    assert np.allclose(bm, b_true, rtol=1e-10)


def test_fit_multi_rejects_bad_indices(rng):
    modes = rng.standard_normal((4, 2)).astype(complex)
    mu = np.array([1.0 + 0j, 0.5 + 0j])
    data = rng.standard_normal((4, 6))
    with pytest.raises(ValueError, match="indices"):
        fit_coefficients_multi(modes, mu, data, [0, 6])
    with pytest.raises(ValueError, match="snapshot"):
        fit_coefficients_multi(modes, mu, data, [])


def test_fit_rank_deficient_modes(rng):
    modes = np.ones((5, 2), dtype=complex)  # two identical columns
    mu = np.array([0.9 + 0.1j, 0.9 - 0.1j])
    with pytest.raises(NumericalError, match="rank deficient"):
        fit_coefficients_multi(modes, mu, rng.standard_normal((5, 3)), [0])


@given(seed=st.integers(0, 10_000), d=st.sampled_from([3, 12, 60]),
       r=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_fit_over_snapshot_zero_is_the_first_snapshot_fit(seed, d, r):
    """The joint fit over the index set [0] is bitwise the least-squares
    fit of complex modes, as a decomposition forms them, to the first
    snapshot alone."""
    rng = make_rng(seed)
    modes = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    mu = rng.uniform(0.5, 1.5, r) * np.exp(1j * rng.uniform(-np.pi, np.pi, r))
    data = rng.standard_normal((d, 4))
    b = fit_coefficients_multi(modes, mu, data, [0])
    ref = fit_coefficients_first(modes, data[:, 0])
    assert b.tobytes() == ref.tobytes()


@st.composite
def fit_systems(draw):
    """Inputs of the amplitude fit: complex modes and eigenvalues, or real
    ones as eig returns for a real spectrum, 1 to 10 fit snapshots, fewer
    rows than modes at times, and columns made zero, equal to another
    (rank deficient) or so large that their squared norm overflows."""
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    rows, r = draw(st.integers(1, 24)), draw(st.sampled_from([1, 2, 7, 8, 9, 16, 17, 25, 30]))
    n = draw(st.integers(1, 40))
    modes = rng.standard_normal((rows, r))
    mu = rng.uniform(0.5, 1.5, r)
    if draw(st.booleans()):
        modes = modes + 1j * rng.standard_normal((rows, r))
        mu = mu * np.exp(1j * rng.uniform(-np.pi, np.pi, r))
    for kind, col in draw(st.lists(st.tuples(st.sampled_from(["zero", "copy", "huge"]),
                                             st.integers(0, r - 1)), max_size=3)):
        modes[:, col] = (0.0 if kind == "zero" else modes[:, 0] if kind == "copy"
                         else rng.standard_normal(rows) * 1e160)
    indices = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=10))
    return modes, mu, rng.standard_normal((rows, n)), indices


def fit_outcome(fit, system):
    """The bytes of the fitted amplitudes, or the error the fit raised."""
    try:
        return fit(*system).tobytes()
    except (NumericalError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


@given(system=fit_systems())
@settings(max_examples=300, deadline=None)
def test_fit_matches_the_copying_fit_bitwise(system):
    """The fit that scales its F-ordered system in place, takes its column
    norms on column chunks and solves it in place with zgelsd returns the
    bytes of the fit that took the norms of the whole C-ordered system and
    called np.linalg.lstsq, or raises its error with its message."""
    assert (fit_outcome(fit_coefficients_multi, system)
            == fit_outcome(copying_fit, system))


def test_fit_holds_one_copy_of_its_system():
    """At 10 snapshots of 144 rows and r = 140 the traced peak stays below
    1.5 times the 3.2 MB stacked system: it is built once, scaled and
    solved in place, and its norms come from small column chunks."""
    rng = make_rng(5)
    modes = rng.standard_normal((144, 140)) + 1j * rng.standard_normal((144, 140))
    mu = rng.uniform(0.9, 1.0, 140) * np.exp(1j * rng.uniform(-np.pi, np.pi, 140))
    data = rng.standard_normal((144, 144))
    idx = default_fit_indices(144, 10)
    tracemalloc.start()
    try:
        fit_coefficients_multi(modes, mu, data, idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * idx.size * modes.nbytes


# -------------------------------------------------------------- pipeline

def test_recovers_linear_system_spectrum(rng):
    x, a = linear_trajectory(rng, 6, 40)
    res = exact_dmd(snapshots_from_array(x, dt=0.5), DmdOptions(r=6))
    lam = np.linalg.eigvals(a)
    assert np.allclose(np.sort_complex(res.mu), np.sort_complex(lam),
                       atol=1e-9)
    # continuous exponents on the principal branch
    assert np.allclose(res.gamma, np.log(res.mu) / 0.5)
    assert np.all(np.abs(res.gamma.imag) <= np.pi / 0.5 + 1e-12)


def test_mode_normalization_and_phase(rng):
    x, _ = linear_trajectory(rng, 6, 40)
    res = exact_dmd(snapshots_from_array(x), DmdOptions(r=6))
    assert np.allclose(np.linalg.norm(res.modes, axis=0), 1.0, atol=1e-12)
    lead = res.modes[np.argmax(np.abs(res.modes), axis=0), np.arange(res.r)]
    assert np.allclose(lead.imag, 0.0, atol=1e-12)
    assert np.all(lead.real > 0)


def test_conjugate_pairs_in_real_data(rng):
    x, _ = linear_trajectory(rng, 8, 60)
    res = exact_dmd(snapshots_from_array(x), DmdOptions(r=8))
    for k, p in enumerate(res.partner):
        if p is None:
            assert res.mu[k].imag == 0.0
            continue
        assert np.allclose(res.mu[p], np.conj(res.mu[k]), atol=1e-10)
        assert np.allclose(res.modes[:, p], np.conj(res.modes[:, k]),
                           atol=1e-10)
        assert np.allclose(res.b[p], np.conj(res.b[k]), atol=1e-8)


def test_ordering_by_amplitude(rng):
    x, _ = linear_trajectory(rng, 7, 50)
    res = exact_dmd(snapshots_from_array(x), DmdOptions(r=7))
    # the documented key: |b|, with both members of a conjugate pair at
    # the larger of their two |b|
    amp = np.abs(res.b)
    key = np.array([amp[i] if j is None else max(amp[i], amp[j])
                    for i, j in enumerate(res.partner)])
    assert np.all(np.diff(key) <= 0)
    # the documented comparator must already hold: re-sorting by
    # (key desc, |mu| desc, angle asc) is a no-op
    order = np.lexsort((np.angle(res.mu), -np.abs(res.mu), -key))
    assert np.array_equal(order, np.arange(res.r))


def test_noiseless_reconstruction(rng):
    x, _ = linear_trajectory(rng, 6, 40)
    snap = snapshots_from_array(x)
    res = exact_dmd(snap, DmdOptions(r=6, b_fit="multi:10"))
    rec = reconstruct_rom(build_rom(res, range(1, res.r + 1)), np.arange(40))
    assert np.linalg.norm(rec - x) <= 1e-8 * np.linalg.norm(x)


def test_first_fit_exact_at_step_zero(rng):
    x, _ = linear_trajectory(rng, 5, 30)
    res = exact_dmd(snapshots_from_array(x), DmdOptions(r=5, b_fit="first"))
    rec = reconstruct_rom(build_rom(res, range(1, res.r + 1)), [0])
    assert np.allclose(rec[:, 0], x[:, 0], rtol=1e-9, atol=1e-12)


def test_mode_time_sum_matches_manual(rng):
    modes = (rng.standard_normal((4, 2))
             + 1j * rng.standard_normal((4, 2)))
    mu = np.array([0.9 + 0.1j, 0.9 - 0.1j])
    b = np.array([1 + 2j, 1 - 2j])
    out = mode_time_sum(modes, mu, b, [0, 3])
    manual0 = modes @ b
    manual3 = modes @ (mu ** 3 * b)
    assert np.allclose(out[:, 0], manual0) and np.allclose(out[:, 1], manual3)


def test_residuals_small_for_exact_dynamics(rng):
    x, _ = linear_trajectory(rng, 6, 40)
    res = exact_dmd(snapshots_from_array(x), DmdOptions(r=6))
    assert np.all(res.residuals <= 1e-8 * np.max(np.abs(res.mu)))


def test_mean_removal_semantics(rng):
    """The stored mean is the temporal average, amplitudes are fitted
    against the centered record, and reconstruction restores raw units."""
    x, _ = linear_trajectory(rng, 6, 40)
    offset = rng.standard_normal(6) * 10
    shifted = x + offset[:, None]
    snap = snapshots_from_array(shifted)
    res = exact_dmd(snap, DmdOptions(r=5, remove_mean=True, b_fit="first"))
    assert res.mean_mode is not None
    assert np.allclose(res.mean_mode, shifted.mean(axis=1))
    # the fit target was the centered first snapshot: the amplitude
    # vector solves the same least-squares problem
    centered0 = (shifted[:, 0] - res.mean_mode).astype(complex)
    b_ref = np.linalg.lstsq(res.modes, centered0, rcond=None)[0]
    assert np.allclose(res.b, b_ref, atol=1e-10)
    rom = build_rom(res, range(1, res.r + 1))
    rec = reconstruct_rom(rom, [0])
    assert np.allclose(rec[:, 0], (res.modes @ res.b).real + res.mean_mode,
                       atol=1e-10)
    # over the whole record the centered model plus mean tracks the data
    full = reconstruct_rom(rom, np.arange(40))
    assert np.linalg.norm(full - shifted) <= 0.05 * np.linalg.norm(shifted)


# ------------------------------------------------------------- failures

def test_rank_deficiency_detected(rng):
    u = rng.standard_normal((10, 2))
    w = rng.standard_normal((2, 20))
    x = u @ w  # exact rank 2
    with pytest.raises(NumericalError, match="rank deficiency"):
        exact_dmd(snapshots_from_array(x), DmdOptions(r=4))


def test_defective_operator_detected():
    """Only a pair that is not a time shift makes the operator exactly
    defective, so the pair goes straight to the reduced eigenproblem."""
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NumericalError, match="defective"):
        dmd._spectrum(np.eye(2), jordan, 2, DmdOptions(r=2))


def test_zero_eigenvalue_detected():
    x2 = np.diag([1.0, 0.0])
    with pytest.raises(NumericalError, match="zero eigenvalue"):
        dmd._spectrum(np.eye(2), x2, 2, DmdOptions(r=2))


def test_infeasible_rank_rejected(rng):
    x = rng.standard_normal((3, 10))
    with pytest.raises(ValueError, match="infeasible"):
        exact_dmd(snapshots_from_array(x), DmdOptions(r=4))


# ----------------------------------------------------------- invariance

def test_spectrum_invariant_under_column_scaling(rng):
    """Normalization must not move the recovered eigenvalues on clean data."""
    x, _ = linear_trajectory(rng, 5, 30)
    snap = snapshots_from_array(x)
    plain = exact_dmd(snap, DmdOptions(r=5))
    scaled = exact_dmd(snap, DmdOptions(r=5, normalize_columns=True))
    assert np.allclose(np.sort_complex(plain.mu), np.sort_complex(scaled.mu),
                       atol=1e-9)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_unit_norm_property(seed):
    rng = make_rng(seed)
    x, _ = linear_trajectory(rng, 5, 24)
    res = exact_dmd(snapshots_from_array(x), DmdOptions(r=5))
    assert np.allclose(np.linalg.norm(res.modes, axis=0), 1.0, atol=1e-10)
    assert np.all(np.isfinite(res.gamma.real))
    assert np.all(np.isfinite(res.gamma.imag))


def test_negative_real_eigenvalue_principal_branch():
    """An all-real spectrum with a negative eigenvalue maps to the top of
    the principal branch, never to NaN."""
    # x0 = (1, 1) under K = diag(-0.5, 0.25)
    x = np.array([[1.0, -0.5, 0.25], [1.0, 0.25, 0.0625]])
    res = exact_dmd(snapshots_from_array(x, dt=2.0), DmdOptions(r=2))
    assert np.all(np.isfinite(res.gamma.real))
    k = int(np.argmin(res.mu.real))
    assert res.gamma[k].imag == pytest.approx(np.pi / 2.0)
    assert res.gamma[k].real == pytest.approx(np.log(0.5) / 2.0)


def test_column_normalize_entries_past_squaring_range():
    """Entries near 1e200 overflow when squared; the scales must still be
    the finite column norms."""
    x1 = np.array([[3e200, 1.0], [4e200, 0.0]])
    x1n, _, scales = column_normalize(x1, x1.copy())
    assert np.allclose(scales, [5e200, 1.0], rtol=1e-15)
    assert np.allclose(np.linalg.norm(x1n, axis=0), 1.0, rtol=1e-14)
