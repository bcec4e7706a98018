"""Synthetic generators: closure, reality, energy bookkeeping, the tidal
preset, and spectrum comparison."""
import math

import numpy as np
import pytest

from koopmode.dmd import DmdOptions, exact_dmd
from koopmode.oracle import (TIDAL_PERIODS_HOURS, ModeSpec, OracleSpec,
                             compare_spectra, generate, tidal_preset,
                             tidal_spec)


def small_spec(**kw):
    modes = (
        ModeSpec(gamma=0.0 + 0.0j, b=1.0),
        ModeSpec(gamma=complex(-0.01, 2 * np.pi / 12.0), b=0.8 + 0.1j),
        ModeSpec(gamma=complex(0.0, 2 * np.pi / 24.0), b=0.5 - 0.3j),
    )
    base = dict(d=40, n=48, dt=1.0, modes=modes, seed=2)
    base.update(kw)
    return OracleSpec(**base)


# ------------------------------------------------------------ generation

def test_generated_data_is_real_and_exact_rank():
    snap, truth = generate(small_spec())
    assert snap.data.dtype == np.float64
    # one real mode plus two pairs: five closed modes, so rank five
    assert truth.mu.size == 5
    assert np.linalg.matrix_rank(np.asarray(snap.data), tol=1e-10) == 5


def test_ground_truth_closure():
    _, truth = generate(small_spec())
    nonreal = np.abs(truth.mu.imag) > 1e-12
    mus = truth.mu[nonreal]
    assert np.allclose(np.sort_complex(mus), np.sort_complex(np.conj(mus)))
    # profile columns of a pair are exact conjugates
    for k in range(truth.mu.size):
        for j in range(k + 1, truth.mu.size):
            if truth.mu[j] == np.conj(truth.mu[k]) and nonreal[k]:
                assert np.array_equal(truth.modes[:, j],
                                      np.conj(truth.modes[:, k]))
                assert truth.b[j] == np.conj(truth.b[k])


def test_snapshots_match_ground_truth_sum():
    spec = small_spec()
    snap, truth = generate(spec)
    steps = np.arange(spec.n)
    dyn = truth.mu[:, None] ** steps[None, :]
    direct = (truth.modes @ (dyn * truth.b[:, None])).real
    assert np.allclose(np.asarray(snap.data), direct, atol=1e-12)


def test_determinism_and_noise_ordering():
    spec = small_spec(noise_sigma=0.01, seed=9)
    a, _ = generate(spec)
    b, _ = generate(spec)
    assert np.array_equal(np.asarray(a.data), np.asarray(b.data))
    clean, truth_c = generate(small_spec(seed=9))
    noisy, truth_n = generate(small_spec(seed=9, noise_sigma=0.01))
    # same seed: identical profiles, noise only perturbs the field
    assert np.array_equal(truth_c.modes, truth_n.modes)
    delta = np.asarray(noisy.data) - np.asarray(clean.data)
    rms = math.sqrt(float(np.mean(np.asarray(clean.data) ** 2)))
    measured = math.sqrt(float(np.mean(delta ** 2)))
    assert measured == pytest.approx(0.01 * rms, rel=0.05)


def test_orthogonalized_energy_additivity():
    """With the shared orthonormal basis the per-step energy equals the
    closed-set sum of |b_k|^2 |mu_k|^(2n)."""
    spec = small_spec()
    snap, truth = generate(spec)
    steps = np.arange(spec.n)
    per_mode = np.abs(truth.b[:, None]) ** 2 * np.abs(truth.mu[:, None]) ** (2 * steps[None, :])
    expected = per_mode.sum(axis=0)
    got = np.linalg.norm(np.asarray(snap.data), axis=0) ** 2
    assert np.allclose(got, expected, rtol=1e-10)


def test_pair_contribution_norm_exact():
    spec = OracleSpec(d=30, n=20, dt=1.0, modes=(
        ModeSpec(gamma=complex(-0.02, 0.9), b=0.7 - 0.4j),
    ), seed=5)
    snap, truth = generate(spec)
    steps = np.arange(spec.n)
    expect = math.sqrt(2.0) * abs(truth.b[0]) * np.abs(truth.mu[0]) ** steps
    assert np.allclose(np.linalg.norm(np.asarray(snap.data), axis=0), expect,
                       rtol=1e-10)


def test_phase_ramp_profile_slope():
    slope = 0.3
    spec = OracleSpec(d=50, n=8, dt=1.0, modes=(
        ModeSpec(gamma=complex(0.0, 1.0), b=1.0, profile="phase_ramp",
                 phase_slope=slope),
    ), seed=0)
    _, truth = generate(spec)
    phi = truth.modes[:, 0]
    dphase = np.diff(np.unwrap(np.angle(phi)))
    assert np.allclose(dphase, slope, atol=1e-12)
    assert np.linalg.norm(phi) == pytest.approx(1.0)


def test_random_unit_profiles_are_unit_norm():
    spec = small_spec()
    spec = OracleSpec(d=spec.d, n=spec.n, dt=spec.dt, modes=tuple(
        ModeSpec(gamma=m.gamma, b=m.b, profile="random_unit")
        for m in spec.modes), seed=3)
    _, truth = generate(spec)
    assert np.allclose(np.linalg.norm(truth.modes, axis=0), 1.0, atol=1e-12)


# ------------------------------------------------------------ validation

def test_real_mode_rejects_complex_amplitude():
    with pytest.raises(ValueError, match="real amplitude"):
        generate(OracleSpec(d=10, n=4, dt=1.0, modes=(
            ModeSpec(gamma=0.0 + 0j, b=1.0 + 0.5j),
        )))


def test_dimension_too_small_for_basis():
    modes = tuple(ModeSpec(gamma=complex(0.0, 0.1 * (k + 1)), b=1.0)
                  for k in range(4))
    with pytest.raises(ValueError, match="too small"):
        generate(OracleSpec(d=5, n=4, dt=1.0, modes=modes))


def test_spec_validation():
    good = ModeSpec(gamma=1j, b=1.0)
    with pytest.raises(ValueError, match="profile"):
        ModeSpec(gamma=1j, b=1.0, profile="fourier")
    with pytest.raises(ValueError, match="d >= 1"):
        OracleSpec(d=0, n=4, dt=1.0, modes=(good,))
    with pytest.raises(ValueError, match="dt"):
        OracleSpec(d=4, n=4, dt=0.0, modes=(good,))
    with pytest.raises(ValueError, match="noise"):
        OracleSpec(d=4, n=4, dt=1.0, modes=(good,), noise_sigma=-1.0)
    with pytest.raises(ValueError, match="mode"):
        OracleSpec(d=4, n=4, dt=1.0, modes=())


@pytest.mark.parametrize("dt", [6.0, 11.967, 12.0, 24.0, 1e-14, 1e-320, math.nan])
def test_spec_rejects_a_step_that_merges_two_eigenvalues(dt):
    """At these steps two closed-set eigenvalues of the tidal preset lie
    within N eps max|mu| of each other at N = 48: 12 h and 24 h take S2
    onto the constant mode's 1, 11.967 h takes K2 there, 6 h puts S2 and
    its conjugate together at -1, and a tiny step rounds them all to 1."""
    with pytest.raises(ValueError, match="puts two closed-set eigenvalues"):
        tidal_spec(d=60, n=48, dt=dt)


@pytest.mark.parametrize("dt", [0.5, 1.0, 2.0, 3.0])
def test_spec_accepts_steps_that_keep_the_eigenvalues_apart(dt):
    spec = tidal_spec(d=60, n=48, dt=dt)
    mu = generate(spec)[1].mu
    gaps = np.abs(np.subtract.outer(mu, mu))[~np.eye(mu.size, dtype=bool)]
    assert gaps.min() > 1e-4


# ---------------------------------------------------------- tidal preset

def test_tidal_preset_contents():
    gammas = tidal_preset()
    assert gammas[0] == 0.0
    assert len(gammas) == 9
    periods = sorted(2 * np.pi / g.imag for g in gammas[1:])
    assert np.allclose(periods, sorted(TIDAL_PERIODS_HOURS.values()),
                       rtol=0, atol=1e-12)
    assert min(TIDAL_PERIODS_HOURS.values()) == 11.967
    assert TIDAL_PERIODS_HOURS["M2"] == 12.421


def test_tidal_spec_closed_rank():
    spec = tidal_spec(d=100, n=64)
    snap, truth = generate(spec)
    # constant mode plus eight pairs
    assert truth.mu.size == 17
    assert np.linalg.matrix_rank(np.asarray(snap.data), tol=1e-9) == 17
    assert np.allclose(np.abs(truth.mu), 1.0)
    # amplitudes decay down the constituent list and stay distinct
    bmag = np.abs(truth.b)
    assert bmag[0] == 1.0
    assert len(np.unique(np.round(bmag, 12))) == 9


def test_tidal_recovery_end_to_end():
    spec = tidal_spec(d=120, n=96)
    snap, truth = generate(spec)
    res = exact_dmd(snap, DmdOptions(r=17))
    comp = compare_spectra(res.mu, truth.mu, res.modes, truth.modes)
    assert not comp.unmatched_true and not comp.unmatched_estimated
    assert comp.max_error < 1e-10
    # the arccos angle measurement bottoms out near sqrt(machine eps)
    assert comp.max_angle_rad < 1e-6


# ------------------------------------------------------------ comparison

def test_compare_spectra_greedy_matching():
    tru = np.array([1.0 + 0j, 0.5 + 0.5j, 0.5 - 0.5j])
    est = np.array([0.5 + 0.5j, 1.0 + 1e-12j, 0.5 - 0.5j])
    comp = compare_spectra(est, tru)
    pairs = {(i, j) for i, j, _ in comp.matches}
    assert pairs == {(0, 1), (1, 0), (2, 2)}
    assert comp.max_error <= 1e-12
    assert comp.angles_rad is None


def test_compare_spectra_unmatched_sets():
    tru = np.array([1.0 + 0j, 2.0 + 0j])
    est = np.array([1.0 + 0j])
    comp = compare_spectra(est, tru)
    assert comp.unmatched_true == (1,)
    assert comp.unmatched_estimated == ()


def test_compare_spectra_mode_angles():
    tru = np.array([1.0 + 0j])
    est = np.array([1.0 + 0j])
    v = np.array([[1.0], [0.0]], dtype=complex)
    w = np.array([[1.0], [1.0]], dtype=complex) / math.sqrt(2)
    comp = compare_spectra(est, tru, v, w)
    assert comp.max_angle_rad == pytest.approx(np.pi / 4)
    # phase and scale of either side do not matter
    comp2 = compare_spectra(est, tru, 3j * v, w)
    assert comp2.max_angle_rad == pytest.approx(np.pi / 4)
