"""Leave-one-out trials compute their spectrum only.

A trial of dmd.deletion_spectra stops after the reduced eig and its
checks: the spectrum is the one the full reduced decomposition of the
same deleted R pair would give, bit for bit, without its modes,
residuals or amplitude fit.
"""
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmode import dmd
from koopmode.dmd import DmdOptions, deletion_spectra, modified_options
from koopmode.errors import NumericalError
from koopmode.oracle import generate, tidal_spec
from koopmode.ranking import leave_one_out


def multiset(mu: np.ndarray) -> np.ndarray:
    return mu[np.lexsort((mu.imag, mu.real))]


@given(seed=st.integers(0, 10_000),
       wide=st.booleans(),
       rank=st.sampled_from([None, 17]),
       b_fit=st.sampled_from(["first", "multi:2", "multi:10"]),
       use_tlsq=st.booleans(),
       normalize=st.booleans(),
       svd_mode=st.sampled_from(["standard", "high_accuracy"]))
@settings(max_examples=30, deadline=None)
def test_trial_spectrum_is_the_reduced_decomposition_spectrum(seed, wide, rank, b_fit,
                                                              use_tlsq, normalize,
                                                              svd_mode):
    """Every pair column of a tidal oracle deleted once: each trial
    spectrum equals, as a multiset and bitwise, the eigenvalues of
    _reduced_dmd on the same deleted R pair, and a trial fails exactly
    where that decomposition fails."""
    n = 40
    snap, _ = generate(tidal_spec(d=3 * n if wide else 25, n=n, noise_sigma=1e-3,
                                  seed=seed))
    opts = DmdOptions(r=rank, use_tlsq=use_tlsq, normalize_columns=normalize,
                      b_fit=b_fit, svd_mode=svd_mode)
    omitted = list(range(n - 1))
    base, spectra = deletion_spectra(snap, opts, omitted)

    _, r = dmd._qr_dmd(snap, opts)
    r1, r2 = r[:, :-1], r[:, 1:]
    cap = r1.shape[1] - 1
    trial_opts = replace(base.options, r=min(base.options.r, cap),
                         tlsq_rank=min(base.options.tlsq_rank or base.options.r, cap))
    for i, mu in zip(omitted, spectra):
        try:
            ref = dmd._reduced_dmd(np.delete(r1, i, axis=1), np.delete(r2, i, axis=1),
                                   r, snap.d, trial_opts).mu
        except NumericalError:
            assert isinstance(mu, NumericalError)
            continue
        assert not isinstance(mu, NumericalError), str(mu)
        assert np.array_equal(multiset(mu), multiset(ref))


def test_leave_one_out_fits_amplitudes_once(monkeypatch):
    """The base decomposition is the only multi-snapshot fit: five
    trials add none."""
    calls = []
    fit = dmd.fit_coefficients_multi

    def counting(*args, **kwargs):
        calls.append(1)
        return fit(*args, **kwargs)

    monkeypatch.setattr(dmd, "fit_coefficients_multi", counting)
    snap, _ = generate(tidal_spec(d=60, n=40, noise_sigma=1e-3, seed=3))
    loo = leave_one_out(snap, modified_options(17), trials=5, seed=0)
    assert len(loo.trials) == 5
    assert len(calls) == 1


def test_trial_spectra_sorted_by_modulus_then_angle():
    snap, _ = generate(tidal_spec(d=60, n=40, noise_sigma=1e-3, seed=4))
    loo = leave_one_out(snap, modified_options(None), trials=8, seed=2)
    assert len(loo.trials) == 8
    for trial in loo.trials:
        mu = trial.mu
        order = np.lexsort((np.angle(mu), -np.abs(mu)))
        assert np.array_equal(order, np.arange(mu.size))
