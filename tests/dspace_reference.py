"""Reference decomposition that works on the D-row snapshot matrices.

A copy of the pipeline that ran every step on the full-dimension pair
before the library moved to one QR and R-factor coordinates.  The
equivalence tests hold the library to it.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from koopmode.dmd import (DmdOptions, DmdResult, _tlsq_basis, column_normalize,
                          column_norms, default_fit_indices,
                          fit_coefficients_multi, truncated_svd)
from koopmode.errors import NumericalError
from koopmode.grids import SnapshotMatrix

_DEFECTIVE_COND = 1e12
_RANK_RTOL = 1e-13


def _solve_amplitudes(m: np.ndarray, y: np.ndarray, r: int) -> np.ndarray:
    # Unit columns: a fast mode's mu**n column must not set the scale the
    # rank test measures every other column against.
    scales = column_norms(m)
    scales[scales == 0.0] = 1.0
    b, _, rank, sv = np.linalg.lstsq(m / scales, y.astype(complex), rcond=None)
    if rank < r:
        raise NumericalError(
            f"amplitude fit is rank deficient ({rank} < {r}); "
            f"smallest singular value {sv[-1]:.3e} of the column-scaled system"
        )
    return b / scales


def fit_coefficients_first(modes: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Least-squares amplitudes reproducing the first snapshot."""
    modes = np.asarray(modes)
    return _solve_amplitudes(modes, np.asarray(x0), modes.shape[1])


def remove_temporal_mean(snap: SnapshotMatrix) -> tuple[np.ndarray, SnapshotMatrix]:
    """Split snapshots into their temporal mean and centered residuals."""
    mean = snap.data.mean(axis=1)
    centered = snap.data - mean[:, None]
    return mean, SnapshotMatrix(centered, dt=snap.dt, t0=snap.t0, layout=snap.layout)


def _reduced_operator(x1: np.ndarray, x2: np.ndarray, opts: DmdOptions):
    """The truncated SVD of the (normalized, projected) first matrix, the
    lift x2 V Sigma^-1 and the reduced operator of a D-row pair."""
    d, cols = x1.shape
    if opts.normalize_columns:
        x1, x2, _ = column_normalize(x1, x2)
    if opts.use_tlsq:
        v = _tlsq_basis(x1, x2, opts.r)
        x1, x2 = x1 @ v, x2 @ v
        cols = opts.r
    if not 1 <= opts.r <= min(d, cols):
        raise ValueError(
            f"truncation rank r={opts.r} infeasible for a {d}x{cols} matrix"
        )

    svd = truncated_svd(x1, opts.r)
    if svd.sigma[-1] <= _RANK_RTOL * svd.sigma[0]:
        raise NumericalError(
            f"rank deficiency below r={opts.r}: sigma_r/sigma_1 = "
            f"{svd.sigma[-1] / svd.sigma[0]:.3e}"
        )

    x2_v_sinv = (x2 @ svd.v) / svd.sigma[None, :]
    return svd, x2_v_sinv, svd.u.conj().T @ x2_v_sinv


def reference_dmd_from_pair(x1: np.ndarray, x2: np.ndarray, fit_data: np.ndarray,
                            dt: float, opts: DmdOptions,
                            mean_mode: np.ndarray | None = None,
                            t0: float = 0.0) -> DmdResult:
    svd, x2_v_sinv, k_reduced = _reduced_operator(x1, x2, opts)
    sigma_full = svd.singular_values
    mu, w = np.linalg.eig(k_reduced)
    mu = mu.astype(np.complex128, copy=False)
    w = w.astype(np.complex128, copy=False)
    cond_w = np.linalg.cond(w)
    if not np.isfinite(cond_w) or cond_w > _DEFECTIVE_COND:
        raise NumericalError(
            f"eigendecomposition is numerically defective; eigenvector "
            f"condition estimate {cond_w:.3e}"
        )
    residuals = np.linalg.norm(k_reduced @ w - w * mu[None, :], axis=0)

    if (np.abs(mu) == 0.0).any():
        raise NumericalError("zero eigenvalue; continuous-time exponent undefined")

    modes = x2_v_sinv @ w
    norms = np.linalg.norm(modes, axis=0)
    if (norms == 0.0).any():
        raise NumericalError("zero exact mode; cannot normalize")
    modes = modes / norms
    lead = modes[np.argmax(np.abs(modes), axis=0), np.arange(opts.r)]
    modes = modes * (np.conj(lead) / np.abs(lead))[None, :]

    gamma = np.log(mu) / dt

    count = opts.fit_count()
    if count is None:
        b = fit_coefficients_first(modes, fit_data[:, 0])
    else:
        idx = default_fit_indices(fit_data.shape[1], count)
        b = fit_coefficients_multi(modes, mu, fit_data, idx)

    order = np.lexsort((np.angle(mu), -np.abs(mu), -np.abs(b)))
    # eig of a real operator lists a pair's positive imaginary part first,
    # its exact conjugate right after
    first = np.flatnonzero(mu.imag > 0)
    at = np.argsort(order)
    partner = [None] * mu.size
    for i, j in zip(at[first].tolist(), at[first + 1].tolist()):
        partner[i], partner[j] = j, i
    return DmdResult(
        modes=modes[:, order],
        mu=mu[order],
        gamma=gamma[order],
        b=b[order],
        singular_values=sigma_full,
        residuals=residuals[order],
        partner=tuple(partner),
        options=opts,
        dt=dt,
        t0=t0,
        mean_mode=mean_mode,
    )


def regression_pair(snap, opts: DmdOptions):
    """The snapshot pair a decomposition with opts regresses on.

    Returns (x1, x2, fit_data, mean_mode): the time-shifted pair of the
    snapshots, centered first when opts.remove_mean is set; the matrix
    the amplitudes are fitted against; and the removed temporal mean, or
    None.
    """
    mean_mode = None
    work = snap
    if opts.remove_mean:
        mean_mode, work = remove_temporal_mean(snap)
    return work.data[:, :-1], work.data[:, 1:], work.data, mean_mode


def reference_exact_dmd(snap, opts: DmdOptions) -> DmdResult:
    x1, x2, fit_data, mean_mode = regression_pair(snap, opts)
    return reference_dmd_from_pair(x1, x2, fit_data, snap.dt, opts, mean_mode, snap.t0)


def reference_operator_norm(snap, opts: DmdOptions) -> float:
    """The 2-norm of the reference's reduced operator."""
    x1, x2, _, _ = regression_pair(snap, opts)
    return float(np.linalg.norm(_reduced_operator(x1, x2, opts)[2], 2))


def reference_trial_mu(snap, opts: DmdOptions, omitted: int) -> np.ndarray:
    """Spectrum of the leave-one-out trial that deletes pair column omitted,
    with the rank capped as leave_one_out caps it."""
    x1, x2, fit_data, mean_mode = regression_pair(snap, opts)
    trial_opts = replace(opts, r=min(opts.r, x1.shape[1] - 1))
    res = reference_dmd_from_pair(np.delete(x1, omitted, axis=1),
                                  np.delete(x2, omitted, axis=1),
                                  fit_data, snap.dt, trial_opts, mean_mode, snap.t0)
    return res.mu
