"""Reference decomposition that works on the D-row snapshot matrices.

A copy of the pipeline that ran every step on the full-dimension pair
before the library moved to one QR and R-factor coordinates.  The
equivalence tests hold the library to it.  sequential_factor is a copy
of pass 1 as it folded every block into one R, before the reduction
tree: an input of one leaf must still factor to its bits.
fit_coefficients_multi is the amplitude fit as it was before it solved
its stacked system in place: column norms of the whole C-ordered system
and np.linalg.lstsq.
"""
from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple, Sequence

import numpy as np

from koopmode import _lapack, dmd
from koopmode.dmd import (DmdOptions, _tlsq_basis, column_normalize,
                          column_norms, default_fit_indices, truncated_svd)
from koopmode.errors import NumericalError
from koopmode.grids import SnapshotMatrix

_DEFECTIVE_COND = 1e12
_RANK_RTOL = 1e-13


class ReferenceResult(NamedTuple):
    """The fields of a dmd.DmdResult that the reference computes: all but
    the data rank, the R factor and the mode file, which only exact_dmd
    has."""

    modes: np.ndarray
    mu: np.ndarray
    gamma: np.ndarray
    b: np.ndarray
    singular_values: np.ndarray
    residuals: np.ndarray
    partner: tuple
    options: DmdOptions
    dt: float
    t0: float
    mean_mode: np.ndarray | None


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


def fit_coefficients_multi(modes: np.ndarray, mu: np.ndarray, data: np.ndarray,
                           indices: Sequence[int]) -> np.ndarray:
    """Joint least-squares amplitudes over a set of snapshots.

    Minimizes the stacked residual of data[:, n] - modes @ (mu**n * b)
    over the given snapshot indices; indices [0] fit the first snapshot
    alone.  Raises NumericalError when the stacked system is rank
    deficient.
    """
    modes = np.asarray(modes)
    mu = np.asarray(mu)
    data = np.asarray(data)
    idx = np.asarray(indices, dtype=int)
    if idx.size < 1:
        raise ValueError("need at least one fit snapshot")
    if (idx < 0).any() or (idx >= data.shape[1]).any():
        raise ValueError("fit indices outside the snapshot range")
    rows = modes.shape[0]
    m = np.empty((idx.size * rows, modes.shape[1]), dtype=np.result_type(modes, mu))
    for i, n in enumerate(idx):
        np.multiply(modes, mu[None, :] ** int(n), out=m[i * rows:(i + 1) * rows])
    rhs = np.concatenate([data[:, int(n)] for n in idx])
    # Unit columns: a fast mode's mu**n column must not set the scale the
    # rank test measures every other column against.
    scales = column_norms(m)
    scales[scales == 0.0] = 1.0
    m /= scales
    b, _, rank, sv = np.linalg.lstsq(m, rhs.astype(complex), rcond=None)
    if rank < modes.shape[1]:
        raise NumericalError(
            f"amplitude fit is rank deficient ({rank} < {modes.shape[1]}); "
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
    if not 1 <= opts.r <= min(d, cols):
        raise ValueError(f"rank {opts.r} infeasible for a {d}x{cols} regression "
                         f"matrix; the largest feasible rank is {min(d, cols)}")
    if opts.normalize_columns:
        x1, x2, _ = column_normalize(x1, x2)
    if opts.use_tlsq:
        v = _tlsq_basis(x1, x2, opts.r)
        x1, x2 = x1 @ v, x2 @ v

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
                            t0: float = 0.0) -> ReferenceResult:
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

    gamma = np.log(mu) / dt

    count = opts.fit_count()
    if count is None:
        b = fit_coefficients_first(modes, fit_data[:, 0])
    else:
        idx = default_fit_indices(fit_data.shape[1], count)
        b = fit_coefficients_multi(modes, mu, fit_data, idx)

    # The phase convention: each mode takes its amplitude's phase, so b is
    # real and non-negative.  A real mode's factor is a sign; eig of a real
    # operator lists a pair's positive imaginary part first, its exact
    # conjugate right after, and the pair shares its larger |b|.
    unit = np.ones(mu.size, dtype=complex)
    amp = np.abs(b)
    for k in range(mu.size):
        if mu[k].imag == 0.0:
            unit[k] = -1.0 if b[k].real < 0 else 1.0
        elif mu[k].imag > 0.0:
            unit[k] = b[k] / abs(b[k]) if b[k] != 0 else 1.0
            unit[k + 1] = np.conj(unit[k])
            amp[k] = amp[k + 1] = max(amp[k], amp[k + 1])
    modes = modes * unit[None, :]
    b = amp.astype(complex)

    order = np.lexsort((np.angle(mu), -np.abs(mu), -amp))
    first = np.flatnonzero(mu.imag > 0)
    at = np.argsort(order)
    partner = [None] * mu.size
    for i, j in zip(at[first].tolist(), at[first + 1].tolist()):
        partner[i], partner[j] = j, i
    return ReferenceResult(
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


def reference_exact_dmd(snap, opts: DmdOptions) -> ReferenceResult:
    x1, x2, fit_data, mean_mode = regression_pair(snap, opts)
    return reference_dmd_from_pair(x1, x2, fit_data, snap.dt, opts, mean_mode, snap.t0)


def reference_operator_norm(snap, opts: DmdOptions) -> float:
    """The 2-norm of the reference's reduced operator."""
    x1, x2, _, _ = regression_pair(snap, opts)
    return float(np.linalg.norm(_reduced_operator(x1, x2, opts)[2], 2))


def reference_trial_gap(snap, opts: DmdOptions, omitted: int) -> float:
    """The smallest relative gap (sigma_r - sigma_{r+1}) / sigma_1 at a
    truncation the leave-one-out trial deleting pair column omitted makes:
    the TLSQ stack's under use_tlsq and the (projected) first matrix's,
    where it has more than r columns.  inf where no truncation is made."""
    x1, x2, _, _ = regression_pair(snap, opts)
    x1, x2 = np.delete(x1, omitted, axis=1), np.delete(x2, omitted, axis=1)
    r = min(opts.r, x1.shape[1])
    if opts.normalize_columns:
        x1, x2, _ = column_normalize(x1, x2)
    gaps = [np.inf]
    if opts.use_tlsq:
        s = np.linalg.svd(np.vstack([x1, x2]), compute_uv=False)
        gaps.append((s[r - 1] - s[r]) / s[0] if r < s.size else np.inf)
        v = _tlsq_basis(x1, x2, r)
        x1 = x1 @ v
    s = np.linalg.svd(x1, compute_uv=False)
    gaps.append((s[r - 1] - s[r]) / s[0] if r < s.size else np.inf)
    return min(gaps)


def reference_trial_mu(snap, opts: DmdOptions, omitted: int) -> np.ndarray:
    """Spectrum of the leave-one-out trial that deletes pair column omitted,
    with the rank capped as leave_one_out caps it."""
    x1, x2, fit_data, mean_mode = regression_pair(snap, opts)
    trial_opts = replace(opts, r=min(opts.r, x1.shape[1] - 1))
    res = reference_dmd_from_pair(np.delete(x1, omitted, axis=1),
                                  np.delete(x2, omitted, axis=1),
                                  fit_data, snap.dt, trial_opts, mean_mode, snap.t0)
    return res.mu


def sequential_factor(src, center: bool) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """R, the D-row mean (None without centering) and the column norms of
    pass 1 as one sequential fold over the row blocks of src: geqrf on R
    stacked above each block until R has N rows, then tpqrt, the row
    means carried as one more column under centering."""
    n, d, rows = src.n, src.d, dmd._BLOCK_ROWS
    mean = np.empty(d) if center else None
    norms = np.zeros(n)
    r = np.empty((0, n))
    m_r, m_out = np.empty(0), 0.0
    for start in range(0, d, rows):
        stop = min(start + rows, d)
        fold = r.shape[0] == n
        k = 0 if fold else r.shape[0]
        stack = np.empty((k + stop - start, n), order="F")
        block = stack[k:]
        src.read_rows(start, block)
        if center:
            m = mean[start:stop]
            for i in range(0, stop - start, dmd._MEAN_ROWS):
                part = np.ascontiguousarray(block[i:i + dmd._MEAN_ROWS])
                part.mean(axis=1, out=m[i:i + dmd._MEAN_ROWS])
                norms = np.hypot(norms, column_norms(part))
            block -= m[:, None]
        c = np.r_[m_r, m][:, None] if center else None
        if fold:
            r, v, t, info = _lapack.dtpqrt(0, min(dmd._FOLD_NB, n), r, block)
            if center:
                c[:n], c[n:], info = _lapack.dtpmqrt(0, v, t, c[:n], c[n:])
        else:
            stack[:k] = r
            h, tau, info = _lapack.geqrf(stack)
            r = np.triu(h[:n])
            if center:
                c, info = _lapack.dormqr(h[:, :tau.size], tau, c)
        assert info == 0
        if center:
            m_r, rest = np.split(c[:, 0], [r.shape[0]])
            m_out = np.hypot(m_out, np.linalg.norm(rest))
    if not center:
        return r, mean, column_norms(r)
    r = np.c_[r, m_r]
    if d > n:
        r = np.r_[r, np.r_[np.zeros(n), m_out][None, :]]
    return r, mean, norms
