"""Exact dynamic mode decomposition with optional debiasing refinements.

The baseline algorithm regresses the one-step propagator from a pair of
time-shifted snapshot matrices through a rank-r SVD and reads modes and
eigenvalues off the reduced operator.  Three optional refinements target
poorly scaled or noisy data:

  * column normalization: both matrices of the pair are divided by the
    l2 norms of the first matrix's columns, equalizing snapshot weights
    in the regression without changing the operator being estimated;
  * total-least-squares projection: the pair is compressed onto the
    leading right singular directions of the vertically stacked pair,
    removing the asymmetry of ordinary least squares to noise in the
    "input" snapshots;
  * a QR-based SVD driver whose small singular values retain relative
    accuracy on graded matrices, instead of the faster divide-and-conquer
    driver.

Amplitudes are always fitted against the original, unscaled snapshots,
either from the first snapshot alone or jointly over a small set of
snapshots spread across the record.

Cost model.  The (centered) D x N snapshot matrix is factored once as
Q R, an O(D N^2) pass (Drmac, Mezic & Mohr, SIAM J. Sci. Comput. 2018).
Every later step runs on R[:, :-1], R[:, 1:] and R, which have at most N
rows: normalization, TLSQ, the truncated SVD, the reduced eig and the
amplitude fit each cost O(N^3) or less.  Q has orthonormal columns, so
column norms, singular values, eigenpairs and least-squares residuals
are those of the original matrices.  Modes are lifted by Q once, for the
returned result only; column-deletion trials (deletion_spectra) delete
columns of the R pair and never form a D-row array.  Peak memory is
about twice the data.

Rank.  The data rank is counted on R[:, :-1], whose singular values are
those of the D x (N-1) regression matrix: those above
sigma_1 * max(D, N-1) * eps count (numpy's matrix_rank rule).
DmdOptions(r=None) takes the default rank max(1, min(data rank, N - 4)).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .errors import NumericalError
from .grids import SnapshotMatrix

# Condition number of the reduced eigenvector matrix beyond which the
# eigenproblem is reported as (numerically) defective.
_DEFECTIVE_COND = 1e12
# Relative floor under which trailing singular values count as rank loss.
_RANK_RTOL = 1e-13


@dataclass(frozen=True)
class DmdOptions:
    """Settings for one decomposition run.

    r is the truncation rank; None takes the default rank
    max(1, min(data rank, N - 4)) of the data decomposed.
    b_fit is "first" (amplitudes from the first snapshot) or
    "multi:<count>" (joint fit over count snapshots evenly spread over
    the record, endpoints included).  svd_mode selects the LAPACK driver:
    "standard" divide-and-conquer or "high_accuracy" QR-based.
    """

    r: int | None = None
    use_tlsq: bool = False
    tlsq_rank: int | None = None
    normalize_columns: bool = False
    remove_mean: bool = False
    b_fit: str = "first"
    svd_mode: str = "standard"

    def __post_init__(self):
        if self.r is not None and self.r < 1:
            raise ValueError(f"truncation rank r must be >= 1, got {self.r}")
        if self.tlsq_rank is not None and self.tlsq_rank < 1:
            raise ValueError(f"tlsq_rank must be >= 1, got {self.tlsq_rank}")
        if self.svd_mode not in ("standard", "high_accuracy"):
            raise ValueError(f"unknown svd_mode {self.svd_mode!r}")
        self.fit_count()  # validates b_fit syntax

    def fit_count(self) -> int | None:
        """Number of snapshots in the amplitude fit, None for first-only."""
        if self.b_fit == "first":
            return None
        if self.b_fit.startswith("multi:"):
            try:
                count = int(self.b_fit.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"malformed b_fit {self.b_fit!r}") from None
            if count < 2:
                raise ValueError(f"multi-snapshot fit needs count >= 2, got {count}")
            return count
        raise ValueError(f"unknown b_fit {self.b_fit!r}")

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "use_tlsq": self.use_tlsq,
            "tlsq_rank": self.tlsq_rank,
            "normalize_columns": self.normalize_columns,
            "remove_mean": self.remove_mean,
            "b_fit": self.b_fit,
            "svd_mode": self.svd_mode,
        }


def modified_options(r: int | None, fit_count: int = 10) -> DmdOptions:
    """Options for the debiased variant: normalization, TLSQ at rank r,
    high-accuracy SVD, and a joint amplitude fit."""
    return DmdOptions(r=r, use_tlsq=True, normalize_columns=True,
                      b_fit=f"multi:{fit_count}", svd_mode="high_accuracy")


@dataclass(frozen=True)
class TruncatedSvd:
    """Leading r singular triplets of a matrix, plus the discarded tail."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    sigma_tail: np.ndarray

    @property
    def singular_values(self) -> np.ndarray:
        """Full singular spectrum (kept + discarded)."""
        return np.concatenate([self.sigma, self.sigma_tail])


@dataclass(frozen=True)
class DmdResult:
    """Modes, spectrum, and amplitudes of one decomposition.

    Columns of modes have unit l2 norm with the largest-magnitude entry
    rotated real and positive.  Entries are sorted by descending |b|,
    ties broken by descending |mu| then ascending arg(mu).  gamma holds
    the continuous-time exponents log(mu)/dt on the principal branch.
    mean_mode is the removed temporal mean when the option was on.
    data_rank is the numerical rank of the (centered) regression matrix,
    and options.r the truncation rank in force.
    """

    modes: np.ndarray
    mu: np.ndarray
    gamma: np.ndarray
    b: np.ndarray
    singular_values: np.ndarray
    residuals: np.ndarray
    options: DmdOptions
    dt: float
    t0: float = 0.0
    mean_mode: np.ndarray | None = None
    data_rank: int | None = None

    @property
    def r(self) -> int:
        return self.mu.size


def split_snapshots(x) -> tuple[np.ndarray, np.ndarray]:
    """Split snapshots into the time-shifted regression pair.

    Accepts a SnapshotMatrix or a plain (D, N) array; returns views of
    columns 0..N-2 and 1..N-1.
    """
    data = x.data if isinstance(x, SnapshotMatrix) else np.asarray(x)
    if data.ndim != 2 or data.shape[1] < 2:
        raise ValueError("need a (D, N) matrix with N >= 2")
    return data[:, :-1], data[:, 1:]


def column_norms(a: np.ndarray) -> np.ndarray:
    """l2 norms of the columns of a, finite whenever they fit in a float.

    Squaring entries above ~1e154 overflows; a column whose norm came out
    infinite is divided by its largest magnitude and measured again.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(a, axis=0)
    cols = np.flatnonzero(np.isinf(norms))
    if cols.size:
        scale = np.abs(a[:, cols]).max(axis=0)
        fits = np.isfinite(scale)  # a column holding inf keeps its inf norm
        cols, scale = cols[fits], scale[fits]
        norms[cols] = scale * np.linalg.norm(a[:, cols] / scale, axis=0)
    return norms


def column_normalize(x1: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Divide both matrices by the column norms of the first.

    Scaling acts on the right, so the propagator relating the pair is
    unchanged; only the conditioning of the regression improves.
    """
    if x1.shape != x2.shape:
        raise ValueError("pair matrices must share one shape")
    scales = column_norms(x1)
    if (scales == 0.0).any():
        k = int(np.nonzero(scales == 0.0)[0][0])
        raise NumericalError(f"column {k} of the input matrix is zero; scale undefined")
    return x1 / scales, x2 / scales, scales


def _svd(a: np.ndarray, svd_mode: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    driver = {"standard": "gesdd", "high_accuracy": "gesvd"}.get(svd_mode)
    if driver is None:
        raise ValueError(f"unknown svd_mode {svd_mode!r}")
    try:
        return scipy.linalg.svd(a, full_matrices=False, lapack_driver=driver)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc


def truncated_svd(a: np.ndarray, r: int, svd_mode: str = "standard") -> TruncatedSvd:
    """Rank-r SVD of a, keeping the discarded singular values as a tail."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("need a 2-D matrix")
    if not 1 <= r <= min(a.shape):
        raise ValueError(f"rank r={r} outside 1..{min(a.shape)} for shape {a.shape}")
    u, s, vh = _svd(a, svd_mode)
    return TruncatedSvd(u=u[:, :r], sigma=s[:r], v=vh[:r].conj().T, sigma_tail=s[r:])


def tlsq_project(x1: np.ndarray, x2: np.ndarray, rank: int,
                 svd_mode: str = "standard") -> tuple[np.ndarray, np.ndarray]:
    """Project the pair onto the leading right singular directions of the
    vertically stacked pair.

    With rank equal to the column count this is an orthogonal change of
    basis; smaller ranks discard directions dominated by noise shared
    between the two matrices.
    """
    if x1.shape != x2.shape:
        raise ValueError("pair matrices must share one shape")
    cols = x1.shape[1]
    if not 1 <= rank <= min(2 * x1.shape[0], cols):
        raise ValueError(
            f"tlsq rank {rank} outside 1..{min(2 * x1.shape[0], cols)}"
        )
    z = np.vstack([x1, x2])
    _, _, vh = _svd(z, svd_mode)
    v = vh[:rank].conj().T
    return x1 @ v, x2 @ v


def default_fit_indices(n: int, count: int) -> np.ndarray:
    """count snapshot indices evenly spread over 0..n-1, endpoints included."""
    if count < 2:
        raise ValueError("need at least two fit snapshots")
    count = min(count, n)
    return np.unique(np.rint(np.linspace(0, n - 1, count)).astype(int))


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


def fit_coefficients_multi(modes: np.ndarray, mu: np.ndarray, data: np.ndarray,
                           indices: Sequence[int]) -> np.ndarray:
    """Joint least-squares amplitudes over several snapshots.

    Minimizes the stacked residual of data[:, n] - modes @ (mu**n * b)
    over the given snapshot indices.
    """
    modes = np.asarray(modes)
    mu = np.asarray(mu)
    data = np.asarray(data)
    idx = np.asarray(indices, dtype=int)
    if idx.size < 1:
        raise ValueError("need at least one fit snapshot")
    if (idx < 0).any() or (idx >= data.shape[1]).any():
        raise ValueError("fit indices outside the snapshot range")
    blocks = [modes * (mu[None, :] ** int(n)) for n in idx]
    rhs = np.concatenate([data[:, int(n)] for n in idx])
    return _solve_amplitudes(np.vstack(blocks), rhs, modes.shape[1])


def _conjugate_closed(mu: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether the eigenvalue multiset equals its own conjugate within tol."""
    key = np.lexsort((mu.imag, mu.real))
    ckey = np.lexsort((-mu.imag, mu.real))
    a = mu[key]
    b = np.conj(mu)[ckey]
    return bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(a))))


def mode_time_sum(modes: np.ndarray, mu: np.ndarray, b: np.ndarray,
                  times: Sequence[int]) -> np.ndarray:
    """Complex superposition modes @ diag(mu**n) b for each step index n."""
    steps = np.asarray(times, dtype=int)
    dyn = mu[:, None] ** steps[None, :]
    return modes @ (dyn * b[:, None])


def reconstruct(result: DmdResult, times: Sequence[int]) -> np.ndarray:
    """Superpose the modes at integer step indices, returning real columns.

    For a conjugate-closed mode set the imaginary residue must stay below
    1e-10 of each column norm; it is checked and discarded.  The removed
    temporal mean, when present, is added back so columns live in the
    units of the original data.
    """
    c = mode_time_sum(result.modes, result.mu, result.b, times)
    if _conjugate_closed(result.mu):
        col_norm = np.linalg.norm(c, axis=0)
        resid = np.linalg.norm(c.imag, axis=0)
        bad = resid > 1e-10 * np.maximum(col_norm, 1e-300)
        if bad.any():
            k = int(np.nonzero(bad)[0][0])
            raise NumericalError(
                f"imaginary residue {resid[k]:.3e} exceeds 1e-10 of column norm "
                f"{col_norm[k]:.3e} at step index {int(np.asarray(times)[k])}"
            )
    x = c.real
    if result.mean_mode is not None:
        x = x + result.mean_mode[:, None]
    return x


class _Reduced(NamedTuple):
    """One decomposition in R-factor coordinates, in result order.

    modes have unit norm and no phase convention yet; b fits them.
    """

    modes: np.ndarray
    mu: np.ndarray
    b: np.ndarray
    singular_values: np.ndarray
    residuals: np.ndarray


def _reduced_dmd(r1: np.ndarray, r2: np.ndarray, r_fit: np.ndarray, d: int,
                 opts: DmdOptions) -> _Reduced:
    """The decomposition of a pair given in R-factor coordinates.

    r1, r2 and r_fit hold the pair and the fit snapshots in one
    orthonormal basis Q (x = Q @ r), so they have at most N rows; d is
    the state dimension D of the original snapshots.  Column norms,
    singular values, eigenpairs and least-squares residuals are those of
    the original matrices, because Q preserves lengths.
    """
    cols = r1.shape[1]
    if opts.normalize_columns:
        r1, r2, _ = column_normalize(r1, r2)
    if opts.use_tlsq:
        rank = opts.tlsq_rank if opts.tlsq_rank is not None else opts.r
        if rank < opts.r:
            raise ValueError(f"tlsq_rank {rank} is below the truncation rank {opts.r}")
        r1, r2 = tlsq_project(r1, r2, rank, opts.svd_mode)
        cols = rank
    if not 1 <= opts.r <= min(d, cols):
        raise ValueError(
            f"truncation rank r={opts.r} infeasible for a {d}x{cols} matrix"
        )

    svd = truncated_svd(r1, opts.r, opts.svd_mode)
    if svd.sigma[-1] <= _RANK_RTOL * svd.sigma[0]:
        raise NumericalError(
            f"rank deficiency below r={opts.r}: sigma_r/sigma_1 = "
            f"{svd.sigma[-1] / svd.sigma[0]:.3e}"
        )

    # Reduced one-step operator and its eigendecomposition.
    r2_v_sinv = (r2 @ svd.v) / svd.sigma[None, :]
    k_reduced = svd.u.conj().T @ r2_v_sinv
    mu, w = np.linalg.eig(k_reduced)
    # eig returns real arrays for an all-real spectrum; the principal-branch
    # log of a negative eigenvalue needs the complex plane
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

    # Exact modes at unit norm; the phase convention needs the lifted modes.
    modes = r2_v_sinv @ w
    norms = np.linalg.norm(modes, axis=0)
    if (norms == 0.0).any():
        raise NumericalError("zero exact mode; cannot normalize")
    modes = modes / norms

    count = opts.fit_count()
    if count is None:
        b = fit_coefficients_first(modes, r_fit[:, 0])
    else:
        idx = default_fit_indices(r_fit.shape[1], count)
        b = fit_coefficients_multi(modes, mu, r_fit, idx)

    # |b| does not depend on the phase convention, so neither does the order.
    order = np.lexsort((np.angle(mu), -np.abs(mu), -np.abs(b)))
    return _Reduced(modes[:, order], mu[order], b[order],
                    svd.singular_values, residuals[order])


def _decompose(q: np.ndarray, r1: np.ndarray, r2: np.ndarray, r_fit: np.ndarray,
               d: int, opts: DmdOptions, mean_mode: np.ndarray | None,
               dt: float, t0: float) -> DmdResult:
    """The decomposition of a pair in R-factor coordinates, lifted by Q.

    The data rank is counted on r1 and resolves a default rank.  The lift
    is one real product: the complex coordinates, viewed as interleaved
    real and imaginary parts, give the complex modes in the memory of
    the product.  Each mode is then rotated so its largest-magnitude
    entry is real and positive, and its amplitude counter-rotated.
    """
    s = np.linalg.svd(r1, compute_uv=False)
    data_rank = int((s > s[0] * max(d, r1.shape[1]) * np.finfo(float).eps).sum())
    if opts.r is None:  # N - 4 = pair columns - 3
        opts = replace(opts, r=max(1, min(data_rank, r1.shape[1] - 3)))
    red = _reduced_dmd(r1, r2, r_fit, d, opts)
    coords = np.ascontiguousarray(red.modes)
    modes = (q @ coords.view(np.float64)).view(np.complex128)
    lead = modes[np.argmax(np.abs(modes), axis=0), np.arange(modes.shape[1])]
    phase = np.conj(lead) / np.abs(lead)
    modes *= phase[None, :]
    return DmdResult(
        modes=modes,
        mu=red.mu,
        gamma=np.log(red.mu) / dt,
        b=red.b / phase,
        singular_values=red.singular_values,
        residuals=red.residuals,
        options=opts,
        dt=dt,
        t0=t0,
        mean_mode=mean_mode,
        data_rank=data_rank,
    )


def dmd_from_pair(x1: np.ndarray, x2: np.ndarray, fit_data: np.ndarray,
                  dt: float, opts: DmdOptions,
                  mean_mode: np.ndarray | None = None, t0: float = 0.0) -> DmdResult:
    """Decomposition of an already-split snapshot pair.

    fit_data holds the snapshots the amplitudes are fitted against: the
    original matrix (centered when the mean was removed), never the
    normalized or projected pair.  The three matrices are compressed by
    one QR of [x1 | x2 | fit_data].
    """
    x1, x2, fit_data = np.asarray(x1), np.asarray(x2), np.asarray(fit_data)
    if x1.shape != x2.shape:
        raise ValueError("pair matrices must share one shape")
    cols = x1.shape[1]
    q, r = scipy.linalg.qr(np.hstack([x1, x2, fit_data]), mode="economic")
    return _decompose(q, r[:, :cols], r[:, cols:2 * cols], r[:, 2 * cols:],
                      x1.shape[0], opts, mean_mode, dt, t0)


def _qr_dmd(snap: SnapshotMatrix, opts: DmdOptions) -> tuple[DmdResult, np.ndarray]:
    """exact_dmd, also returning the R factor of its one economic QR.

    The snapshots, centered first under mean removal, are Q @ R: Q is
    D x min(D, N) with orthonormal columns and R is min(D, N) x N, so
    R[:, :-1] and R[:, 1:] are the regression pair in R coordinates.
    """
    data, mean_mode = snap.data, None
    if opts.remove_mean:
        mean_mode = data.mean(axis=1)
        data = data - mean_mode[:, None]
    q, r = scipy.linalg.qr(data, mode="economic")
    return _decompose(q, r[:, :-1], r[:, 1:], r, snap.d, opts, mean_mode, snap.dt, snap.t0), r


def exact_dmd(snap: SnapshotMatrix, opts: DmdOptions) -> DmdResult:
    """Run the full decomposition pipeline on a snapshot matrix."""
    return _qr_dmd(snap, opts)[0]


def deletion_spectra(snap: SnapshotMatrix, opts: DmdOptions, omitted: Sequence[int]
                     ) -> tuple[DmdResult, list[np.ndarray | NumericalError]]:
    """The decomposition of snap, then the spectrum of one rerun per entry
    of omitted, with that column of the regression pair deleted.

    The snapshots are factored once; a rerun deletes a column of the R
    pair and never forms a D-row array.  Its truncation rank (and TLSQ
    rank) are capped at the reduced column count.  A rerun that raises
    NumericalError yields the error in place of its spectrum.
    """
    base, r = _qr_dmd(snap, opts)
    r1, r2 = r[:, :-1], r[:, 1:]
    opts, cols = base.options, r1.shape[1]
    if cols < 2:
        raise ValueError("cannot delete a column from a single-column pair")
    trial_opts = replace(opts, r=min(opts.r, cols - 1),
                         tlsq_rank=min(opts.tlsq_rank or opts.r, cols - 1))
    spectra = []
    for i in omitted:
        try:
            spectra.append(_reduced_dmd(np.delete(r1, i, axis=1), np.delete(r2, i, axis=1),
                                        r, snap.d, trial_opts).mu)
        except NumericalError as exc:
            spectra.append(exc)
    return base, spectra
