"""Exact dynamic mode decomposition with optional debiasing refinements.

exact_dmd is the one entry: it takes a record of time-ordered snapshots
(in memory, or a file read in row blocks), regresses the one-step
propagator from the time-shifted pair of its columns through a rank-r
SVD and reads modes and eigenvalues off the reduced operator.  Two
optional refinements target poorly scaled or noisy data:

  * column normalization: both matrices of the pair are divided by the
    l2 norms of the first matrix's columns, equalizing snapshot weights
    in the regression without changing the operator being estimated;
  * total-least-squares projection: the pair is compressed onto the
    leading right singular directions of the vertically stacked pair,
    removing the asymmetry of ordinary least squares to noise in the
    "input" snapshots.

Every SVD calls LAPACK's divide-and-conquer gesdd: QR-iteration gesvd was
no more accurate on graded matrices (7.1e-7 for both without column
normalization, which removes the grading) and 3.2x slower at N = 144.

The SVD is numpy.linalg.svd's gesdd; the QR routines are reached through
_lapack, which calls them in the same OpenBLAS, the one numpy links, with
scipy.linalg's arguments and workspace sizes.  So a process maps one
OpenBLAS and no scipy object, and on one BLAS thread the bits are scipy's.
The amplitude fit calls zgelsd through _lapack as np.linalg.lstsq does,
but on its stacked system in place, which lstsq would copy.

Amplitudes are always fitted against the original, unscaled snapshots
by one joint least-squares fit over a set of snapshot indices: {0} for
the first-snapshot fit, or a small set spread across the record.

Cost model.  The snapshots are read in two passes over fixed-size row
blocks, each pass through its own buffer, so no D-row matrix is ever held.
Pass 1 is the tall-skinny QR of Demmel, Grigori, Hoemmen & Langou (SIAM
J. Sci. Comput. 2012), run as a reduction tree, as Sayadi & Schmid run
it for DMD (Theor. Comput. Fluid Dyn. 2016).  Its leaves are two blocks
each, but the first takes as many as R needs to reach N rows.  A leaf
centers each block (under remove_mean; a row's mean is local to its
block) and folds it into the R factor of the leaf's rows so far,
R <- R factor of [R; block].  In the first leaf, until R has N rows, a
fold stacks R above the block and factors the stack with geqrf; from
then on LAPACK's triangular-pentagonal tpqrt folds each block into the
N x N triangle, at about half the cost of refactoring the stack (8
against 17 ms per 4096 x 144 block), since it leaves R's zeros alone.
Every later leaf folds its blocks into an N x N zero triangle the same
way.  The leaves' triangles then merge pairwise, level by level, by
tpqrt with l = N (0.3 ms at N = 144).  The tree's shape depends on D
and N only, never on the CPU count.  An input of one leaf (D up to 8192
rows while N is at most 8192) rounds as the sequential fold of every
block into one R did: a single block is factored by geqrf alone, and
its R is bitwise that of scipy.linalg.qr of the whole matrix (geqrt on
the stack is faster but rounds differently, enough to move a nearly
colliding eigenvalue pair past 1e-10 of the D-row reference).  A larger
input rounds differently from that fold, and the same on any number of
CPUs.  The snapshots are then X = Q R for an orthonormal Q that is
never formed.  Every later step runs on R[:, :-1], R[:, 1:] and R,
which have at most N rows: normalization, TLSQ, the truncated SVD, the
reduced eig and the amplitude fit each cost O(N^3) or less.  Q
preserves lengths, so column norms, singular values, eigenpairs and
least-squares residuals are those of the original matrices.  Pass 2
lifts the modes as X2 (M w): M folds the column scaling, the TLSQ
projection, V Sigma^-1 and the unit norm, so Q is never needed
(Q R2 = X2).  M also folds each mode's phase: the unit factor of its
amplitude, known from the reduced problem, so every amplitude is real
and non-negative and pass 2 writes each block's rows of the modes, in
their final form, to a DMDM file (a fileio.ColumnFile) once.  This
continues the row-block streaming of Sayadi & Schmid to the D x r
modes, which are never held in memory either.  Each row of the lifted
modes comes from one product of the _LIFT_ROWS rows read with it,
counted from its leaf's start, so pass 2 splits the leaves by row range
and writes the serial file, bit for bit.
A column-deletion trial (deletion_spectrum) deletes a column of a
result's R pair and computes eigenvalues only: no modes, residuals or
amplitude fit.

CPUs.  Both passes state what each leaf costs, its rows, and
_workers.in_order spreads the leaves over every CPU of the affinity set,
unless the process runs a second thread such as a BLAS pool: one
contiguous run per process, the parent's first.  Pass 1's workers return
the roots of the complete subtrees in their runs, O(log leaves)
triangles, and the parent merges them; pass 2's write their rows of the
mode file.  Each process is pinned to its own CPU of the set, since a
forked process otherwise stays on its parent's CPU: on a 74,960 x 144
file and 2 vCPUs, a two-process pass 1 took
214-274 ms unpinned, slower than the serial 199-243 ms, and 124-168 ms
pinned (8 alternating calls each).  An input of one leaf forks nothing.
Memory holds one pass's block per process, its r lifted columns and
O(N^2 log(D / 8192)) numbers: pass 1's _BLOCK_ROWS rows go with pass 1,
and pass 2 reads _LIFT_ROWS rows at a time.

Rank.  The data rank is counted on R[:, :-1], whose singular values are
those of the D x (N-1) regression matrix: those above
sigma_1 * max(D, N-1) * eps count (numpy's matrix_rank rule).
DmdOptions(r=None) takes the default rank max(1, min(data rank, N - 4)).
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import _lapack, _workers
from .errors import NumericalError
from .fileio import MODES_MAGIC, ColumnFile
from .grids import SnapshotMatrix

# Rows per block of pass 1, whose leaves pass 2 splits too.  Fixed, so
# that a rerun repeats every floating-point operation.
_BLOCK_ROWS = 4096
# Column block size of tpqrt's compact-WY reflectors when pass 1 folds a
# block into a full R.  Fixed for the same reason; 16 and 32 measure
# alike at N = 144.
_FOLD_NB = 16
# Rows per C-ordered copy from which pass 1 takes row means.
_MEAN_ROWS = 256
# Rows per read and BLAS product of pass 2, each product of a fresh
# F-ordered block: a row's bits depend on D and N only, not on a buffer.
_LIFT_ROWS = 1024
# Columns per C-ordered copy from which the amplitude fit takes its norms.
_NORM_COLS = 8

# Condition number of the reduced eigenvector matrix beyond which the
# eigenproblem is reported as (numerically) defective.
_DEFECTIVE_COND = 1e12
# Relative floor under which trailing singular values count as rank loss.
_RANK_RTOL = 1e-13


@dataclass(frozen=True)
class DmdOptions:
    """Settings for one decomposition run.

    r is the truncation rank; None takes the default rank
    max(1, min(data rank, N - 4)) of the data decomposed.  With use_tlsq
    the pair is projected at rank r too.
    b_fit is "first" (the joint amplitude fit over snapshot 0 alone) or
    "multi:<count>" (over count snapshots evenly spread over the record,
    endpoints included).  Both are checked on construction, before any
    data is read; the CLI builds its options as the config is read."""

    r: int | None = None
    use_tlsq: bool = False
    normalize_columns: bool = False
    remove_mean: bool = False
    b_fit: str = "first"

    def __post_init__(self):
        if self.r is not None and self.r < 1:
            raise ValueError(f"truncation rank r must be >= 1, got {self.r}")
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
        return asdict(self)


def modified_options(r: int | None) -> DmdOptions:
    """Options for the debiased variant: normalization, TLSQ at rank r
    and a joint amplitude fit over 10 snapshots."""
    return DmdOptions(r=r, use_tlsq=True, normalize_columns=True, b_fit="multi:10")


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

    Columns of modes have unit l2 norm and carry the phase of their
    fitted amplitudes, so b is real and non-negative: a real mode stays
    real, and a conjugate pair, exactly conjugate modes, shares the larger
    of its two fitted |b|.  Entries are sorted by descending b, ties
    broken by descending |mu| then ascending arg(mu): a pair is adjacent,
    its negative imaginary part first.  partner[k] is the 0-based index of
    mode k's conjugate partner, None for a real mode: the pairs eig
    returns.  The mode table, the ROM closure and slice's ellipses read
    it; nothing else decides which modes pair.  gamma holds the continuous-time exponents log(mu)/dt on
    the principal branch.
    mean_mode is the removed temporal mean when the option was on, None
    without centering.  data_rank is the numerical rank of the (centered)
    regression matrix, and options.r the truncation rank in force.
    exact_dmd builds every result and sets every field.  factor holds its
    snapshots and modes in R-factor coordinates for rom_norms, and only
    functions of this module read it.  Its modes are a read-only
    np.memmap of modes_file, the DMDM file exact_dmd wrote at the
    destination its caller gave, or in an unlinked temporary in TMPDIR:
    a page is read from disk when touched, and mode(k, rows) reads rows of
    one column without touching the map.
    """

    modes: np.ndarray
    mu: np.ndarray
    gamma: np.ndarray
    b: np.ndarray
    singular_values: np.ndarray
    residuals: np.ndarray
    partner: tuple[int | None, ...]
    options: DmdOptions
    dt: float
    t0: float
    data_rank: int
    factor: "_Factor" = field(repr=False, compare=False)
    modes_file: ColumnFile = field(repr=False, compare=False)
    mean_mode: np.ndarray | None = None

    @property
    def r(self) -> int:
        return self.mu.size

    def mode(self, k: int, rows: slice) -> np.ndarray:
        """A contiguous run of rows of mode k (0-based), in a new array,
        read from modes_file: no page of the mapped modes enters memory."""
        start, stop, _ = rows.indices(self.modes.shape[0])
        out = np.empty(max(stop - start, 0), dtype=complex)
        self.modes_file.read_column(k, start, out)
        return out


def column_norms(a: np.ndarray, c_order: bool = False) -> np.ndarray:
    """l2 norms of the columns of a, finite whenever they fit in a float.

    Squaring entries above ~1e154 overflows; a column whose norm came out
    infinite is divided by its largest magnitude and measured again.
    With c_order they are, to the bit, those of a C-ordered copy of a,
    taken from C-ordered copies of 2 to _NORM_COLS + 1 of its columns at
    a time (of its one column when it has one), so no copy of a is held:
    numpy sums each column of a C-ordered matrix of two columns or more
    row by row, as in the whole matrix, and a one-column matrix pairwise.
    """
    copy = np.ascontiguousarray if c_order else np.asarray
    cuts = [0, *range(_NORM_COLS, a.shape[1] - 1, _NORM_COLS)] if c_order else [0]
    with np.errstate(over="ignore"):
        norms = np.concatenate([np.linalg.norm(copy(a[:, i:j]), axis=0)
                                for i, j in zip(cuts, [*cuts[1:], a.shape[1]])])
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


def _svd(a: np.ndarray, with_u: bool = True) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    try:
        u, s, vh = np.linalg.svd(np.asarray_chkfinite(a), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    # F order, as scipy.linalg.svd returns them: the bits of the products
    # taken of u and vh depend on their layout.  A u not asked for is not copied.
    return np.asfortranarray(u) if with_u else None, s, np.asfortranarray(vh)


def truncated_svd(a: np.ndarray, r: int) -> TruncatedSvd:
    """Rank-r SVD of a, keeping the discarded singular values as a tail."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("need a 2-D matrix")
    if not 1 <= r <= min(a.shape):
        raise ValueError(f"rank r={r} outside 1..{min(a.shape)} for shape {a.shape}")
    u, s, vh = _svd(a)
    return TruncatedSvd(u=u[:, :r], sigma=s[:r], v=vh[:r].conj().T, sigma_tail=s[r:])


def _tlsq_basis(x1: np.ndarray, x2: np.ndarray, rank: int) -> np.ndarray:
    """The leading rank right singular vectors of the stacked pair."""
    if x1.shape != x2.shape:
        raise ValueError("pair matrices must share one shape")
    _, _, vh = _svd(np.vstack([x1, x2]), with_u=False)
    return vh[:rank].conj().T


def default_fit_indices(n: int, count: int) -> np.ndarray:
    """count snapshot indices evenly spread over 0..n-1, endpoints included."""
    if count < 2:
        raise ValueError("need at least two fit snapshots")
    idx = np.rint(np.linspace(0, n - 1, min(count, n))).astype(int)
    # never decreasing, so dropping repeats of the previous index is
    # np.unique, whose first call imports numpy.ma
    return idx[np.r_[True, idx[1:] != idx[:-1]]]


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
    # F-ordered, for LAPACK to solve in place.
    m = np.empty((idx.size * rows, modes.shape[1]), dtype=np.result_type(modes, mu), order="F")
    for i, n in enumerate(idx):
        np.multiply(modes, mu[None, :] ** int(n), out=m[i * rows:(i + 1) * rows])
    rhs = np.concatenate([data[:, int(n)] for n in idx])
    # Unit columns: a fast mode's mu**n column must not set the scale the
    # rank test measures every other column against.
    scales = column_norms(m, c_order=True)
    scales[scales == 0.0] = 1.0
    m /= scales
    b, rank, sv, info = _lapack.zgelsd(m, rhs)
    if info != 0:
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    if rank < modes.shape[1]:
        raise NumericalError(
            f"amplitude fit is rank deficient ({rank} < {modes.shape[1]}); "
            f"smallest singular value {sv[-1]:.3e} of the column-scaled system"
        )
    return b / scales


def mode_time_sum(modes: np.ndarray, mu: np.ndarray, b: np.ndarray,
                  times: Sequence[int]) -> np.ndarray:
    """Complex superposition modes @ diag(mu**n) b for each step index n."""
    steps = np.asarray(times, dtype=int)
    dyn = mu[:, None] ** steps[None, :]
    return modes @ (dyn * b[:, None])


class _Spectrum(NamedTuple):
    """The reduced eigenproblem of one pair in R-factor coordinates.

    mu and w are the eigenpairs of k_reduced, in eig's order.  The
    (unnormalized) exact modes are r2_v_sinv @ w in R coordinates and
    x2 @ lift @ w for the pair's own second matrix x2: lift folds the
    column scaling, the TLSQ projection and V Sigma^-1.
    """

    mu: np.ndarray
    w: np.ndarray
    k_reduced: np.ndarray
    r2_v_sinv: np.ndarray
    lift: np.ndarray
    singular_values: np.ndarray


def _spectrum(r1: np.ndarray, r2: np.ndarray, opts: DmdOptions) -> _Spectrum:
    """The eigenvalues of a pair given in R-factor coordinates.

    r1 and r2 hold the pair in one orthonormal basis Q (x = Q @ r), so
    they have at most N rows.  Column norms, singular values and
    eigenpairs are those of the original matrices, because Q preserves
    lengths.  opts.r is feasible: exact_dmd checks it against D and the
    pair columns, and deletion_spectrum caps it.  Raises NumericalError on rank loss below opts.r, a
    numerically defective eigenvector matrix or a zero eigenvalue.
    """
    scales = basis = None
    if opts.normalize_columns:
        r1, r2, scales = column_normalize(r1, r2)
    if opts.use_tlsq:
        basis = _tlsq_basis(r1, r2, opts.r)
        r1, r2 = r1 @ basis, r2 @ basis

    svd = truncated_svd(r1, opts.r)
    if svd.sigma[-1] <= _RANK_RTOL * svd.sigma[0]:
        raise NumericalError(
            f"rank deficiency below r={opts.r}: sigma_r/sigma_1 = "
            f"{svd.sigma[-1] / svd.sigma[0]:.3e}"
        )

    # Reduced one-step operator and its eigendecomposition; X2 V Sigma^-1
    # is rounded in the order of the D-row formulation.
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
    if (np.abs(mu) == 0.0).any():
        raise NumericalError("zero eigenvalue; continuous-time exponent undefined")
    lift = svd.v / svd.sigma[None, :]
    if basis is not None:
        lift = basis @ lift
    if scales is not None:
        lift = lift / scales[:, None]
    return _Spectrum(mu, w, k_reduced, r2_v_sinv, lift, svd.singular_values)


class _Reduced(NamedTuple):
    """One decomposition in R-factor coordinates, in result order.

    The modes are x2 @ lift for the pair's second matrix x2, in D rows or
    in R coordinates, and b and partner are DmdResult's.
    """

    mu: np.ndarray
    b: np.ndarray
    singular_values: np.ndarray
    residuals: np.ndarray
    lift: np.ndarray
    partner: tuple[int | None, ...]


def _reduced_dmd(r1: np.ndarray, r2: np.ndarray, r_fit: np.ndarray, opts: DmdOptions) -> _Reduced:
    """The decomposition of a pair given in R-factor coordinates.

    _spectrum of the pair, then the eig residuals, the exact modes and
    their amplitudes fitted against r_fit, the fit snapshots in the same
    basis Q, whose unit factors the lift takes (DmdResult).  Least-squares
    residuals are those of the original matrices, because Q preserves lengths.
    """
    sp = _spectrum(r1, r2, opts)
    mu, w = sp.mu, sp.w
    residuals = np.linalg.norm(sp.k_reduced @ w - w * mu[None, :], axis=0)

    modes = sp.r2_v_sinv @ w
    norms = np.linalg.norm(modes, axis=0)
    if (norms == 0.0).any():
        raise NumericalError("zero exact mode; cannot normalize")
    modes = modes / norms

    count = opts.fit_count()
    idx = [0] if count is None else default_fit_indices(r_fit.shape[1], count)
    b = fit_coefficients_multi(modes, mu, r_fit, idx)

    # eig of the real operator returns each pair adjacent and exactly
    # conjugate, the positive imaginary part first.  b's unit factor: a
    # real mode's the sign of its real part, an upper member's b / |b|,
    # its partner's the conjugate; 1 where b is 0.
    amp = np.abs(b)
    first = np.flatnonzero(mu.imag > 0)
    unit = np.where(b.real < 0, -1.0, 1.0).astype(complex)
    unit[first] = np.divide(b[first], amp[first], out=unit[first], where=amp[first] > 0)
    unit[first + 1] = unit[first].conj()
    coef = sp.lift @ w / norms * unit
    # A pair's two |b| differ by round-off only: both partners take the
    # larger, so arg(mu) orders the pair.
    amp[first] = amp[first + 1] = np.maximum(amp[first], amp[first + 1])
    order = np.lexsort((np.angle(mu), -np.abs(mu), -amp))
    at = np.argsort(order)  # the result position of each of eig's entries
    partner: list[int | None] = [None] * mu.size
    for i, j in zip(at[first].tolist(), at[first + 1].tolist()):
        partner[i], partner[j] = j, i
    return _Reduced(mu[order], amp[order].astype(complex), sp.singular_values,
                    residuals[order], coef[:, order], tuple(partner))


class _Factor(NamedTuple):
    """Pass 1 over a snapshot source, with the modes once they are known.

    With Q the orthonormal basis the pass never forms, the source's n
    columns (centered under mean removal) are Q @ r[:, :n], and the
    removed mean is Q @ r[:, n].  r has min(D, columns) rows.  mean is
    the D-row mean, norms the column norms of the uncentered source,
    and the result's modes are Q @ modes, on the first min(D, n) rows.
    """

    r: np.ndarray
    mean: np.ndarray | None
    norms: np.ndarray
    modes: np.ndarray | None = None


class _Node(NamedTuple):
    """A node of pass 1's tree, the R factor of its rows.

    Its rows (centered under mean removal) are Q @ r for an orthonormal Q
    that is never formed.  Under centering m_r holds the row means in the
    same coordinates, m_out their length outside them and norms the
    column norms of the uncentered rows; without it they stay zero.
    """

    r: np.ndarray
    m_r: np.ndarray
    m_out: float
    norms: np.ndarray


def _blocks(start: int, stop: int, rows: int):
    for lo in range(start, stop, rows):
        yield lo, min(lo + rows, stop)


def _leaves(d: int, n: int) -> list[tuple[int, int]]:
    """The row ranges of pass 1's leaves, by which pass 2 splits its rows
    too: two blocks each, but the first takes as many as R needs to
    reach n rows."""
    first = max(2, -(-n // _BLOCK_ROWS)) * _BLOCK_ROWS
    bounds = [0, *range(first, d, 2 * _BLOCK_ROWS), d]
    return list(zip(bounds, bounds[1:]))


def _subtrees(run: range, leaves: int) -> list[tuple[int, int]]:
    """The largest nodes of the tree over leaves leaves that tile run, in
    order, as (height, index): node j at height h covers leaves j 2^h ..
    (j + 1) 2^h - 1, those of them that exist."""
    out, a = [], run.start
    while a < run.stop:
        h = 0
        while (1 << h) < leaves and a % (2 << h) == 0 and min(a + (2 << h), leaves) <= run.stop:
            h += 1
        out.append((h, a >> h))
        a = min(a + (1 << h), leaves)
    return out


def _block_buffer(d: int, n: int) -> np.ndarray:
    """Pass 1's flat buffer for its blocks.  Its largest use is a block
    stacked under R while R has fewer than n rows."""
    return np.empty(max(stop if start < n else stop - start
                        for start, stop in _blocks(0, d, _BLOCK_ROWS)) * n)


def _rows(buf: np.ndarray, rows: int, n: int) -> np.ndarray:
    """The head of buf as an F-ordered rows x n matrix."""
    return buf[:rows * n].reshape((rows, n), order="F")


def _factor(src, center: bool) -> _Factor:
    """Pass 1: the R factor of src by a reduction tree over its leaves.

    Leaves (_leaves) are folded by _fold and merged pairwise, level by
    level, by _merge: node j at height h merges nodes 2j and 2j + 1 at
    height h - 1, or is node 2j where 2j + 1 does not exist.  The tree
    depends on D and N only.  _workers.in_order cuts the leaves into
    contiguous runs, one per process, by their rows: each process reduces
    the complete subtrees inside its run and returns their roots and rows
    of the mean, and the parent merges the roots into the tree's root.
    So the result is the same on any number of CPUs, and an input of one
    leaf is factored as by _fold alone.  Its block buffer (_block_buffer)
    is freed as it returns: no reference cycle holds it.
    """
    n = src.n
    buf = _block_buffer(src.d, n)
    mean = np.empty(src.d) if center else None
    leaves = _leaves(src.d, n)

    def span(h: int, j: int) -> slice:
        return slice(leaves[j << h][0], leaves[min((j + 1) << h, len(leaves)) - 1][1])

    def fold(j: int) -> _Node:
        return _fold(src, center, buf, mean, *leaves[j])

    def subtrees(run: range) -> list:
        return [(hj, _node(*hj, {}, fold, len(leaves), center),
                 None if mean is None else mean[span(*hj)])
                for hj in _subtrees(run, len(leaves))]

    costs = [stop - start for start, stop in leaves]
    costs[0] += _BLOCK_ROWS  # geqrf's start of the first leaf
    known = {}
    for hj, value, rows in _workers.in_order(costs, subtrees):
        known[hj] = value
        if mean is not None:
            mean[span(*hj)] = rows
    r, m_r, m_out, norms = _node((len(leaves) - 1).bit_length(), 0, known, fold, len(leaves),
                                 center)
    if not center:
        return _Factor(r, mean, column_norms(r))
    r = np.c_[r, m_r]
    if src.d > n:  # the part of m outside the span of X_c
        r = np.r_[r, np.r_[np.zeros(n), m_out][None, :]]
    return _Factor(r, mean, norms)


def _node(h: int, j: int, known: dict, fold, leaves: int, center: bool) -> _Node:
    """Node j at height h of pass 1's tree over leaves leaves: known's if
    a process reduced it, fold(j) for a leaf, else its children merged."""
    if (h, j) in known:
        return known.pop((h, j))
    if h == 0:
        return fold(j)
    left = _node(h - 1, 2 * j, known, fold, leaves, center)
    if (2 * j + 1) << (h - 1) >= leaves:
        return left
    return _merge(left, _node(h - 1, 2 * j + 1, known, fold, leaves, center), center)


def _fold(src, center: bool, buf: np.ndarray, mean: np.ndarray | None,
          start: int, stop: int) -> _Node:
    """A leaf of pass 1: R <- R factor of [R; block] over the blocks of
    rows start..stop-1 of src, each read into the head of buf, folded into
    R in place and never held after its fold.

    The first leaf starts from an empty R: while R has fewer than N rows
    the buffer stacks R above the block and geqrf factors the stack, so a
    single block is factored by geqrf alone.  Once R is a full N x N
    triangle, tpqrt folds the block into it; any other leaf starts from
    an N x N zero triangle and folds each of its blocks so.  Centering
    writes the row means m of the leaf into mean and carries them as one
    more column, [X_c | m] = Q R, by applying each fold's reflectors to
    them, so the data columns of R round as those of X_c alone.  The
    column norms of the uncentered rows are accumulated over the row
    slices the means are taken from, since R[:, j] + R[:, N] cancels when
    the mean dwarfs a snapshot.
    """
    n = src.n
    r = np.empty((0, n)) if start == 0 else np.zeros((n, n), order="F")
    norms = np.zeros(n)
    m_r, m_out = np.zeros(r.shape[0]), 0.0  # R coordinates of m, its norm outside them
    for start, stop in _blocks(start, stop, _BLOCK_ROWS):
        fold = r.shape[0] == n
        k = 0 if fold else r.shape[0]  # rows of R stacked above the block
        stack = _rows(buf, k + stop - start, n)
        block = stack[k:]
        src.read_rows(start, block)
        if center:
            # numpy sums a contiguous row pairwise, an F-ordered block's
            # rows one column at a time with an error growing with n; a
            # C-ordered copy of a few rows at a time keeps the pairwise sum
            m = mean[start:stop]
            for i in range(0, stop - start, _MEAN_ROWS):
                rows = np.ascontiguousarray(block[i:i + _MEAN_ROWS])
                rows.mean(axis=1, out=m[i:i + _MEAN_ROWS])
                norms = np.hypot(norms, column_norms(rows))
            block -= m[:, None]
        what = f"fold of rows {start}..{stop - 1}"
        if fold:
            r, top, rest = _tpqrt(0, r, block, (m_r, m) if center else None, what)
        else:
            stack[:k] = r
            h, tau, info = _lapack.geqrf(stack)
            r = np.triu(h[:n])
            if center and info == 0:
                c, info = _lapack.dormqr(h[:, :tau.size], tau, np.r_[m_r, m][:, None])
                top, rest = c[:r.shape[0], 0], np.linalg.norm(c[r.shape[0]:, 0])
            if info != 0:
                raise NumericalError(f"LAPACK {what} failed, info {info}")
        if center:
            m_r, m_out = top, np.hypot(m_out, rest)
    return _Node(r, m_r, m_out, norms)


def _merge(a: _Node, b: _Node, center: bool) -> _Node:
    """The node of a's rows above b's: tpqrt with l = N folds b's N x N
    triangle into a's, and under centering the same reflectors carry the
    row means; the lengths outside them and the column norms combine."""
    r, m_r, rest = _tpqrt(a.r.shape[1], a.r, b.r, (a.m_r, b.m_r) if center else None,
                          "merge of two R factors")
    return _Node(r, a.m_r if m_r is None else m_r, np.hypot(np.hypot(a.m_out, b.m_out), rest),
                 np.hypot(a.norms, b.norms))


def _tpqrt(l: int, a: np.ndarray, b: np.ndarray, carry: tuple[np.ndarray, np.ndarray] | None,
           what: str) -> tuple[np.ndarray, np.ndarray | None, float]:
    """One tpqrt step: the N x N triangle of [a; b], where a is N x N upper
    triangular and b's first l rows are (l = 0 or N).  carry, a column
    split into a's rows and b's, is carried by the same reflectors
    (tpmqrt).  Returns the triangle, the carried top and the length of the
    carried rest: None and 0 without carry.  Raises NumericalError, naming
    what, when LAPACK fails."""
    n = a.shape[1]
    r, v, t, info = _lapack.dtpqrt(l, min(_FOLD_NB, n), a, b)
    top, length = None, 0.0
    if carry is not None and info == 0:
        top, rest, info = _lapack.dtpmqrt(l, v, t, carry[0][:, None], carry[1][:, None])
        top, length = top[:, 0], np.linalg.norm(rest)
    if info != 0:
        raise NumericalError(f"LAPACK {what} failed, info {info}")
    return r, top, length


def _lift(src, mean: np.ndarray | None, coef: np.ndarray, partner: Sequence[int | None],
          buf: np.ndarray, out: ColumnFile) -> None:
    """Pass 2: the D-row product of the (centered) snapshots 1..N-1 of
    src with coef, the modes in their final form, written to out: a
    pair's first member (partner: DmdResult.partner) is lifted and its
    conjugate written as the second, so they are exact conjugates.
    _workers.in_order cuts pass 1's leaves into contiguous runs, one per
    process, by their rows.  A leaf is lifted _LIFT_ROWS rows at a time,
    each read into the head of buf, of min(_LIFT_ROWS, D) x N floats, by
    one BLAS product, and written to out one column's rows at a time."""
    cols = [(k, p) for k, p in enumerate(partner) if p is None or p > k]
    real = np.ascontiguousarray(coef[:, [k for k, _ in cols]]).view(np.float64)
    leaves = _leaves(src.d, src.n)

    def leaf(start: int, stop: int) -> None:
        most = min(_LIFT_ROWS, stop - start)
        prod, col = np.empty((most, real.shape[1])), np.empty(most, dtype=complex)
        for start, stop in _blocks(start, stop, _LIFT_ROWS):
            block = _rows(buf, stop - start, src.n)
            src.read_rows(start, block)
            if mean is not None:
                block -= mean[start:stop, None]
            phi = np.matmul(block[:, 1:], real, out=prod[:stop - start]).view(np.complex128)
            c = col[:stop - start]
            for j, (k, p) in enumerate(cols):
                np.copyto(c, phi[:, j])
                out.write_column(k, start, c)
                if p is not None:
                    out.write_column(p, start, np.conjugate(c, out=c))

    _workers.in_order([stop - start for start, stop in leaves],
                      lambda run: [leaf(*leaves[j]) for j in run])


def exact_dmd(snap: SnapshotMatrix, opts: DmdOptions, dest: Path | None = None) -> DmdResult:
    """The decomposition of snapshots: the one entry to this module's
    pipeline.

    snap is a SnapshotMatrix, or any source with the same d, n, dt, t0
    and read_rows, such as a fileio.SnapshotFile, which is then read in
    two passes of row blocks and never held in memory.  Pass 1 factors
    the snapshots (centered under opts.remove_mean), X = Q R; the pair
    is R[:, :-1], R[:, 1:] and the amplitudes are fitted against R.  The
    data rank is counted on R[:, :-1] and resolves a default rank.  Once
    the reduced decomposition succeeds, pass 2 lifts the modes into a
    DMDM fileio.ColumnFile at dest (an unlinked temporary in TMPDIR if
    None), each with the phase of its amplitude, so every b is real and
    non-negative (DmdResult), and reads nothing back.  The result's
    modes map that file read-only; no D x r array is held.
    A set rank above min(D, N - 1) raises ValueError before any row is read.
    """
    feasible = min(snap.d, snap.n - 1)
    if opts.r is not None and opts.r > feasible:  # DmdOptions checks r >= 1
        raise ValueError(f"rank {opts.r} infeasible for a {snap.d}x{snap.n - 1} regression "
                         f"matrix; the largest feasible rank is {feasible}")
    fac = _factor(snap, opts.remove_mean)
    r = fac.r[:min(snap.d, snap.n), :snap.n]
    s = np.linalg.svd(r[:, :-1], compute_uv=False)
    data_rank = int((s > s[0] * max(snap.d, snap.n - 1) * np.finfo(float).eps).sum())
    if opts.r is None:
        opts = replace(opts, r=max(1, min(data_rank, snap.n - 4)))
    red = _reduced_dmd(r[:, :-1], r[:, 1:], r, opts)
    mode_file = ColumnFile.create(dest, MODES_MAGIC, snap.d, red.mu.size, snap.dt, snap.t0)
    _lift(snap, fac.mean, red.lift, red.partner, np.empty(min(_LIFT_ROWS, snap.d) * snap.n),
          mode_file)
    return DmdResult(
        modes=mode_file.matrix(),
        mu=red.mu,
        gamma=np.log(red.mu) / snap.dt,
        b=red.b,
        singular_values=red.singular_values,
        residuals=red.residuals,
        partner=red.partner,
        options=opts,
        dt=snap.dt,
        t0=snap.t0,
        mean_mode=fac.mean,
        data_rank=data_rank,
        factor=fac._replace(modes=r[:, 1:] @ red.lift),
        modes_file=mode_file,
    )


def rom_norms(result: DmdResult, indices: Sequence[int]
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The norms ||x_n||, ||xhat_n|| and ||x_n - xhat_n|| of every snapshot
    n that exact_dmd decomposed into result.

    xhat_n is the real superposition of the 1-based modes indices at
    step n, plus the removed mean: rom.reconstruct_rom's column.  The
    last two norms are taken in R-factor coordinates, on vectors of at
    most N + 1 rows; ||x_n|| comes from pass 1.
    """
    fac = result.factor
    pos = np.asarray(indices, dtype=int) - 1
    n = fac.norms.size
    k = fac.modes.shape[0]
    xhat = mode_time_sum(fac.modes[:, pos], result.mu[pos], result.b[pos], np.arange(n)).real
    err = column_norms(fac.r[:k, :n] - xhat)
    if fac.mean is not None:
        xhat += fac.r[:k, n:]
        # a mean outside the span of the centered snapshots adds one row
        xhat = np.vstack([xhat, np.repeat(fac.r[k:, n:], n, axis=1)])
    return fac.norms, column_norms(xhat), err


def deletion_spectrum(result: DmdResult, column: int) -> np.ndarray:
    """The eigenvalues of result's decomposition rerun with one column of
    its regression pair deleted, sorted by descending |mu| then
    ascending arg(mu).

    result comes from exact_dmd: the rerun deletes the column from the R
    pair in result.factor and never forms a D-row array.  Its truncation
    rank is capped at the reduced column count.  It
    computes eigenvalues only: it forms no modes and fits no amplitudes,
    so it cannot fail on the amplitude fit.  Raises NumericalError on
    rank loss, a defective eigenvector matrix or a zero eigenvalue.
    """
    fac, opts = result.factor, result.options
    n = fac.norms.size
    r = fac.r[:fac.modes.shape[0], :n]
    cap = n - 2  # the pair columns left after the deletion
    opts = replace(opts, r=min(opts.r, cap))
    mu = _spectrum(np.delete(r[:, :-1], column, axis=1), np.delete(r[:, 1:], column, axis=1), opts).mu
    return mu[np.lexsort((np.angle(mu), -np.abs(mu)))]
