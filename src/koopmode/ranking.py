"""Mode ranking, persistence, and eigenvalue robustness analysis.

A mode's mean l2 contribution over a window of length T is the closed
form

    E = |b| * sqrt((exp(2 sigma T) - 1) / (2 sigma T)),

the RMS of |b| exp(sigma t) over [0, T]; it degenerates to |b| as
sigma -> 0.  Modes whose envelope decays below a cut fraction of its
initial value within the window count as non-persistent transients.

Robustness is probed by rerunning the decomposition with one column of
the regression pair deleted (drawn from a seeded random.Random), pooling
the perturbed spectra, and reading a Gaussian kernel density over the
complex plane at each eigenvalue of the full run:

    d_h(z) = (1/Z) * sum_k w_k exp(-|z - p_k|^2 / h^2),  Z = (sum w) pi h^2.

Stable eigenvalues accumulate tight stacks of perturbed copies and score
high; spurious ones scatter.  Clusters are 4-connected components of a
rasterized superlevel set of the same density at a wider bandwidth.  The
raster adds each kernel as the outer product of two 1-D factors on a
square window, in chunks of bounded memory, and the components come from
this module's own run-length labeller, so no command imports scipy.ndimage.

The reruns are independent, so leave_one_out spreads them over the CPUs
through _workers.in_order, and the result is the serial one, bit for
bit.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import _workers
from .dmd import DmdResult, deletion_spectrum
from .errors import NumericalError
from .grids import GridLayout
from .modes import ModeInfo, half_doubling_time, period

ROBUSTNESS_BANDWIDTH = 2e-3
CLUSTER_BANDWIDTH = 2.5e-2
CLUSTER_LEVEL_FRACTION = 0.1
# Largest KDE raster kde_grid allocates: 2**25 float64 cells are 256 MiB.
KDE_MAX_CELLS = 2 ** 25
# Points whose per-axis kernel factors kde_grid forms at once.
_KDE_CHUNK = 256
# Query-by-point cells of the kernel table kde_eval forms at once.
_KDE_EVAL_CELLS = 2 ** 16
# Channel whose share of each mode fills the vertically weighted RMS column.
VERTICAL_CHANNEL = "uz"


def rms_contribution(b: complex, gamma: complex, t_window: float) -> float:
    """Mean l2 contribution of one unit-norm mode over [0, t_window].

    inf when the mode grows beyond the float range within the window.
    """
    if t_window <= 0:
        raise ValueError("window length must be positive")
    x = gamma.real * t_window
    if abs(x) < 1e-8:
        return abs(b)
    try:
        return abs(b) * math.sqrt(math.expm1(2.0 * x) / (2.0 * x))
    except OverflowError:
        return math.inf


def component_rms(phi: np.ndarray, b: complex, gamma: complex, t_window: float) -> float:
    """RMS contribution of phi, a mode's entries on a subset of the
    stacked vector.  For a whole unit-norm mode this is rms_contribution.
    """
    return rms_contribution(abs(b) * np.linalg.norm(phi), gamma, t_window)


def persistence_filter(gamma: complex, t_window: float, factor: float = 0.1) -> bool:
    """True when the mode envelope stays above factor of its initial value
    over a window of length t_window."""
    if t_window <= 0:
        raise ValueError("window length must be positive")
    if not 0.0 < factor < 1.0:
        raise ValueError("cut factor must lie in (0, 1)")
    # growth always persists; testing it through exp could overflow
    return gamma.real >= 0.0 or not math.exp(gamma.real * t_window) < factor


def half_life_cutoff(t_window: float, factor: float = 0.1) -> float:
    """Signed half-life at the persistence boundary, in hours.

    Modes with half-life between this (negative) value and zero decay
    below the cut within the window; slower decay survives the filter.
    """
    return t_window * math.log(2.0) / math.log(factor)


@dataclass(frozen=True)
class KdeDensity:
    """Weighted Gaussian kernel density over the complex plane."""

    points: np.ndarray
    weights: np.ndarray
    bandwidth: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex).ravel()
        w = np.asarray(self.weights, dtype=float).ravel()
        if pts.size == 0:
            raise ValueError("density needs at least one point")
        if w.shape != pts.shape:
            raise ValueError("points and weights must have equal length")
        if not np.isfinite(w).all() or (w < 0).any():
            raise ValueError("weights must be finite and non-negative")
        if w.sum() <= 0.0:
            raise ValueError("total weight must be positive")
        if not (self.bandwidth > 0 and np.isfinite(self.bandwidth)):
            raise ValueError("bandwidth must be positive and finite")
        pts = pts.copy()
        w = w.copy()
        pts.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def normalization(self) -> float:
        """Z = (sum of weights) * pi * h^2, making the density integrate to 1."""
        return float(self.weights.sum()) * math.pi * self.bandwidth ** 2


def kde_eval(density: KdeDensity, z: complex | np.ndarray, normalized: bool = True):
    """Evaluate the density at one or many complex query points.

    The query-by-point kernel table is formed for a block of queries at a
    time, of about _KDE_EVAL_CELLS cells, so its memory does not grow with
    the number of queries; each query's sum is the same in any block.
    """
    z_arr = np.asarray(z, dtype=complex)
    scalar = z_arr.ndim == 0
    q = np.atleast_1d(z_arr).ravel()
    vals = np.empty(q.size)
    block = max(1, _KDE_EVAL_CELLS // density.points.size)
    for k in range(0, q.size, block):
        d2 = np.abs(q[k:k + block, None] - density.points[None, :]) ** 2
        vals[k:k + block] = (np.exp(-d2 / density.bandwidth ** 2)
                             * density.weights[None, :]).sum(axis=1)
    if normalized:
        vals = vals / density.normalization
    return float(vals[0]) if scalar else vals.reshape(z_arr.shape)


def kde_grid(density: KdeDensity, *, margin: float | None = None,
             extra_points: np.ndarray | None = None
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rasterize the normalized density on a regular grid covering all points.

    Returns (re_axis, im_axis, values) with values[i_re, i_im].  The box
    covers the density's points (and extra_points if given) with a
    margin, default 3h, at a step of h/4.  A kernel covers the square
    window of nodes within 7.5 bandwidths of its nearest node (farther
    contributions are < 4e-25 of the peak).  The Gaussian is separable,
    so each patch is the outer product of two 1-D factors, formed for
    _KDE_CHUNK points at a time: beyond the raster, memory is bounded by
    the chunk times the window, whatever the number of points.  A box of
    more than KDE_MAX_CELLS cells raises NumericalError before anything
    is allocated.
    """
    h = density.bandwidth
    step = h / 4.0
    if margin is None:
        margin = 3.0 * h
    boxed = [density.points]
    if extra_points is not None and np.asarray(extra_points).size:
        boxed.append(np.asarray(extra_points, dtype=complex).ravel())
    re0 = min(p.real.min() for p in boxed) - margin
    re1 = max(p.real.max() for p in boxed) + margin
    im0 = min(p.imag.min() for p in boxed) - margin
    im1 = max(p.imag.max() for p in boxed) + margin
    n_re = int(math.ceil((re1 - re0) / step)) + 1
    n_im = int(math.ceil((im1 - im0) / step)) + 1
    if n_re * n_im > KDE_MAX_CELLS:
        raise NumericalError(
            f"KDE raster of {n_re}x{n_im} cells over re [{re0:.6g}, {re1:.6g}] x "
            f"im [{im0:.6g}, {im1:.6g}] at h={h:.6g} exceeds {KDE_MAX_CELLS} cells"
        )
    re_axis = re0 + step * np.arange(n_re)
    im_axis = im0 + step * np.arange(n_im)
    values = np.zeros((n_re, n_im))
    reach = int(math.ceil(7.5 * h / step))
    for k in range(0, density.points.size, _KDE_CHUNK):
        pts = density.points[k:k + _KDE_CHUNK]
        f_re, *rows = _window_factors(pts.real, re_axis, step, reach, h)
        f_im, *cols = _window_factors(pts.imag, im_axis, step, reach, h)
        f_re *= density.weights[k:k + _KDE_CHUNK, None]
        for p, (i0, i1, a, j0, j1, b) in enumerate(zip(*rows, *cols)):
            if i0 < i1 and j0 < j1:
                values[i0:i1, j0:j1] += np.multiply.outer(f_re[p, a:a + i1 - i0],
                                                          f_im[p, b:b + j1 - j0])
    values /= density.normalization
    return re_axis, im_axis, values


def _window_factors(x: np.ndarray, axis: np.ndarray, step: float, reach: int, h: float):
    """kde_grid's kernel factors exp(-(node - x)^2 / h^2) along one axis,
    on the 2 reach + 1 nodes around each coordinate's nearest node, and
    as lists the raster slice [lo, hi) each window covers and the window
    index at lo."""
    near = np.rint((x - axis[0]) / step).astype(np.int64)
    f = axis[0] + step * (near[:, None] + np.arange(-reach, reach + 1))  # nodes past the ends too
    f -= x[:, None]
    f *= f
    f *= -1.0 / h ** 2
    np.exp(f, out=f)
    lo = np.maximum(near - reach, 0)
    hi = np.minimum(near + reach + 1, axis.size)
    return f, lo.tolist(), hi.tolist(), (lo - near + reach).tolist()


@dataclass(frozen=True)
class LooTrial:
    """Spectrum of one perturbed rerun with a single pair column deleted.

    mu holds eigenvalues only, sorted by descending |mu| then ascending
    arg(mu); a trial fits no amplitudes, so it cannot fail on the fit.
    """

    omitted_column: int
    mu: np.ndarray


@dataclass(frozen=True)
class LooFailure:
    """A perturbed rerun that ended in a NumericalError."""

    omitted_column: int
    message: str


@dataclass(frozen=True)
class LeaveOneOutResult:
    trials: tuple[LooTrial, ...]
    failures: tuple[LooFailure, ...] = ()

    def pooled(self) -> np.ndarray:
        """All perturbed eigenvalues of the successful trials, in trial order."""
        return np.concatenate([t.mu for t in self.trials])


def _draw_omitted(cols: int, trials: int, seed: int) -> list[int]:
    """The pair columns leave_one_out omits: distinct ones, by a partial
    Fisher-Yates shuffle, while the trial budget allows, then draws with
    replacement.  Only random.Random(seed).random() is drawn from, the one
    stream Python keeps the same across versions."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng, idx, distinct = random.Random(seed), list(range(cols)), min(trials, cols)
    for i in range(distinct):
        j = i + int(rng.random() * (cols - i))
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:distinct] + [int(rng.random() * cols) for _ in range(trials - cols)]


def leave_one_out(result: DmdResult, trials: int = 30, seed: int = 0) -> LeaveOneOutResult:
    """Rerun result, a decomposition of dmd.exact_dmd, with one random pair
    column deleted per trial (dmd.deletion_spectrum), eigenvalues only.

    The omitted columns are drawn by _draw_omitted from
    random.Random(seed), so trial order is deterministic and no
    numpy.random (nor the OpenSSL its seeding loads) is imported.  A
    seed below 0 raises ValueError.  A trial that raises NumericalError is
    recorded in failures and skipped; NumericalError is raised only when
    every trial fails.

    The trials are independent parts of equal cost, which
    _workers.in_order spreads over the CPUs: the records, failures,
    messages and the first exception other than NumericalError are those
    of a serial run.  While the process runs any other thread, a BLAS pool
    included, every trial runs in it alone; pin BLAS to one thread (as
    with OPENBLAS_NUM_THREADS=1) to let the trials use the CPUs.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    cols = result.factor.norms.size - 1
    drawn = _draw_omitted(cols, trials, seed)
    records = _workers.in_order([1] * len(drawn),
                                lambda run: [_record(result, drawn[j]) for j in run])
    failed = [LooFailure(i, rec) for i, rec in zip(drawn, records) if isinstance(rec, str)]
    out = [LooTrial(i, rec) for i, rec in zip(drawn, records) if not isinstance(rec, str)]
    if not out:
        raise NumericalError(
            f"all {len(failed)} leave-one-out trials failed; the first, omitting "
            f"column {failed[0].omitted_column}: {failed[0].message}"
        )
    return LeaveOneOutResult(trials=tuple(out), failures=tuple(failed))


def _record(result: DmdResult, column: int) -> np.ndarray | str:
    """The spectrum of one trial, or the message of its NumericalError."""
    try:
        return deletion_spectrum(result, column)
    except NumericalError as exc:
        return str(exc)


def robustness_scores(base_mus: np.ndarray, loo: LeaveOneOutResult,
                      h: float = ROBUSTNESS_BANDWIDTH) -> np.ndarray:
    """Pooled-spectrum density at each base eigenvalue, narrow bandwidth."""
    pooled = loo.pooled()
    density = KdeDensity(points=pooled, weights=np.ones(pooled.size), bandwidth=h)
    return kde_eval(density, np.asarray(base_mus, dtype=complex))


def cluster_eigenvalues(base_mus: np.ndarray) -> list[int | None]:
    """Group eigenvalues by connected superlevel sets of their own density.

    label_clusters on kde_grid's raster of the unit-weight density of
    base_mus at bandwidth CLUSTER_BANDWIDTH, thresholded at
    CLUSTER_LEVEL_FRACTION of its maximum: clusters are numbered by
    descending member count.  loo clusters the pooled trial spectra, with
    its own bandwidth, level and weights, through those two functions.
    """
    base = np.asarray(base_mus, dtype=complex).ravel()
    if base.size == 0:
        return []
    density = KdeDensity(points=base, weights=np.ones(base.size), bandwidth=CLUSTER_BANDWIDTH)
    return label_clusters(density, kde_grid(density), base)


def label_clusters(density: KdeDensity,
                   raster: tuple[np.ndarray, np.ndarray, np.ndarray],
                   base_mus: np.ndarray,
                   level_fraction: float = CLUSTER_LEVEL_FRACTION,
                   weights: np.ndarray | None = None) -> list[int | None]:
    """Label each base eigenvalue with its cluster of density.

    raster is kde_grid(density, extra_points=base_mus) at its default
    margin: step h/4 and margin 3h.  It is thresholded at level_fraction
    of its own maximum, so a positive scale of the values moves no label,
    and split into 4-connected components.  Each base eigenvalue takes
    the label of the component its nearest grid node falls in, or None
    outside all of them.  Cluster numbers are 1-based, ordered by
    descending total member weight (weights default to 1, i.e. by member
    count), ties broken by smallest member index.
    """
    if not 0.0 < level_fraction < 1.0:
        raise ValueError("level_fraction must lie in (0, 1)")
    base = np.asarray(base_mus, dtype=complex).ravel()
    step = density.bandwidth / 4.0  # the raster step of kde_grid
    re_axis, im_axis, values = raster
    mask = values >= level_fraction * values.max()
    labels = _label_components(mask)
    i = np.clip(np.rint((base.real - re_axis[0]) / step), 0, re_axis.size - 1).astype(np.int64)
    j = np.clip(np.rint((base.imag - im_axis[0]) / step), 0, im_axis.size - 1).astype(np.int64)
    raw = [lab or None for lab in labels[i, j].tolist()]
    w = np.ones(base.size) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != base.shape:
        raise ValueError("weights must align with base eigenvalues")
    totals: dict[int, float] = {}
    first: dict[int, int] = {}
    for k, lab in enumerate(raw):
        if lab is None:
            continue
        totals[lab] = totals.get(lab, 0.0) + float(w[k])
        first.setdefault(lab, k)
    order = sorted(totals, key=lambda lab: (-totals[lab], first[lab]))
    renumber = {lab: i + 1 for i, lab in enumerate(order)}
    return [None if lab is None else renumber[lab] for lab in raw]


def _label_components(mask: np.ndarray) -> np.ndarray:
    """4-connected components of a 2-D boolean mask: 0 off the mask and
    one positive id per component (not consecutive).  Runs of True along
    the rows are joined, where runs of adjacent rows share a column, by
    a union-find that hooks the larger root under the smaller and then
    pointer-jumps, until every joined pair has one root."""
    width = mask.shape[1] + 2  # each row padded with False at both ends
    padded = np.zeros((mask.shape[0], width), dtype=np.int8)
    padded[:, 1:-1] = mask
    edge = np.diff(padded.ravel())
    start = np.flatnonzero(edge == 1) + 1  # row * width + column in padded
    stop = np.flatnonzero(edge == -1) + 1
    # The runs of the row above that overlap a run are consecutive: lo..hi-1.
    lo = np.searchsorted(stop, start - width, side="right")
    count = np.maximum(np.searchsorted(start, stop - width, side="left") - lo, 0)
    below = np.repeat(np.arange(start.size), count)
    above = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(below.size)
    root = np.arange(start.size)
    while not np.array_equal(root[above], root[below]):
        ra, rb = root[above], root[below]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(root[root], root):
            root = root[root]
    labels = np.zeros(mask.shape, dtype=np.int64)
    labels[mask] = np.repeat(root + 1, stop - start)
    return labels


def build_mode_table(result: DmdResult, t_window: float,
                     layout: GridLayout | None = None) -> list[ModeInfo]:
    """Assemble per-mode summary rows for a decomposition.

    t_window is the ranking window in hours, normally the record length
    (N - 1) * dt.  When a layout with VERTICAL_CHANNEL is supplied,
    the vertically weighted RMS column is filled.  Robustness scores and
    cluster labels stay None; a leave-one-out analysis attaches them.
    conj_partner is result.partner, 1-based.
    """
    partner = result.partner
    sel = None
    if layout is not None:
        try:
            sel = layout.channel_slice(VERTICAL_CHANNEL)
        except ValueError:
            sel = None
    infos = []
    for k in range(result.r):
        gamma = complex(result.gamma[k])
        rms = rms_contribution(complex(result.b[k]), gamma, t_window)
        rms_v = None
        if sel is not None:
            rms_v = component_rms(result.mode(k, sel), complex(result.b[k]),
                                  gamma, t_window)
        infos.append(ModeInfo(
            index=k + 1,
            mu=complex(result.mu[k]),
            gamma=gamma,
            period_hours=period(gamma),
            half_double_hours=half_doubling_time(gamma),
            conj_partner=None if partner[k] is None else partner[k] + 1,
            b_mag=abs(complex(result.b[k])),
            rms=rms,
            rms_vertical=rms_v,
        ))
    return infos
