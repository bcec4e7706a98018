"""Mode ranking, persistence, and eigenvalue robustness analysis.

A mode's mean l2 contribution over a window of length T is the closed
form

    E = |b| * sqrt((exp(2 sigma T) - 1) / (2 sigma T)),

the RMS of |b| exp(sigma t) over [0, T]; it degenerates to |b| as
sigma -> 0.  Modes whose envelope decays below a cut fraction of its
initial value within the window count as non-persistent transients.

Robustness is probed by rerunning the decomposition with one random
column deleted from the regression pair, pooling the perturbed spectra,
and reading a Gaussian kernel density over the complex plane at each
eigenvalue of the full run:

    d_h(z) = (1/Z) * sum_k w_k exp(-|z - p_k|^2 / h^2),  Z = (sum w) pi h^2.

Stable eigenvalues accumulate tight stacks of perturbed copies and score
high; spurious ones scatter.  Clusters are 4-connected components of a
rasterized superlevel set of the same density at a wider bandwidth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dmd import DmdOptions, DmdResult, deletion_spectra
from .errors import NumericalError
from .grids import GridLayout, SnapshotMatrix
from .modes import ModeInfo, half_doubling_time, period

ROBUSTNESS_BANDWIDTH = 2e-3
CLUSTER_BANDWIDTH = 2.5e-2
CLUSTER_LEVEL_FRACTION = 0.1
# Largest KDE raster kde_grid allocates: 2**25 float64 cells are 256 MiB.
KDE_MAX_CELLS = 2 ** 25
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
    """Evaluate the density at one or many complex query points."""
    z_arr = np.asarray(z, dtype=complex)
    scalar = z_arr.ndim == 0
    q = np.atleast_1d(z_arr).ravel()
    d2 = np.abs(q[:, None] - density.points[None, :]) ** 2
    vals = (np.exp(-d2 / density.bandwidth ** 2) * density.weights[None, :]).sum(axis=1)
    if normalized:
        vals = vals / density.normalization
    return float(vals[0]) if scalar else vals.reshape(z_arr.shape)


def kde_grid(density: KdeDensity, *, margin: float | None = None,
             extra_points: np.ndarray | None = None,
             normalized: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rasterize the density on a regular grid covering all points.

    Returns (re_axis, im_axis, values) with values[i_re, i_im].  The box
    covers the density's points (and extra_points if given) with a
    margin, default 3h, at a step of h/4.  Kernels are accumulated on
    local patches; contributions beyond 7.5 bandwidths (< 4e-25 of the
    peak) are dropped.  A box of more than KDE_MAX_CELLS cells raises
    NumericalError before anything is allocated.
    """
    h = density.bandwidth
    step = h / 4.0
    if margin is None:
        margin = 3.0 * h
    pts = density.points
    if extra_points is not None and np.asarray(extra_points).size:
        pts = np.concatenate([pts, np.asarray(extra_points, dtype=complex).ravel()])
    re0 = pts.real.min() - margin
    re1 = pts.real.max() + margin
    im0 = pts.imag.min() - margin
    im1 = pts.imag.max() + margin
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
    cut = 7.5 * h
    reach = int(math.ceil(cut / step))
    inv_h2 = 1.0 / h ** 2
    for p, w in zip(density.points, density.weights):
        ci = int(round((p.real - re0) / step))
        cj = int(round((p.imag - im0) / step))
        i0, i1 = max(0, ci - reach), min(n_re, ci + reach + 1)
        j0, j1 = max(0, cj - reach), min(n_im, cj + reach + 1)
        if i0 >= i1 or j0 >= j1:
            continue
        dre = re_axis[i0:i1] - p.real
        dim = im_axis[j0:j1] - p.imag
        values[i0:i1, j0:j1] += w * np.exp(
            -(dre[:, None] ** 2 + dim[None, :] ** 2) * inv_h2
        )
    if normalized:
        values /= density.normalization
    return re_axis, im_axis, values


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
    base: DmdResult
    trials: tuple[LooTrial, ...]
    seed: int
    failures: tuple[LooFailure, ...] = ()

    def pooled(self) -> np.ndarray:
        """All perturbed eigenvalues of the successful trials, in trial order."""
        return np.concatenate([t.mu for t in self.trials])


def _draw_omitted(cols: int, trials: int, rng: np.random.Generator) -> np.ndarray:
    # Without replacement while the trial budget allows distinct columns.
    if trials <= cols:
        return rng.choice(cols, size=trials, replace=False)
    extra = rng.choice(cols, size=trials - cols, replace=True)
    return np.concatenate([rng.permutation(cols), extra])


def leave_one_out(snap: SnapshotMatrix, opts: DmdOptions,
                  trials: int = 30, seed: int = 0) -> LeaveOneOutResult:
    """Rerun the decomposition with one random pair column deleted per trial.

    Column draws come from a single generator seeded with seed, so trial
    order is deterministic; trials are mutually independent.  The
    truncation rank (and TLSQ rank) are capped at the reduced column
    count when the deletion makes them infeasible.  snap is any source
    dmd.exact_dmd takes, a SnapshotMatrix or a fileio.SnapshotFile.  The
    snapshots are factored once (dmd.deletion_spectra), so a trial never
    forms a D-row array, and a trial computes its eigenvalues only.  A
    trial that raises NumericalError is recorded in failures and skipped;
    NumericalError is raised only when every trial fails.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    omitted = _draw_omitted(snap.n - 1, trials, np.random.default_rng(seed)).tolist()
    base, spectra = deletion_spectra(snap, opts, omitted)
    out, failed = [], []
    for i, mu in zip(omitted, spectra):
        if isinstance(mu, NumericalError):
            failed.append(LooFailure(omitted_column=i, message=str(mu)))
        else:
            out.append(LooTrial(omitted_column=i, mu=mu))
    if not out:
        raise NumericalError(
            f"all {len(failed)} leave-one-out trials failed; the first, omitting "
            f"column {failed[0].omitted_column}: {failed[0].message}"
        )
    return LeaveOneOutResult(base=base, trials=tuple(out), seed=seed,
                             failures=tuple(failed))


def robustness_scores(base_mus: np.ndarray, loo: LeaveOneOutResult,
                      h: float = ROBUSTNESS_BANDWIDTH) -> np.ndarray:
    """Pooled-spectrum density at each base eigenvalue, narrow bandwidth."""
    pooled = loo.pooled()
    density = KdeDensity(points=pooled, weights=np.ones(pooled.size), bandwidth=h)
    return kde_eval(density, np.asarray(base_mus, dtype=complex))


def cluster_eigenvalues(base_mus: np.ndarray, pooled_mus: np.ndarray | None = None,
                        h: float = CLUSTER_BANDWIDTH,
                        level_fraction: float = CLUSTER_LEVEL_FRACTION,
                        weights: np.ndarray | None = None) -> list[int | None]:
    """Group eigenvalues by connected superlevel sets of the pooled density.

    The density of pooled_mus (default: the base eigenvalues themselves)
    is rasterized at step h/4 with margin 3h, thresholded at
    level_fraction of its maximum, and split into 4-connected
    components.  Each base eigenvalue takes the label of the component
    its nearest grid node falls in, or None outside all of them.
    Cluster numbers are 1-based, ordered by descending total member
    weight (weights default to 1, i.e. by member count), ties broken by
    smallest member index.
    """
    base = np.asarray(base_mus, dtype=complex).ravel()
    if base.size == 0:
        return []
    pooled = base if pooled_mus is None else np.asarray(pooled_mus, dtype=complex).ravel()
    density = KdeDensity(points=pooled, weights=np.ones(pooled.size), bandwidth=h)
    raster = kde_grid(density, extra_points=base, normalized=False)
    return label_clusters(density, raster, base, level_fraction, weights)


def label_clusters(density: KdeDensity,
                   raster: tuple[np.ndarray, np.ndarray, np.ndarray],
                   base_mus: np.ndarray,
                   level_fraction: float = CLUSTER_LEVEL_FRACTION,
                   weights: np.ndarray | None = None) -> list[int | None]:
    """The labelling step of cluster_eigenvalues, on a raster in hand.

    raster is kde_grid(density, extra_points=base_mus, normalized=False)
    at its default margin; labels and their numbering follow
    cluster_eigenvalues.
    """
    import scipy.ndimage  # imported here so that run and slice never load it

    if not 0.0 < level_fraction < 1.0:
        raise ValueError("level_fraction must lie in (0, 1)")
    base = np.asarray(base_mus, dtype=complex).ravel()
    step = density.bandwidth / 4.0  # the raster step of kde_grid
    re_axis, im_axis, values = raster
    mask = values >= level_fraction * values.max()
    labels, _ = scipy.ndimage.label(mask)  # default structure: 4-connected
    raw = []
    for z in base:
        i = int(round((z.real - re_axis[0]) / step))
        j = int(round((z.imag - im_axis[0]) / step))
        i = min(max(i, 0), re_axis.size - 1)
        j = min(max(j, 0), im_axis.size - 1)
        lab = int(labels[i, j])
        raw.append(lab if lab > 0 else None)
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
        except KeyError:
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
