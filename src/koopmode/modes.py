"""Spectrum post-processing: periods, polar mode form, tidal ellipses,
and the mode-table CSV schema.

Periods and half/doubling times read the exponents gamma = log(mu)/dt
that the decomposition takes on the principal branch, so frequencies
live in (-pi/dt, pi/dt].  A mode pair's real contribution at a grid
point is

    2 * amplitude * exp(sigma t) * cos(omega t + phase)

with amplitude and phase the entrywise polar form of Phi_k * b_k.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .fileio import write_csv


def period(gamma: complex) -> float:
    """Oscillation period 2*pi/|omega| in hours; inf for aperiodic modes."""
    omega = gamma.imag
    if omega == 0.0:
        return math.inf
    return 2.0 * math.pi / abs(omega)


def half_doubling_time(gamma: complex) -> float:
    """Signed e-folding-to-half time log(2)/sigma in hours.

    Negative values mean halving (decay), positive doubling (growth),
    inf a neutrally stable mode.
    """
    sigma = gamma.real
    if sigma == 0.0:
        return math.inf
    return math.log(2.0) / sigma


def polar_mode(phi: np.ndarray, b: complex) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise polar form of phi * b.

    Returns (amplitude, phase) with amplitude = |phi||b| and phase the
    argument of phi * b wrapped to (-pi, pi].  For a conjugate pair, the
    pair's real contribution at entry e and time t is
    2 * amplitude[e] * exp(sigma t) * cos(omega t + phase[e]).
    """
    prod = np.asarray(phi, dtype=complex) * complex(b)
    return np.abs(prod), np.angle(prod)


@dataclass(frozen=True)
class EllipseParams:
    """Tidal ellipse of one oscillatory mode at one grid point, or at
    every cell of a grid: then each field is an array of the grid's shape."""

    semi_major: float | np.ndarray
    semi_minor: float | np.ndarray
    orientation_rad: float | np.ndarray
    rotation_sense: str | np.ndarray  # "ccw", "cw", or "" at a NaN cell


def tidal_ellipse(u, v) -> EllipseParams:
    """Rotary decomposition of horizontal velocity phasors: one (u, v)
    pair, or two same-shaped grids of them, cell by cell.

    For u(t) = Re(U e^{i omega t}), v(t) = Re(V e^{i omega t}) the curve
    (u, v) is an ellipse; splitting into counter-rotating circles
    w+ = (U + iV)/2 and w- = conj(U - iV)/2 gives semi-axes |w+| +- |w-|
    and orientation (arg w+ + arg w-)/2.  The larger circle decides the
    rotation sense.  A cell whose u or v has a NaN real part (a masked
    cell) gets NaN axes and orientation and an empty rotation sense.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    w_plus = (u + 1j * v) / 2.0
    w_minus = np.conj(u - 1j * v) / 2.0
    # hypot, as Python's abs of a complex takes it: np.abs rounds otherwise
    ap, am = (np.hypot(w.real, w.imag) for w in (w_plus, w_minus))
    sense = np.where(np.isnan(u.real) | np.isnan(v.real), "",
                     np.where(ap > am, "ccw", "cw"))
    # [()] makes a 0-d result a scalar and leaves a grid as it is
    return EllipseParams(
        semi_major=(ap + am)[()],
        semi_minor=np.abs(ap - am)[()],
        orientation_rad=((np.angle(w_plus) + np.angle(w_minus)) / 2.0)[()],
        rotation_sense=sense[()],
    )


def two_layer_wave_speed(g_prime: float, h1: float, h2: float) -> float:
    """Long interfacial gravity-wave speed of a two-layer fluid.

    c = sqrt(g' * h1 * h2 / (h1 + h2)) with g' the reduced gravity and
    h1, h2 the layer depths.
    """
    if g_prime <= 0 or h1 <= 0 or h2 <= 0:
        raise ValueError("reduced gravity and layer depths must be positive")
    return math.sqrt(g_prime * h1 * h2 / (h1 + h2))


@dataclass(frozen=True)
class ModeInfo:
    """Per-mode summary row.

    index is the 1-based position of the mode in its decomposition.
    robustness and cluster stay None until a leave-one-out analysis has
    run; cluster is None with robustness set when the mode fell outside
    every density cluster.
    """

    index: int
    mu: complex
    gamma: complex
    period_hours: float
    half_double_hours: float
    conj_partner: int | None
    rms: float
    rms_vertical: float | None
    robustness: float | None = None
    cluster: int | None = None


MODE_TABLE_COLUMNS = ("idx", "Cluster", "PT", "HLT", "L2RMS", "L2wRMS", "KSnarrow")
_PRINTED_ROWS = 20


def _listed(infos: Sequence[ModeInfo]) -> list[ModeInfo]:
    # One row per real mode or conjugate pair: its omega >= 0 member.
    return [info for info in infos
            if info.conj_partner is None or info.gamma.imag >= 0.0]


def _cluster_label(info: ModeInfo) -> str:
    if info.robustness is None:
        return ""
    return "NaN" if info.cluster is None else str(info.cluster)


def _defined(x: float | None) -> float:
    # Absent and infinite values (no analysis, no period) are undefined.
    return math.nan if x is None or math.isinf(x) else x


def write_mode_table(infos: Sequence[ModeInfo], path: str | Path) -> None:
    """Write the mode-summary CSV, one row per real mode or conjugate pair.

    Only the omega >= 0 member of each pair is listed.  Periods and
    half/doubling times that are infinite become empty fields; modes
    outside every cluster get the literal label NaN once clustering ran.
    """
    write_csv(path, MODE_TABLE_COLUMNS, "%d,%s,%.17g,%.17g,%.17g,%.17g,%.17g", (
        (info.index, _cluster_label(info), _defined(info.period_hours),
         _defined(info.half_double_hours), _defined(info.rms),
         _defined(info.rms_vertical), _defined(info.robustness))
        for info in _listed(infos)))


def format_mode_table(infos: Sequence[ModeInfo]) -> str:
    """Human-readable table of the first _PRINTED_ROWS rows write_mode_table
    writes, values rounded to two decimals."""
    out = io.StringIO()
    header = f"{'idx':>4} {'Cluster':>7} {'PT':>10} {'HLT':>10} {'L2RMS':>10} {'L2wRMS':>10} {'KSnarrow':>10}"
    print(header, file=out)
    def fmt(x):
        if x is None or (isinstance(x, float) and math.isinf(x)):
            return ""
        if abs(x) >= 1e6:
            return f"{x:.2e}"
        return f"{x:.2f}"
    for info in _listed(infos)[:_PRINTED_ROWS]:
        print(
            f"{info.index:>4} {_cluster_label(info):>7} {fmt(info.period_hours):>10} "
            f"{fmt(info.half_double_hours):>10} {fmt(info.rms):>10} "
            f"{fmt(info.rms_vertical):>10} {fmt(info.robustness):>10}",
            file=out,
        )
    return out.getvalue()
