"""Reduced-order models from subsets of decomposition modes.

A ROM keeps a conjugate-closed subset of modes and reconstructs
snapshots as the superposition sum_k Phi_k mu_k^n b_k.  Subsets come
either from explicit mode indices or from box criteria on the summary
table (RMS and robustness ranges, optionally dropping non-persistent
transients); conjugate closure is enforced afterwards in both cases, so
a partner can enter even when it misses the box.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dmd import DmdResult, column_norms, mode_time_sum, rom_norms
from .grids import SnapshotMatrix
from .modes import ModeInfo
from .ranking import persistence_filter


@dataclass(frozen=True)
class RomSelection:
    """Which modes a ROM keeps.

    Either explicit 1-based indices, or inclusive box bounds on the
    summary table columns.  persistent_only additionally drops modes
    whose envelope decays below persistence_factor over persistence_T
    hours.
    """

    indices: tuple[int, ...] | None = None
    rms_min: float | None = None
    rms_max: float | None = None
    robustness_min: float | None = None
    robustness_max: float | None = None
    persistent_only: bool = False
    persistence_t: float | None = None
    persistence_factor: float = 0.1


@dataclass(frozen=True)
class RomModel:
    """A conjugate-closed mode subset ready for reconstruction."""

    modes: np.ndarray
    mu: np.ndarray
    b: np.ndarray
    dt: float
    t0: float
    indices: tuple[int, ...]
    mean_mode: np.ndarray | None = None


def select_modes(table: Sequence[ModeInfo], selection: RomSelection) -> tuple[int, ...]:
    """Resolve a selection to a sorted, conjugate-closed tuple of indices."""
    by_index = {info.index: info for info in table}
    if selection.indices is not None:
        chosen = set()
        for i in selection.indices:
            if i not in by_index:
                raise ValueError(f"mode index {i} not in the table")
            chosen.add(i)
    else:
        chosen = set()
        for info in table:
            if selection.rms_min is not None and info.rms < selection.rms_min:
                continue
            if selection.rms_max is not None and info.rms > selection.rms_max:
                continue
            if selection.robustness_min is not None:
                if info.robustness is None or info.robustness < selection.robustness_min:
                    continue
            if selection.robustness_max is not None:
                if info.robustness is None or info.robustness > selection.robustness_max:
                    continue
            if selection.persistent_only:
                if selection.persistence_t is None:
                    raise ValueError("persistent_only needs persistence_t")
                if not persistence_filter(info.gamma, selection.persistence_t,
                                          selection.persistence_factor):
                    continue
            chosen.add(info.index)
    # Conjugate closure overrides the box: partners always come along.
    for i in sorted(chosen):
        p = by_index[i].conj_partner
        if p is not None:
            chosen.add(p)
    if not chosen:
        raise ValueError("selection matches no modes")
    return tuple(sorted(chosen))


def build_rom(result: DmdResult, indices: Sequence[int]) -> RomModel:
    """Extract the given 1-based modes of result into a ROM.

    The index set must be closed under result.partner; a missing partner
    is an error rather than being silently added here.
    """
    idx = sorted(set(int(i) for i in indices))
    if not idx:
        raise ValueError("empty mode selection")
    for i in idx:
        if not 1 <= i <= result.r:
            raise ValueError(f"mode index {i} outside 1..{result.r}")
    missing = [(i, p + 1) for i in idx
               if (p := result.partner[i - 1]) is not None and p + 1 not in idx]
    if missing:
        detail = ", ".join(f"{i} needs {p}" for i, p in missing)
        raise ValueError(f"mode selection is not conjugate-closed: {detail}")
    pos = [i - 1 for i in idx]
    return RomModel(
        modes=result.modes[:, pos],
        mu=result.mu[pos],
        b=result.b[pos],
        dt=result.dt,
        t0=result.t0,
        indices=tuple(idx),
        mean_mode=result.mean_mode,
    )


def reconstruct_rom(rom: RomModel, times: Sequence[int]) -> np.ndarray:
    """Real reconstruction of the ROM at integer step indices."""
    c = mode_time_sum(rom.modes, rom.mu, rom.b, times)
    x = c.real
    if rom.mean_mode is not None:
        x = x + rom.mean_mode[:, None]
    return x


@dataclass(frozen=True)
class ErrorCurve:
    """Per-snapshot ROM magnitudes and relative errors."""

    steps: np.ndarray
    times_hours: np.ndarray
    rom_norm: np.ndarray
    rel_error: np.ndarray


def error_curve(snap: SnapshotMatrix, rom: RomModel) -> ErrorCurve:
    """Reconstruction-norm and relative-error curves over all snapshots,
    from the D-row data and reconstruction."""
    if snap.d != rom.modes.shape[0]:
        raise ValueError(
            f"data dimension {snap.d} does not match ROM dimension {rom.modes.shape[0]}"
        )
    if not np.isclose(snap.dt, rom.dt, rtol=1e-12, atol=0.0):
        raise ValueError(f"time step mismatch: data {snap.dt}, ROM {rom.dt}")
    steps = np.arange(snap.n)
    xhat = reconstruct_rom(rom, steps)
    rom_norm = column_norms(xhat)
    data_norm = column_norms(snap.data)
    if (data_norm == 0.0).any():
        raise ValueError("relative error undefined: a data column has zero norm")
    rel = column_norms(snap.data - xhat) / data_norm
    return ErrorCurve(steps=steps, times_hours=snap.times(),
                      rom_norm=rom_norm, rel_error=rel)


def factor_error_curve(result: DmdResult, indices: Sequence[int]) -> ErrorCurve:
    """error_curve of the ROM of result's 1-based modes indices (a
    RomModel's indices) against the snapshots exact_dmd decomposed into
    result, computed on their R factor (dmd.rom_norms): no D-row array is
    formed, and no mode is read.

    Accuracy is absolute, not relative: ||x_n - xhat_n|| is the
    difference of two R-coordinate vectors of size ||x_n||, which match
    the data and the result's lifted modes only to the rounding of the
    QR and of the lift.  rel_error is thus accurate to a multiple of
    N eps, not of itself: for a ROM of nearly every mode, whose relative
    error is small, it can differ from error_curve's by far more than
    1e-12 of it.  The R-coordinate modes are R2 @ lift, as the D-row
    modes are X2 @ lift.  Against a long-double evaluation of the same
    ROM the curve stays within 16 N eps, or 64 N eps under remove_mean,
    whose R factor carries the removed mean as one more column (10.6
    and 54.7 N eps at worst on 800 badly scaled 25 x 40 records each)."""
    data_norm, rom_norm, err = rom_norms(result, indices)
    if (data_norm == 0.0).any():
        raise ValueError("relative error undefined: a data column has zero norm")
    steps = np.arange(data_norm.size)
    return ErrorCurve(steps=steps, times_hours=result.t0 + result.dt * steps,
                      rom_norm=rom_norm, rel_error=err / data_norm)
