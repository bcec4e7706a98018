"""Synthetic snapshot generators with exactly known spectra.

A generator spec lists one mode per oscillation: a continuous exponent
gamma (per hour), a complex amplitude b, and a spatial profile policy.
Every gamma with nonzero frequency is closed under conjugation (profile
and amplitude conjugated), so the synthesized snapshots

    X[:, n] = Re sum_k Phi_k b_k exp(gamma_k n dt)   (+ optional noise)

are exactly real.  The tidal preset carries the eight dominant
semidiurnal and diurnal constituents plus a constant mode.

Profile policies:
  * "random_unit": independent unit-norm random vectors;
  * "orthogonalized": one shared orthonormal real basis (two vectors per
    pair, one per real mode), making time-summed mode energies exactly
    additive, sum_n ||X[:, n]||^2 = sum_k sum_n |b_k|^2 |mu_k|^(2n)
    over the closed mode set;
  * "phase_ramp": entries exp(2 pi i * position / D) / sqrt(D), a linear
    spatial phase ramp for slice and phase-export checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grids import GridLayout, SnapshotMatrix, scalar_layout

# Principal tidal constituent periods in hours.
TIDAL_PERIODS_HOURS = {
    "M2": 12.421,
    "S2": 12.000,
    "N2": 12.658,
    "K2": 11.967,
    "K1": 23.935,
    "O1": 25.819,
    "P1": 24.066,
    "Q1": 26.868,
}

PROFILE_POLICIES = ("random_unit", "orthogonalized", "phase_ramp")


@dataclass(frozen=True)
class ModeSpec:
    """One generator mode; oscillatory ones stand for a conjugate pair.

    profile is one of PROFILE_POLICIES; a phase_ramp profile advances
    its phase by 2 pi / D per entry, one turn over the D entries."""

    gamma: complex
    b: complex
    profile: str = "orthogonalized"

    def __post_init__(self):
        if self.profile not in PROFILE_POLICIES:
            raise ValueError(f"unknown profile policy {self.profile!r}")


@dataclass(frozen=True)
class OracleSpec:
    """A synthetic record: d rows, n snapshots dt hours apart, the modes
    and the noise.  Two closed-set eigenvalues mu = exp(gamma dt) within
    n * eps * max|mu| of each other are rejected: a step that aliases
    two frequencies (dt = 12 h takes S2's exp(2 pi i) onto the constant
    mode's 1) or rounds them together leaves them indistinguishable."""

    d: int
    n: int
    dt: float
    modes: tuple[ModeSpec, ...]
    noise_sigma: float = 0.0
    seed: int = 0
    layout: GridLayout | None = None

    def __post_init__(self):
        if self.d < 1 or self.n < 2:
            raise ValueError("need d >= 1 and n >= 2")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not self.modes:
            raise ValueError("need at least one mode")
        gammas = np.array([complex(m.gamma) for m in self.modes])
        mu = np.exp(np.concatenate([gammas, gammas[gammas.imag != 0].conj()]) * self.dt)
        gaps = np.abs(np.subtract.outer(mu, mu))
        np.fill_diagonal(gaps, math.inf)
        bound = self.n * np.finfo(float).eps * np.abs(mu).max()
        if not gaps.min() > bound:
            raise ValueError(f"dt = {self.dt} h puts two closed-set eigenvalues exp(gamma dt) "
                             f"within N eps max|mu| = {bound:.2e} of each other (N = {self.n})")
        if self.noise_sigma < 0:
            raise ValueError("noise level must be non-negative")
        if self.layout is not None and self.layout.dim != self.d:
            raise ValueError(
                f"layout dimension {self.layout.dim} does not match d={self.d}"
            )


@dataclass(frozen=True)
class GroundTruth:
    """Closed-set modes, eigenvalues, and amplitudes behind a dataset."""

    modes: np.ndarray
    mu: np.ndarray
    gamma: np.ndarray
    b: np.ndarray


def tidal_preset() -> tuple[complex, ...]:
    """Generator exponents of the tidal preset: a constant mode plus one
    purely oscillatory gamma per constituent."""
    gammas = [0.0 + 0.0j]
    gammas += [2j * math.pi / p for p in TIDAL_PERIODS_HOURS.values()]
    return tuple(gammas)


def tidal_spec(d: int = 500, n: int = 144, dt: float = 1.0,
               noise_sigma: float = 0.0, seed: int = 0,
               profile: str = "orthogonalized") -> OracleSpec:
    """Tidal-preset oracle with distinct, deterministic amplitudes."""
    gammas = tidal_preset()
    modes = tuple(
        ModeSpec(gamma=g, b=1.0 / (1.0 + 0.3 * k), profile=profile)
        for k, g in enumerate(gammas)
    )
    return OracleSpec(d=d, n=n, dt=dt, modes=modes, noise_sigma=noise_sigma, seed=seed)


def _closed_size(specs: Sequence[ModeSpec]) -> int:
    return sum(1 if s.gamma.imag == 0.0 else 2 for s in specs)


def _profiles(spec: OracleSpec, rng: np.random.Generator) -> list[np.ndarray]:
    """One complex unit-norm profile per generator mode (pre-closure)."""
    d = spec.d
    n_basis = sum(1 if s.gamma.imag == 0.0 else 2
                  for s in spec.modes if s.profile == "orthogonalized")
    basis = None
    if n_basis:
        if n_basis > d:
            raise ValueError(f"d={d} too small for {n_basis} orthogonal directions")
        g = rng.standard_normal((d, n_basis))
        basis, _ = np.linalg.qr(g)
    out = []
    used = 0
    for s in spec.modes:
        real_mode = s.gamma.imag == 0.0
        if s.profile == "orthogonalized":
            if real_mode:
                phi = basis[:, used].astype(complex)
                used += 1
            else:
                u = basis[:, used]
                v = basis[:, used + 1]
                used += 2
                phi = (u + 1j * v) / math.sqrt(2.0)
        elif s.profile == "random_unit":
            if real_mode:
                g = rng.standard_normal(d)
            else:
                g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            phi = g / np.linalg.norm(g)
            phi = phi.astype(complex)
        else:  # phase_ramp
            slope = 2.0 * math.pi / d
            pos = np.arange(d)
            if real_mode:  # cos(0) = 1, so the norm is at least 1
                phi = np.cos(slope * pos).astype(complex)
                phi = phi / np.linalg.norm(phi)
            else:
                phi = np.exp(1j * slope * pos) / math.sqrt(d)
        out.append(phi)
    return out


def generate(spec: OracleSpec) -> tuple[SnapshotMatrix, GroundTruth]:
    """Synthesize snapshots and their exact closed-set ground truth.

    The random generator is consumed in a fixed order (profiles first,
    then the noise field), so equal specs give bit-identical data.
    Real-frequency modes must carry real amplitudes, otherwise the data
    could not be real.
    """
    rng = np.random.default_rng(spec.seed)
    profiles = _profiles(spec, rng)
    k_closed = _closed_size(spec.modes)
    if spec.d < k_closed:
        raise ValueError(f"d={spec.d} smaller than closed mode count {k_closed}")
    phi_cols = []
    gam = []
    amp = []
    for s, phi in zip(spec.modes, profiles):
        real = s.gamma.imag == 0.0
        if real and abs(complex(s.b).imag) > 1e-14 * max(1.0, abs(s.b)):
            raise ValueError(
                f"real-frequency mode gamma={s.gamma} needs a real amplitude, got {s.b}"
            )
        phi_cols.append(phi)
        gam.append(complex(s.gamma))
        amp.append(complex(s.b))
        if not real:
            phi_cols.append(np.conj(phi))
            gam.append(np.conj(complex(s.gamma)))
            amp.append(np.conj(complex(s.b)))
    modes = np.column_stack(phi_cols)
    gamma = np.asarray(gam, dtype=complex)
    b = np.asarray(amp, dtype=complex)
    mu = np.exp(gamma * spec.dt)

    steps = np.arange(spec.n)
    dyn = np.exp(gamma[:, None] * (spec.dt * steps[None, :]))
    data = (modes @ (dyn * b[:, None])).real
    if spec.noise_sigma > 0.0:
        rms = math.sqrt(float(np.mean(data ** 2)))
        data = data + spec.noise_sigma * rms * rng.standard_normal(data.shape)
    layout = spec.layout if spec.layout is not None else scalar_layout(spec.d)
    snap = SnapshotMatrix(data, dt=spec.dt, t0=0.0, layout=layout)
    return snap, GroundTruth(modes=modes, mu=mu, gamma=gamma, b=b)


@dataclass(frozen=True)
class SpectrumComparison:
    """Greedy eigenvalue matching between an estimate and the truth."""

    matches: tuple[tuple[int, int, float], ...]  # (est index, true index, |error|)
    unmatched_estimated: tuple[int, ...]
    unmatched_true: tuple[int, ...]
    max_error: float
    angles_rad: tuple[float, ...] | None
    max_angle_rad: float | None


def compare_spectra(est_mu: np.ndarray, true_mu: np.ndarray,
                    est_modes: np.ndarray | None = None,
                    true_modes: np.ndarray | None = None) -> SpectrumComparison:
    """Match estimated eigenvalues to true ones by repeatedly taking the
    globally nearest unmatched pair.

    When both mode matrices are given, each match also gets the principal
    angle between the two mode directions (scale and phase invariant).
    """
    est = np.asarray(est_mu, dtype=complex).ravel()
    tru = np.asarray(true_mu, dtype=complex).ravel()
    dist = np.abs(est[:, None] - tru[None, :])
    n_match = min(est.size, tru.size)
    free_e = np.ones(est.size, dtype=bool)
    free_t = np.ones(tru.size, dtype=bool)
    matches = []
    work = dist.copy()
    for _ in range(n_match):
        flat = np.argmin(np.where(free_e[:, None] & free_t[None, :], work, np.inf))
        i, j = np.unravel_index(flat, work.shape)
        matches.append((int(i), int(j), float(dist[i, j])))
        free_e[i] = False
        free_t[j] = False
    matches.sort(key=lambda m: m[0])
    angles = None
    if est_modes is not None and true_modes is not None:
        angles = []
        for i, j, _ in matches:
            a = np.asarray(est_modes)[:, i]
            c = np.asarray(true_modes)[:, j]
            cosang = abs(np.vdot(a, c)) / (np.linalg.norm(a) * np.linalg.norm(c))
            angles.append(float(np.arccos(min(1.0, cosang))))
        angles = tuple(angles)
    return SpectrumComparison(
        matches=tuple(matches),
        unmatched_estimated=tuple(int(i) for i in np.nonzero(free_e)[0]),
        unmatched_true=tuple(int(j) for j in np.nonzero(free_t)[0]),
        max_error=float(max((m[2] for m in matches), default=0.0)),
        angles_rad=angles,
        max_angle_rad=max(angles) if angles else None,
    )
