"""Reduced-order models: selection semantics, conjugate closure, and
error curves."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmode.dmd import DmdOptions, exact_dmd, mode_time_sum, modified_options
from koopmode.oracle import generate, tidal_spec
from koopmode.ranking import build_mode_table
from koopmode.rom import (RomSelection, build_rom, error_curve,
                          reconstruct_rom, select_modes)

from conftest import linear_trajectory, make_rng, snapshots_from_array


def fitted(seed=3, d=6, n=40, r=6, **kw):
    rng = make_rng(seed)
    x, _ = linear_trajectory(rng, d, n)
    snap = snapshots_from_array(x)
    res = exact_dmd(snap, DmdOptions(r=r, b_fit="multi:10", **kw))
    table = build_mode_table(res, (n - 1) * snap.dt)
    return snap, res, table


# ---------------------------------------------------------------- select

def test_select_explicit_pulls_partner():
    _, res, table = fitted()
    partner = res.partner
    k = next(i for i, p in enumerate(partner) if p is not None)
    got = select_modes(table, RomSelection(indices=(k + 1,)))
    assert got == tuple(sorted((k + 1, partner[k] + 1)))


def test_select_unknown_index():
    _, _, table = fitted()
    with pytest.raises(ValueError, match="not in the table"):
        select_modes(table, RomSelection(indices=(99,)))


def test_select_box_inclusive_bounds():
    _, _, table = fitted()
    values = sorted(info.rms for info in table)
    lo, hi = values[1], values[-2]
    got = select_modes(table, RomSelection(rms_min=lo, rms_max=hi))
    kept_rms = {info.index: info.rms for info in table}
    # the boundary modes themselves are included
    by_box = {i for i in kept_rms if lo <= kept_rms[i] <= hi}
    assert by_box.issubset(set(got))
    # anything extra entered only as a conjugate partner
    for i in set(got) - by_box:
        p = table[i - 1].conj_partner
        assert p in by_box


def test_select_empty_box():
    _, _, table = fitted()
    top = max(info.rms for info in table)
    with pytest.raises(ValueError, match="no modes"):
        select_modes(table, RomSelection(rms_min=top * 10))


def test_select_robustness_box_requires_scores():
    _, res, table = fitted()
    with pytest.raises(ValueError, match="no modes"):
        # robustness is None everywhere, so a lower bound excludes all
        select_modes(table, RomSelection(robustness_min=0.0))


def test_select_persistent_only():
    snap, res, table = fitted(seed=9)
    t_window = (snap.n - 1) * snap.dt
    got = select_modes(table, RomSelection(persistent_only=True,
                                           persistence_t=t_window,
                                           persistence_factor=0.5))
    kept = set(got)
    for info in table:
        survives = np.exp(info.gamma.real * t_window) >= 0.5
        if survives:
            assert info.index in kept
    with pytest.raises(ValueError, match="persistence_t"):
        select_modes(table, RomSelection(persistent_only=True))


# ----------------------------------------------------------------- build

def test_build_rejects_open_selection():
    _, res, _ = fitted()
    partner = res.partner
    k = next(i for i, p in enumerate(partner) if p is not None)
    with pytest.raises(ValueError, match="not conjugate-closed"):
        build_rom(res, [k + 1])


def test_build_rejects_empty_and_out_of_range():
    _, res, _ = fitted()
    with pytest.raises(ValueError, match="empty"):
        build_rom(res, [])
    with pytest.raises(ValueError, match="outside"):
        build_rom(res, [0])
    with pytest.raises(ValueError, match="outside"):
        build_rom(res, [res.r + 1])


def test_build_extracts_requested_columns():
    _, res, _ = fitted()
    partner = res.partner
    k = next(i for i, p in enumerate(partner) if p is not None)
    pair = sorted((k, partner[k]))
    rom = build_rom(res, [p + 1 for p in pair])
    assert rom.mu.size == 2
    assert rom.indices == tuple(p + 1 for p in pair)
    assert np.array_equal(rom.mu, res.mu[pair])
    assert np.array_equal(rom.modes, res.modes[:, pair])


# --------------------------------------------------------- reconstruction

def tidal_decomposition(seed, wide, mean_removal, rank, debiased):
    """exact_dmd of a noisy 40-snapshot tidal oracle with D = 120 (wide)
    or 25 (below N), plain or with the debiased options."""
    snap, _ = generate(tidal_spec(d=120 if wide else 25, n=40, noise_sigma=1e-3,
                                  seed=seed))
    opts = modified_options(rank) if debiased else DmdOptions(r=rank)
    return snap, exact_dmd(snap, replace(opts, remove_mean=mean_removal))


tidal_draws = dict(seed=st.integers(0, 10_000), wide=st.booleans(),
                   mean_removal=st.booleans(), rank=st.sampled_from([None, 17]),
                   debiased=st.booleans())


@given(**tidal_draws)
@settings(max_examples=30, deadline=None)
def test_spectrum_and_amplitudes_are_conjugate_closed(seed, wide, mean_removal, rank,
                                                      debiased):
    """Every non-real eigenvalue has a conjugate partner within 1e-9, and
    the partner's amplitude is the conjugate within 1e-8 relative."""
    _, res = tidal_decomposition(seed, wide, mean_removal, rank, debiased)
    for k in np.flatnonzero(res.mu.imag != 0.0):
        dist = np.abs(res.mu - np.conj(res.mu[k]))
        dist[k] = np.inf
        j = int(np.argmin(dist))
        assert dist[j] <= 1e-9
        assert abs(res.b[j] - np.conj(res.b[k])) <= 1e-8 * abs(res.b[k])


@given(seed=st.integers(0, 10_000), wide=st.booleans(), rank=st.sampled_from([None, 17]),
       remove_mean=st.booleans(), use_tlsq=st.booleans(), normalize=st.booleans(),
       b_fit=st.sampled_from(["first", "multi:2", "multi:10"]))
@settings(max_examples=40, deadline=None)
def test_conjugate_partners_are_adjacent_negative_imaginary_first(
        seed, wide, rank, remove_mean, use_tlsq, normalize, b_fit):
    """A pair's two |b| differ by round-off, so the result order must not
    depend on them: partners sit next to each other, the one with the
    negative imaginary part first, under every option.  The partner map
    is an involution between bitwise conjugates, and a mode has no
    partner exactly when its eigenvalue is real."""
    snap, _ = generate(tidal_spec(d=120 if wide else 25, n=40, noise_sigma=1e-3,
                                  seed=seed))
    res = exact_dmd(snap, DmdOptions(r=rank, use_tlsq=use_tlsq, normalize_columns=normalize,
                                     remove_mean=remove_mean, b_fit=b_fit))
    assert len(res.partner) == res.r
    for k, j in enumerate(res.partner):
        assert (j is None) == (res.mu[k].imag == 0.0), (k, j)
        if j is not None:
            assert res.partner[j] == k
            assert res.mu[j] == np.conj(res.mu[k])
            assert abs(j - k) == 1, (k, j)
            assert res.mu[min(j, k)].imag < 0 < res.mu[max(j, k)].imag


@given(**tidal_draws)
@settings(max_examples=30, deadline=None)
def test_reconstruct_is_the_all_modes_rom(seed, wide, mean_removal, rank, debiased):
    """The superposition of all modes is real: its imaginary part stays
    within 1e-10 of each column's norm, because the spectrum and the
    amplitudes are conjugate-closed.  The all-modes ROM reconstructs its
    real part plus the removed mean."""
    snap, res = tidal_decomposition(seed, wide, mean_removal, rank, debiased)
    steps = np.arange(snap.n)
    c = mode_time_sum(np.asarray(res.modes), res.mu, res.b, steps)
    assert np.all(np.linalg.norm(c.imag, axis=0) <= 1e-10 * np.linalg.norm(c, axis=0))
    want = c.real if res.mean_mode is None else c.real + res.mean_mode[:, None]
    got = reconstruct_rom(build_rom(res, range(1, res.r + 1)), steps)
    assert np.all(np.linalg.norm(got - want, axis=0)
                  <= 1e-12 * np.linalg.norm(want, axis=0))


def test_full_rom_tracks_data():
    snap, res, _ = fitted()
    rom = build_rom(res, range(1, res.r + 1))
    curve = error_curve(snap, rom)
    assert np.all(curve.rel_error <= 1e-7)
    assert np.array_equal(curve.steps, np.arange(snap.n))
    assert np.allclose(curve.times_hours, snap.times())


def test_mean_mode_carries_into_rom():
    rng = make_rng(4)
    x, _ = linear_trajectory(rng, 5, 30)
    snap = snapshots_from_array(x + 7.5)
    res = exact_dmd(snap, DmdOptions(r=4, remove_mean=True, b_fit="multi:10"))
    rom = build_rom(res, range(1, res.r + 1))
    assert rom.mean_mode is not None
    assert np.allclose(rom.mean_mode, snap.data.mean(axis=1))
    steps = np.arange(snap.n)
    centered = reconstruct_rom(replace(rom, mean_mode=None), steps)
    assert np.array_equal(reconstruct_rom(rom, steps), centered + rom.mean_mode[:, None])


def test_nested_roms_monotone_error():
    """Growing this ROM by whole pairs in amplitude order shrinks the
    residual step by step and ends at the full reconstruction."""
    snap, res, table = fitted(seed=12)
    partner = res.partner
    groups = []
    seen = set()
    for k in range(res.r):  # result order is descending |b|
        if k in seen:
            continue
        group = {k} if partner[k] is None else {k, partner[k]}
        seen |= group
        groups.append(sorted(i + 1 for i in group))
    chosen: list[int] = []
    errors = []
    for g in groups:
        chosen.extend(g)
        rom = build_rom(res, chosen)
        errors.append(np.linalg.norm(
            reconstruct_rom(rom, np.arange(snap.n)) - snap.data))
    assert errors[-1] <= 1e-7 * np.linalg.norm(snap.data)
    for a, b in zip(errors, errors[1:]):
        assert b <= a * (1 + 1e-9)


# ----------------------------------------------------------- error curve

def test_error_curve_dimension_mismatch():
    snap, res, _ = fitted()
    rom = build_rom(res, range(1, res.r + 1))
    rng = make_rng(0)
    other = snapshots_from_array(rng.standard_normal((snap.d + 1, 5)))
    with pytest.raises(ValueError, match="dimension"):
        error_curve(other, rom)


def test_error_curve_dt_mismatch():
    snap, res, _ = fitted()
    rom = build_rom(res, range(1, res.r + 1))
    other = snapshots_from_array(np.asarray(snap.data), dt=2.0)
    with pytest.raises(ValueError, match="time step"):
        error_curve(other, rom)


def test_error_curve_zero_column():
    snap, res, _ = fitted()
    rom = build_rom(res, range(1, res.r + 1))
    data = np.asarray(snap.data).copy()
    data[:, 3] = 0.0
    with pytest.raises(ValueError, match="zero norm|zero"):
        error_curve(snapshots_from_array(data), rom)
