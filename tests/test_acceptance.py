"""End-to-end acceptance checks.

Each test covers one headline guarantee of the toolkit and finishes by
printing a single ACCEPTANCE line, so a verbose run doubles as a
checklist.  All randomness is seeded; every check is deterministic.
"""
import hashlib
import json
import math
import time

import numpy as np
import pytest

from koopmode.cli import main
from koopmode.dmd import DmdOptions, exact_dmd, modified_options
from koopmode.grids import (SnapshotMatrix, VelocityField, scalar_layout,
                            stack_observables, velocity_layout)
from koopmode.modes import period, two_layer_wave_speed
from koopmode.oracle import (ModeSpec, OracleSpec, compare_spectra, generate,
                             tidal_spec)
from koopmode.ranking import (KdeDensity, cluster_eigenvalues,
                              half_life_cutoff, kde_eval, kde_grid,
                              persistence_filter, rms_contribution,
                              build_mode_table)
from koopmode.rom import (RomSelection, build_rom, error_curve,
                          reconstruct_rom, select_modes)

from conftest import make_rng


def ok(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


# ---------------------------------------------------------------------
# 1 & 2: spectral recovery on the tidal oracle
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def tidal_fit():
    spec = tidal_spec(d=500, n=144, dt=1.0)
    snap, truth = generate(spec)
    start = time.perf_counter()
    result = exact_dmd(snap, modified_options(17))
    elapsed = time.perf_counter() - start
    return snap, truth, result, elapsed


def test_acceptance_01_tidal_recovery(tidal_fit):
    """500x144 noiseless tidal record, debiased pipeline at rank 17:
    every eigenvalue within 1e-8, every mode direction within 1e-6 rad,
    in under ten seconds."""
    _, truth, result, elapsed = tidal_fit
    comp = compare_spectra(result.mu, truth.mu, result.modes, truth.modes)
    assert not comp.unmatched_true and not comp.unmatched_estimated
    assert comp.max_error < 1e-8
    assert comp.max_angle_rad < 1e-6
    assert elapsed < 10.0
    ok(1, f"tidal recovery (max |mu| err {comp.max_error:.2e}, "
          f"max angle {comp.max_angle_rad:.2e} rad, {elapsed:.2f} s)")


def test_acceptance_02_semidiurnal_period(tidal_fit):
    """The dominant semidiurnal constituent comes back with its period
    correct to a microhour."""
    _, _, result, _ = tidal_fit
    periods = np.array([period(complex(g)) for g in result.gamma])
    nearest = periods[np.isfinite(periods)]
    best = nearest[np.argmin(np.abs(nearest - 12.421))]
    assert abs(best - 12.421) < 1e-6
    ok(2, f"semidiurnal period ({best:.9f} h)")


# ---------------------------------------------------------------------
# 3: the projected variant debiases noisy spectra
# ---------------------------------------------------------------------

def _noisy_rotation_errors(seed, d=8, n=6400, noise=1e-3):
    rng = np.random.default_rng(seed)
    a, _ = np.linalg.qr(rng.standard_normal((d, d)))
    x = np.empty((d, n))
    x[:, 0] = rng.standard_normal(d)
    for k in range(1, n):
        x[:, k] = a @ x[:, k - 1]
    rms = math.sqrt(float(np.mean(x ** 2)))
    x = x + noise * rms * rng.standard_normal(x.shape)
    snap = SnapshotMatrix(x, dt=1.0, t0=0.0, layout=scalar_layout(d))
    truth = np.linalg.eigvals(a)
    out = {}
    for tag, opts in (("plain", DmdOptions(r=d, b_fit="first")),
                      ("tlsq", DmdOptions(r=d, use_tlsq=True, b_fit="first"))):
        res = exact_dmd(snap, opts)
        out[tag] = compare_spectra(res.mu, truth).max_error
    return out


def test_acceptance_03_tlsq_debias():
    """Across twenty seeded noisy unitary systems the projected variant
    has strictly smaller median eigenvalue error than the plain one."""
    plain, tlsq = [], []
    for seed in range(20):
        e = _noisy_rotation_errors(seed)
        plain.append(e["plain"])
        tlsq.append(e["tlsq"])
    med_p = float(np.median(plain))
    med_t = float(np.median(tlsq))
    assert med_t < med_p
    ok(3, f"tlsq debias (median {med_t:.2e} vs {med_p:.2e}, "
          f"ratio {med_t / med_p:.3f})")


# ---------------------------------------------------------------------
# 4: windowed RMS closed form
# ---------------------------------------------------------------------

def test_acceptance_04_rms_closed_form():
    """The closed-form windowed RMS matches high-resolution quadrature
    over growing, decaying, and neutral envelopes, and degrades
    gracefully to |b| at sigma -> 0."""
    t_window = 143.0
    b = 1.7 - 0.4j
    for sigma_t in (-5.0, -1.0, -1e-10, 0.0, 1e-10, 1.0, 5.0):
        sigma = sigma_t / t_window
        got = rms_contribution(b, complex(sigma, 0.51), t_window)
        t = np.linspace(0.0, t_window, 100_001)
        ref = math.sqrt(np.trapezoid((abs(b) * np.exp(sigma * t)) ** 2, t)
                        / t_window)
        assert got == pytest.approx(ref, rel=1e-6), sigma_t
        if abs(sigma_t) <= 1e-10:
            assert got == abs(b)
    ok(4, "windowed rms closed form (7 envelopes vs quadrature)")


# ---------------------------------------------------------------------
# 5: persistence boundary
# ---------------------------------------------------------------------

def test_acceptance_05_persistence_boundary():
    """At a 143 h window and a 0.1 cut the half-life boundary sits at
    -43.05 h, and the filter flips exactly across it."""
    t_window = 143.0
    cut = half_life_cutoff(t_window, 0.1)
    assert abs(cut - (-43.05)) <= 0.1
    slow = complex(math.log(2) / -44.0, 0.3)   # half-life -44 h
    fast = complex(math.log(2) / -42.0, 0.3)   # half-life -42 h
    assert persistence_filter(slow, t_window)
    assert not persistence_filter(fast, t_window)
    ok(5, f"persistence boundary ({cut:.3f} h)")


# ---------------------------------------------------------------------
# 6: observable stacking preserves energy
# ---------------------------------------------------------------------

def test_acceptance_06_stacking_norm():
    """One thousand random masked velocity fields: the stacked vector
    norm equals the physical velocity energy to 1e-12 relative."""
    rng = make_rng(2024)
    worst = 0.0
    for _ in range(1000):
        nz, ny, nx = (int(rng.integers(1, 5)) for _ in range(3))
        mask = rng.random((nz, ny, nx)) < 0.7
        if not mask.any():
            mask[0, 0, 0] = True
        layout = velocity_layout(nx, ny, nz, mask)
        field = VelocityField(ux=rng.standard_normal((nz, ny, nx)),
                              uy=rng.standard_normal((nz, ny, nx)),
                              uz=rng.standard_normal((nz, ny, nx)))
        stacked = stack_observables(field, layout)
        direct = float(np.sum((field.ux ** 2 + field.uy ** 2
                               + field.uz ** 2)[mask]))
        err = abs(float(np.dot(stacked, stacked)) - direct) / direct
        worst = max(worst, err)
    assert worst <= 1e-12
    ok(6, f"stacking norm preservation (worst rel err {worst:.2e})")


# ---------------------------------------------------------------------
# 7: reduced operator spectrum equals the full propagator's
# ---------------------------------------------------------------------

def test_acceptance_07_reduced_spectrum_identity():
    """Fifty random systems, half rank-deficient: the reduced operator's
    eigenvalues match the leading nonzero spectrum of X2 pinv(X1)."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(50):
        d = int(rng.integers(4, 21))
        n = d + int(rng.integers(4, 12))
        if trial < 25:
            x = rng.standard_normal((d, n))
        else:
            k = int(rng.integers(2, max(3, d - 1)))
            x = rng.standard_normal((d, k)) @ rng.standard_normal((k, n))
        x1, x2 = x[:, :-1], x[:, 1:]
        r = int(np.linalg.matrix_rank(x1))
        res = exact_dmd(SnapshotMatrix(x, dt=1.0, t0=0.0, layout=scalar_layout(d)),
                        DmdOptions(r=r))
        lam = np.linalg.eigvals(x2 @ np.linalg.pinv(x1))
        lam = lam[np.argsort(-np.abs(lam))][:r]
        worst = max(worst, compare_spectra(res.mu, lam).max_error)
    assert worst < 1e-8
    ok(7, f"reduced spectrum identity (worst |diff| {worst:.2e})")


# ---------------------------------------------------------------------
# 8: two-layer wave speed reference value
# ---------------------------------------------------------------------

def test_acceptance_08_wave_speed():
    """g' = 0.015 m/s^2 over 100 m and 200 m layers gives exactly 1 m/s."""
    assert two_layer_wave_speed(0.015, 100.0, 200.0) == 1.0
    ok(8, "two-layer wave speed (1.0 m/s)")


# ---------------------------------------------------------------------
# 9: kernel density and clustering behavior
# ---------------------------------------------------------------------

def test_acceptance_09_kde_and_clusters():
    """The spectral density integrates to one, duplicated points scale
    the raw density exactly, and two families ten hours apart in period
    form exactly two clusters."""
    # unit mass on a wide raster
    rng = make_rng(5)
    pts = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) * 0.01
    dens = KdeDensity(points=pts, weights=rng.uniform(0.5, 2.0, 6),
                      bandwidth=2.5e-2)
    re_axis, im_axis, vals = kde_grid(dens, margin=8 * dens.bandwidth)
    step = re_axis[1] - re_axis[0]
    mass = float(vals.sum()) * step * step
    assert abs(mass - 1.0) <= 1e-3

    # exact raw scaling under duplication
    p = 0.731 + 0.442j
    single = KdeDensity(points=np.array([p]), weights=np.array([1.0]),
                        bandwidth=2e-3)
    quad = KdeDensity(points=np.array([p] * 4), weights=np.ones(4),
                      bandwidth=2e-3)
    queries = p + np.array([0.0, 1e-3j, 2e-3, 4e-3 - 2e-3j])
    raw1 = kde_eval(single, queries, normalized=False)
    raw4 = kde_eval(quad, queries, normalized=False)
    assert np.array_equal(raw4, 4.0 * raw1)

    # two period families, ten hours apart
    mus = np.array([np.exp(2j * np.pi / p) for p in
                    (12.0, 12.05, 12.1, 22.0, 22.1)])
    labels = cluster_eigenvalues(mus)
    assert None not in labels
    assert len(set(labels)) == 2
    assert labels[0] == labels[1] == labels[2]
    assert labels[3] == labels[4] != labels[0]
    ok(9, f"kde mass {mass:.6f}, exact duplication, two clusters")


# ---------------------------------------------------------------------
# 10: ROM energy bookkeeping
# ---------------------------------------------------------------------

def test_acceptance_10_rom_energetics():
    """On an orthogonal-profile oracle: the full ROM reproduces the data,
    dropping one neutral pair leaves exactly that pair's energy behind,
    and the persistent-only ROM error follows the transient envelope."""
    n, dt = 96, 1.0
    t_window = (n - 1) * dt
    sigma_t = -0.03  # decays to e^{-2.85} ~ 0.058 < 0.1 over the window
    spec = OracleSpec(d=64, n=n, dt=dt, modes=(
        ModeSpec(gamma=0.0 + 0j, b=0.9),
        ModeSpec(gamma=complex(0.0, 2 * math.pi / 12.421), b=1.0),
        ModeSpec(gamma=complex(0.0, 2 * math.pi / 23.935), b=0.7 + 0.2j),
        ModeSpec(gamma=complex(sigma_t, 2 * math.pi / 30.0), b=0.6 - 0.1j),
    ), seed=3)
    snap, truth = generate(spec)
    r = truth.mu.size
    res = exact_dmd(snap, DmdOptions(r=r, b_fit="multi:10"))
    steps = np.arange(n)
    data = np.asarray(snap.data)

    rom_all = build_rom(res, range(1, r + 1))
    max_rel = error_curve(snap, rom_all).rel_error.max()
    assert max_rel <= 1e-8

    mu_pair = np.exp(complex(0.0, 2 * math.pi / 12.421) * dt)
    k1 = int(np.argmin(np.abs(res.mu - mu_pair)))
    k2 = int(np.argmin(np.abs(res.mu - np.conj(mu_pair))))
    keep = [i + 1 for i in range(r) if i not in (k1, k2)]
    resid = data - reconstruct_rom(build_rom(res, keep), steps)
    left_behind = float(np.sum(np.linalg.norm(resid, axis=0) ** 2))
    b_pair = abs(truth.b[int(np.argmin(np.abs(truth.mu - mu_pair)))])
    analytic = float(np.sum(2.0 * b_pair ** 2
                            * np.abs(mu_pair) ** (2 * steps)))
    assert left_behind == pytest.approx(analytic, rel=0.05)

    table = build_mode_table(res, t_window)
    idx = select_modes(table, RomSelection(persistent_only=True,
                                           persistence_t=t_window))
    assert len(idx) == r - 2  # exactly the transient pair is gone
    resid_p = data - reconstruct_rom(build_rom(res, idx), steps)
    err = np.linalg.norm(resid_p, axis=0)
    mu_t = np.exp(complex(sigma_t, 2 * math.pi / 30.0) * dt)
    b_t = abs(truth.b[int(np.argmin(np.abs(truth.mu - mu_t)))])
    envelope = math.sqrt(2.0) * b_t * np.abs(mu_t) ** steps
    ratio = err / envelope
    assert np.all(ratio < 2.0) and np.all(ratio > 0.5)
    ok(10, f"rom energetics (full {max_rel:.1e}, dropped-pair energy "
           f"rel {abs(left_behind - analytic) / analytic:.1e}, envelope "
           f"ratio {ratio.min():.3f}..{ratio.max():.3f})")


# ---------------------------------------------------------------------
# 11: deterministic command-line outputs
# ---------------------------------------------------------------------

def _digest(path):
    out = {}
    for p in sorted(path.iterdir()):
        if p.is_file():
            out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_acceptance_11_cli_determinism(tmp_path):
    """synth, run, loo, and rom reruns into the same directories produce
    byte-identical outputs."""
    synth_out = tmp_path / "synth"
    synth_cfg = tmp_path / "synth.cfg"
    synth_cfg.write_text(f"out = {synth_out}\nsynth_d = 40\nsynth_n = 32\n")
    data = synth_out / "oracle.dmds"

    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(f"input = {data}\nout = {tmp_path / 'run'}\nrank = 17\n")
    loo_cfg = tmp_path / "loo.cfg"
    loo_cfg.write_text(f"input = {data}\nout = {tmp_path / 'loo'}\n"
                       "rank = 17\nloo_trials = 5\n")
    rom_cfg = tmp_path / "rom.cfg"
    rom_cfg.write_text(f"input = {data}\nout = {tmp_path / 'rom'}\n"
                       "rank = 17\nrom.all.indices = all\n"
                       "rom.top.indices = 2,3\n")

    jobs = (("synth", synth_cfg, synth_out), ("run", run_cfg, tmp_path / "run"),
            ("loo", loo_cfg, tmp_path / "loo"), ("rom", rom_cfg, tmp_path / "rom"))
    first = {}
    for cmd, cfg, outdir in jobs:
        assert main([cmd, "--config", str(cfg)]) == 0
        first[cmd] = _digest(outdir)
    for cmd, cfg, outdir in jobs:
        assert main([cmd, "--config", str(cfg)]) == 0
        assert _digest(outdir) == first[cmd], f"{cmd} outputs changed on rerun"
    n_files = sum(len(v) for v in first.values())
    ok(11, f"cli determinism ({n_files} files byte-identical on rerun)")
