"""DMDS input is decomposed in two passes over row blocks of the file.

Pass 1 folds each block into the R factor, pass 2 lifts the modes from
the blocks: the data is never held in memory.  The block size is patched
down to a few rows here, so that many blocks, a partial last block and
D below N all run at test sizes.
"""
import gc
import json
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmode import dmd
from koopmode.cli import _resolve_options, load_config, main
from koopmode.dmd import DmdOptions, exact_dmd, modified_options
from koopmode.fileio import (ColumnFile, SnapshotFile, open_snapshots, write_mode_matrix,
                             write_snapshots)
from koopmode.grids import SnapshotMatrix, scalar_layout
from koopmode.oracle import generate, tidal_spec
from koopmode.ranking import leave_one_out
from koopmode.rom import build_rom, error_curve, factor_error_curve

from dspace_reference import reference_exact_dmd
from test_qr_equivalence import assert_spectra_match, mode_errors, mode_tolerance

# N = 40 below: 39, 40 and 41 rows make R square before, at and after a
# block boundary, where pass 1 switches from stacking to folding.
BLOCK_ROWS = st.sampled_from([1, 2, 3, 5, 8, 39, 40, 41, 4096])
OPTION_SETS = dict(remove_mean=st.booleans(), use_tlsq=st.booleans(),
                   normalize=st.booleans(),
                   b_fit=st.sampled_from(["first", "multi:2", "multi:10"]))


def write_file(snap: SnapshotMatrix, folder: str):
    path = Path(folder) / "snap.dmds"
    write_snapshots(path, snap)
    return open_snapshots(path)


def assert_phase_convention(result) -> None:
    """Every b is real and non-negative, a real mode is real, and the two
    members of a conjugate pair share b and are conjugate modes, bitwise."""
    assert np.all(result.b.imag == 0.0) and np.all(result.b.real >= 0.0)
    modes = np.asarray(result.modes)
    for k, p in enumerate(result.partner):
        if p is None:
            assert np.all(modes[:, k].imag == 0.0), k
        else:
            assert result.b[k] == result.b[p], (k, p)
            assert modes[:, k].tobytes() == modes[:, p].conj().tobytes(), (k, p)


@given(seed=st.integers(0, 10_000), d=st.sampled_from([25, 61, 120]),
       block_rows=BLOCK_ROWS, **OPTION_SETS)
@settings(max_examples=40, deadline=None)
def test_streamed_file_matches_dspace_reference(seed, d, block_rows, remove_mean,
                                                use_tlsq, normalize, b_fit):
    """D below and above N = 40, every option: the streamed file gives
    the eigenvalues of the D-row reference within 1e-10 and its modes,
    up to a unit factor, as closely (more for a sensitive eigenvector, as
    in test_qr_equivalence), and exactly the result of the in-memory
    snapshots under the same block size, in the phase convention."""
    snap, _ = generate(tidal_spec(d=d, n=40, noise_sigma=1e-3, seed=seed))
    opts = DmdOptions(r=16 if remove_mean else 17, use_tlsq=use_tlsq, normalize_columns=normalize,
                      remove_mean=remove_mean, b_fit=b_fit)
    with tempfile.TemporaryDirectory() as folder, \
            mock.patch.object(dmd, "_BLOCK_ROWS", block_rows):
        res = exact_dmd(write_file(snap, folder), opts)
        in_memory = exact_dmd(snap, opts)
    for name in ("mu", "b", "modes", "singular_values", "residuals"):
        assert np.array_equal(getattr(res, name), getattr(in_memory, name)), name
    assert res.partner == in_memory.partner
    assert_phase_convention(res)
    if remove_mean:
        assert np.array_equal(res.mean_mode, in_memory.mean_mode)
        assert np.allclose(res.mean_mode, snap.data.mean(axis=1), rtol=0, atol=1e-14)

    ref = reference_exact_dmd(snap, opts)
    match = assert_spectra_match(res.mu, ref.mu)
    mode_err = mode_errors(res.modes, ref.modes[:, match])
    assert np.all(mode_err <= mode_tolerance(snap, opts, ref.mu)[match])
    assert np.allclose(res.singular_values, ref.singular_values,
                       rtol=0, atol=1e-13 * ref.singular_values[0])


@given(seed=st.integers(0, 10_000), d=st.sampled_from([35, 40, 120, 200]),
       block_rows=st.sampled_from([1, 3, 39, 40, 41, 4096]), center=st.booleans())
@settings(max_examples=40, deadline=None)
def test_factor_is_the_qr_of_the_whole_matrix(seed, d, block_rows, center):
    """Pass 1 with N = 40 and D below, at and above N: R is the R factor
    of the whole (centered) matrix up to the sign of each row, within
    1e-13 of its norm, and bitwise when D fits in one block.  Under
    centering the last column holds the row means m in R coordinates:
    with the remainder outside them it has the length of m, and against
    the data columns it gives X_c^T m."""
    snap = generate(tidal_spec(d=d, n=40, noise_sigma=1e-3, seed=seed))[0]
    with mock.patch.object(dmd, "_BLOCK_ROWS", block_rows):
        fac = dmd._factor(snap, center)
    n, k = snap.n, min(d, snap.n)
    m = np.ascontiguousarray(snap.data).mean(axis=1)
    x = snap.data - m[:, None] if center else snap.data
    want = scipy.linalg.qr(x, mode="raw")[1]
    assert fac.r.shape == ((k + (d > n), n + 1) if center else (k, n))
    r = fac.r[:k, :n]
    if d <= block_rows:
        assert np.array_equal(r, want)
    sign = np.where(np.diag(r) * np.diag(want) < 0, -1.0, 1.0)
    scale = np.linalg.norm(x)
    assert np.abs(sign[:, None] * r - want).max() <= 1e-13 * scale
    if center:
        m_r, rest = fac.r[:k, n], fac.r[k:, n]
        assert abs(m_r @ m_r + rest @ rest - m @ m) <= 1e-13 * (m @ m)
        assert np.abs(r.T @ m_r - x.T @ m).max() <= 1e-13 * scale * np.linalg.norm(m)


def growing_snapshots(d: int = 8, n: int = 144) -> SnapshotMatrix:
    """One mode with mu = 15: entries reach 1e168, so squared column
    norms overflow."""
    data = np.linspace(1.0, 2.0, d)[:, None] * (15.0 ** np.arange(n))[None, :]
    return SnapshotMatrix(data, dt=1.0, t0=0.0, layout=scalar_layout(d))


@given(seed=st.integers(0, 10_000), d=st.sampled_from([20, 30, 90]),
       remove_mean=st.booleans(), growing=st.booleans(), block_rows=BLOCK_ROWS,
       keep=st.integers(1, 17))
@settings(max_examples=40, deadline=None)
def test_rom_curves_from_the_factor_match_the_d_row_curves(seed, d, remove_mean, growing,
                                                           block_rows, keep):
    """rom's curves come from the R factor: data norms, ROM norms and
    relative errors agree with rom.error_curve's D-row curves to 1e-12
    relative.  A relative error at round-off level is held to 1e-14 of
    the data norm instead."""
    if growing:
        snap, rank = growing_snapshots(d), 1
    else:
        snap = generate(tidal_spec(d=d, n=40, noise_sigma=1e-3, seed=seed))[0]
        rank = 16 if remove_mean else 17
    opts = DmdOptions(r=rank, remove_mean=remove_mean, b_fit="multi:10")
    with tempfile.TemporaryDirectory() as folder, \
            mock.patch.object(dmd, "_BLOCK_ROWS", block_rows):
        result = exact_dmd(write_file(snap, folder), opts)
    # the leading modes, closed under conjugation
    partner = result.partner
    chosen = set(range(min(keep, result.r)))
    chosen |= {partner[i] for i in chosen if partner[i] is not None}
    model = build_rom(result, [i + 1 for i in sorted(chosen)])

    got = factor_error_curve(result, model.indices)
    want = error_curve(snap, model)
    assert np.array_equal(got.steps, want.steps)
    assert np.array_equal(got.times_hours, want.times_hours)
    assert np.allclose(got.rom_norm, want.rom_norm, rtol=1e-12, atol=0)
    assert np.all(np.abs(got.rel_error - want.rel_error)
                  <= 1e-12 * want.rel_error + 1e-14)


def extended_rel_error(snap: SnapshotMatrix, result, indices) -> np.ndarray:
    """||x_n - xhat_n|| / ||x_n|| for every snapshot, evaluated in long
    double from the data and the result's modes, mu, b and removed mean."""
    pos = np.asarray(indices) - 1
    phi = np.asarray(result.modes)[:, pos].astype(np.clongdouble)
    mu = result.mu[pos].astype(np.clongdouble)
    b = result.b[pos].astype(np.clongdouble)
    xhat = (phi @ (mu[:, None] ** np.arange(snap.n)[None, :] * b[:, None])).real
    if result.mean_mode is not None:
        xhat += result.mean_mode.astype(np.longdouble)[:, None]
    x = snap.data.astype(np.longdouble)
    return np.sqrt(((x - xhat) ** 2).sum(axis=0) / (x ** 2).sum(axis=0))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="the reference needs a long double wider than float64")
@pytest.mark.parametrize("seed, centered, keep", [
    *(pytest.param(2448, False, keep, id=str(keep)) for keep in (1, 3, 7, 17)),
    *(pytest.param(seed, True, keep, id=f"centered-{seed}-{keep}")
      for seed in (8, 77, 133) for keep in (1, 3, 7, 16)),
])
def test_rom_curves_against_an_extended_precision_reference(seed, centered, keep):
    """A 25 x 40 tidal oracle in 3-row blocks, whose row 0 is scaled 10x
    and negated at row 3, debiased at rank 17, or at rank 16 with the
    mean removed.  Both curves' relative errors lie within 16 N eps of a
    long-double evaluation of the same ROM, or 64 N eps when centered:
    absolute bounds, as factor_error_curve states.  Seen on x86-64, the
    R-coordinate curve departs from it by up to 7.3 N eps (55 N eps
    centered), the D-row curve by 0.3 N eps (1.3 N eps centered).
    Centered seed 133 at keep 1 reached 77 N eps with modes formed as
    R2 V Sigma^-1 w, where the D-row modes are X2 @ lift."""
    data = generate(tidal_spec(d=25, n=40, noise_sigma=1e-3, seed=seed))[0].data.copy()
    data[0] *= 10.0
    data[3] = -data[0]
    snap = SnapshotMatrix(data, dt=1.0, t0=0.0, layout=scalar_layout(25))
    opts = replace(modified_options(16), remove_mean=True) if centered else modified_options(17)
    with mock.patch.object(dmd, "_BLOCK_ROWS", 3):
        result = exact_dmd(snap, opts)
    partner = result.partner
    chosen = set(range(keep)) | {partner[i] for i in range(keep) if partner[i] is not None}
    model = build_rom(result, [i + 1 for i in sorted(chosen)])

    want = extended_rel_error(snap, result, model.indices)
    bound = (64 if centered else 16) * snap.n * np.finfo(float).eps
    assert np.all(np.abs(factor_error_curve(result, model.indices).rel_error - want) <= bound)
    assert np.all(np.abs(error_curve(snap, model).rel_error - want) <= bound)


@pytest.mark.parametrize("mean_removal", [False, True])
def test_leave_one_out_reads_the_result_not_the_file(tmp_path, mean_removal):
    """Trials run on the R factor of the decomposition: once the DMDS
    file it came from is deleted, leave-one-out on the result gives the
    same trials as before."""
    snap, _ = generate(tidal_spec(d=120, n=40, noise_sigma=1e-3, seed=5))
    path = tmp_path / "snap.dmds"
    write_snapshots(path, snap)
    result = exact_dmd(open_snapshots(path), replace(modified_options(16),
                                                     remove_mean=mean_removal))
    before = leave_one_out(result, trials=10, seed=2)
    path.unlink()
    after = leave_one_out(result, trials=10, seed=2)
    assert len(after.trials) == len(before.trials) == 10
    for a, b in zip(after.trials, before.trials):
        assert a.omitted_column == b.omitted_column
        assert np.array_equal(a.mu, b.mu)
    assert after.failures == before.failures


def test_a_file_renamed_over_after_open_decomposes_as_opened(tmp_path):
    """open_snapshots keeps the file's handle: a DMDS file renamed over
    after it was opened still decomposes to the bytes of the one opened."""
    path, copy, other = (tmp_path / name for name in ("snap.dmds", "copy.dmds", "other.dmds"))
    write_snapshots(path, generate(tidal_spec(d=120, n=40, noise_sigma=1e-3, seed=1))[0])
    copy.write_bytes(path.read_bytes())
    src = open_snapshots(path)
    write_snapshots(other, generate(tidal_spec(d=120, n=40, noise_sigma=1e-3, seed=2))[0])
    other.replace(path)
    got = exact_dmd(src, modified_options(17))
    want = exact_dmd(open_snapshots(copy), modified_options(17))
    assert got.mu.tobytes() == want.mu.tobytes() and got.b.tobytes() == want.b.tobytes()
    assert np.asarray(got.modes).tobytes() == np.asarray(want.modes).tobytes()


def lifted_at_once(data: np.ndarray, mean: np.ndarray | None, coef: np.ndarray,
                   partner: tuple) -> np.ndarray:
    """The modes X2 @ coef from all D rows of data at once, the second
    member of each conjugate pair the conjugate of the first.  Each
    leaf's rows are lifted _LIFT_ROWS at a time from its start, by one
    product of a new F-ordered copy with the columns of the real modes
    and first members, as pass 2 reads them (numpy takes a one-row
    product another way when its row is strided)."""
    d, n = data.shape
    x = data if mean is None else data - mean[:, None]
    first = [k for k, p in enumerate(partner) if p is None or p > k]
    real = np.ascontiguousarray(coef[:, first]).view(np.float64)
    phi = np.empty((d, coef.shape[1]), dtype=complex, order="F")
    for start, stop in dmd._leaves(d, n):
        for lo in range(start, stop, dmd._LIFT_ROWS):
            rows = slice(lo, min(lo + dmd._LIFT_ROWS, stop))
            phi[rows, first] = np.matmul(np.array(x[rows, 1:], order="F"),
                                         real).view(np.complex128)
    second = [k for k, p in enumerate(partner) if p is not None and p < k]
    phi[:, second] = phi[:, [partner[k] for k in second]].conj()
    return phi


@given(seed=st.integers(0, 2**32 - 1),
       d=st.sampled_from([1_000, 1_023, 1_025, 2_049, 4_095, 4_097, 5_121, 8_191, 8_193,
                          12_289]),
       n=st.integers(2, 24), center=st.booleans(), from_file=st.booleans())
@settings(max_examples=40, deadline=None)
def test_mode_bytes_do_not_depend_on_the_rows_pass_2_reads(seed, d, n, center, from_file):
    """Pass 2 reads _LIFT_ROWS rows at a time: the mode file holds the
    bytes of the same products taken from all D rows at once, for D
    across the lift, block and leaf sizes with remainder rows (a last
    run of one row among them), N from 2, plain and centered, from a
    file and from memory."""
    data = np.random.default_rng(seed).standard_normal((d, n))
    snap = SnapshotMatrix(data, dt=1.0, t0=0.0, layout=scalar_layout(d))
    lift, seen = dmd._lift, []

    def spy(src, mean, coef, partner, buf, out):
        seen.append((mean, coef, partner, buf.size))
        return lift(src, mean, coef, partner, buf, out)

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(dmd, "_lift", spy):
        src = write_file(snap, tmp) if from_file else snap
        got = np.asarray(exact_dmd(src, DmdOptions(remove_mean=center)).modes).tobytes("F")
    (mean, coef, partner, floats), = seen
    assert floats == min(dmd._LIFT_ROWS, d) * n
    assert got == lifted_at_once(data, mean, coef, partner).tobytes("F")


@pytest.mark.parametrize("center", [False, True], ids=["plain", "centered"])
@pytest.mark.parametrize("from_file", [False, True], ids=["memory", "file"])
def test_exact_dmd_reads_nothing_back_from_its_mode_file(monkeypatch, center, from_file):
    """Pass 2 writes every mode once, in its final form, over several
    leaves: no column of the mode file is read back."""
    snap = generate(tidal_spec(d=120, n=40, noise_sigma=1e-3, seed=3))[0]
    read = ColumnFile.read_column

    def spy(self, k, start, out):
        assert isinstance(self, SnapshotFile), "read a column of the mode file"
        read(self, k, start, out)

    monkeypatch.setattr(dmd, "_BLOCK_ROWS", 8)
    monkeypatch.setattr(ColumnFile, "read_column", spy)
    with tempfile.TemporaryDirectory() as tmp:
        result = exact_dmd(write_file(snap, tmp) if from_file else snap,
                           DmdOptions(r=16, remove_mean=center))
    assert len(dmd._leaves(snap.d, snap.n)) > 1
    assert_phase_convention(result)


def read_csv_columns(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


@given(seed=st.integers(0, 10_000), d=st.sampled_from([25, 61, 120]),
       block_rows=st.sampled_from([1, 3, 7, 4096]), mean_removal=st.booleans())
@settings(max_examples=20, deadline=None)
def test_streamed_mode_file(seed, d, block_rows, mean_removal):
    """Pass 2 writes the modes to a file block by block, once, in the
    phase convention (assert_phase_convention); the modes are a
    read-only map; run's modes.dmdm holds the bytes write_mode_matrix
    writes for them; and rom, which gathers no mode, writes the curves
    of the model build_rom gathers (which
    test_rom_curves_from_the_factor_match_the_d_row_curves holds to the
    D-row curves)."""
    snap = generate(tidal_spec(d=d, n=40, noise_sigma=1e-3, seed=seed))[0]
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(dmd, "_BLOCK_ROWS", block_rows):
        folder = Path(tmp)
        src = write_file(snap, tmp)
        cfg = folder / "cfg"
        cfg.write_text(f"input = {src.path}\nrank = {16 if mean_removal else 17}\n"
                       f"mean_removal = {'on' if mean_removal else 'off'}\n"
                       "rom.all.indices = all\nrom.top.indices = 1,2,3\n")
        assert main(["run", "--config", str(cfg), "--out", str(folder / "run")]) == 0
        assert main(["rom", "--config", str(cfg), "--out", str(folder / "rom")]) == 0
        result = exact_dmd(src, _resolve_options(load_config(cfg)))
        modes = np.asarray(result.modes)
        write_mode_matrix(folder / "want.dmdm", modes, result.dt)
        assert (folder / "run" / "modes.dmdm").read_bytes() == (folder / "want.dmdm").read_bytes()
        summary = json.loads((folder / "rom" / "rom_summary.json").read_text())
        curves = {name: read_csv_columns(folder / "rom" / f"rom_{name}_errors.csv")
                  for name in summary["roms"]}

    assert_phase_convention(result)
    assert not result.modes.flags.writeable
    with pytest.raises(ValueError):
        result.modes[0, 0] = 0.0
    for name, got in curves.items():
        model = build_rom(result, summary["roms"][name]["indices"])
        want = factor_error_curve(result, model.indices)
        for k, column in enumerate(("steps", "times_hours", "rom_norm", "rel_error")):
            assert np.array_equal(got[:, k], getattr(want, column)), (name, column)


# ------------------------------------------------------------------ memory

@pytest.fixture(scope="module")
def ocean_file(tmp_path_factory):
    """D = 20000, N = 144 tidal oracle on disk: 23 MB of float64."""
    snap, _ = generate(tidal_spec(d=20000, n=144, noise_sigma=1e-3, seed=0))
    folder = tmp_path_factory.mktemp("ocean")
    write_snapshots(folder / "oracle.dmds", snap)
    return folder / "oracle.dmds", snap.data.nbytes


@pytest.mark.parametrize("command, extra", [
    ("run", {}),
    ("rom", {"rom.all.indices": "all", "rom.top.indices": "1,2,3"}),
])
def test_cli_peak_memory_within_the_payload(ocean_file, tmp_path, command, extra):
    """run and rom stream the file: their tracemalloc peak (the D x 17
    modes, a ROM's copy of them, one row block) stays below the payload,
    which the whole-file path held about three times over."""
    path, payload = ocean_file
    cfg = tmp_path / "cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in
                           {"input": path, "out": tmp_path / "out", "rank": 17,
                            "mean_removal": "on", **extra}.items()))
    tracemalloc.start()
    try:
        assert main([command, "--config", str(cfg)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= payload


@pytest.mark.parametrize("mean_removal", ["off", "on"])
def test_run_holds_no_mode_matrix(ocean_file, tmp_path, mean_removal):
    """run at r = 60 streams its 19 MB of modes to a file: the tracemalloc
    peak (one row block, one product of it, the amplitude fit) stays
    below half the D x r mode bytes, which the run held whole before."""
    path, _ = ocean_file
    cfg = tmp_path / "cfg"
    cfg.write_text(f"input = {path}\nout = {tmp_path / 'out'}\nrank = 60\n"
                   f"mean_removal = {mean_removal}\n")
    tracemalloc.start()
    try:
        assert main(["run", "--config", str(cfg)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 20000 * 60 * 16


@pytest.mark.parametrize("center", [False, True])
def test_no_block_outlives_its_pass(ocean_file, monkeypatch, center):
    """With the cycle collector off, a decomposition of a file of several
    leaves holds less than one of pass 1's _BLOCK_ROWS x N blocks once
    the R factor is formed (tracemalloc's current memory as the reduced
    decomposition starts), and pass 2 reads through a buffer of at most
    _LIFT_ROWS x N floats."""
    path, _ = ocean_file
    src = open_snapshots(path)
    assert len(dmd._leaves(src.d, src.n)) > 1
    held, floats = [], []
    reduced, lift = dmd._reduced_dmd, dmd._lift

    def spy_reduced(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return reduced(*args)

    def spy_lift(src, mean, coef, partner, buf, out):
        floats.append(buf.size)
        return lift(src, mean, coef, partner, buf, out)

    monkeypatch.setattr(dmd, "_reduced_dmd", spy_reduced)
    monkeypatch.setattr(dmd, "_lift", spy_lift)
    gc.disable()
    tracemalloc.start()
    try:
        exact_dmd(src, DmdOptions(r=17, remove_mean=center))
    finally:
        tracemalloc.stop()
        gc.enable()
    assert len(held) == 1 and held[0] < dmd._BLOCK_ROWS * src.n * 8
    assert floats == [dmd._LIFT_ROWS * src.n]


# -------------------------------------------------------------- robustness

BROKEN = ("ok", "truncated", "overlong", "nan_last_block", "inf_last_block",
          "sidecar_mismatch", "zeros", "constant")


def write_input(folder: Path, data: np.ndarray, kind: str) -> Path:
    d, n = data.shape
    if kind == "zeros":
        data = np.zeros((d, n))
    elif kind == "constant":
        data = np.full((d, n), 2.5)
    path = folder / "input.dmds"
    write_snapshots(path, SnapshotMatrix(data, dt=1.0, t0=0.0, layout=scalar_layout(d)))
    raw = bytearray(path.read_bytes())
    if kind in ("nan_last_block", "inf_last_block"):
        at = 40 + 8 * ((n // 2) * d + d - 1)  # the last row, in the last block
        raw[at:at + 8] = np.float64(np.nan if kind == "nan_last_block" else -np.inf).tobytes()
    elif kind == "truncated":
        raw = raw[:-8]
    elif kind == "overlong":
        raw += bytes(8)
    elif kind == "sidecar_mismatch":
        (folder / "input.dmds.grid.json").write_text(
            json.dumps(scalar_layout(d + 1).to_json_dict()))
    path.write_bytes(raw)
    return path


COMMANDS = {
    "run": {},
    "loo": {"loo_trials": 3},
    "rom": {"rom.all.indices": "all"},
    "slice": {"slice_modes": "1"},
}


@given(d=st.integers(1, 60), n=st.integers(2, 40), kind=st.sampled_from(BROKEN),
       seed=st.integers(0, 2**32 - 1), block_rows=st.sampled_from([1, 3, 7, 4096]),
       mean_removal=st.booleans(), tlsq=st.booleans())
@settings(max_examples=30, deadline=None)
def test_no_dmds_input_ends_in_a_traceback(d, n, kind, seed, block_rows, mean_removal,
                                           tlsq):
    """Broken, degenerate and healthy DMDS files through every command
    that reads one: each ends in exit 0, 2, 3 or 4, and exit 4 (an input
    error) leaves no output directory."""
    data = np.random.default_rng(seed).standard_normal((d, n))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(dmd, "_BLOCK_ROWS", block_rows):
        folder = Path(tmp)
        path = write_input(folder, data, kind)
        for command, extra in COMMANDS.items():
            out = folder / f"out-{command}"
            cfg = folder / f"{command}.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in {
                "input": path, "out": out, "mean_removal": "on" if mean_removal else "off",
                "tlsq": "on" if tlsq else "off", **extra}.items()))
            code = main([command, "--config", str(cfg)])
            assert code in (0, 2, 3, 4), (command, code)
            if code == 4:
                assert not out.exists(), command
            if kind in ("truncated", "overlong", "nan_last_block", "inf_last_block",
                        "sidecar_mismatch"):
                assert code == 4, (command, code)
