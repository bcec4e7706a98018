"""Binary and CSV snapshot formats, mode-matrix export, sidecars."""
import json
import struct
import tracemalloc

import numpy as np
import pytest

from koopmode import fileio
from koopmode.errors import DataFormatError
from koopmode.fileio import (SnapshotFile, open_snapshots, open_source,
                             read_mode_matrix, read_snapshots_csv, write_csv,
                             write_mode_matrix, write_snapshots)
from koopmode.grids import SnapshotMatrix, scalar_layout, velocity_layout

from conftest import make_rng, random_mask


def make_snap(rng, d=6, n=5, dt=1.5, t0=2.0):
    return SnapshotMatrix(rng.standard_normal((d, n)), dt=dt, t0=t0,
                          layout=scalar_layout(d))


def read_payload(src) -> np.ndarray:
    """The whole payload of an opened snapshot file, read as the
    decomposition reads it, in one block."""
    data = np.empty((src.d, src.n), order="F")
    src.read_rows(0, data)
    return data


def test_binary_roundtrip_bit_exact(tmp_path, rng):
    snap = make_snap(rng)
    path = tmp_path / "snap.dmds"
    write_snapshots(path, snap)
    src = open_snapshots(path)
    back = SnapshotMatrix(read_payload(src), dt=src.dt, t0=src.t0, layout=src.layout)
    assert back.data.tobytes() == snap.data.tobytes()
    assert back.dt == snap.dt and back.t0 == snap.t0
    # writing the loaded data again produces identical bytes
    path2 = tmp_path / "snap2.dmds"
    write_snapshots(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_binary_layout_sidecar_roundtrip(tmp_path):
    rng = make_rng(11)
    mask = random_mask(rng, 2, 3, 4)
    layout = velocity_layout(4, 3, 2, mask)
    snap = SnapshotMatrix(rng.standard_normal((layout.dim, 4)), dt=1.0, t0=0.0,
                          layout=layout)
    path = tmp_path / "vel.dmds"
    write_snapshots(path, snap)
    sidecar = json.loads((tmp_path / "vel.dmds.grid.json").read_text())
    assert sidecar["order"] == "channel,k,j,i"
    back = open_snapshots(path)
    assert np.array_equal(back.layout.mask, mask)
    assert [c.name for c in back.layout.channels] == ["ux", "uy", "uz", "speed"]


def test_binary_bad_magic(tmp_path, rng):
    snap = make_snap(rng)
    path = tmp_path / "snap.dmds"
    write_snapshots(path, snap)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(raw)
    with pytest.raises(DataFormatError, match="magic"):
        open_snapshots(path)


def test_binary_bad_version(tmp_path, rng):
    snap = make_snap(rng)
    path = tmp_path / "snap.dmds"
    write_snapshots(path, snap)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(raw)
    with pytest.raises(DataFormatError, match="version"):
        open_snapshots(path)


def test_binary_truncated_payload(tmp_path, rng):
    snap = make_snap(rng)
    path = tmp_path / "snap.dmds"
    write_snapshots(path, snap)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(DataFormatError, match="payload"):
        open_snapshots(path)


def test_binary_rejects_nan_payload(tmp_path, rng):
    snap = make_snap(rng)
    path = tmp_path / "snap.dmds"
    write_snapshots(path, snap)
    raw = bytearray(path.read_bytes())
    raw[40:48] = struct.pack("<d", float("nan"))
    path.write_bytes(raw)
    src = open_snapshots(path)
    with pytest.raises(DataFormatError, match="non-finite"):
        read_payload(src)


def test_binary_missing_sidecar_gets_flat_layout(tmp_path, rng):
    snap = make_snap(rng)
    path = tmp_path / "snap.dmds"
    write_snapshots(path, snap)
    (tmp_path / "snap.dmds.grid.json").unlink()
    back = open_snapshots(path)
    assert back.layout.dim == snap.d
    assert back.layout.n_channels == 1


def test_csv_ingestion(tmp_path):
    path = tmp_path / "snap.csv"
    path.write_text(
        "t=2.0,t=2.5,t=3.0\n"
        "1.0,2.0,3.0\n"
        "4.0,5.0,6.0\n"
    )
    snap = read_snapshots_csv(path)
    assert snap.data.shape == (2, 3)
    assert snap.dt == 0.5 and snap.t0 == 2.0
    assert np.allclose(snap.data[1], [4, 5, 6])


def test_csv_payload_is_held_once(tmp_path):
    """open_source adopts the parsed CSV payload: its tracemalloc peak on
    a 20,000 x 50 file stays below 1.5 times the 8 MB of float64, where
    a copy into the SnapshotMatrix would reach twice it."""
    data = make_rng(7).standard_normal((20000, 50))
    path = tmp_path / "big.csv"
    np.savetxt(path, data, fmt="%.17g", delimiter=",", comments="",
               header=",".join(f"t={t}" for t in range(50)))
    tracemalloc.start()
    try:
        snap = open_source(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(snap.data, data)
    assert peak < 1.5 * data.nbytes


def test_csv_bad_header(tmp_path):
    path = tmp_path / "snap.csv"
    path.write_text("time0,time1\n1,2\n")
    with pytest.raises(DataFormatError, match="t=<hours>"):
        read_snapshots_csv(path)


def test_csv_nonuniform_times(tmp_path):
    path = tmp_path / "snap.csv"
    path.write_text("t=0,t=1,t=3\n1,2,3\n4,5,6\n")
    with pytest.raises(DataFormatError, match="uniform"):
        read_snapshots_csv(path)


def test_csv_column_count_mismatch(tmp_path):
    path = tmp_path / "snap.csv"
    path.write_text("t=0,t=1,t=2\n1,2\n")
    with pytest.raises(DataFormatError):
        read_snapshots_csv(path)


def test_ingest_dispatches_on_extension(tmp_path, rng):
    snap = make_snap(rng)
    binpath = tmp_path / "a.dmds"
    write_snapshots(binpath, snap)
    src = open_source(binpath)
    assert isinstance(src, SnapshotFile) and (src.d, src.n) == snap.data.shape
    csvpath = tmp_path / "a.CSV"
    csvpath.write_text("t=0,t=1\n1,2\n")
    src = open_source(csvpath)
    assert isinstance(src, SnapshotMatrix) and src.data.shape == (1, 2)


def test_mode_matrix_roundtrip(tmp_path, rng):
    modes = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    path = tmp_path / "modes.dmdm"
    write_mode_matrix(path, modes, dt=2.0)
    back, dt, t0 = read_mode_matrix(path)
    assert back.tobytes() == modes.astype(complex).tobytes()
    assert dt == 2.0 and t0 == 0.0
    assert path.read_bytes()[:4] == b"DMDM"


def test_mode_matrix_rejects_snapshot_file(tmp_path, rng):
    snap = make_snap(rng)
    path = tmp_path / "snap.dmds"
    write_snapshots(path, snap)
    with pytest.raises(DataFormatError, match="magic"):
        read_mode_matrix(path)


def test_write_csv_rows_nan_and_line_endings(tmp_path):
    path = tmp_path / "t.csv"
    rows = ((k, x, tag) for k, x, tag in [(1, 0.1, "cw"), (2, float("nan"), "")])
    write_csv(path, ("k", "x", "tag"), "%d,%.17g,%s", rows)
    assert path.read_bytes() == b"k,x,tag\n1,0.10000000000000001,cw\n2,,\n"
    assert float(path.read_text().splitlines()[1].split(",")[1]) == 0.1


@pytest.mark.parametrize("nan_at", [None, "values", "x", "y"])
def test_write_raster_csv_is_write_csv_of_the_nodes(tmp_path, nan_at):
    """A raster table written as loo writes kde_grid.csv, each axis value
    formatted once and fmt "%s,%s,%.17g", is byte for byte the table of
    its nodes at 17 digits with NaN blanked line by line: with or without
    NaN, in the values or on an axis, at row counts just below, at and
    just above write_csv's chunk of lines."""
    rng = make_rng(5)
    chunk = fileio._CSV_CHUNK
    for nx, ny in ((chunk - 1, 1), (chunk // 4, 4), (chunk + 1, 1), (3, chunk // 3 + 1)):
        x, y, values = rng.standard_normal(nx), rng.standard_normal(ny), rng.random((nx, ny))
        if nan_at is not None:
            {"values": values[-1], "x": x, "y": y}[nan_at][-1] = np.nan
        y_text = ["%.17g" % v for v in y.tolist()]
        write_csv(tmp_path / "raster.csv", ("re", "im", "v"), "%s,%s,%.17g",
                  ((xt, yt, v) for xt, row in zip(("%.17g" % v for v in x.tolist()), values)
                   for yt, v in zip(y_text, row.tolist())))
        lines = (("%.17g,%.17g,%.17g\n" % (x[i], y[j], values[i, j])).replace("nan", "")
                 for i in range(nx) for j in range(ny))
        text = (tmp_path / "raster.csv").read_text()
        assert text == "re,im,v\n" + "".join(lines)
        empty = sum(cell == "" for line in text.splitlines() for cell in line.split(","))
        assert empty == {None: 0, "values": 1, "x": ny, "y": nx}[nan_at]


def legacy_payload(values: np.ndarray) -> bytes:
    """Payload bytes as the earlier writer made them: a column-major copy,
    for complex values interleaved into a third array, then tobytes."""
    cols = values.ravel(order="F")
    if np.iscomplexobj(values):
        flat = np.empty(2 * cols.size, dtype="<f8")
        flat[0::2] = cols.real
        flat[1::2] = cols.imag
        cols = flat
    return cols.astype("<f8", copy=False).tobytes()


def awkward(rng, shape) -> np.ndarray:
    """Random magnitudes from subnormal to 1e300, signed zeros included."""
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-320, 300, shape)
    x.flat[::3] = -0.0
    x.flat[1::5] = 5e-324
    return x


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", [(1, 2), (7, 5), (33, 4)])
def test_writers_emit_the_earlier_bytes_from_the_array_buffer(tmp_path, rng, shape, order):
    data = np.asarray(awkward(rng, shape), order=order)
    snap = SnapshotMatrix(data, dt=0.5, t0=-1.0, layout=scalar_layout(shape[0]))
    write_snapshots(tmp_path / "s.dmds", snap)
    assert (tmp_path / "s.dmds").read_bytes()[40:] == legacy_payload(data)

    modes = np.asarray(awkward(rng, shape) + 1j * awkward(rng, shape), order=order)
    write_mode_matrix(tmp_path / "m.dmdm", modes, dt=0.5)
    assert (tmp_path / "m.dmdm").read_bytes()[40:] == legacy_payload(modes)
    back, _, _ = read_mode_matrix(tmp_path / "m.dmdm")
    assert back.tobytes() == modes.tobytes()
    assert np.signbit(back.real).tolist() == np.signbit(modes.real).tolist()


def test_mode_matrix_payload_size_checked(tmp_path, rng):
    path = tmp_path / "modes.dmdm"
    write_mode_matrix(path, rng.standard_normal((4, 3)) + 0j, dt=1.0)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(DataFormatError, match="payload"):
        read_mode_matrix(path)
