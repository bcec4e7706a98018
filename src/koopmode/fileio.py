"""Snapshot and result file formats.

Two tiny binary containers share one little-endian header layout:

    magic   4 bytes   b"DMDS" (real snapshots) or b"DMDM" (complex modes)
    version u32       currently 1
    D       u64       rows
    N       u64       columns
    dt      f64       time step in hours
    t0      f64       time of the first column in hours

DMDS payload: D*N float64 values, column-major.  DMDM payload: D*N
complex values as interleaved (re, im) float64 pairs, column-major.
A JSON sidecar <file>.grid.json carries the grid layout for snapshot
files; when it is absent a flat single-channel layout is assumed.

CSV snapshot ingestion reads one column per snapshot with a header row
of "t=<hours>" cells; the time step is inferred and must be uniform.
"""
from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataFormatError
from .grids import GridLayout, SnapshotMatrix, scalar_layout

_HEADER = struct.Struct("<4sIQQdd")
SNAPSHOT_MAGIC = b"DMDS"
MODES_MAGIC = b"DMDM"
FORMAT_VERSION = 1


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".grid.json")


def _write_payload(path: Path, magic: bytes, d: int, n: int, dt: float,
                   t0: float, payload: np.ndarray) -> None:
    header = _HEADER.pack(magic, FORMAT_VERSION, d, n, float(dt), float(t0))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.astype("<f8", copy=False).tobytes())


def _read_header(fh, path: Path, magic: bytes) -> tuple[int, int, float, float]:
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise DataFormatError(f"{path}: truncated header")
    got_magic, version, d, n, dt, t0 = _HEADER.unpack(raw)
    if got_magic != magic:
        raise DataFormatError(f"{path}: bad magic {got_magic!r}, expected {magic!r}")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    return int(d), int(n), float(dt), float(t0)


def write_snapshots(path: str | Path, snap: SnapshotMatrix) -> None:
    """Write a snapshot matrix and its grid sidecar next to it."""
    path = Path(path)
    _write_payload(path, SNAPSHOT_MAGIC, snap.d, snap.n, snap.dt, snap.t0,
                   snap.data.ravel(order="F"))
    sidecar = _sidecar_path(path)
    sidecar.write_text(json.dumps(snap.layout.to_json_dict(), sort_keys=True, indent=1) + "\n")


def read_snapshots(path: str | Path) -> SnapshotMatrix:
    """Read a binary snapshot file; layout comes from the sidecar if present."""
    path = Path(path)
    with open(path, "rb") as fh:
        d, n, dt, t0 = _read_header(fh, path, SNAPSHOT_MAGIC)
        payload = fh.read()
    expected = d * n * 8
    if len(payload) != expected:
        raise DataFormatError(
            f"{path}: payload is {len(payload)} bytes, header implies {expected}"
        )
    data = np.frombuffer(payload, dtype="<f8").reshape((d, n), order="F")
    if not np.isfinite(data).all():
        raise DataFormatError(f"{path}: non-finite values in snapshot payload")
    sidecar = _sidecar_path(path)
    if sidecar.exists():
        layout = GridLayout.from_json_dict(json.loads(sidecar.read_text()))
        if layout.dim != d:
            raise DataFormatError(
                f"{path}: sidecar layout dimension {layout.dim} != data rows {d}"
            )
    else:
        layout = scalar_layout(d)
    return SnapshotMatrix(data, dt=dt, t0=t0, layout=layout)


def read_snapshots_csv(path: str | Path, layout: GridLayout | None = None) -> SnapshotMatrix:
    """Read snapshots from CSV with a "t=<hours>" header per column."""
    path = Path(path)
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if not header:
            raise DataFormatError(f"{path}: empty file")
        cells = [c.strip() for c in header.split(",")]
        times = []
        for c in cells:
            if not c.startswith("t="):
                raise DataFormatError(f"{path}: header cell {c!r} is not of the form t=<hours>")
            try:
                times.append(float(c[2:]))
            except ValueError as exc:
                raise DataFormatError(f"{path}: cannot parse time from {c!r}") from exc
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DataFormatError(f"{path}: cannot parse numeric payload: {exc}") from exc
    times_arr = np.asarray(times)
    if times_arr.size < 2:
        raise DataFormatError(f"{path}: need at least two snapshot columns")
    if data.shape[1] != times_arr.size:
        raise DataFormatError(
            f"{path}: {data.shape[1]} data columns but {times_arr.size} header times"
        )
    steps = np.diff(times_arr)
    dt = steps[0]
    if dt <= 0 or not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
        raise DataFormatError(f"{path}: snapshot times are not uniformly spaced")
    if layout is None:
        layout = scalar_layout(data.shape[0])
    return SnapshotMatrix(data, dt=float(dt), t0=float(times_arr[0]), layout=layout)


def ingest(path: str | Path, format: str = "auto") -> SnapshotMatrix:
    """Load snapshots from a DMDS binary or CSV file.

    format "auto" dispatches on the file extension (.csv reads as CSV,
    anything else as binary).
    """
    path = Path(path)
    if format == "auto":
        format = "csv" if path.suffix.lower() == ".csv" else "dmds"
    if format == "dmds":
        return read_snapshots(path)
    if format == "csv":
        return read_snapshots_csv(path)
    raise ValueError(f"unknown snapshot format {format!r}")


def write_mode_matrix(path: str | Path, modes: np.ndarray, dt: float, t0: float = 0.0) -> None:
    """Write a complex matrix as interleaved re/im float64, column-major."""
    path = Path(path)
    modes = np.asarray(modes, dtype=complex)
    if modes.ndim != 2:
        raise ValueError("mode matrix must be 2-D")
    d, n = modes.shape
    cols = modes.ravel(order="F")
    interleaved = np.empty(2 * cols.size, dtype="<f8")
    interleaved[0::2] = cols.real
    interleaved[1::2] = cols.imag
    _write_payload(path, MODES_MAGIC, d, n, dt, t0, interleaved)


def read_mode_matrix(path: str | Path) -> tuple[np.ndarray, float, float]:
    """Read a complex mode matrix written by write_mode_matrix."""
    path = Path(path)
    with open(path, "rb") as fh:
        d, n, dt, t0 = _read_header(fh, path, MODES_MAGIC)
        payload = fh.read()
    expected = d * n * 16
    if len(payload) != expected:
        raise DataFormatError(
            f"{path}: payload is {len(payload)} bytes, header implies {expected}"
        )
    flat = np.frombuffer(payload, dtype="<f8")
    modes = (flat[0::2] + 1j * flat[1::2]).reshape((d, n), order="F")
    return modes, dt, t0


def write_csv(path: str | Path, header: Sequence[str], fmt: str,
              rows: Iterable[tuple]) -> None:
    """Write a CSV table row by row, with LF line endings.

    Each row is formatted with one `%` against fmt, e.g. "%d,%.17g"
    (17 significant digits round-trip a float).  NaN cells are written
    empty: every table encodes undefined values that way.  rows is
    consumed lazily, so a large table never sits in memory as text.
    """
    line = fmt + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write((line % row).replace("nan", ""))

