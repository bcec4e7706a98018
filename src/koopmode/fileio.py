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

A column-major array is written from, and read into, its own buffer:
on a little-endian host an F-ordered float64 or complex128 array
already holds the payload bytes.  open_snapshots validates a DMDS file
without reading its payload; the decomposition then streams it in row
blocks (SnapshotFile.read_rows), so the data is never held in memory.
It writes its modes the same way, row block by row block, into a
ModeFile: a DMDM file in an unlinked temporary that is mapped read-only
once complete and copied to its destination inside the kernel.

CSV snapshot ingestion reads one column per snapshot with a header row
of "t=<hours>" cells; the time step is inferred and must be uniform.
"""
from __future__ import annotations

import json
import os
import struct
import tempfile
import weakref
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataFormatError
from .grids import GridLayout, SnapshotMatrix, _all_finite, scalar_layout

_HEADER = struct.Struct("<4sIQQdd")
SNAPSHOT_MAGIC = b"DMDS"
MODES_MAGIC = b"DMDM"
FORMAT_VERSION = 1
_CSV_CHUNK = 1024  # lines write_csv formats and writes at a time


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".grid.json")


def _header(magic: bytes, d: int, n: int, dt: float, t0: float) -> bytes:
    return _HEADER.pack(magic, FORMAT_VERSION, d, n, float(dt), float(t0))


def _write_payload(path: Path, magic: bytes, payload: np.ndarray, dtype: str,
                   dt: float, t0: float) -> None:
    """Write a header and the columns of payload, each from its own memory
    when it is contiguous in dtype (an F-ordered array's always are)."""
    with open(path, "wb") as fh:
        fh.write(_header(magic, *payload.shape, dt, t0))
        for col in payload.T:
            fh.write(np.ascontiguousarray(col, dtype=dtype))


def _open_payload(fh, path: Path, magic: bytes, itemsize: int
                  ) -> tuple[int, int, float, float]:
    """Read and check the header; the file must hold exactly D*N items."""
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise DataFormatError(f"{path}: truncated header")
    got_magic, version, d, n, dt, t0 = _HEADER.unpack(raw)
    if got_magic != magic:
        raise DataFormatError(f"{path}: bad magic {got_magic!r}, expected {magic!r}")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    size = os.fstat(fh.fileno()).st_size - _HEADER.size
    if size != d * n * itemsize:
        raise DataFormatError(
            f"{path}: payload is {size} bytes, header implies {d * n * itemsize}"
        )
    return int(d), int(n), float(dt), float(t0)


def write_snapshots(path: str | Path, snap: SnapshotMatrix) -> None:
    """Write a snapshot matrix and its grid sidecar next to it."""
    path = Path(path)
    _write_payload(path, SNAPSHOT_MAGIC, snap.data, "<f8", snap.dt, snap.t0)
    sidecar = _sidecar_path(path)
    sidecar.write_text(json.dumps(snap.layout.to_json_dict(), sort_keys=True, indent=1) + "\n")


@dataclass(frozen=True)
class SnapshotFile:
    """A DMDS file whose header and sidecar are checked and whose payload
    stays on disk: a snapshot source that is read in row blocks."""

    path: Path
    d: int
    n: int
    dt: float
    t0: float
    layout: GridLayout

    def read_rows(self, start: int, out: np.ndarray) -> None:
        """Read rows start .. start + len(out) - 1 into out, whose columns
        must each be contiguous; raise DataFormatError on a non-finite
        value or a payload cut short since the file was opened."""
        rows = out.shape[0]
        with open(self.path, "rb") as fh:
            for j in range(out.shape[1]):
                offset = _HEADER.size + 8 * (j * self.d + start)
                if os.preadv(fh.fileno(), [out[:, j]], offset) != 8 * rows:
                    raise DataFormatError(f"{self.path}: payload ended early")
        if not np.dtype("<f8").isnative:
            out.byteswap(inplace=True)
        if not _all_finite(out):
            raise DataFormatError(f"{self.path}: non-finite values in snapshot payload")


def open_snapshots(path: str | Path) -> SnapshotFile:
    """Check a binary snapshot file's header, size, time axis and sidecar
    without reading its payload."""
    path = Path(path)
    with open(path, "rb") as fh:
        d, n, dt, t0 = _open_payload(fh, path, SNAPSHOT_MAGIC, 8)
    if d < 1 or n < 2:
        raise DataFormatError(f"{path}: need D >= 1 rows and N >= 2 snapshots, "
                              f"header gives {d}x{n}")
    if not (dt > 0 and np.isfinite(dt) and np.isfinite(t0)):
        raise DataFormatError(f"{path}: dt {dt} and t0 {t0} must be finite, dt positive")
    sidecar = _sidecar_path(path)
    if sidecar.exists():
        try:
            layout = GridLayout.from_json_dict(json.loads(sidecar.read_text()))
        except (ValueError, KeyError, TypeError) as exc:
            raise DataFormatError(f"{sidecar}: bad grid layout: {exc!r}") from exc
        if layout.dim != d:
            raise DataFormatError(
                f"{path}: sidecar layout dimension {layout.dim} != data rows {d}"
            )
    else:
        layout = scalar_layout(d)
    return SnapshotFile(path, d, n, dt, t0, layout)


def read_snapshots_csv(path: str | Path) -> SnapshotMatrix:
    """Read snapshots from CSV with a "t=<hours>" header per column into a flat
    single-channel layout; a file it cannot use raises DataFormatError."""
    path = Path(path)
    try:
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
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
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
        data.flags.writeable = False  # handed over: SnapshotMatrix adopts it uncopied
        return SnapshotMatrix(data, dt=float(dt), t0=float(times_arr[0]),
                              layout=scalar_layout(data.shape[0]))
    except ValueError as exc:  # a cell that does not parse or is not finite, bad bytes
        raise DataFormatError(f"{path}: {exc}") from exc


def open_source(path: str | Path) -> SnapshotFile | SnapshotMatrix:
    """The snapshots of a file as a decomposition source: a .csv file
    (any case) is loaded whole, any other is opened as DMDS for row-block
    reads."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return read_snapshots_csv(path)
    return open_snapshots(path)


def write_mode_matrix(path: str | Path, modes: np.ndarray, dt: float, t0: float = 0.0) -> None:
    """Write a complex matrix as interleaved re/im float64, column-major."""
    modes = np.asarray(modes, dtype=complex)
    if modes.ndim != 2:
        raise ValueError("mode matrix must be 2-D")
    _write_payload(Path(path), MODES_MAGIC, modes, "<c16", dt, t0)


class ModeFile:
    """A D x r DMDM file (header and payload) in an unlinked temporary
    file in TMPDIR, written and read by row ranges of one column at a
    time.  matrix() maps the payload read-only; copy_to copies the whole
    file inside the kernel, so none of its pages enter this process.
    The file is closed when the ModeFile is collected; a mapping keeps
    its own handle.
    """

    def __init__(self, d: int, r: int, dt: float, t0: float):
        self.d, self.r = d, r
        self._fh = tempfile.TemporaryFile()
        weakref.finalize(self, self._fh.close)
        self._fh.write(_header(MODES_MAGIC, d, r, dt, t0))
        self._fh.truncate(_HEADER.size + 16 * d * r)  # flushes the header

    def _at(self, k: int, start: int) -> int:
        return _HEADER.size + 16 * (k * self.d + start)

    def write_rows(self, k: int, start: int, rows: np.ndarray) -> None:
        """Write a contiguous complex128 vector as rows start.. of column k."""
        if os.pwrite(self._fh.fileno(), rows.astype("<c16", copy=False),
                     self._at(k, start)) != rows.nbytes:
            raise OSError(f"short write to the mode file, column {k}")

    def read_rows(self, k: int, start: int, out: np.ndarray) -> None:
        """Read rows start.. of column k into a contiguous complex128 vector."""
        if os.preadv(self._fh.fileno(), [out], self._at(k, start)) != out.nbytes:
            raise OSError(f"short read from the mode file, column {k}")
        if not np.dtype("<c16").isnative:
            out.byteswap(inplace=True)

    def matrix(self) -> np.memmap:
        """The payload as a read-only D x r complex128 map."""
        return np.memmap(self._fh, dtype="<c16", mode="r", offset=_HEADER.size,
                         shape=(self.d, self.r), order="F")

    def copy_to(self, path: str | Path) -> None:
        """Write the DMDM file to path: os.sendfile copies it page by page
        inside the kernel."""
        src, size = self._fh.fileno(), _HEADER.size + 16 * self.d * self.r
        with open(path, "wb") as out:
            done = 0
            while done < size:
                sent = os.sendfile(out.fileno(), src, done, size - done)
                if sent == 0:
                    raise OSError(f"{path}: the mode file ended early")
                done += sent


def read_mode_matrix(path: str | Path) -> tuple[np.ndarray, float, float]:
    """Read a complex mode matrix written by write_mode_matrix."""
    path = Path(path)
    with open(path, "rb") as fh:
        d, n, dt, t0 = _open_payload(fh, path, MODES_MAGIC, 16)
        modes = np.empty((n, d), dtype="<c16")
        if fh.readinto(modes) != modes.nbytes:
            raise DataFormatError(f"{path}: payload ended early")
    return modes.T, dt, t0


def write_csv(path: str | Path, header: Sequence[str], fmt: str,
              rows: Iterable[tuple]) -> None:
    """Write a CSV table, with LF line endings.

    Each row is formatted with one `%` against fmt, e.g. "%d,%.17g"
    (17 significant digits round-trip a float).  NaN cells are written
    empty: every table encodes undefined values that way.  rows is
    consumed lazily, _CSV_CHUNK lines at a time, so a large table never
    sits in memory as text; "nan" is blanked once per chunk, which
    blanks what it would line by line, as no match spans a newline.
    """
    line = fmt + "\n"
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        while chunk := "".join([line % row for row in islice(rows, _CSV_CHUNK)]):
            fh.write(chunk.replace("nan", ""))
