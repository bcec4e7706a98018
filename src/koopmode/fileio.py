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

One type, ColumnFile, owns the container: it writes or checks the
header and moves row ranges of one column at explicit offsets, at a
path or in an unlinked temporary.  On a little-endian host an F-ordered
float64 or complex128 array's columns already hold the payload bytes.
open_snapshots checks a DMDS file without reading its payload and keeps
its handle; the decomposition then streams it in row blocks
(SnapshotFile.read_rows), never holding the data, and writes its modes
block by block into a DMDM ColumnFile where the caller wants it.

CSV snapshot ingestion reads one column per snapshot with a header row
of "t=<hours>" cells; the time step is inferred and must be uniform.
"""
from __future__ import annotations

import json
import os
import struct
import tempfile
import warnings
import weakref
from contextlib import closing
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataFormatError
from .grids import GridLayout, SnapshotMatrix, _all_finite, scalar_layout

_HEADER = struct.Struct("<4sIQQdd")
SNAPSHOT_MAGIC = b"DMDS"
MODES_MAGIC = b"DMDM"
FORMAT_VERSION = 1
_ITEMS = {SNAPSHOT_MAGIC: np.dtype("<f8"), MODES_MAGIC: np.dtype("<c16")}
_CSV_CHUNK = 1024  # lines write_csv formats and writes, and cells grid_cells lists, at a time


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".grid.json")


class ColumnFile:
    """A DMDS or DMDM file at path, or in an unlinked temporary in TMPDIR
    (path None): a header and d x n float64 or complex128 items, read and
    written by row ranges of one column at explicit offsets through one
    unbuffered handle, which forked workers share.  close() or collection
    closes the handle; a mapping keeps its own."""

    def __init__(self, fh, path: Path | None, magic: bytes, d: int, n: int,
                 dt: float, t0: float):
        self._fh, self.path, self.dtype = fh, path, _ITEMS[magic]
        self.d, self.n, self.dt, self.t0 = d, n, dt, t0
        self.close = weakref.finalize(self, fh.close)

    @classmethod
    def create(cls, path: Path | None, magic: bytes, d: int, n: int, dt: float,
               t0: float) -> ColumnFile:
        """A new file of zeros under a header, at path or in an unlinked temporary."""
        fh = tempfile.TemporaryFile(buffering=0) if path is None else open(path, "w+b", buffering=0)
        fh.write(_HEADER.pack(magic, FORMAT_VERSION, d, n, float(dt), float(t0)))
        fh.truncate(_HEADER.size + _ITEMS[magic].itemsize * d * n)
        return cls(fh, path, magic, d, n, float(dt), float(t0))

    @classmethod
    def open(cls, path: Path, magic: bytes) -> ColumnFile:
        """The file at path, read-only; its header is checked, and its
        payload must hold exactly D*N items."""
        fh = open(path, "rb", buffering=0)
        try:
            raw = fh.read(_HEADER.size)
            if len(raw) != _HEADER.size:
                raise DataFormatError(f"{path}: truncated header")
            got_magic, version, d, n, dt, t0 = _HEADER.unpack(raw)
            if got_magic != magic:
                raise DataFormatError(f"{path}: bad magic {got_magic!r}, expected {magic!r}")
            if version != FORMAT_VERSION:
                raise DataFormatError(f"{path}: unsupported version {version}")
            size = os.fstat(fh.fileno()).st_size - _HEADER.size
            if size != (want := d * n * _ITEMS[magic].itemsize):
                raise DataFormatError(f"{path}: payload is {size} bytes, header implies {want}")
        except BaseException:
            fh.close()
            raise
        return cls(fh, path, magic, int(d), int(n), float(dt), float(t0))

    def _at(self, k: int, start: int) -> int:
        return _HEADER.size + self.dtype.itemsize * (k * self.d + start)

    def write_column(self, k: int, start: int, rows: np.ndarray) -> None:
        """Write a vector as rows start.. of column k, from its own memory
        when it is contiguous and of the file's item type."""
        rows = np.ascontiguousarray(rows, dtype=self.dtype)
        if os.pwrite(self._fh.fileno(), rows, self._at(k, start)) != rows.nbytes:
            raise OSError(f"{self.path or 'temporary file'}: short write, column {k}")

    def read_column(self, k: int, start: int, out: np.ndarray) -> None:
        """Read rows start.. of column k into a contiguous vector of the
        file's item type; DataFormatError when the payload ends first."""
        if os.preadv(self._fh.fileno(), [out], self._at(k, start)) != out.nbytes:
            raise DataFormatError(f"{self.path or 'temporary file'}: payload ended early")
        if not self.dtype.isnative:
            out.byteswap(inplace=True)

    def matrix(self) -> np.memmap:
        """The payload as a read-only d x n map."""
        return np.memmap(self._fh, dtype=self.dtype, mode="r", offset=_HEADER.size,
                         shape=(self.d, self.n), order="F")


def write_snapshots(path: str | Path, snap: SnapshotMatrix) -> None:
    """Write a snapshot matrix and its grid sidecar next to it."""
    path = Path(path)
    with closing(ColumnFile.create(path, SNAPSHOT_MAGIC, snap.d, snap.n, snap.dt, snap.t0)) as out:
        for k in range(snap.n):
            out.write_column(k, 0, snap.data[:, k])
    sidecar = _sidecar_path(path)
    sidecar.write_text(json.dumps(snap.layout.to_json_dict(), sort_keys=True, indent=1) + "\n")


class SnapshotFile(ColumnFile):
    """A DMDS file whose header and sidecar are checked, with its grid
    layout: a snapshot source read in row blocks, its payload left on disk."""

    layout: GridLayout

    def read_rows(self, start: int, out: np.ndarray) -> None:
        """Read rows start .. start + len(out) - 1 into out, whose columns
        must each be contiguous; raise DataFormatError on a non-finite
        value or a payload cut short since the file was opened."""
        for j in range(out.shape[1]):
            self.read_column(j, start, out[:, j])
        if not _all_finite(out):
            raise DataFormatError(f"{self.path}: non-finite values in snapshot payload")


def open_snapshots(path: str | Path) -> SnapshotFile:
    """Check a binary snapshot file's header, size, time axis and sidecar
    without reading its payload."""
    path = Path(path)
    src = SnapshotFile.open(path, SNAPSHOT_MAGIC)
    if src.d < 1 or src.n < 2:
        raise DataFormatError(f"{path}: need D >= 1 rows and N >= 2 snapshots, "
                              f"header gives {src.d}x{src.n}")
    if not (src.dt > 0 and np.isfinite(src.dt) and np.isfinite(src.t0)):
        raise DataFormatError(f"{path}: dt {src.dt} and t0 {src.t0} must be finite, dt positive")
    sidecar = _sidecar_path(path)
    if sidecar.exists():
        try:
            src.layout = GridLayout.from_json_dict(json.loads(sidecar.read_text()))
        except (ValueError, KeyError, TypeError) as exc:
            raise DataFormatError(f"{sidecar}: bad grid layout: {exc!r}") from exc
        if src.layout.dim != src.d:
            raise DataFormatError(
                f"{path}: sidecar layout dimension {src.layout.dim} != data rows {src.d}"
            )
    else:
        src.layout = scalar_layout(src.d)
    return src


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
            with warnings.catch_warnings():  # np.loadtxt warns when it reads no data row
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if data.shape[0] == 0:
            raise DataFormatError(f"{path}: no data rows below the header")
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


def write_mode_matrix(path: str | Path, modes: np.ndarray, dt: float) -> None:
    """Write a complex matrix as interleaved re/im float64, column-major,
    with t0 = 0 in its header (exact_dmd's mode file holds its own t0)."""
    modes = np.asarray(modes, dtype=complex)
    if modes.ndim != 2:
        raise ValueError("mode matrix must be 2-D")
    with closing(ColumnFile.create(Path(path), MODES_MAGIC, *modes.shape, dt, 0.0)) as out:
        for k in range(modes.shape[1]):
            out.write_column(k, 0, modes[:, k])


def read_mode_matrix(path: str | Path) -> tuple[np.ndarray, float, float]:
    """Read a complex mode matrix written by write_mode_matrix."""
    with closing(ColumnFile.open(Path(path), MODES_MAGIC)) as src:
        modes = np.empty((src.d, src.n), dtype=complex, order="F")
        for k in range(src.n):
            src.read_column(k, 0, modes[:, k])
        return modes, src.dt, src.t0


def grid_cells(*grids: np.ndarray) -> Iterator[tuple]:
    """(row, col, *values) of each cell of same-shaped 2-D grids, in row
    order, for write_csv: at most _CSV_CHUNK cells of each grid are Python
    values at a time."""
    nx = grids[0].shape[1]
    flat = [g.reshape(-1) for g in grids]
    for start in range(0, flat[0].size, _CSV_CHUNK):
        for c, values in enumerate(zip(*(f[start:start + _CSV_CHUNK].tolist() for f in flat)), start):
            yield *divmod(c, nx), *values


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
