"""Grid layouts, observable stacking, and slice extraction.

Snapshot vectors are built from gridded velocity fields by stacking four
weighted channels over the unmasked (ocean) cells:

    x = (sqrt(2)/2) * [Ux; Uy; sqrt(2)*Uz; sqrt(Ux^2 + Uy^2)]

The weights make the stacked l2 norm equal the pointwise kinetic norm of
the raw field: (1/2)(Ux^2 + Uy^2) + Uz^2 + (1/2)(Ux^2 + Uy^2) restores
Ux^2 + Uy^2 + Uz^2 cell by cell.  Stacking order is channel outermost,
then depth k, then row j, then column i; masked cells are excluded
entirely so the state dimension is n_channels * n_ocean_cells.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

SQRT2 = float(np.sqrt(2.0))

# Channel names and effective stacking weights for velocity data.
VELOCITY_CHANNEL_NAMES = ("ux", "uy", "uz", "speed")
VELOCITY_CHANNEL_WEIGHTS = (SQRT2 / 2.0, SQRT2 / 2.0, 1.0, SQRT2 / 2.0)

STACKING_ORDER = "channel,k,j,i"


@dataclass(frozen=True)
class ChannelSpec:
    """One stacked channel: a name and the scalar weight applied to it."""

    name: str
    weight: float


@dataclass(frozen=True)
class GridLayout:
    """Static geometry of a stacked dataset.

    mask is a boolean (nz, ny, nx) array, True on cells that carry data.
    The layout provides the bijection between (channel, k, j, i) over
    unmasked cells and positions in the stacked vector.
    """

    nx: int
    ny: int
    nz: int
    mask: np.ndarray
    channels: tuple[ChannelSpec, ...]

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1 or self.nz < 1:
            raise ValueError("grid dimensions must be positive")
        if not self.channels:
            raise ValueError("layout needs at least one channel")
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != (self.nz, self.ny, self.nx):
            raise ValueError(
                f"mask shape {mask.shape} does not match grid "
                f"({self.nz}, {self.ny}, {self.nx})"
            )
        if not mask.any():
            raise ValueError("mask excludes every cell")
        mask = mask.copy()
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    @property
    def n_cells(self) -> int:
        return int(self.mask.sum())

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def dim(self) -> int:
        """Length of a stacked vector."""
        return self.n_channels * self.n_cells

    def channel_index(self, name: str) -> int:
        for c, spec in enumerate(self.channels):
            if spec.name == name:
                return c
        raise KeyError(f"layout has no channel named {name!r}")

    def channel_slice(self, name: str) -> slice:
        """Slice of the stacked vector holding the given channel."""
        c = self.channel_index(name)
        return slice(c * self.n_cells, (c + 1) * self.n_cells)

    def grid_from_stacked(self, vec: np.ndarray, channel: str) -> np.ndarray:
        """Scatter one channel of a stacked vector back onto the grid.

        Masked cells are filled with NaN.  Complex input yields a complex
        grid with NaN real and imaginary parts on masked cells.
        """
        vec = np.asarray(vec)
        if vec.shape != (self.dim,):
            raise ValueError(f"expected vector of length {self.dim}, got {vec.shape}")
        seg = vec[self.channel_slice(channel)]
        dtype = complex if np.iscomplexobj(vec) else float
        grid = np.full((self.nz, self.ny, self.nx), np.nan, dtype=dtype)
        grid[self.mask] = seg
        return grid

    def to_json_dict(self) -> dict:
        return {
            "schema": "koopmode.grid.v1",
            "nx": self.nx,
            "ny": self.ny,
            "nz": self.nz,
            "channels": [{"name": c.name, "weight": c.weight} for c in self.channels],
            "mask": self.mask.astype(np.uint8).ravel(order="C").tolist(),
            "order": STACKING_ORDER,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "GridLayout":
        nz, ny, nx = int(d["nz"]), int(d["ny"]), int(d["nx"])
        mask = np.asarray(d["mask"], dtype=bool).reshape(nz, ny, nx)
        channels = tuple(
            ChannelSpec(str(c["name"]), float(c["weight"])) for c in d["channels"]
        )
        return GridLayout(nx=nx, ny=ny, nz=nz, mask=mask, channels=channels)


def velocity_layout(nx: int, ny: int, nz: int, mask: np.ndarray | None = None) -> GridLayout:
    """Standard four-channel layout for velocity snapshots."""
    if mask is None:
        mask = np.ones((nz, ny, nx), dtype=bool)
    channels = tuple(
        ChannelSpec(n, w) for n, w in zip(VELOCITY_CHANNEL_NAMES, VELOCITY_CHANNEL_WEIGHTS)
    )
    return GridLayout(nx=nx, ny=ny, nz=nz, mask=mask, channels=channels)


def scalar_layout(nx: int, ny: int = 1, nz: int = 1,
                  mask: np.ndarray | None = None, name: str = "state") -> GridLayout:
    """Single-channel layout for abstract state vectors."""
    if mask is None:
        mask = np.ones((nz, ny, nx), dtype=bool)
    return GridLayout(nx=nx, ny=ny, nz=nz, mask=mask,
                      channels=(ChannelSpec(name, 1.0),))


@dataclass(frozen=True)
class VelocityField:
    """One snapshot of the three velocity components on the grid."""

    ux: np.ndarray
    uy: np.ndarray
    uz: np.ndarray

    def __post_init__(self):
        ux = np.asarray(self.ux, dtype=float)
        uy = np.asarray(self.uy, dtype=float)
        uz = np.asarray(self.uz, dtype=float)
        if not (ux.shape == uy.shape == uz.shape):
            raise ValueError("velocity components must share one shape")
        if ux.ndim != 3:
            raise ValueError("velocity components must be (nz, ny, nx) arrays")
        for nm, a in (("ux", ux), ("uy", uy), ("uz", uz)):
            object.__setattr__(self, nm, a)


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of a non-empty float array is finite.  NaN
    propagates through min and max, so this allocates nothing as large
    as a."""
    return bool(np.isfinite(a.min()) and np.isfinite(a.max()))


@dataclass(frozen=True)
class SnapshotMatrix:
    """Stacked snapshots as columns, with uniform time step in hours.

    data is held read-only.  An owned, read-only float64 array is adopted
    as it is, handed over by its caller; any other input is copied, so
    the caller cannot change it.
    """

    data: np.ndarray
    dt: float
    t0: float
    layout: GridLayout

    def __post_init__(self):
        data = self.data
        if not (type(data) is np.ndarray and data.dtype == np.float64
                and data.flags.owndata and not data.flags.writeable):
            data = np.array(data, dtype=float, copy=True)
        if data.ndim != 2:
            raise ValueError("snapshot data must be a 2-D array")
        if data.shape[1] < 2:
            raise ValueError("need at least two snapshots")
        if data.shape[0] != self.layout.dim:
            raise ValueError(
                f"data has {data.shape[0]} rows but layout dimension is {self.layout.dim}"
            )
        if not _all_finite(data):
            raise ValueError("snapshot data contains non-finite entries")
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError("dt must be a positive finite number of hours")
        if not np.isfinite(self.t0):
            raise ValueError("t0 must be finite")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def d(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    def read_rows(self, start: int, out: np.ndarray) -> None:
        """Copy rows start .. start + len(out) - 1 into out."""
        out[...] = self.data[start:start + out.shape[0]]


def stack_observables(field: VelocityField, layout: GridLayout) -> np.ndarray:
    """Stack one velocity snapshot into a single weighted column vector.

    The derived speed channel sqrt(Ux^2 + Uy^2) is recomputed here from
    the raw components.  Non-finite values on unmasked cells are a hard
    error; masked cells may hold anything (they are dropped).
    """
    names = tuple(c.name for c in layout.channels)
    if names != VELOCITY_CHANNEL_NAMES:
        raise ValueError(
            f"stacking requires channels {VELOCITY_CHANNEL_NAMES}, layout has {names}"
        )
    shape = (layout.nz, layout.ny, layout.nx)
    for nm in ("ux", "uy", "uz"):
        comp = getattr(field, nm)
        if comp.shape != shape:
            raise ValueError(f"{nm} has shape {comp.shape}, grid is {shape}")
    m = layout.mask
    parts = []
    sources = {
        "ux": field.ux,
        "uy": field.uy,
        "uz": field.uz,
        "speed": np.hypot(field.ux, field.uy),
    }
    for spec in layout.channels:
        seg = sources[spec.name][m]
        if not np.isfinite(seg).all():
            bad = int((~np.isfinite(seg)).sum())
            raise ValueError(
                f"channel {spec.name!r} has {bad} non-finite values on unmasked cells"
            )
        parts.append(spec.weight * seg)
    return np.concatenate(parts)


@dataclass(frozen=True)
class SurfaceSlice:
    """Horizontal layer at depth index k of one channel."""

    channel: str
    k: int


@dataclass(frozen=True)
class VerticalSection:
    """Vertical curtain along a polyline of (j, i) vertices."""

    channel: str
    path: tuple[tuple[int, int], ...]


def _rasterize_path(path: Sequence[tuple[int, int]], ny: int, nx: int) -> tuple[np.ndarray, np.ndarray]:
    """Connect polyline vertices into a dense list of (j, i) grid columns."""
    if len(path) < 1:
        raise ValueError("polyline needs at least one vertex")
    for j, i in path:
        if not (0 <= j < ny and 0 <= i < nx):
            raise ValueError(f"polyline vertex ({j}, {i}) outside grid")
    jj: list[int] = [int(path[0][0])]
    ii: list[int] = [int(path[0][1])]
    for (j0, i0), (j1, i1) in zip(path[:-1], path[1:]):
        steps = max(abs(j1 - j0), abs(i1 - i0), 1)
        js = np.rint(np.linspace(j0, j1, steps + 1)).astype(int)[1:]
        is_ = np.rint(np.linspace(i0, i1, steps + 1)).astype(int)[1:]
        for j, i in zip(js, is_):
            if j != jj[-1] or i != ii[-1]:
                jj.append(int(j))
                ii.append(int(i))
    return np.asarray(jj), np.asarray(ii)


def extract_slice(vec: np.ndarray, layout: GridLayout, spec) -> np.ndarray:
    """One channel of a stacked vector on a 2-D cut of the grid, as a new
    array.

    Supports surface layers (ny x nx) and vertical sections along
    polylines (nz x path length).  Masked cells are NaN in the result.
    A layer or polyline vertex outside the grid raises ValueError.
    """
    grid = layout.grid_from_stacked(vec, spec.channel)
    if isinstance(spec, SurfaceSlice):
        if not 0 <= spec.k < layout.nz:
            raise ValueError(f"layer k={spec.k} outside 0..{layout.nz - 1}")
        return grid[spec.k].copy()
    if isinstance(spec, VerticalSection):
        jj, ii = _rasterize_path(spec.path, layout.ny, layout.nx)
        return grid[:, jj, ii]
    raise TypeError(f"unknown slice spec {type(spec).__name__}")
