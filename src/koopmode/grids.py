"""Grid layouts, observable stacking, and slice extraction.

Snapshot vectors are built from gridded velocity fields by stacking four
weighted channels over the unmasked (ocean) cells:

    x = (sqrt(2)/2) * [Ux; Uy; sqrt(2)*Uz; sqrt(Ux^2 + Uy^2)]

The weights make the stacked l2 norm equal the pointwise kinetic norm of
the raw field: (1/2)(Ux^2 + Uy^2) + Uz^2 + (1/2)(Ux^2 + Uy^2) restores
Ux^2 + Uy^2 + Uz^2 cell by cell.  Stacking order is channel outermost,
then depth k, then row j, then column i; masked cells are excluded
entirely so the state dimension is n_channels * n_ocean_cells.

So a cut of one channel covers one run of stacked rows: surface_cut
resolves a layer's, section_cut the channel's and its polyline's columns,
each once, into a checked Cut.  extract_slice scatters only those rows,
onto the cut's own mask.
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
        """The position of the channel name; ValueError when there is none."""
        names = [c.name for c in self.channels]
        if name not in names:
            raise ValueError(f"layout has no channel named {name!r}; "
                             f"available: {', '.join(sorted(names))}")
        return names.index(name)

    def channel_slice(self, name: str) -> slice:
        """Slice of the stacked vector holding the given channel."""
        c = self.channel_index(name)
        return slice(c * self.n_cells, (c + 1) * self.n_cells)

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


def scalar_layout(d: int) -> GridLayout:
    """Flat single-channel layout, named "state", for abstract state
    vectors of length d: a 1 x 1 x d grid with every cell unmasked."""
    return GridLayout(nx=d, ny=1, nz=1, mask=np.ones((1, 1, d), dtype=bool),
                      channels=(ChannelSpec("state", 1.0),))


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
class Cut:
    """A checked cut of one channel: its run of stacked rows, the mask
    they scatter onto (layer k's ny x nx or the channel's nz x ny x nx)
    and a section's rasterized (j, i) columns, None for a surface."""

    rows: slice
    mask: np.ndarray
    path: tuple[np.ndarray, np.ndarray] | None


def _rasterize_path(path: Sequence[tuple[int, int]], ny: int, nx: int) -> tuple[np.ndarray, np.ndarray]:
    """Connect polyline vertices into a dense list of (j, i) grid columns: each
    segment's evenly spaced points rounded to cells, consecutive repeats dropped."""
    if len(path) < 1:
        raise ValueError("polyline needs at least one vertex")
    for j, i in path:
        if not (0 <= j < ny and 0 <= i < nx):
            raise ValueError(f"polyline vertex ({j}, {i}) outside grid")
    ji = np.concatenate([np.asarray(path[:1])] + [
        np.rint(np.linspace(a, b, max(abs(b[0] - a[0]), abs(b[1] - a[1]), 1) + 1)[1:]).astype(int)
        for a, b in zip(path[:-1], path[1:])])
    ji = ji[np.r_[True, (ji[1:] != ji[:-1]).any(axis=1)]]
    return ji[:, 0], ji[:, 1]


def surface_cut(layout: GridLayout, channel: str, k: int) -> Cut:
    """Layer k of the channel (all rows of a scalar layout).  A channel
    the layout lacks, then a layer outside the grid, raises ValueError."""
    rows = layout.channel_slice(channel)
    if not 0 <= k < layout.nz:
        raise ValueError(f"layer k={k} outside 0..{layout.nz - 1}")
    start = rows.start + int(layout.mask[:k].sum())
    return Cut(slice(start, start + int(layout.mask[k].sum())), layout.mask[k], None)


def section_cut(layout: GridLayout, channel: str, path: Sequence[tuple[int, int]]) -> Cut:
    """The vertical curtain of the channel along a polyline of (j, i)
    vertices.  A channel the layout lacks, then a vertex outside the
    grid, raises ValueError."""
    return Cut(layout.channel_slice(channel), layout.mask, _rasterize_path(path, layout.ny, layout.nx))


def extract_slice(vec: np.ndarray, cut: Cut) -> np.ndarray:
    """A cut of the grid as a new 2-D array: vec, the rows cut.rows of a
    stacked vector (a mode, say), scattered onto cut.mask, then for a
    section taken along its path (nz x path length).  Masked cells are
    NaN; a vec of another length raises ValueError."""
    n = cut.rows.stop - cut.rows.start
    if np.shape(vec) != (n,):
        raise ValueError(f"expected the cut's {n} rows, got {np.shape(vec)}")
    grid = np.full(cut.mask.shape, np.nan, dtype=complex if np.iscomplexobj(vec) else float)
    grid[cut.mask] = vec
    return grid if cut.path is None else grid[:, *cut.path]
