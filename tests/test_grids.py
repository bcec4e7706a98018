"""Stacking, layouts, and slice extraction."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from koopmode.grids import (ChannelSpec, GridLayout, SnapshotMatrix,
                            SurfaceSlice, VelocityField, VerticalSection,
                            extract_slice, scalar_layout, stack_observables,
                            velocity_layout)

from conftest import make_rng, random_mask, random_velocity


def test_stack_norm_preservation_against_direct_sum():
    rng = make_rng(0)
    mask = random_mask(rng, 3, 5, 7)
    layout = velocity_layout(7, 5, 3, mask)
    field = random_velocity(rng, 3, 5, 7)
    x = stack_observables(field, layout)
    direct = float(np.sum((field.ux ** 2 + field.uy ** 2 + field.uz ** 2)[mask]))
    assert np.linalg.norm(x) ** 2 == pytest.approx(direct, rel=1e-12)


def test_stack_dimension_and_order():
    # channel outermost, then k, j, i over unmasked cells
    layout = velocity_layout(2, 2, 2)
    rng = make_rng(1)
    field = random_velocity(rng, 2, 2, 2)
    x = stack_observables(field, layout)
    assert x.shape == (4 * 8,)
    w = np.sqrt(2.0) / 2.0
    # first segment is weighted ux in C order over (k, j, i)
    assert np.allclose(x[:8], w * field.ux.ravel(order="C"))
    # third segment is uz with effective weight 1
    assert np.allclose(x[16:24], field.uz.ravel(order="C"))
    # scattering a channel back onto the grid inverts the stacking
    assert np.array_equal(layout.grid_from_stacked(x, "uy"), w * field.uy)


def test_stack_excludes_masked_cells():
    mask = np.ones((1, 2, 2), dtype=bool)
    mask[0, 0, 0] = False
    layout = velocity_layout(2, 2, 1, mask)
    assert layout.n_cells == 3
    assert layout.dim == 12
    field = VelocityField(ux=np.full((1, 2, 2), np.nan),
                          uy=np.zeros((1, 2, 2)), uz=np.zeros((1, 2, 2)))
    # NaN only on the masked cell is fine
    ok = np.zeros((1, 2, 2))
    ok[0, 0, 0] = np.nan
    field = VelocityField(ux=ok, uy=np.zeros((1, 2, 2)), uz=np.zeros((1, 2, 2)))
    x = stack_observables(field, layout)
    assert np.isfinite(x).all()
    back = layout.grid_from_stacked(x, "ux")
    assert np.isnan(back[0, 0, 0]) and np.isfinite(back[mask]).all()


def test_stack_rejects_nan_on_unmasked_cells():
    layout = velocity_layout(2, 1, 1)
    bad = np.zeros((1, 1, 2))
    bad[0, 0, 1] = np.nan
    field = VelocityField(ux=bad, uy=np.zeros((1, 1, 2)), uz=np.zeros((1, 1, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        stack_observables(field, layout)


def test_stack_requires_velocity_channels():
    layout = scalar_layout(4)
    field = random_velocity(make_rng(2), 1, 1, 4)
    with pytest.raises(ValueError, match="channels"):
        stack_observables(field, layout)


def test_layout_roundtrip_json():
    rng = make_rng(3)
    mask = random_mask(rng, 2, 3, 4)
    layout = velocity_layout(4, 3, 2, mask)
    clone = GridLayout.from_json_dict(layout.to_json_dict())
    assert clone.nx == layout.nx and clone.ny == layout.ny and clone.nz == layout.nz
    assert np.array_equal(clone.mask, layout.mask)
    assert clone.channels == layout.channels


def test_grid_from_stacked_inverts_stacking():
    rng = make_rng(4)
    mask = random_mask(rng, 2, 3, 4)
    layout = velocity_layout(4, 3, 2, mask)
    field = random_velocity(rng, 2, 3, 4)
    x = stack_observables(field, layout)
    grid = layout.grid_from_stacked(x, "uz")
    assert np.allclose(grid[mask], field.uz[mask])
    assert np.isnan(grid[~mask]).all()


@settings(max_examples=50, deadline=None)
@given(
    nz=st.integers(1, 3), ny=st.integers(1, 4), nx=st.integers(1, 4),
    seed=st.integers(0, 10_000), scale=st.floats(1e-3, 1e3),
)
def test_stack_norm_preservation_property(nz, ny, nx, seed, scale):
    rng = make_rng(seed)
    mask = random_mask(rng, nz, ny, nx)
    layout = velocity_layout(nx, ny, nz, mask)
    field = random_velocity(rng, nz, ny, nx, scale=scale)
    x = stack_observables(field, layout)
    direct = float(np.sum((field.ux ** 2 + field.uy ** 2 + field.uz ** 2)[mask]))
    assert np.linalg.norm(x) ** 2 == pytest.approx(direct, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), alpha=st.floats(0.0, 50.0))
def test_stack_positive_homogeneity(seed, alpha):
    rng = make_rng(seed)
    layout = velocity_layout(3, 2, 2)
    f = random_velocity(rng, 2, 2, 3)
    scaled = VelocityField(ux=alpha * f.ux, uy=alpha * f.uy, uz=alpha * f.uz)
    assert np.allclose(stack_observables(scaled, layout),
                       alpha * stack_observables(f, layout), atol=1e-12)


def test_snapshot_matrix_validation():
    layout = scalar_layout(3)
    with pytest.raises(ValueError, match="two snapshots"):
        SnapshotMatrix(np.zeros((3, 1)), dt=1.0, t0=0.0, layout=layout)
    with pytest.raises(ValueError, match="non-finite"):
        SnapshotMatrix(np.full((3, 4), np.inf), dt=1.0, t0=0.0, layout=layout)
    with pytest.raises(ValueError, match="dt"):
        SnapshotMatrix(np.zeros((3, 4)), dt=-1.0, t0=0.0, layout=layout)
    with pytest.raises(ValueError, match="layout dimension"):
        SnapshotMatrix(np.zeros((4, 4)), dt=1.0, t0=0.0, layout=layout)
    snap = SnapshotMatrix(np.ones((3, 4)), dt=0.5, t0=2.0, layout=layout)
    assert snap.d == 3 and snap.n == 4
    assert np.allclose(snap.times(), [2.0, 2.5, 3.0, 3.5])


def test_snapshot_matrix_copies_what_the_caller_can_write():
    """A caller's writeable array, a read-only view of one and any other
    dtype are copied, so changing the caller's array leaves the snapshots
    as they were; an owned read-only float64 array is adopted."""
    layout = scalar_layout(3)
    x = np.ones((3, 4))
    view = x[:, :]
    view.flags.writeable = False
    for arr in (x, view, x.astype(np.float32)):
        snap = SnapshotMatrix(arr, dt=1.0, t0=0.0, layout=layout)
        assert not snap.data.flags.writeable
        x[1, 2] = 7.0
        assert np.array_equal(snap.data, np.ones((3, 4)))
        x[1, 2] = 1.0
    owned = np.ones((3, 4))
    owned.flags.writeable = False
    assert SnapshotMatrix(owned, dt=1.0, t0=0.0, layout=layout).data is owned


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_snapshot_matrix_rejects_any_non_finite_entry(bad):
    data = np.ones((3, 4))
    data[2, 1] = bad
    for arr in (data, np.asfortranarray(data)):
        with pytest.raises(ValueError, match="non-finite"):
            SnapshotMatrix(arr, dt=1.0, t0=0.0, layout=scalar_layout(3))


def test_surface_slice_identity_pattern():
    nx, ny, nz = 5, 4, 3
    layout = velocity_layout(nx, ny, nz)
    pattern = np.zeros((nz, ny, nx))
    for j in range(ny):
        for i in range(nx):
            pattern[:, j, i] = 10 * j + i
    field = VelocityField(ux=pattern, uy=0 * pattern, uz=0 * pattern)
    x = stack_observables(field, layout)
    sl = extract_slice(x, layout, SurfaceSlice(channel="ux", k=0))
    w = np.sqrt(2.0) / 2.0
    assert sl.shape == (ny, nx)
    assert np.allclose(sl, w * pattern[0])


def test_surface_slice_masked_cells_are_nan():
    mask = np.ones((2, 2, 3), dtype=bool)
    mask[0, 1, 2] = False
    layout = velocity_layout(3, 2, 2, mask)
    rng = make_rng(6)
    field = random_velocity(rng, 2, 2, 3)
    x = stack_observables(field, layout)
    sl = extract_slice(x, layout, SurfaceSlice(channel="uy", k=0))
    assert np.isnan(sl[1, 2])
    assert np.isfinite(sl[0, 0])


def state_layout(nx, ny, nz):
    """A single-channel layout on an unmasked 3-D grid."""
    return GridLayout(nx=nx, ny=ny, nz=nz, mask=np.ones((nz, ny, nx), dtype=bool),
                      channels=(ChannelSpec("state", 1.0),))


def test_surface_slice_bounds_error():
    layout = state_layout(4, 2, 2)
    vec = np.arange(16.0)
    with pytest.raises(ValueError, match=r"layer k=5 outside 0\.\.1"):
        extract_slice(vec, layout, SurfaceSlice(channel="state", k=5))


def test_vertical_section_follows_polyline():
    layout = state_layout(4, 3, 2)
    vec = np.arange(layout.dim, dtype=float)
    sl = extract_slice(vec, layout,
                       VerticalSection(channel="state", path=((0, 0), (0, 3))))
    assert sl.shape == (2, 4)
    grid = layout.grid_from_stacked(vec, "state")
    assert np.allclose(sl, grid[:, 0, 0:4])
    with pytest.raises(ValueError, match=r"polyline vertex \(9, 0\) outside grid"):
        extract_slice(vec, layout,
                      VerticalSection(channel="state", path=((0, 0), (9, 0))))


def test_complex_mode_slice_keeps_phase():
    layout = scalar_layout(6)
    vec = np.exp(1j * np.linspace(0, 2, 6))
    sl = extract_slice(vec, layout, SurfaceSlice(channel="state", k=0))
    assert sl.dtype.kind == "c"
    assert np.allclose(np.angle(sl[0]), np.linspace(0, 2, 6))
