"""Stacking, layouts, and slice extraction."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from koopmode.grids import (ChannelSpec, _rasterize_path, GridLayout, SnapshotMatrix,
                            SurfaceSlice, VelocityField, VerticalSection,
                            cut_rows, extract_slice, scalar_layout,
                            stack_observables, velocity_layout)

from conftest import make_rng, random_mask, random_velocity


def whole_vector_slice(vec, layout, spec):
    """The reference cut: scatter the channel's part of a whole stacked
    vector onto the full nz x ny x nx grid, NaN on masked cells, then take
    layer k or the columns along the polyline."""
    grid = np.full(layout.mask.shape, np.nan, dtype=complex if np.iscomplexobj(vec) else float)
    grid[layout.mask] = vec[layout.channel_slice(spec.channel)]
    if isinstance(spec, SurfaceSlice):
        return grid[spec.k].copy()
    jj, ii = zip(*spec.path)  # vertices only: the tests' paths step by one cell
    return grid[:, list(jj), list(ii)]


def layer_slices(vec, layout, channel):
    """extract_slice of every layer of the channel, stacked to nz x ny x nx."""
    cuts = [SurfaceSlice(channel, k) for k in range(layout.nz)]
    return np.stack([extract_slice(vec[cut_rows(layout, c)], layout, c) for c in cuts])


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
    # scattering each layer back onto the grid inverts the stacking
    assert np.array_equal(layer_slices(x, layout, "uy"), w * field.uy)


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
    back = layer_slices(x, layout, "ux")
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


def test_layer_slices_invert_stacking():
    rng = make_rng(4)
    mask = random_mask(rng, 2, 3, 4)
    layout = velocity_layout(4, 3, 2, mask)
    field = random_velocity(rng, 2, 3, 4)
    x = stack_observables(field, layout)
    grid = layer_slices(x, layout, "uz")
    assert np.array_equal(grid[mask], field.uz[mask])
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
    cut = SurfaceSlice(channel="ux", k=0)
    sl = extract_slice(x[cut_rows(layout, cut)], layout, cut)
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
    cut = SurfaceSlice(channel="uy", k=0)
    sl = extract_slice(x[cut_rows(layout, cut)], layout, cut)
    assert np.isnan(sl[1, 2])
    assert np.isfinite(sl[0, 0])


def state_layout(nx, ny, nz):
    """A single-channel layout on an unmasked 3-D grid."""
    return GridLayout(nx=nx, ny=ny, nz=nz, mask=np.ones((nz, ny, nx), dtype=bool),
                      channels=(ChannelSpec("state", 1.0),))


@pytest.mark.parametrize("cut, message", [
    (SurfaceSlice("vort", 0), "layout has no channel named 'vort'; available: state"),
    (VerticalSection("vort", ((0, 0),)), "layout has no channel named 'vort'"),
    (SurfaceSlice("state", 2), r"layer k=2 outside 0\.\.1"),
    (SurfaceSlice("state", 5), r"layer k=5 outside 0\.\.1"),
    (SurfaceSlice("state", -1), r"layer k=-1 outside 0\.\.1"),
    (VerticalSection("state", ((0, 0), (9, 0))), r"polyline vertex \(9, 0\) outside grid"),
    (VerticalSection("state", ((0, 0), (0, -1))), r"polyline vertex \(0, -1\) outside grid"),
])
def test_a_cut_outside_the_layout_raises_before_any_data(cut, message):
    """cut_rows checks a cut on the layout alone, and extract_slice
    raises the same error whatever it is handed."""
    layout = state_layout(4, 3, 2)
    with pytest.raises(ValueError, match=message):
        cut_rows(layout, cut)
    with pytest.raises(ValueError, match=message):
        extract_slice(np.zeros(3), layout, cut)


def test_cut_rows_are_the_layer_or_the_channel():
    mask = np.ones((3, 2, 2), dtype=bool)
    mask[0, 0, 0] = mask[1, 1, :] = False  # layers of 3, 2 and 4 cells
    layout = velocity_layout(2, 2, 3, mask)
    assert [cut_rows(layout, SurfaceSlice("uy", k)) for k in range(3)] == [
        slice(9, 12), slice(12, 14), slice(14, 18)]
    assert cut_rows(layout, VerticalSection("uz", ((0, 0), (1, 1)))) == slice(18, 27)
    assert cut_rows(scalar_layout(5), SurfaceSlice("state", 0)) == slice(0, 5)
    with pytest.raises(ValueError, match=r"expected the cut's 3 rows, got \(4,\)"):
        extract_slice(np.zeros(4), layout, SurfaceSlice("ux", 0))


def test_vertical_section_follows_polyline():
    layout = state_layout(4, 3, 2)
    vec = np.arange(layout.dim, dtype=float)
    sl = extract_slice(vec, layout,
                       VerticalSection(channel="state", path=((0, 0), (0, 3))))
    assert sl.shape == (2, 4)
    assert np.array_equal(sl, vec.reshape(2, 3, 4)[:, 0, 0:4])


@st.composite
def cuts(draw):
    """A random mask and channel, a layer or a path of unit steps, and a
    real or complex stacked vector."""
    nz, ny, nx = (draw(st.integers(1, 4)) for _ in range(3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = make_rng(seed)
    layout = velocity_layout(nx, ny, nz, random_mask(rng, nz, ny, nx, keep=draw(st.floats(0.1, 1.0))))
    channel = draw(st.sampled_from([c.name for c in layout.channels]))
    if draw(st.booleans()):
        cut = SurfaceSlice(channel, draw(st.integers(0, nz - 1)))
    else:
        path = [(draw(st.integers(0, ny - 1)), draw(st.integers(0, nx - 1)))]
        for dj, di in draw(st.lists(st.sampled_from([(0, 1), (1, 0), (0, -1), (-1, 0)]),
                                    max_size=8)):
            j, i = path[-1][0] + dj, path[-1][1] + di
            if 0 <= j < ny and 0 <= i < nx:
                path.append((j, i))
        cut = VerticalSection(channel, tuple(path))
    vec = rng.standard_normal(layout.dim)
    if draw(st.booleans()):
        vec = vec + 1j * rng.standard_normal(layout.dim)
    return layout, cut, vec


@settings(max_examples=200, deadline=None)
@given(cuts())
def test_a_cut_of_its_rows_is_the_whole_vector_scatter(case):
    """extract_slice of only the cut's rows equals, bit for bit, the
    channel of the whole vector scattered onto the full grid and cut."""
    layout, cut, vec = case
    got = extract_slice(vec[cut_rows(layout, cut)], layout, cut)
    want = whole_vector_slice(vec, layout, cut)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def cell_by_cell_path(path):
    """The reference rasterization: each segment's rounded linspace, cell
    by cell, a cell dropped when it repeats the last one kept."""
    cells = [tuple(path[0])]
    for (j0, i0), (j1, i1) in zip(path[:-1], path[1:]):
        steps = max(abs(j1 - j0), abs(i1 - i0), 1)
        for j, i in zip(np.rint(np.linspace(j0, j1, steps + 1))[1:].tolist(),
                        np.rint(np.linspace(i0, i1, steps + 1))[1:].tolist()):
            if (j, i) != cells[-1]:
                cells.append((int(j), int(i)))
    return cells


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.data())
def test_rasterized_path_is_the_cell_by_cell_reference(ny, nx, data):
    """Any polyline, repeated and single vertices included, rasterizes to
    the reference's integer cells."""
    vertex = st.tuples(st.integers(0, ny - 1), st.integers(0, nx - 1))
    path = data.draw(st.lists(st.one_of(vertex, st.just((0, 0))), min_size=1, max_size=6))
    jj, ii = _rasterize_path(path, ny, nx)
    assert jj.dtype.kind == ii.dtype.kind == "i"
    assert list(zip(jj.tolist(), ii.tolist())) == cell_by_cell_path(path)


def test_a_long_section_is_rasterized_in_arrays():
    """A 200,000-cell path holds a few integer arrays of its length, no
    Python int per cell: the traced peak stays below 64 bytes a cell,
    where two lists of Python ints cost 80."""
    path = ((0, 0), (0, 199_999))
    tracemalloc.start()
    try:
        jj, ii = _rasterize_path(path, 1, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(ii, np.arange(200_000)) and not jj.any()
    assert peak < 64 * 200_000


def test_complex_mode_slice_keeps_phase():
    layout = scalar_layout(6)
    vec = np.exp(1j * np.linspace(0, 2, 6))
    sl = extract_slice(vec, layout, SurfaceSlice(channel="state", k=0))
    assert sl.dtype.kind == "c"
    assert np.allclose(np.angle(sl[0]), np.linspace(0, 2, 6))
