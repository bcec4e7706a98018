"""Spectrum post-processing: periods, polar form, tidal ellipses, wave speeds, and the mode-table CSV."""
import csv
import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmode.modes import (MODE_TABLE_COLUMNS, EllipseParams, ModeInfo,
                            format_mode_table, half_doubling_time, period,
                            polar_mode, tidal_ellipse, two_layer_wave_speed,
                            write_mode_table)


# --------------------------------------------------------------- periods

def test_period_and_half_doubling():
    assert period(0.1 + 0.0j) == math.inf
    assert period(0.0 + 0.5j) == pytest.approx(2 * np.pi / 0.5)
    assert period(0.0 - 0.5j) == pytest.approx(2 * np.pi / 0.5)
    assert half_doubling_time(0.0 + 1.0j) == math.inf
    assert half_doubling_time(0.01 + 0j) == pytest.approx(math.log(2) / 0.01)
    assert half_doubling_time(-0.01 + 0j) == pytest.approx(-math.log(2) / 0.01)


def test_semidiurnal_like_period():
    omega = 2 * np.pi / 12.421
    assert period(1j * omega) == pytest.approx(12.421, abs=1e-12)


# ------------------------------------------------------------ polar form

def test_polar_mode_values(rng):
    phi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    b = 0.3 - 1.2j
    amp, phase = polar_mode(phi, b)
    assert np.allclose(amp, np.abs(phi) * abs(b))
    assert np.allclose(np.exp(1j * phase) * amp, phi * b)


@given(re=st.floats(-2, 2), im=st.floats(-2, 2),
       sigma=st.floats(-0.1, 0.1), omega=st.floats(0.1, 2.0),
       t=st.floats(0, 20))
@settings(max_examples=60, deadline=None)
def test_polar_pair_reconstruction(re, im, sigma, omega, t):
    """amp/phase of phi*b reproduce the real pair signal
    2 amp e^{sigma t} cos(omega t + phase)."""
    phi = np.array([re + 1j * im])
    if abs(phi[0]) < 1e-6:
        return
    b = 0.7 + 0.2j
    amp, phase = polar_mode(phi, b)
    direct = 2.0 * (phi[0] * b * np.exp((sigma + 1j * omega) * t)).real
    viaform = 2.0 * amp[0] * np.exp(sigma * t) * np.cos(omega * t + phase[0])
    assert direct == pytest.approx(viaform, abs=1e-9 * max(1.0, abs(direct)))


# --------------------------------------------------------------- ellipse

def test_ellipse_circle():
    # u = Re(e^{iwt}) = cos, v = Re(-i e^{iwt}) = sin: counterclockwise
    e = tidal_ellipse(1.0 + 0j, 0.0 - 1j)
    assert e.semi_major == pytest.approx(1.0)
    assert e.semi_minor == pytest.approx(1.0)
    assert e.rotation_sense == "ccw"
    # v = Re(i e^{iwt}) = -sin: clockwise
    e2 = tidal_ellipse(1.0 + 0j, 0.0 + 1j)
    assert e2.semi_major == pytest.approx(1.0)
    assert e2.semi_minor == pytest.approx(1.0)
    assert e2.rotation_sense == "cw"


def test_ellipse_rectilinear():
    e = tidal_ellipse(2.0 + 0j, 0j)
    assert e.semi_major == pytest.approx(2.0)
    assert e.semi_minor == pytest.approx(0.0)
    assert e.orientation_rad == pytest.approx(0.0)


def test_ellipse_against_sampled_curve(rng):
    """Semi-axes must match the extremal radii of the sampled (u, v) curve
    and the orientation must point along the major axis."""
    for _ in range(20):
        u = complex(rng.standard_normal(), rng.standard_normal())
        v = complex(rng.standard_normal(), rng.standard_normal())
        e = tidal_ellipse(u, v)
        t = np.linspace(0, 2 * np.pi, 20001)
        ut = (u * np.exp(1j * t)).real
        vt = (v * np.exp(1j * t)).real
        r = np.hypot(ut, vt)
        assert r.max() == pytest.approx(e.semi_major, abs=1e-6)
        assert r.min() == pytest.approx(e.semi_minor, abs=1e-6)
        k = int(np.argmax(r))
        axis = math.atan2(vt[k], ut[k])
        diff = (axis - e.orientation_rad) % np.pi
        assert min(diff, np.pi - diff) < 1e-3


def test_ellipse_rotation_sense_against_sampled_curve(rng):
    """Signed area of the sampled curve agrees with the reported sense."""
    for _ in range(20):
        u = complex(rng.standard_normal(), rng.standard_normal())
        v = complex(rng.standard_normal(), rng.standard_normal())
        e = tidal_ellipse(u, v)
        if abs(e.semi_minor) < 1e-9:
            continue
        t = np.linspace(0, 2 * np.pi, 4001)
        ut = (u * np.exp(1j * t)).real
        vt = (v * np.exp(1j * t)).real
        area = np.trapezoid(ut * np.gradient(vt, t) - vt * np.gradient(ut, t), t) / 2
        assert (area > 0) == (e.rotation_sense == "ccw")


def ellipse_reference(u: complex, v: complex) -> tuple:
    """tidal_ellipse of one cell in Python complex arithmetic and abs,
    arguments as np.angle takes them; a NaN cell is NaN with no sense."""
    if math.isnan(u.real) or math.isnan(v.real):
        return math.nan, math.nan, math.nan, ""
    w_plus = (u + 1j * v) / 2.0
    w_minus = (u - 1j * v).conjugate() / 2.0
    ap, am = abs(w_plus), abs(w_minus)
    return (ap + am, abs(ap - am), (np.angle(w_plus) + np.angle(w_minus)) / 2.0,
            "ccw" if ap > am else "cw")


def same_float(a, b) -> bool:
    """a and b are the same bits, or both NaN (which prints as nothing)."""
    return math.isnan(a) and math.isnan(b) or struct.pack("<d", a) == struct.pack("<d", b)


_PART = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -2.2e-308]),
                  st.floats(-1e12, 1e12))
_PHASOR = st.one_of(st.builds(complex, _PART, _PART),  # general
                    st.builds(complex, _PART, st.sampled_from([0.0, -0.0])),  # purely real
                    st.sampled_from([0j, complex(-0.0, -0.0), complex(math.nan, 0.0)]))


@st.composite
def phasor_grids(draw):
    ny, nx = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    cells = st.lists(_PHASOR, min_size=ny * nx, max_size=ny * nx)
    return tuple(np.array(draw(cells), dtype=complex).reshape(ny, nx) for _ in "uv")


@settings(max_examples=300, deadline=None)
@given(phasor_grids())
def test_grid_ellipse_is_the_cell_by_cell_reference(grids):
    """tidal_ellipse of two grids equals, bit for bit, the reference taken
    cell by cell with Python complex and abs, and so does each cell's own
    scalar call: NaN (masked), zero and purely real phasors included."""
    gu, gv = grids
    ell = tidal_ellipse(gu, gv)
    fields = (ell.semi_major, ell.semi_minor, ell.orientation_rad, ell.rotation_sense)
    assert all(np.shape(f) == gu.shape for f in fields)
    for (j, i), u in np.ndenumerate(gu):
        want = ellipse_reference(complex(u), complex(gv[j, i]))
        one = tidal_ellipse(u, gv[j, i])
        for got in ([f[j, i] for f in fields], dataclasses.astuple(one)):
            assert all(same_float(float(a), b) for a, b in zip(got[:3], want[:3])), (u, gv[j, i])
            assert str(got[3]) == want[3]


# ------------------------------------------------------------ wave speed

def test_two_layer_wave_speed_reference():
    assert two_layer_wave_speed(0.015, 100.0, 200.0) == pytest.approx(1.0)


def test_two_layer_wave_speed_properties():
    assert two_layer_wave_speed(0.015, 200.0, 100.0) == \
        two_layer_wave_speed(0.015, 100.0, 200.0)
    # very deep lower layer: c -> sqrt(g' h1)
    deep = two_layer_wave_speed(0.01, 50.0, 1e9)
    assert deep == pytest.approx(math.sqrt(0.01 * 50.0), rel=1e-6)
    with pytest.raises(ValueError, match="positive"):
        two_layer_wave_speed(-0.01, 50.0, 50.0)
    with pytest.raises(ValueError, match="positive"):
        two_layer_wave_speed(0.01, 0.0, 50.0)


# ------------------------------------------------------------ mode table

def make_info(index, *, omega=0.5, sigma=-0.01, robustness=None,
              cluster=None, rms_v=2.0):
    gamma = complex(sigma, omega)
    return ModeInfo(
        index=index, mu=np.exp(gamma), gamma=gamma,
        period_hours=period(gamma),
        half_double_hours=half_doubling_time(gamma),
        conj_partner=None if omega == 0 else index,
        rms=3.5, rms_vertical=rms_v,
        robustness=robustness, cluster=cluster,
    )


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_mode_table_header_and_values(tmp_path):
    infos = [make_info(1), make_info(2, omega=0.0, sigma=0.0)]
    path = tmp_path / "table.csv"
    write_mode_table(infos, path)
    rows = read_rows(path)
    assert rows[0] == list(MODE_TABLE_COLUMNS)
    assert rows[0] == ["idx", "Cluster", "PT", "HLT", "L2RMS", "L2wRMS", "KSnarrow"]
    # oscillatory mode: finite period, finite half time
    assert rows[1][0] == "1"
    assert float(rows[1][2]) == pytest.approx(2 * np.pi / 0.5)
    assert float(rows[1][3]) == pytest.approx(math.log(2) / -0.01)
    # neutral constant mode: infinite period and half time become empty
    assert rows[2][2] == "" and rows[2][3] == ""
    # no robustness yet: Cluster and KSnarrow stay empty
    assert rows[1][1] == "" and rows[1][6] == ""


def test_mode_table_negative_frequency_rows_skipped(tmp_path):
    infos = [make_info(1, omega=0.5), make_info(2, omega=-0.5)]
    path = tmp_path / "table.csv"
    write_mode_table(infos, path)
    rows = read_rows(path)
    assert len(rows) == 2  # header + the omega > 0 member only
    assert rows[1][0] == "1"


def test_mode_table_cluster_labels(tmp_path):
    infos = [
        make_info(1, robustness=12.5, cluster=2),
        make_info(2, robustness=3.25, cluster=None),
    ]
    path = tmp_path / "table.csv"
    write_mode_table(infos, path)
    rows = read_rows(path)
    assert rows[1][1] == "2" and float(rows[1][6]) == 12.5
    # outside every cluster once the analysis ran: literal NaN
    assert rows[2][1] == "NaN" and float(rows[2][6]) == 3.25


def test_mode_table_seventeen_digit_fields(tmp_path):
    infos = [make_info(1, omega=2 * np.pi / 12.421)]
    path = tmp_path / "table.csv"
    write_mode_table(infos, path)
    rows = read_rows(path)
    assert float(rows[1][2]) == period(complex(-0.01, 2 * np.pi / 12.421))


def test_format_mode_table_human():
    text = format_mode_table([make_info(1), make_info(2, omega=0.0, sigma=1e-15)])
    lines = text.splitlines()
    assert lines[0].split() == list(MODE_TABLE_COLUMNS)
    # tiny sigma yields an astronomically large half time: scientific form
    assert "e+" in lines[2]
    assert len(lines) == 3
