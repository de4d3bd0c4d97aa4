"""Rasters, thickness certificates, and the exact Cantor-stage arithmetic."""

from __future__ import annotations

import io
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wegner_lab.thick_sets import (
    CantorSpec,
    GridField,
    RasterError,
    RasterFormatError,
    RasterGeometry,
    RasterSet,
    WindowSpec,
    build_fat_cantor,
    certify_thickness,
    interval_member,
    level_set,
    load_raster,
    product_and_periodize,
    save_raster,
    smith_volterra_spec,
    stripes_raster,
    window_counts,
    window_field_max,
    window_measure,
)


def _raster_1d(bits, resolution=None, periodic=True, origin=0.0):
    bits = np.asarray(bits, dtype=bool)
    res = resolution or bits.size  # unit extent by default
    geo = RasterGeometry(
        origin=(origin,),
        extent=(bits.size / res,),
        resolution=(res,),
        periodic=periodic,
    )
    return RasterSet(geometry=geo, cells=bits)


bit_arrays = st.lists(st.booleans(), min_size=2, max_size=24).filter(lambda b: any(b))


class TestGeometry:
    def test_shape_and_cell_volume(self):
        geo = RasterGeometry(origin=(0.0, -1.0), extent=(2.0, 1.0), resolution=(4, 8))
        assert geo.shape == (8, 8)
        assert geo.cell_volume == pytest.approx(1 / 32)

    def test_fractional_cell_count_refused(self):
        with pytest.raises(RasterError):
            RasterGeometry(origin=(0.0,), extent=(1.5,), resolution=(3,))

    def test_axis_centers_offset_by_half(self):
        geo = RasterGeometry(origin=(1.0,), extent=(1.0,), resolution=(4,))
        assert np.allclose(geo.axis_centers(0), [1.125, 1.375, 1.625, 1.875])

    def test_window_off_region(self):
        S = _raster_1d([1, 1, 1, 1], periodic=False)
        assert S.geometry.window_indices((5.0,), (0.5,)) is None
        with pytest.raises(RasterError):
            window_measure(S, (5.0,), (0.5,))

    def test_periodic_window_wraps(self):
        S = _raster_1d([1, 0, 0, 0])
        # window [0.875, 1.125) wraps around and catches the first cell again
        assert window_measure(S, (0.75,), (0.5,)) == pytest.approx(0.25)

    def test_window_longer_than_period_recounts(self):
        S = _raster_1d([1, 0])
        assert window_measure(S, (0.0,), (2.0,)) == pytest.approx(1.0)

    def test_validation_errors(self):
        with pytest.raises(RasterError):
            WindowSpec(())
        with pytest.raises(RasterError):
            WindowSpec((0.0,))
        with pytest.raises(RasterError):
            RasterGeometry(origin=(0.0,), extent=(1.0, 1.0), resolution=(4,))
        with pytest.raises(RasterError):
            RasterSet(
                geometry=RasterGeometry((0.0,), (1.0,), (4,)),
                cells=np.zeros(4, dtype=float),
            )


class TestRasterSet:
    def test_measure_and_fraction(self):
        S = _raster_1d([1, 0, 1, 0])
        assert S.measure == pytest.approx(0.5)
        assert S.cell_fraction == 0.5

    def test_contains_by_cell(self):
        S = _raster_1d([1, 0, 1, 0], periodic=False)
        pts = np.array([[0.1], [0.3], [0.55], [0.8]])
        assert S.contains(pts).tolist() == [True, False, True, False]

    def test_contains_wraps_when_periodic(self):
        S = _raster_1d([1, 0, 0, 0])
        assert S.contains(np.array([[1.1]]))[0]
        assert not S.contains(np.array([[-0.5]]))[0]

    def test_contains_outside_nonperiodic(self):
        S = _raster_1d([1, 1, 1, 1], periodic=False)
        assert not S.contains(np.array([[1.5]]))[0]

    def test_field_max_over_window(self):
        geo = RasterGeometry((0.0,), (1.0,), (4,))
        f = GridField(geometry=geo, values=np.array([1.0, 5.0, 2.0, 0.0]))
        assert window_field_max(f, (0.25,), (0.5,)) == 5.0
        assert window_field_max(f, (0.5,), (0.5,)) == 2.0

    def test_level_set(self):
        geo = RasterGeometry((0.0,), (1.0,), (4,))
        f = GridField(geometry=geo, values=np.array([0.1, 0.9, 0.5, 0.5]))
        assert level_set(f, 0.5).cells.tolist() == [False, True, True, True]


class TestCertification:
    def test_stripes_exact_third(self):
        S = stripes_raster(width=1.0 / 3.0, period=1.0, resolution=48)
        cert = certify_thickness(S, (1.0,))
        assert cert.gamma_star == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert cert.error_bound == 0.0
        assert cert.certifies(1.0 / 3.0)
        assert not cert.certifies(1.0 / 3.0 + 1e-9)

    def test_full_set_certifies_one(self):
        S = _raster_1d([1] * 8)
        cert = certify_thickness(S, (1.0,))
        assert cert.gamma_star == 1.0
        assert cert.error_bound == 0.0
        assert cert.certifies(1.0)

    @given(bits=bit_arrays)
    @settings(max_examples=60, deadline=None)
    def test_aligned_window_matches_brute_force(self, bits):
        S = _raster_1d(bits)
        m = len(bits)
        a = (max(1, m // 3)) / m  # whole number of cells
        cert = certify_thickness(S, (a,))
        anchors = [k / m for k in range(m)]
        brute = min(window_measure(S, (x,), (a,)) / a for x in anchors)
        assert cert.gamma_star == pytest.approx(brute, abs=1e-12)
        assert cert.error_bound == 0.0
        assert window_measure(S, cert.argmin, (a,)) / a == pytest.approx(cert.gamma_star, abs=1e-12)

    @given(bits=bit_arrays)
    @settings(max_examples=40, deadline=None)
    def test_thickness_monotone_under_superset(self, bits):
        small = _raster_1d(bits)
        grown = RasterSet(
            geometry=small.geometry,
            cells=small.cells | np.roll(small.cells, 1),
        )
        a = (max(1, len(bits) // 2)) / len(bits)
        assert (
            certify_thickness(grown, (a,)).gamma_star
            >= certify_thickness(small, (a,)).gamma_star - 1e-12
        )

    def test_unaligned_window_reports_leak(self):
        S = _raster_1d([1, 0, 1, 0, 1, 0, 1, 0])
        cert = certify_thickness(S, (0.3,))  # 2.4 cells
        assert cert.error_bound > 0.0
        assert cert.gamma_star >= 0.0

    def test_two_dimensional_product(self):
        sx = stripes_raster(0.5, 1.0, 8)
        sy = stripes_raster(0.25, 1.0, 8)
        S = product_and_periodize([sx, sy])
        assert S.measure == pytest.approx(0.125)
        cert = certify_thickness(S, (1.0, 1.0))
        assert cert.gamma_star == pytest.approx(0.125)
        assert cert.error_bound == 0.0

    def test_nonperiodic_refused(self):
        with pytest.raises(RasterError):
            certify_thickness(_raster_1d([1, 0], periodic=False), (0.5,))

    def test_dimension_mismatch(self):
        with pytest.raises(RasterError):
            certify_thickness(_raster_1d([1, 0]), (0.5, 0.5))


class TestCyclicWindows:
    @given(
        bits=st.lists(st.booleans(), min_size=2, max_size=12),
        q=st.integers(1, 20),
        periodic=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_sums_match_direct_wraparound(self, bits, q, periodic):
        arr = np.array(bits)
        m = arr.size
        # one cell per unit length: a window of side q spans q cells
        got = window_counts(_raster_1d(arr, resolution=1, periodic=periodic), (float(q),))
        if periodic:
            want = [sum(arr[(i + j) % m] for j in range(q)) for i in range(m)]
        else:
            want = [sum(arr[i : i + q]) for i in range(m - q + 1)]
        assert got.tolist() == want


class TestFatCantor:
    def test_removal_schedule(self):
        spec = smith_volterra_spec(4)
        assert spec.removal == (
            Fraction(1, 4),
            Fraction(1, 6),
            Fraction(1, 10),
            Fraction(1, 18),
        )

    def test_depth_four_measure_exact(self):
        spec = smith_volterra_spec(4)
        assert spec.stage_measure() == Fraction(17, 32)

    def test_middle_thirds_measure_exact(self):
        assert CantorSpec(depth=3, removal=(Fraction(1, 3),) * 3).stage_measure() == Fraction(8, 27)

    def test_intervals_disjoint_and_sorted(self):
        iv = smith_volterra_spec(4).stage_intervals()
        assert len(iv) == 16
        for (a, b), (c, d) in zip(iv, iv[1:]):
            assert a < b < c < d

    def test_raster_measure_is_dyadic_exact(self):
        S = build_fat_cantor(smith_volterra_spec(4), 1024)
        assert S.measure == 17 / 32  # dyadic, so float-exact

    def test_coarse_resolution_refused(self):
        with pytest.raises(RasterError):
            build_fat_cantor(smith_volterra_spec(4), 64)
        build_fat_cantor(smith_volterra_spec(4), 128)

    def test_nowhere_dense_at_stage_depth(self):
        # no surviving interval spans a full removal gap: the longest kept run
        # at depth 4 is below the stage-1 half plus its neighbors
        S = build_fat_cantor(smith_volterra_spec(4), 1024)
        longest, run = 0, 0
        for b in S.cells:
            run = run + 1 if b else 0
            longest = max(longest, run)
        assert longest * S.geometry.cell_volume < 0.25

    def test_interval_member_closed_endpoints(self):
        iv = [(Fraction(1, 4), Fraction(1, 2))]
        pts = np.array([0.25, 0.5, 0.3, 0.2, 0.6])
        assert interval_member(pts, iv).tolist() == [True, True, True, False, False]

    def test_invalid_specs(self):
        with pytest.raises(RasterError):
            CantorSpec(depth=2, removal=(Fraction(1, 4),))
        with pytest.raises(RasterError):
            CantorSpec(depth=1, removal=(Fraction(1),))
        with pytest.raises(RasterError):
            CantorSpec(depth=1, removal=(Fraction(0),))


class TestProduct:
    def test_factor_validation(self):
        sx = stripes_raster(0.5, 1.0, 4)
        with pytest.raises(RasterError):
            product_and_periodize([])
        with pytest.raises(RasterError):
            product_and_periodize([sx, _raster_1d([1, 0], periodic=False)])

    def test_stripes_validation(self):
        with pytest.raises(RasterError):
            stripes_raster(0.0, 1.0, 4)
        with pytest.raises(RasterError):
            stripes_raster(2.0, 1.0, 4)


@st.composite
def _rasters_2d(draw):
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    resolution = draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
    origin = draw(st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)))
    bits = draw(st.lists(st.booleans(), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    geo = RasterGeometry(origin, tuple(m / r for m, r in zip(shape, resolution)), resolution, draw(st.booleans()))
    return RasterSet(geometry=geo, cells=np.array(bits, dtype=bool).reshape(shape))


def _archive(**change):
    """The fields of a good 3-cell raster archive, with some replaced (or dropped, for None)."""
    fields = dict(
        origin=np.zeros(1), extent=np.ones(1), resolution=np.array([3]), periodic=np.array(True),
        cells=np.array([True, False, True]),
    )
    fields.update(change)
    return {key: value for key, value in fields.items() if value is not None}


def _npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


# one file per refusal: raw bytes are written as they are, a dict as an .npz archive
MALFORMED = {
    "empty": b"",
    "not-an-archive": b"origin 0.0\nextent 1.0\n",
    "old-binary": b"WLRS\x01\x01\x01\x00" + bytes(20) + b"\x03\x00\x00\x00\x00\x00\x00\x00\xa0",
    "old-text": b"wegner-lab-raster v1\nd 1\naxis 0.0 1.0 3\nperiodic 1\nruns 1x1,0x1,1x1\n",
    "npy": _npy_bytes(np.array([True, False, True])),
    "missing-key": _archive(periodic=None),
    "extra-key": _archive(note=np.zeros(1)),
    "integer-cells": _archive(cells=np.array([1, 0, 1], dtype=np.uint8)),
    "float-resolution": _archive(resolution=np.array([3.0])),
    "scalar-origin": _archive(origin=np.float64(0.0)),
    "object-cells": _archive(cells=np.array([True, None, True], dtype=object)),
    "shape-mismatch": _archive(cells=np.ones(4, dtype=bool)),
    "nan-extent": _archive(extent=np.array([np.nan])),
    "no-axis": _archive(origin=np.zeros(0), extent=np.zeros(0), resolution=np.zeros(0, dtype=np.int64), cells=np.array(True)),
}


class TestSerialization:
    @given(bits=bit_arrays, periodic=st.booleans(), origin=st.floats(-8.0, 8.0))
    @settings(max_examples=40, deadline=None)
    def test_binary_round_trip(self, tmp_path_factory, bits, periodic, origin):
        S = _raster_1d(bits, periodic=periodic, origin=origin)
        p = tmp_path_factory.mktemp("rast") / "s.rast"  # the name's suffix plays no part
        save_raster(S, p)
        back = load_raster(p)
        assert back.geometry == S.geometry
        assert np.array_equal(back.cells, S.cells)

    @given(S=_rasters_2d())
    @settings(max_examples=40, deadline=None)
    def test_two_dimensional_round_trip(self, tmp_path_factory, S):
        p = tmp_path_factory.mktemp("rast") / "s.npz"
        save_raster(S, p)
        back = load_raster(p)
        assert back.geometry == S.geometry
        assert np.array_equal(back.cells, S.cells)

    def test_double_save_is_byte_identical(self, tmp_path, monkeypatch):
        S = build_fat_cantor(smith_volterra_spec(4), 1024)
        first, second = tmp_path / "first.npz", tmp_path / "second.npz"
        save_raster(S, first)
        later = time.time() + 3600.0
        monkeypatch.setattr(time, "time", lambda: later)  # no clock reading reaches the bytes
        save_raster(S, second)
        assert first.read_bytes() == second.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["first.npz", "second.npz"]

    @pytest.mark.parametrize("content", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_file_raises(self, tmp_path, content):
        p = tmp_path / "bad.npz"
        if isinstance(content, bytes):
            p.write_bytes(content)
        else:
            with open(p, "wb") as fh:
                np.savez(fh, **content)
        with pytest.raises(RasterFormatError, match=re.escape(str(p))):
            load_raster(p)

    @given(at=st.integers(0, 10**6), byte=st.integers(0, 255), cut=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_damaged_archive_loads_or_raises_format_error(self, tmp_path_factory, at, byte, cut):
        p = tmp_path_factory.mktemp("rast") / "s.npz"
        save_raster(_raster_1d([1, 0, 1, 1, 0, 0, 1, 0]), p)
        raw = bytearray(p.read_bytes())
        at %= len(raw)
        raw[at] = byte
        p.write_bytes(raw[:at] if cut else raw)
        try:
            back = load_raster(p)
        except RasterFormatError:
            return
        assert isinstance(back, RasterSet)

    def test_missing_file_stays_a_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_raster(tmp_path / "absent.npz")
