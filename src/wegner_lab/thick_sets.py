"""Rasterized sets, sliding-window thickness certification, fat Cantor stages.

A set S is (gamma, a)-thick when every axis-aligned window with side lengths
a = (a_1, ..., a_d) carries at least gamma times the window volume of S.
Sets are stored as bit rasters over a box region; membership of a cell is
decided by its center.  Window counts are exact integers, so certification
over all cell-aligned window positions is exact up to the documented
boundary-cell error, and exact with no error at all when the window faces
align with cell boundaries.

Fat Cantor stages are built with exact rational arithmetic and rasterized
afterwards, so the stage measure survives as a closed-form rational that a
suitably aligned raster reproduces exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from .grids import axes_product

_ALIGN_TOL = 1e-9  # cells; forgives float noise at aligned window faces


class RasterError(ValueError):
    pass


class RasterFormatError(RasterError):
    pass


@dataclass(frozen=True)
class WindowSpec:
    """Side lengths of the sliding window A_a = [0,a_1] x ... x [0,a_d]."""

    a: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.a:
            raise RasterError("window needs at least one axis")
        if any(not (ai > 0 and math.isfinite(ai)) for ai in self.a):
            raise RasterError("window side lengths must be positive and finite")

    @property
    def volume(self) -> float:
        return float(np.prod(self.a))


@dataclass(frozen=True)
class RasterGeometry:
    """Axis-aligned region [origin, origin+extent) with a fixed cell raster."""

    origin: tuple[float, ...]
    extent: tuple[float, ...]
    resolution: tuple[int, ...]  # cells per unit length, per axis
    periodic: bool = False

    def __post_init__(self) -> None:
        d = len(self.origin)
        if not (0 < d == len(self.extent) == len(self.resolution)):
            raise RasterError("origin, extent, resolution must agree on a dimension of at least one")
        if not all(math.isfinite(v) for v in self.origin + self.extent) or any(e <= 0 for e in self.extent):
            raise RasterError("origin and extent must be finite, and extents positive")
        if any(r < 1 for r in self.resolution):
            raise RasterError("resolution must be at least one cell per unit")
        for e, r in zip(self.extent, self.resolution):
            cells = e * r
            if abs(cells - round(cells)) > _ALIGN_TOL:
                raise RasterError(f"extent {e} times resolution {r} must be a whole cell count")

    @property
    def d(self) -> int:
        return len(self.origin)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(int(round(e * r)) for e, r in zip(self.extent, self.resolution))

    @property
    def cell_volume(self) -> float:
        return float(np.prod([1.0 / r for r in self.resolution]))

    def axis_centers(self, axis: int) -> np.ndarray:
        m = self.shape[axis]
        r = self.resolution[axis]
        return self.origin[axis] + (np.arange(m) + 0.5) / r

    def centers(self) -> np.ndarray:
        """Every cell center as a (cells, d) array in C order."""
        return axes_product([self.axis_centers(k) for k in range(self.d)])

    def _axis_window(self, axis: int, x: float, a: float) -> tuple[int, int]:
        """Index range [lo, hi] of cell centers inside the closed window [x, x+a]."""
        r = self.resolution[axis]
        o = self.origin[axis]
        lo = math.ceil((x - o) * r - 0.5 - _ALIGN_TOL)
        hi = math.floor((x + a - o) * r - 0.5 + _ALIGN_TOL)
        return lo, hi

    def window_indices(self, x: Sequence[float], a: Sequence[float]) -> tuple[np.ndarray, ...] | None:
        """Per-axis index arrays covering the window, or None when it misses the region.

        Periodic rasters wrap; a window longer than the period revisits cells
        and the duplicated indices deliberately count them again.
        """
        if len(x) != self.d or len(a) != self.d:
            raise RasterError("window position and side count must match the raster dimension")
        per_axis = []
        for axis in range(self.d):
            lo, hi = self._axis_window(axis, x[axis], a[axis])
            m = self.shape[axis]
            if self.periodic:
                idx = np.arange(lo, hi + 1, dtype=np.int64) % m
            else:
                lo2, hi2 = max(lo, 0), min(hi, m - 1)
                if lo2 > hi2:
                    return None
                idx = np.arange(lo2, hi2 + 1, dtype=np.int64)
            if idx.size == 0:
                return None
            per_axis.append(idx)
        return np.ix_(*per_axis)


@dataclass(frozen=True, eq=False)
class GridField:
    """Scalar samples at every cell center of a raster geometry."""

    geometry: RasterGeometry
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.geometry.shape:
            raise RasterError("field shape does not match the raster geometry")


@dataclass(frozen=True, eq=False)
class RasterSet:
    """Bit raster of a measurable set over a box region."""

    geometry: RasterGeometry
    cells: np.ndarray

    def __post_init__(self) -> None:
        if self.cells.dtype != np.bool_:
            raise RasterError("raster cells must be boolean")
        if self.cells.shape != self.geometry.shape:
            raise RasterError("cell array shape does not match the geometry")

    @property
    def d(self) -> int:
        return self.geometry.d

    @property
    def periodic(self) -> bool:
        return self.geometry.periodic

    @property
    def measure(self) -> float:
        return float(self.cells.sum()) * self.geometry.cell_volume

    @property
    def cell_fraction(self) -> float:
        return float(self.cells.sum()) / self.cells.size

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Membership of points, decided by the cell the point falls in."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.d:
            raise RasterError("points must have one coordinate per raster axis")
        ok = np.ones(pts.shape[0], dtype=bool)
        idx = []
        for axis in range(self.d):
            rel = pts[:, axis] - self.geometry.origin[axis]
            ext = self.geometry.extent[axis]
            if self.periodic:
                rel = np.mod(rel, ext)
            i = np.floor(rel * self.geometry.resolution[axis] + _ALIGN_TOL).astype(np.int64)
            m = self.shape_axis(axis)
            if self.periodic:
                i = np.clip(i, 0, m - 1)
            else:
                ok &= (i >= 0) & (i < m)
                i = np.clip(i, 0, m - 1)
            idx.append(i)
        return ok & self.cells[tuple(idx)]

    def shape_axis(self, axis: int) -> int:
        return self.geometry.shape[axis]


def window_measure(S: RasterSet, x: Sequence[float], a: Sequence[float]) -> float:
    """Raster volume of S intersected with the closed window [x, x+a].

    Exact when the window faces align with cell boundaries; otherwise each
    boundary layer of cells contributes plus or minus one cell volume.
    """
    idx = S.geometry.window_indices(x, a)
    if idx is None:
        if S.periodic:
            return 0.0
        raise RasterError("window does not meet the raster region")
    return float(S.cells[idx].sum()) * S.geometry.cell_volume


def window_field_max(field: GridField, x: Sequence[float], a: Sequence[float]) -> float:
    """Largest field sample over the window; mirrors window_measure indexing."""
    idx = field.geometry.window_indices(x, a)
    if idx is None:
        raise RasterError("window does not meet the raster region")
    return float(field.values[idx].max())


@dataclass(frozen=True)
class ThicknessCertificate:
    """Result of scanning all cell-aligned window positions over one period."""

    gamma_star: float
    error_bound: float  # boundary-cell volume as a fraction of the window volume
    argmin: tuple[float, ...]  # a window anchor achieving gamma_star

    def certifies(self, gamma: float) -> bool:
        return gamma <= self.gamma_star - self.error_bound


def _window_cells(geo: RasterGeometry, a: Sequence[float]) -> list[int]:
    """Cells a window of sides a spans along each axis from a cell-aligned anchor."""
    if len(a) != geo.d:
        raise RasterError("window dimension does not match the raster")
    qs = []
    for axis, side in enumerate(a):
        lo, hi = geo._axis_window(axis, geo.origin[axis], side)
        if hi < lo:
            raise RasterError(f"window side {side} spans no cell along axis {axis}")
        qs.append(hi - lo + 1)
    return qs


def window_counts(S: RasterSet, a: Sequence[float]) -> np.ndarray:
    """Exact cell counts of S in the window of sides a at every cell-aligned anchor.

    Entry k counts the window whose first cell along each axis is cell k.  A
    periodic raster wraps, one anchor per cell of a period; otherwise the
    window stays in the region (no anchor along an axis shorter than it).
    """
    counts = S.cells.astype(np.int64)
    for axis, q in enumerate(_window_cells(S.geometry, a)):
        work = np.moveaxis(counts, axis, 0)
        m = work.shape[0]
        laps = 0
        if S.periodic:
            laps, q = divmod(q - 1, m)  # whole periods, then a window of 1 to m cells
            q += 1
            work = work[np.arange(m + q - 1) % m]
        c = np.cumsum(work, axis=0)
        c = np.concatenate([np.zeros((1,) + c.shape[1:], dtype=c.dtype), c], axis=0)
        counts = np.moveaxis(c[q:] - c[:-q] + laps * c[m], 0, axis)
    return counts


def certify_thickness(S: RasterSet, a: Sequence[float] | WindowSpec) -> ThicknessCertificate:
    """Certified thickness constant gamma* of a periodic raster for window sides a.

    gamma* is the minimum over every cell-aligned window anchor within one
    period of vol(S within window) / vol(window).  S is certified
    (gamma, a)-thick for any gamma <= gamma* - error_bound.
    """
    win = a if isinstance(a, WindowSpec) else WindowSpec(tuple(float(v) for v in a))
    if not S.periodic:
        raise RasterError("thickness certification needs a periodic raster")
    qs = _window_cells(S.geometry, win.a)
    ratios = window_counts(S, win.a) * (S.geometry.cell_volume / win.volume)
    flat = int(np.argmin(ratios))
    anchor_idx = np.unravel_index(flat, ratios.shape)
    argmin = tuple(
        float(S.geometry.origin[axis] + anchor_idx[axis] / S.geometry.resolution[axis])
        for axis in range(S.d)
    )
    # Sliding the anchor within one cell changes the window measure
    # multilinearly in the per-axis offsets, so when every window side is a
    # whole number of cells the continuum minimum sits at an aligned anchor
    # and the scan is exact.  Otherwise partial boundary cells can leak.
    aligned = all(
        abs(win.a[axis] * S.geometry.resolution[axis] - round(win.a[axis] * S.geometry.resolution[axis]))
        <= _ALIGN_TOL
        for axis in range(S.d)
    )
    if aligned:
        err = 0.0
    else:
        boundary_cells = float(np.prod(qs)) - float(np.prod([max(q - 2, 0) for q in qs]))
        err = boundary_cells * S.geometry.cell_volume / win.volume
    return ThicknessCertificate(
        gamma_star=float(ratios[anchor_idx]),
        error_bound=float(err),
        argmin=argmin,
    )


# ---------------------------------------------------------------------------
# fat Cantor stages


@dataclass(frozen=True)
class CantorSpec:
    """Middle-interval removal schedule on [0,1].

    removal[k] is the proportion of each surviving interval removed at stage
    k+1, as an exact rational.  The classic schedule removing absolute length
    4^-k at stage k corresponds to removal fractions 1/(2^k + 2).
    """

    depth: int
    removal: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise RasterError("depth must be nonnegative")
        if len(self.removal) < self.depth:
            raise RasterError("need one removal fraction per stage")
        if any(not (0 < r < 1) for r in self.removal):
            raise RasterError("removal fractions must lie strictly between 0 and 1")

    def stage_intervals(self) -> list[tuple[Fraction, Fraction]]:
        """Closed surviving intervals after `depth` removal stages, exact."""
        intervals = [(Fraction(0), Fraction(1))]
        for k in range(self.depth):
            r = Fraction(self.removal[k])
            nxt: list[tuple[Fraction, Fraction]] = []
            for lo, hi in intervals:
                w = (hi - lo) * r
                mid = (lo + hi) / 2
                nxt.append((lo, mid - w / 2))
                nxt.append((mid + w / 2, hi))
            intervals = nxt
        return intervals

    def stage_measure(self) -> Fraction:
        """Total surviving length, exact."""
        return sum(hi - lo for lo, hi in self.stage_intervals())


def smith_volterra_spec(depth: int) -> CantorSpec:
    """Schedule removing absolute middle length 4^-k at stage k (limit measure 1/2)."""
    return CantorSpec(depth=depth, removal=tuple(Fraction(1, 2**k + 2) for k in range(1, depth + 1)))


def refuse_unresolved_stages(depth: int, resolution: int) -> None:
    """RasterError, before any interval is built, unless the 2^depth intervals of a depth stage, each at most
    2^-depth long, can each span the four cells rasterize_intervals needs."""
    if depth > resolution or 4 * 2**depth > resolution:  # the first test keeps 2**depth small
        raise RasterError(f"resolution {resolution} cannot resolve the 2^{depth} intervals of a depth-{depth} Cantor stage")


def build_fat_cantor(cspec: CantorSpec, resolution: int) -> RasterSet:
    """Rasterize the stage-depth pre-Cantor set on [0,1], periodic."""
    refuse_unresolved_stages(cspec.depth, resolution)
    return rasterize_intervals(cspec.stage_intervals(), resolution)


def rasterize_intervals(intervals: Sequence[tuple[Fraction, Fraction]], resolution: int) -> RasterSet:
    """Rasterize a union of closed rational intervals in [0,1], periodic, exactly, by cell centers.

    Cell k's center (k + 1/2) / R lies in [lo, hi] exactly when
    ceil(R lo - 1/2) <= k <= floor(R hi - 1/2), computed on Fractions.
    Requires every interval to span at least four cells so the raster
    resolves the set rather than aliasing it.
    """
    finest = min(hi - lo for lo, hi in intervals)
    if finest * resolution < 4:
        raise RasterError(
            f"resolution {resolution} cannot resolve intervals of length {finest}; "
            f"need at least {math.ceil(4 / finest)} cells per unit"
        )
    geo = RasterGeometry(origin=(0.0,), extent=(1.0,), resolution=(resolution,), periodic=True)
    bits = np.zeros(resolution, dtype=bool)
    half = Fraction(1, 2)
    for lo, hi in intervals:
        bits[math.ceil(resolution * lo - half) : math.floor(resolution * hi - half) + 1] = True
    return RasterSet(geometry=geo, cells=bits)


def interval_member(points: np.ndarray, intervals: Sequence[tuple[Fraction, Fraction]]) -> np.ndarray:
    """Exact-as-possible membership of float points in closed rational intervals."""
    flat = np.array([float(v) for ab in intervals for v in ab])
    pts = np.asarray(points, dtype=float)
    idx = np.searchsorted(flat, pts, side="right")
    inside = idx % 2 == 1
    at_right = (idx >= 1) & (idx % 2 == 0)
    if np.any(at_right):
        prev = flat[np.clip(idx - 1, 0, len(flat) - 1)]
        inside = inside | (at_right & (prev == pts))
    return inside


# ---------------------------------------------------------------------------
# products, level sets


def product_and_periodize(axes: Sequence[RasterSet]) -> RasterSet:
    """Tensor product of 1-d periodic rasters into a d-dim periodic raster."""
    if not axes:
        raise RasterError("need at least one axis raster")
    if any(s.d != 1 for s in axes):
        raise RasterError("product factors must be one-dimensional")
    if any(not s.periodic for s in axes):
        raise RasterError("product factors must be periodic")
    geo = RasterGeometry(
        origin=tuple(s.geometry.origin[0] for s in axes),
        extent=tuple(s.geometry.extent[0] for s in axes),
        resolution=tuple(s.geometry.resolution[0] for s in axes),
        periodic=True,
    )
    bits = axes[0].cells
    for s in axes[1:]:
        bits = np.logical_and.outer(bits, s.cells)
    return RasterSet(geometry=geo, cells=bits)


def stripes_raster(width: float, period: float, resolution: int) -> RasterSet:
    """Periodic 1-d stripes: S = [0, width) repeated with the given period."""
    if not (0 < width <= period):
        raise RasterError("stripe width must lie in (0, period]")
    geo = RasterGeometry(origin=(0.0,), extent=(period,), resolution=(resolution,), periodic=True)
    centers = geo.axis_centers(0)
    return RasterSet(geometry=geo, cells=centers < width)


def level_set(field: GridField, kappa: float) -> RasterSet:
    """Cells whose sampled value reaches kappa: the raster of {U >= kappa}."""
    return RasterSet(geometry=field.geometry, cells=field.values >= kappa)


# ---------------------------------------------------------------------------
# serialization: one numpy .npz archive per raster

# archive key -> (dtype kind, array rank); the cells keep the raster's own shape
_FIELDS = {"origin": ("f", 1), "extent": ("f", 1), "resolution": ("i", 1), "periodic": ("b", 0), "cells": ("b", None)}


def save_raster(S: RasterSet, path: str | Path) -> None:
    """Write S as a compressed .npz archive under exactly the given name."""
    geo = S.geometry
    with open(path, "wb") as fh:  # np.savez would append ".npz" to a name
        np.savez_compressed(fh, origin=np.array(geo.origin, dtype=np.float64), extent=np.array(geo.extent, dtype=np.float64),
                            resolution=np.array(geo.resolution, dtype=np.int64), periodic=geo.periodic, cells=S.cells)


def load_raster(path: str | Path) -> RasterSet:
    """Read what save_raster wrote; any other file raises RasterFormatError."""
    with open(path, "rb") as fh:
        try:
            with np.load(fh, allow_pickle=False) as npz:
                arrays = {key: npz[key] for key in npz.files}
        # a damaged archive fails inside numpy, zipfile or zlib, each with its own type
        except Exception as exc:
            raise RasterFormatError(f"{path}: not an .npz raster archive") from exc
    if arrays.keys() != _FIELDS.keys():
        raise RasterFormatError(f"{path}: archive keys {sorted(arrays)}, expected {sorted(_FIELDS)}")
    for key, (kind, rank) in _FIELDS.items():
        if arrays[key].dtype.kind != kind or rank not in (None, arrays[key].ndim):
            raise RasterFormatError(f"{path}: {key} has dtype {arrays[key].dtype} and rank {arrays[key].ndim}")
    try:
        origin, extent, resolution = (tuple(arrays[key].tolist()) for key in ("origin", "extent", "resolution"))
        geo = RasterGeometry(origin, extent, resolution, bool(arrays["periodic"]))
        return RasterSet(geometry=geo, cells=arrays["cells"])
    except RasterError as exc:
        raise RasterFormatError(f"{path}: {exc}") from exc
