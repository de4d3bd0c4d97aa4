"""Alloy-type random potentials: V_omega(x) = sum_j pi_j(omega) u(x - x_j).

Couplings pi_j are independent, bounded, and drawn from per-site
distributions through a splittable counter-based generator keyed by
(experiment seed, site index), so any subset of sites can be evaluated in
any order and reproduce the same field.  The uniform behind pi_j under key k
is the first draw of numpy's Philox(SeedSequence(k, spawn_key=(j,))), which
_row_uniforms computes for a block of keys and sites at once, bit for bit.
sample_potentials forms a block of (replica, override) draws of one seed as
one array: it splits the seed into words once, mixes the keys (seed, r) of
exactly the block's replicas r in one array pass, maps the uniforms by each
coupling law's one map, capped or not, and sums the bumps in one sparse
product.  Its one-draw call sample_potential splits any key into a seed and
a replica.  A few uniform arrays are kept.
A model has one single-site profile u, a nonnegative bump of finite radius;
u_j = u(x - x_j) is its translate to site center x_j.

Each coupling law is a frozen dataclass that states its own facts: its
fields and their defaults are the keys of a model file's [distribution]
section, law.cdf(x) is P(pi <= x), and law.modulus(eps) is its modulus of
continuity in closed form.  The file's other keys, with their kinds and
defaults, are build_model's keywords; the named models call it too.

The module also houses the two structural verifiers (the covering-type lower
bound with a thickness certificate, and its refutation via empty-window
witnesses) plus the diluted single-scale minorant construction that extracts
a sparse, independent, strictly positive lower bound W_omega <= V_omega.
"""

from __future__ import annotations

import configparser
import functools
import inspect
import itertools
import math
import numbers
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Any, Collection, Sequence, get_args

import numpy as np
import scipy.sparse as sp

from .grids import Bc, BoxSpec, axes_product
from .thick_sets import (
    GridField,
    RasterError,
    RasterGeometry,
    RasterSet,
    WindowSpec,
    certify_thickness,
    interval_member,
    level_set,
    load_raster,
    rasterize_intervals,
    refuse_unresolved_stages,
    smith_volterra_spec,
    stripes_raster,
    window_counts,
)


class ModelError(ValueError):
    pass


class CoverageError(ModelError):
    """A box reaches outside the region where sites are registered."""


class ConstructionError(ModelError):
    """The diluted minorant cannot be built from the given data."""


class ModelConfigError(ModelError):
    pass


# ---------------------------------------------------------------------------
# coupling distributions


@dataclass(frozen=True)
class Uniform:
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ModelError("uniform support must be a nondegenerate finite interval")

    @property
    def min_support(self) -> float:
        return self.lo

    @property
    def max_support(self) -> float:
        return self.hi

    @property
    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def _from_uniform(self, u, cap: float = math.inf):
        return self.lo + u * (min(cap, self.hi) - self.lo)

    def cdf(self, x: float) -> float:
        return max(min(x, self.hi) - self.lo, 0.0) / (self.hi - self.lo)

    def modulus(self, eps: float) -> float:
        return min(eps / (self.hi - self.lo), 1.0)

    @property
    def holder_exponent(self) -> float | None:
        return 1.0


@dataclass(frozen=True)
class BernoulliAt:
    """Two atoms: value v0 with probability p0, else v1."""

    v0: float = 0.0
    v1: float = 1.0
    p0: float = 0.5

    def __post_init__(self) -> None:
        if not (0 < self.p0 < 1):
            raise ModelError("atom probability must lie strictly between 0 and 1")
        if self.v0 == self.v1:
            raise ModelError("atoms must be distinct")

    @property
    def min_support(self) -> float:
        return min(self.v0, self.v1)

    @property
    def max_support(self) -> float:
        return max(self.v0, self.v1)

    @property
    def mean(self) -> float:
        return self.p0 * self.v0 + (1 - self.p0) * self.v1

    def _from_uniform(self, u, cap: float = math.inf):
        # an atom over the cap is never drawn; with both under it, u < p0 picks v0
        # (the accumulated masses are p0, then p0 + (1 - p0), which is 1.0 in binary64)
        return np.where(u < (0.0 if self.v0 > cap else 1.0 if self.v1 > cap else self.p0), self.v0, self.v1)

    def cdf(self, x: float) -> float:
        return (self.p0 if self.v0 <= x else 0.0) + (1 - self.p0 if self.v1 <= x else 0.0)

    def modulus(self, eps: float) -> float:
        if eps >= abs(self.v1 - self.v0):
            return 1.0
        return max(self.p0, 1 - self.p0)

    @property
    def holder_exponent(self) -> float | None:
        return None  # atoms keep s(eps) away from zero


@dataclass(frozen=True)
class TruncatedPowerHolder:
    """CDF (x/m_plus)^alpha on [0, m_plus]; Holder modulus of order min(alpha, 1)."""

    m_plus: float = 1.0
    alpha: float = 0.5

    def __post_init__(self) -> None:
        if not (self.m_plus > 0 and self.alpha > 0):
            raise ModelError("need positive scale and exponent")

    @property
    def min_support(self) -> float:
        return 0.0

    @property
    def max_support(self) -> float:
        return self.m_plus

    @property
    def mean(self) -> float:
        return self.m_plus * self.alpha / (self.alpha + 1)

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        if x >= self.m_plus:
            return 1.0
        return (x / self.m_plus) ** self.alpha

    def _from_uniform(self, u, cap: float = math.inf):
        # one Python float at a time: numpy's array ** can differ from Python's in the last bit
        mass, power = self.cdf(cap), 1.0 / self.alpha
        return np.reshape([self.m_plus * (v * mass) ** power for v in np.ravel(u).tolist()], np.shape(u))

    def modulus(self, eps: float) -> float:
        # the density is monotone, so the heaviest window sits at an end of the support
        return max(self.cdf(eps), 1.0 - self.cdf(self.m_plus - eps))

    @property
    def holder_exponent(self) -> float | None:
        return min(self.alpha, 1.0)


# each law has one map, _from_uniform(u, cap): uniform draws u, a float or an
# array, to couplings conditioned on staying at or below cap.  At the default
# cap = +inf it does the unconditioned draw's IEEE operations exactly.
Distribution = Uniform | BernoulliAt | TruncatedPowerHolder


# ---------------------------------------------------------------------------
# coupling streams
#
# The coupling of site j under key k is the first uniform of
# Generator(Philox(SeedSequence(k, spawn_key=(j,)))).  Both stages are
# counter-based, so _row_uniforms computes them for a whole (rows x sites)
# grid at once and returns the same bits as numpy's scalar path: numpy's
# mix_entropy runs on uint32 values held in uint64 arrays, one array pass over
# the key words (padded to the pool size, as a spawn key pads them) and the site
# word after them, then generate_state(2, uint64) and ten Philox4x64 rounds on
# counter [1, 0, 0, 0].  A block of draws mixes exactly its replica rows.

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
# numpy's SeedSequence hash and mix constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Philox4x64 round multipliers and Weyl key increments (Salmon et al., SC'11)
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10


def _key_words(key: Any) -> list[int]:
    """SeedSequence's uint32 entropy words of an int or a tuple of them."""
    if isinstance(key, (int, np.integer)):
        n = int(key)
        if n < 0:
            raise ModelError(f"stream keys must be nonnegative, got {n}")
        return [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]
    if isinstance(key, tuple):
        return [w for part in key for w in _key_words(part)]
    raise ModelError(f"stream keys are ints or tuples of ints, got {key!r}")


def _hashmix(value: np.ndarray, h: int, mult: int = _MULT_A) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix of the values under hash constant h, and the constant it leaves."""
    h_next = h * mult & _MASK32
    value = (value ^ h) * h_next & _MASK32
    return value ^ value >> 16, h_next


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of a pool word x with a hashed word y."""
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _mix_entropy(entropy: Sequence[np.ndarray]) -> list[np.ndarray]:
    """numpy's SeedSequence.mix_entropy on at least _POOL_SIZE entropy words, each an array of uint32
    values held in uint64, the arrays broadcasting together: the four pool words."""
    h, pool = _INIT_A, []
    for word in entropy[:_POOL_SIZE]:
        value, h = _hashmix(word, h)
        pool.append(value)
    for src in range(_POOL_SIZE):  # every pool word into every other
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:  # words past the pool into each pool word
        for dst in range(_POOL_SIZE):
            value, h = _hashmix(word, h)
            pool[dst] = _mix(pool[dst], value)
    return pool


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of m * x, from 32-bit halves."""
    m_lo, m_hi = m & _MASK32, m >> 32
    x_lo, x_hi = x & _MASK32, x >> 32
    ll, lh, hl = x_lo * m_lo, x_hi * m_lo, x_lo * m_hi
    mid = (ll >> 32) + (lh & _MASK32) + (hl & _MASK32)
    return x_hi * m_hi + (lh >> 32) + (hl >> 32) + (mid >> 32), x * m


def _pool_uniforms(words: np.ndarray, sites: tuple[int, ...]) -> np.ndarray:
    """The (keys, sites) first uniforms, bit for bit, of the keys of a (keys, n) uint64 array of their n
    entropy words at the sites (single words, 0 <= j < 2**32), in one array pass."""
    if any(not isinstance(j, (int, np.integer)) or not 0 <= j <= _MASK32 for j in sites):
        raise ModelError("site indices must be ints in [0, 2**32)")
    padding = [np.zeros((len(words), 1), dtype=np.uint64)] * (_POOL_SIZE - words.shape[1])
    pool = _mix_entropy([word[:, None] for word in words.T] + padding + [np.array(sites, dtype=np.uint64)[None, :]])
    # generate_state(2, uint64): four hashed words, paired little-endian
    h, state = _INIT_B, []
    for word in pool:
        value, h = _hashmix(word, h, _MULT_B)
        state.append(value)
    k0 = state[0] | state[1] << 32
    k1 = state[2] | state[3] << 32
    # round one on counter [1, 0, 0, 0] has mulhilo(M0, 1) = (0, M0), mulhilo(M1, 0) = (0, 0)
    c0, c1, c2, c3 = k0, np.zeros_like(k0), k1, np.full_like(k0, _PHILOX_M0)
    for _ in range(_PHILOX_ROUNDS - 1):
        k0 = k0 + _PHILOX_W0
        k1 = k1 + _PHILOX_W1
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return (c0 >> 11).astype(np.float64) * 2.0**-53


UNIFORM_CACHE_SIZE = 16  # (key stem, replica rows, sites) uniform arrays kept


@functools.lru_cache(maxsize=UNIFORM_CACHE_SIZE)
def _row_uniforms(stem: tuple[int, ...], rows: tuple[int, ...], sites: tuple[int, ...]) -> np.ndarray:
    """The (rows, sites) first uniforms of the keys (*stem, r) of the replica rows r, read-only: one
    _pool_uniforms pass, and the one entry every coupling draw takes."""
    words = np.empty((len(rows), len(stem) + 1), dtype=np.uint64)
    words[:, :-1] = stem
    words[:, -1] = rows
    u = _pool_uniforms(words, sites)
    u.flags.writeable = False
    return u


def _law_groups(dists: Sequence[Distribution], sites: tuple[int, ...]) -> tuple[tuple[Distribution, np.ndarray], ...]:
    """The distinct laws of the listed sites, each with the positions in sites that it governs."""
    positions: dict[Distribution, list[int]] = {}
    for k, i in enumerate(sites):
        positions.setdefault(dists[i], []).append(k)
    return tuple((law, np.array(at)) for law, at in positions.items())


def _couplings(groups: tuple[tuple[Distribution, Any], ...], stem: tuple[int, ...], rows: Sequence[int],
               sites: tuple[int, ...], cap: float | None = None) -> np.ndarray:
    """The (rows, sites) couplings of the listed sites under the keys (*stem, r) of the replica rows r, each
    the first uniform of its key's stream at the site, mapped by the site's law (its _law_groups).  stem is
    the uint32 words of a split key, and the rows are read from one _row_uniforms array.  A cap conditions
    every coupling on staying at or below it, and None is no cap, cap = +inf.  A row outside [0, 2**32) is
    refused, and so is a NaN cap or one under which a listed site's law has no mass."""
    cap = math.inf if cap is None else cap
    if math.isnan(cap):
        raise ModelError(f"conditioning cap {cap} is not a number")
    if any(law.cdf(cap) == 0.0 for law, _ in groups):
        raise ModelError(f"conditioning cap {cap} leaves no mass below it")
    r = np.array(rows)
    if not r.size:
        return np.empty((0, len(sites)))
    if r.dtype.kind not in "iu" or r.min() < 0 or r.max() > _MASK32:
        raise ModelError(f"replica rows must be ints in [0, 2**32), got {rows!r}")
    u = _row_uniforms(stem, tuple(r.tolist()), sites)
    c = np.empty_like(u)
    for law, at in groups:
        c[:, at] = law._from_uniform(u[:, at], cap)
    return c


def modulus_s(dists: Sequence[Distribution], eps: float) -> float:
    """Worst-case mass any single coupling puts into a closed window of length eps.

    s(eps) = sup over sites j and window centers E of mu_j([E - eps/2, E + eps/2]).
    Each law states its own supremum over E in closed form (law.modulus), so
    the supremum over sites is a maximum over the distinct laws.
    """
    if eps <= 0:
        return 0.0
    return max(law.modulus(eps) for law in set(dists))


# ---------------------------------------------------------------------------
# single-site profiles


@dataclass(frozen=True)
class BallIndicator:
    """Indicator of the radius-R ball.

    In one dimension the ball is the interval [c-R, c+R) taken half open, so
    unit-diameter balls on the integer lattice tile the line with no double
    counting and the covering sum is exactly one everywhere.
    """

    radius: float

    def __post_init__(self) -> None:
        if not (self.radius > 0):
            raise ModelError("ball radius must be positive")

    def evaluate(self, points: np.ndarray, center: tuple[float, ...]) -> np.ndarray:
        pts = np.atleast_2d(points)
        delta = pts - np.asarray(center)
        if pts.shape[1] == 1:
            x = delta[:, 0]
            return ((x >= -self.radius) & (x < self.radius)).astype(float)
        return (np.sqrt((delta**2).sum(axis=1)) < self.radius).astype(float)


@dataclass(frozen=True)
class CantorTranslate:
    """Indicator of a fat Cantor stage carried to the unit cell around the site."""

    intervals: tuple[tuple[Fraction, Fraction], ...]  # closed intervals within [0, 1]

    @staticmethod
    def from_depth(depth: int) -> "CantorTranslate":
        return CantorTranslate(intervals=tuple(smith_volterra_spec(depth).stage_intervals()))

    @property
    def radius(self) -> float:
        return 0.5

    def evaluate(self, points: np.ndarray, center: tuple[float, ...]) -> np.ndarray:
        pts = np.atleast_2d(points)
        if pts.shape[1] != 1:
            raise ModelError("cantor-translate profiles are one-dimensional")
        y = pts[:, 0] - (center[0] - 0.5)
        out = np.zeros(pts.shape[0])
        mask = (y >= 0.0) & (y <= 1.0)
        out[mask] = interval_member(y[mask], self.intervals).astype(float)
        return out


@dataclass(frozen=True)
class RasterProfile:
    """Profile given by a raster indicator translated to the site center."""

    raster: RasterSet

    @property
    def radius(self) -> float:
        geo = self.raster.geometry
        corners = [max(abs(o), abs(o + e)) for o, e in zip(geo.origin, geo.extent)]
        return float(np.sqrt(np.sum(np.square(corners))))

    def evaluate(self, points: np.ndarray, center: tuple[float, ...]) -> np.ndarray:
        pts = np.atleast_2d(points) - np.asarray(center)
        return self.raster.contains(pts).astype(float)


Profile = BallIndicator | CantorTranslate | RasterProfile


# ---------------------------------------------------------------------------
# the alloy model


@dataclass(frozen=True, eq=False)
class AlloyModel:
    """Registered site centers, the one single-site profile u translated to
    each of them, per-site coupling laws, and optional structural claims.

    Sites are registered inside the hull [-extent, extent]^d; simulation
    boxes must stay inside the hull shrunk by the profile radius so no
    unregistered bump can reach them.
    """

    d: int
    centers: tuple[tuple[float, ...], ...]
    profile: Profile
    dists: tuple[Distribution, ...]
    extent: float
    u_resolution: int = 16
    claimed_gamma: float | None = None
    claimed_window: WindowSpec | None = None
    claimed_set: RasterSet | None = None
    claimed_bound: float | None = None

    def __post_init__(self) -> None:
        if not self.centers:
            raise ModelError("a model needs at least one site")
        if len(self.centers) != len(self.dists):
            raise ModelError("need exactly one coupling distribution per site")
        if any(len(c) != self.d for c in self.centers):
            raise ModelError("site centers must match the model dimension")

    @property
    def max_radius(self) -> float:
        return self.profile.radius

    @functools.cached_property
    def envelope(self) -> GridField:
        """potential_envelope(self), computed on first use; its values are read-only."""
        env = potential_envelope(self)
        env.values.flags.writeable = False
        return env

    def __getstate__(self) -> dict:
        # a worker process recomputes the envelope if it needs one, rather
        # than receive it with every task
        return {k: v for k, v in self.__dict__.items() if k != "envelope"}

    @property
    def m_plus(self) -> float:
        return max(d.max_support for d in self.dists)

    def sites_near_box(self, box: BoxSpec) -> list[int]:
        reach = box.length / 2 + self.max_radius
        out = []
        for i, c in enumerate(self.centers):
            if all(abs(c[k] - box.center[k]) <= reach + 1e-12 for k in range(self.d)):
                out.append(i)
        return out

    def check_box_registered(self, box: BoxSpec) -> None:
        if box.d != self.d:
            raise ModelError("box dimension does not match the model")
        need = max(abs(c) + box.length / 2 for c in box.center) + self.max_radius
        if need > self.extent + 1e-9:
            raise CoverageError(
                f"box requires sites out to {need:.3f} but registration stops at {self.extent}"
            )


def _profile_patches(model: AlloyModel, axes: Sequence[np.ndarray], sites: Sequence[int]):
    """Per listed site, the flat C-order indices, ascending, of the points of the grid on these ascending axes
    that lie within max_radius + 1e-9 of its centre on every axis, and its profile there.  Off that patch a
    profile is an exact 0.0, so nothing is left out."""
    d, shape = len(axes), tuple(a.size for a in axes)
    grid = axes_product(axes).reshape(*shape, d)
    index = np.arange(math.prod(shape)).reshape(shape)
    centers = np.array([model.centers[i] for i in sites], dtype=float).reshape(-1, d)
    reach = model.max_radius + 1e-9
    lo = [np.searchsorted(a, centers[:, k] - reach).tolist() for k, a in enumerate(axes)]
    hi = [np.searchsorted(a, centers[:, k] + reach, "right").tolist() for k, a in enumerate(axes)]
    for s, i in enumerate(sites):
        patch = tuple(slice(lo[k][s], hi[k][s]) for k in range(d))
        yield index[patch].ravel(), model.profile.evaluate(grid[patch].reshape(-1, d), model.centers[i])


PROFILE_CACHE_SIZE = 64  # (model, box) pairs whose profile matrix is kept


@functools.lru_cache(maxsize=PROFILE_CACHE_SIZE)
def _box_profiles(model: AlloyModel, box: BoxSpec) -> tuple[tuple[int, ...], sp.csr_matrix, tuple]:
    """Sites whose bump can reach the box, ascending, the profile matrix P, and the sites' _law_groups.

    P has one row per grid node and one column per listed site, holding u_j
    at the nodes.  Each row of the CSR product P @ c starts at 0.0 and adds
    u_j * c_j in ascending site order: the same IEEE additions as summing
    c_j * u_j site by site, less the zero terms, which would add nothing.
    """
    near = tuple(model.sites_near_box(box))
    rows, data, indptr = [], [], [0]
    for at, u in _profile_patches(model, [box.axis_nodes(k) for k in range(box.d)], near):
        hit = np.flatnonzero(u)
        rows.append(at[hit])
        data.append(u[hit])
        indptr.append(indptr[-1] + hit.size)
    if not near:
        return near, sp.csr_matrix((box.ndof, 0)), ()
    P = sp.csc_matrix((np.concatenate(data), np.concatenate(rows), indptr), shape=(box.ndof, len(near)))
    return near, P.tocsr(), _law_groups(model.dists, near)


def sample_potentials(model: AlloyModel, seed: Any, draws: Sequence[tuple[int, float | None]], box: BoxSpec,
                      conditioning_cap: float | None = None) -> np.ndarray:
    """The (ndof, len(draws)) potentials of (replica, couplings override) draws at the box's nodes, a column
    per draw; replica r draws through the key (seed, r), the seed split into its words once.

    conditioning_cap conditions every coupling on staying at or below it (the
    small-coupling event of the spectral minimum probe); an override pins its
    draw's couplings to a constant, a diagnostic seam.  One CSR product P @ C.T
    forms every column: csr_matvecs adds u_j c_j in csr_matvec's order, so each column is its draw's P @ c.
    """
    model.check_box_registered(box)
    stem = tuple(_key_words(seed))
    near, P, groups = _box_profiles(model, box)
    C = np.empty((len(draws), len(near)))
    drawn = [k for k, (_, override) in enumerate(draws) if override is None]
    if drawn:
        C[drawn] = _couplings(groups, stem, [draws[k][0] for k in drawn], near, conditioning_cap)
    for k, (_, override) in enumerate(draws):
        if override is not None:
            C[k] = float(override)
    return P @ C.T


def sample_potential(model: AlloyModel, key: Any, box: BoxSpec, conditioning_cap: float | None = None,
                     couplings_override: float | None = None) -> np.ndarray:
    """One disorder sample of the potential at every grid node of the box: sample_potentials for one draw,
    the key split into its words, the last its replica row and the others its seed."""
    words = _key_words(key)
    if not words:
        raise ModelError(f"stream keys need at least one word, got {key!r}")
    return sample_potentials(model, tuple(words[:-1]), [(words[-1], couplings_override)], box, conditioning_cap)[:, 0]


def mean_potential(model: AlloyModel, box: BoxSpec) -> np.ndarray:
    """Expected potential: per-site means against the profiles."""
    model.check_box_registered(box)
    near, P, _ = _box_profiles(model, box)
    return P @ np.array([model.dists[i].mean for i in near], dtype=float)


# ---------------------------------------------------------------------------
# the deterministic upper envelope U = sum_j u(x - x_j) and its verifiers


def registration_geometry(model: AlloyModel, margin: float = 0.0) -> RasterGeometry:
    half = model.extent - margin
    cells = half * 2 * model.u_resolution
    if abs(cells - round(cells)) > 1e-9:
        half = math.floor(half * model.u_resolution) / model.u_resolution
    return RasterGeometry(
        origin=(-half,) * model.d,
        extent=(2 * half,) * model.d,
        resolution=(model.u_resolution,) * model.d,
        periodic=False,
    )


def potential_envelope(model: AlloyModel, margin: float = 0.0) -> GridField:
    """U = sum_j u_j sampled at raster cell centers over the registration hull."""
    geo = registration_geometry(model, margin)
    vals = np.zeros(math.prod(geo.shape))
    for at, u in _profile_patches(model, [geo.axis_centers(k) for k in range(model.d)], range(len(model.centers))):
        vals[at] += u
    return GridField(geometry=geo, values=vals.reshape(geo.shape))


@dataclass(frozen=True)
class PiCertificate:
    passed: bool
    gamma_star: float
    gamma_claimed: float
    thickness_error: float
    lower_bound_ok: bool
    first_violation: tuple[float, ...] | None


def verify_Pi(model: AlloyModel) -> PiCertificate:
    """Certify the covering claim: sum_j u_j >= 1 on S, and S is (gamma, a)-thick.

    The pointwise bound is checked at every raster cell center of S inside
    the registration hull shrunk by the site radius, so every contributing
    site is registered.
    """
    if model.claimed_set is None or model.claimed_gamma is None or model.claimed_window is None:
        raise ModelError("model declares no thick-set claim to verify")
    env = potential_envelope(model, margin=model.max_radius)
    pts = env.geometry.centers()
    member = model.claimed_set.contains(pts)
    values = env.values.ravel()
    bad = member & (values < 1.0 - 1e-12)
    first: tuple[float, ...] | None = None
    if np.any(bad):
        first = tuple(float(v) for v in pts[int(np.argmax(bad))])
    cert = certify_thickness(model.claimed_set, model.claimed_window)
    thick_ok = model.claimed_gamma <= cert.gamma_star - cert.error_bound + 1e-12
    return PiCertificate(
        passed=bool(first is None and thick_ok),
        gamma_star=cert.gamma_star,
        gamma_claimed=model.claimed_gamma,
        thickness_error=cert.error_bound,
        lower_bound_ok=first is None,
        first_violation=first,
    )


@dataclass(frozen=True)
class NoPiCertificate:
    passed: bool
    sup_u: float
    bound_claimed: float
    witnesses: dict[tuple[float, tuple[float, ...]], tuple[float, ...]]
    missing: tuple[tuple[float, tuple[float, ...]], ...]


def verify_NoPi(
    model: AlloyModel,
    kappa_list: Sequence[float],
    a_list: Sequence[Sequence[float]],
) -> NoPiCertificate:
    """Refute thickness of every tested level set {U >= kappa}.

    For each kappa and each window shape a the verifier exhibits a window
    position meeting the level set in nothing at all, which defeats
    (gamma, a)-thickness for every positive gamma at once.  It also confirms
    the claimed sup-norm bound on U.
    """
    if model.claimed_bound is None:
        raise ModelError("model declares no sup-norm bound to verify")
    for a in a_list:
        if len(a) != model.d:
            raise ModelError(f"window {tuple(a)} has {len(a)} sides; the model has dimension {model.d}")
    env = model.envelope
    sup_u = float(env.values.max())
    bound_ok = sup_u <= model.claimed_bound + 1e-12
    witnesses: dict[tuple[float, tuple[float, ...]], tuple[float, ...]] = {}
    missing: list[tuple[float, tuple[float, ...]]] = []
    for kappa in kappa_list:
        s_k = level_set(env, kappa)
        for a in a_list:
            key = (float(kappa), tuple(float(v) for v in a))
            empty = np.argwhere(window_counts(s_k, a) == 0)  # anchors in C order
            if empty.size == 0:
                missing.append(key)
            else:
                geo = s_k.geometry
                witnesses[key] = tuple(o + int(k) / r for o, k, r in zip(geo.origin, empty[0], geo.resolution))
    return NoPiCertificate(
        passed=bool(bound_ok and not missing),
        sup_u=sup_u,
        bound_claimed=model.claimed_bound,
        witnesses=witnesses,
        missing=tuple(missing),
    )


# ---------------------------------------------------------------------------
# diluted minorant


@dataclass(frozen=True, eq=False)
class MinorantCell:
    site_index: int
    kept: RasterSet  # T_k, trimmed to measure gamma_hat within one cell


@dataclass(frozen=True, eq=False)
class DilutedMinorant:
    """W_omega = sum_k eta_{j_k}(omega) (1/N) 1_{T_k} with eta = eps1 above threshold."""

    spacing: float
    lattice_count: int  # N, integer points reachable inside one sublattice cell
    threshold: float  # eps1
    gamma_hat: float
    s_at_threshold: float
    cells: tuple[MinorantCell, ...]

    @property
    def weight(self) -> float:
        return 1.0 / self.lattice_count

    @property
    def margin(self) -> float:
        return min(self.threshold / self.lattice_count, self.gamma_hat, 1.0 - self.s_at_threshold)

    def sample_on(self, model: AlloyModel, box: BoxSpec, seed: Any, replicas: Sequence[int]) -> np.ndarray:
        """The (ndof, len(replicas)) minorant fields, a column per replica, for the disorder draws sample_potential
        takes from the keys (seed, r): each cell's mask is built once, and its term threshold * weight * mask is
        added, in cell order, to the columns whose coupling reaches the threshold."""
        nodes = box.nodes()
        W = np.zeros((box.ndof, len(replicas)))
        sites = tuple(cell.site_index for cell in self.cells)
        pis = _couplings(_law_groups(model.dists, sites), tuple(_key_words(seed)), replicas, sites)
        for cell, pi in zip(self.cells, pis.T):
            term = self.threshold * self.weight * cell.kept.contains(nodes).astype(float)
            np.add(W, term[:, np.newaxis], out=W, where=pi >= self.threshold)
        return W


def construct_diluted_minorant(model: AlloyModel, L: float) -> DilutedMinorant:
    """Select one site per sublattice cell and trim its strong set to measure gamma_hat.

    Sublattice spacing is L + 2R, a whole number so that every sublattice
    anchor is a lattice point.  In each cell the site whose profile reaches
    1/N on the largest part of the inner box wins (lexicographic tie-break);
    its strong set is trimmed to gamma_hat = gamma * prod(a) / N by dropping
    the highest raster cells in C order.  The threshold eps1 is min(1e-6,
    m_plus / 4): s(eps) > 0 for every eps > 0, so any positive length will do.
    """
    if model.claimed_gamma is None or model.claimed_window is None:
        raise ConstructionError("minorant construction needs the thickness claim (gamma, a)")
    if any(d.min_support != 0.0 for d in model.dists):
        raise ConstructionError("couplings must have minimal support 0")
    spacing = L + 2 * model.max_radius
    if L <= 0 or not float(spacing).is_integer():
        raise ConstructionError(
            f"minorant needs L > 0 and a whole sublattice spacing L + 2R; got L = {L:g}, spacing {spacing:g}"
        )
    eps1 = min(1e-6, model.m_plus / 4)
    s1 = modulus_s(model.dists, eps1)
    if s1 >= 1.0:
        raise ConstructionError(f"modulus s({eps1:g}) is one: a coupling law has all its mass in one such window")

    # integer points inside the open sublattice cell, per axis
    half = spacing / 2
    zs = [z for z in range(-math.ceil(half), math.ceil(half) + 1) if abs(z) < half]
    n_points = len(zs) ** model.d

    gamma_hat = model.claimed_gamma * float(np.prod(model.claimed_window.a)) / n_points

    # sublattice anchors whose padded cell stays inside the registration hull
    reach = math.floor((model.extent - half) / spacing)
    if reach < 0:
        raise ConstructionError("registration hull too small for a single sublattice cell")
    anchor_axis = [k * spacing for k in range(-reach, reach + 1)]
    site_by_center = {c: i for i, c in enumerate(model.centers)}
    offsets = list(itertools.product(zs, repeat=model.d))  # sorted, as zs is

    cells: list[MinorantCell] = []
    for anchor in itertools.product(anchor_axis, repeat=model.d):
        geo = RasterGeometry(
            origin=tuple(a - L / 2 for a in anchor),
            extent=(float(L),) * model.d,
            resolution=(model.u_resolution,) * model.d,
            periodic=False,
        )
        pts = geo.centers()
        centers = (tuple(a + o for a, o in zip(anchor, offs)) for offs in offsets)
        sites = [site_by_center[c] for c in centers if c in site_by_center]
        if not sites:
            continue  # no registered site in this cell; skip it
        # column k: where site k's profile reaches 1/N on the inner box
        masks = np.column_stack([model.profile.evaluate(pts, model.centers[i]) >= 1.0 / n_points - 1e-12 for i in sites])
        counts = masks.sum(axis=0)
        best = int(np.argmax(counts))  # the first largest count, in offset order
        count, site_idx = int(counts[best]), sites[best]
        cell_vol = geo.cell_volume
        target = int(round(gamma_hat / cell_vol))
        if target < 1:
            raise ConstructionError(
                f"raster resolution {model.u_resolution} too coarse to hold measure {gamma_hat} in one cell"
            )
        if count < target:
            raise ConstructionError(
                f"strongest site in cell {anchor} covers {count * cell_vol}, need {gamma_hat}"
            )
        flat = np.zeros(pts.shape[0], dtype=bool)
        flat[np.flatnonzero(masks[:, best])[:target]] = True  # lexicographic trim in C order
        kept = RasterSet(geometry=geo, cells=flat.reshape(geo.shape))
        cells.append(MinorantCell(site_index=site_idx, kept=kept))

    if not cells:
        raise ConstructionError("no sublattice cell found a registered site")
    return DilutedMinorant(
        spacing=spacing,
        lattice_count=n_points,
        threshold=eps1,
        gamma_hat=gamma_hat,
        s_at_threshold=s1,
        cells=tuple(cells),
    )


# ---------------------------------------------------------------------------
# value kinds: how a config value parses, and the domain an argument must lie in

# The kinds an annotation may name besides float, int and str: "<kind> | None"
# also takes None, and a driver gets a Grid kind sorted, repeats merged
# (Positives keeps its order).
Positive, Count, Index = float, int, int
Grid = PositiveGrid = Positives = Sequence[float]


def _floats(raw: str) -> tuple[float, ...]:
    """A comma-separated list of floats; blank entries are skipped, but the list may not be empty."""
    values = tuple(float(v) for v in raw.split(",") if v.strip())
    if not values:
        raise ValueError("empty list")
    return values


# kind -> (the parser of a run-file or model-file value, syntax only; whether a
# value lies in the kind's domain; the phrase that names the domain)
KINDS = {
    "float": (float, math.isfinite, "a finite number"),
    "int": (int, lambda v: isinstance(v, numbers.Integral), "an integer"),
    "str": (str.strip, lambda v: isinstance(v, str), "a string"),
    "Positive": (float, lambda v: 0 < v < math.inf, "a positive finite number"),
    "Count": (int, lambda v: isinstance(v, numbers.Integral) and v >= 1, "an integer >= 1"),
    "Index": (int, lambda v: isinstance(v, numbers.Integral) and v >= 0, "an integer >= 0"),
    "Bc": (str.strip, lambda v: v in get_args(Bc), f"one of {', '.join(get_args(Bc))}"),
}
# a list kind holds a non-empty list of its entry kind's values
KINDS |= {
    kind: (_floats, lambda v, within=KINDS[entry][1]: len(v) > 0 and all(map(within, v)),
           f"a non-empty list of {KINDS[entry][2].removeprefix('a ')}s")
    for kind, entry in (("Sequence[float]", "float"), ("Grid", "float"), ("PositiveGrid", "Positive"),
                        ("Positives", "Positive"))
}


def parse_as(annotation: str, raw: str, path: Path, key: str, error: type[Exception]) -> Any:
    """raw, key's value in the file at path, read as the kind its annotation names; error names both if it is not one."""
    kind = annotation.removesuffix(" | None")
    try:
        return KINDS[kind][0](raw)
    except ValueError as exc:
        raise error(f"{path}: cannot parse {key} = {raw!r} as {kind}") from exc


def refuse_outside(annotation: str, name: str, value: Any, error: type[Exception]) -> Any:
    """value, unless it lies outside the domain of the kind its annotation names
    ("<kind> | None" also takes None): then error("<name> must be <domain>, got <value>")."""
    _, within, domain = KINDS[annotation.removesuffix(" | None")]
    if not (annotation.endswith(" | None") if value is None else within(value)):
        raise error(f"{name} must be {domain}, got {value}")
    return value


def refuse_arguments(fn, arguments: dict[str, Any], error: type[Exception]) -> None:
    """refuse_outside on each of fn's arguments whose annotation names a kind."""
    for p in inspect.signature(fn).parameters.values():
        if p.annotation.removesuffix(" | None") in KINDS:
            refuse_outside(p.annotation, p.name, arguments[p.name], error)


# ---------------------------------------------------------------------------
# the model builder and the named models


def _place_sites(placement: str, d: int, extent: float) -> list[tuple[float, ...]]:
    side = range(-int(extent), int(extent) + 1)
    if placement == "all-integers":
        return [tuple(float(v) for v in tup) for tup in itertools.product(side, repeat=d)]
    if placement == "powers-of-two":
        if d != 1:
            raise ModelConfigError("powers-of-two placement is one-dimensional")
        centers: list[tuple[float, ...]] = []
        m = 1
        while m <= extent:
            centers.extend([(-float(m),), (float(m),)])
            m *= 2
        return sorted(centers)
    if placement == "hyperplane":
        if d < 2:
            raise ModelConfigError("hyperplane placement needs dimension at least 2")
        return [(0.0,) + tuple(float(v) for v in tup) for tup in itertools.product(side, repeat=d - 1)]
    raise ModelConfigError(f"unknown placement {placement!r}")


def build_model(
    dimension: Count = 1,
    extent: Positive = 40.0,
    resolution: Count = 16,
    profile: str = "indicator-ball",
    radius: Positive = 0.5,
    cantor_depth: Index = 4,
    raster: str | None = None,
    placement: str = "all-integers",
    set: str | None = None,
    gamma: Positive | None = None,
    a: Positives = (1.0,),
    set_resolution: Count = 1024,
    c_u: Positive | None = None,
    law: Distribution = Uniform(),
    *,
    base: Path = Path("."),
) -> AlloyModel:
    """The alloy model a model file describes: its keys are these keywords,
    with these defaults, and law is its [distribution] section.  Sites sit at
    the integer points of [-extent, extent]^d, at +-2^m ("powers-of-two", d=1)
    or on the plane x_0 = 0 ("hyperplane"); raster paths are under base."""
    refuse_arguments(build_model, locals(), ModelConfigError)  # locals() is the call's arguments here
    u: Profile
    if profile == "indicator-ball":
        u = BallIndicator(radius)
    elif profile == "cantor-translate":
        if dimension != 1:
            raise ModelConfigError("cantor-translate profiles are one-dimensional")
        if set == "cantor":
            refuse_unresolved_stages(cantor_depth, set_resolution)
        u = CantorTranslate.from_depth(cantor_depth)
    elif profile == "raster-file":
        if not raster:
            raise ModelConfigError("raster-file profile needs a raster key")
        bump = load_raster(base / raster)
        if bump.periodic:  # a periodic bump never ends, so no radius bounds the sites it reaches from
            raise ModelConfigError(f"raster-file profile {raster} is periodic, so it has no finite support")
        u = RasterProfile(raster=bump)
    else:
        raise ModelConfigError(f"unknown profile kind {profile!r}")
    centers = tuple(_place_sites(placement, dimension, extent))
    if set is not None and gamma is None:
        raise ModelConfigError(f"the thickness claim on set {set!r} needs [thickness] gamma")
    S = None
    if set == "full":
        S = stripes_raster(1.0, 1.0, resolution)
    elif set == "cantor":
        if not isinstance(u, CantorTranslate):
            raise ModelConfigError("thickness set 'cantor' needs a cantor-translate profile")
        # S = union of the profile's translates, in cells [j-1/2, j+1/2): roll by half a period
        stage = rasterize_intervals(u.intervals, set_resolution)
        S = RasterSet(geometry=stage.geometry, cells=np.roll(stage.cells, set_resolution // 2))
    elif set is not None:
        S = load_raster(base / set)
    return AlloyModel(
        d=dimension, centers=centers, profile=u, dists=(law,) * len(centers), extent=float(extent),
        u_resolution=resolution, claimed_gamma=gamma, claimed_set=S, claimed_bound=c_u,
        claimed_window=None if S is None else WindowSpec(tuple(a)),
    )


def covering_model(extent: float = 40.0, dist: Distribution = Uniform(), u_resolution: int = 16) -> AlloyModel:
    """d=1 unit-cell indicators at every integer: sum_j u_j = 1 everywhere."""
    return build_model(extent=extent, resolution=u_resolution, set="full", gamma=1.0, law=dist)


def fat_cantor_model(
    extent: float = 40.0, depth: int = 4, dist: Distribution = Uniform(), u_resolution: int = 16,
    set_resolution: int = 1024,
) -> AlloyModel:
    """d=1 fat-Cantor stage indicators: the support is nowhere dense yet thick."""
    gamma = float(smith_volterra_spec(depth).stage_measure())
    return build_model(extent=extent, resolution=u_resolution, profile="cantor-translate", cantor_depth=depth,
                       set="cantor", gamma=gamma, set_resolution=set_resolution, law=dist)


def geometric_dilution_model(
    extent: float = 200.0, dist: Distribution = Uniform(), u_resolution: int = 8
) -> AlloyModel:
    """d=1 sites only at +-2^m: gaps double forever, so no level set is thick."""
    return build_model(extent=extent, resolution=u_resolution, placement="powers-of-two", c_u=1.0, law=dist)


# ---------------------------------------------------------------------------
# config values and model description files


def read_ini(path: Path, sections: Collection[str], error: type[ValueError]) -> configparser.ConfigParser:
    """The UTF-8 INI file at path; error names it if it cannot be read or parsed, or has a section not listed."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise error(f"{path}: {exc}") from exc
    for section in parser.sections():
        if section not in sections:
            raise error(f"{path}: unknown section [{section}]")
    return parser


# a [distribution] section names its law by kind; its other keys are the
# law's fields, which default to the field defaults; another law's field is refused
_LAWS = {"uniform": Uniform, "bernoulli": BernoulliAt, "truncated-power": TruncatedPowerHolder}

# the section of each model-file key, the one fact build_model's signature cannot hold
_MODEL_SECTIONS = {
    **dict.fromkeys(("dimension", "extent", "resolution"), "model"),
    **dict.fromkeys(("profile", "radius", "cantor_depth", "raster", "placement", "set_resolution"), "sites"),
    **dict.fromkeys(("set", "gamma", "a"), "thickness"),
    "c_u": "bound",
    **dict.fromkeys(["kind"] + [f.name for law in _LAWS.values() for f in fields(law)], "distribution"),
}

# the one [sites] key each profile kind reads; set_resolution goes with [thickness] set = cantor
_PROFILE_KEYS = {"indicator-ball": "radius", "cantor-translate": "cantor_depth", "raster-file": "raster"}


def _parse(path: Path, sec: configparser.SectionProxy, key: str, annotation: str) -> Any:
    """The key's value read as its annotation says, refused by file, section and key outside the kind's domain."""
    value = parse_as(annotation, sec[key], path, f"[{sec.name}] {key}", ModelConfigError)
    return refuse_outside(annotation, f"{path}: [{sec.name}] {key}", value, ModelConfigError)


def load_model_config(path: str | Path) -> AlloyModel:
    """The AlloyModel a model file describes: each key outside [distribution]
    is a keyword of build_model, read as its annotation says, and a
    [thickness] section claims set = full unless it names another set."""
    path = Path(path)
    parser = read_ini(path, _MODEL_SECTIONS.values(), ModelConfigError)
    params, keys = inspect.signature(build_model).parameters, {}
    for section in parser.sections():
        for key in parser[section]:
            if _MODEL_SECTIONS.get(key) != section:
                raise ModelConfigError(f"{path}: unknown key {key!r} in section [{section}]")
            if section != "distribution":
                keys[key] = _parse(path, parser[section], key, params[key].annotation)
    if "model" not in parser or "sites" not in parser or "distribution" not in parser:
        raise ModelConfigError(f"{path}: need [model], [sites], and [distribution] sections")
    if "thickness" in parser:
        keys.setdefault("set", "full")
    profile = keys.get("profile", params["profile"].default)
    for key in _PROFILE_KEYS.values():
        if key in keys and profile in _PROFILE_KEYS and key != _PROFILE_KEYS[profile]:
            raise ModelConfigError(f"{path}: [sites] key {key!r} does not apply to profile {profile}")
    if "set_resolution" in keys and keys.get("set") != "cantor":
        raise ModelConfigError(f"{path}: [sites] key 'set_resolution' applies only to [thickness] set = cantor")
    dist = parser["distribution"]
    kind = dist.get("kind", "").strip()
    if kind not in _LAWS:
        raise ModelConfigError(f"{path}: unknown distribution kind {kind!r}")
    types = {f.name: f.type for f in fields(_LAWS[kind])}
    for key in dist:
        if key != "kind" and key not in types:
            raise ModelConfigError(f"{path}: [distribution] key {key!r} does not apply to kind {kind}")
    law = {key: _parse(path, dist, key, types[key]) for key in dist if key != "kind"}
    try:
        return build_model(**keys, law=_LAWS[kind](**law), base=path.parent)
    except (ModelError, RasterError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
