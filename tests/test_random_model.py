"""Coupling laws, site profiles, model assembly, and the two structural verifiers."""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import pickle
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from wegner_lab import random_model
from wegner_lab.grids import BoxSpec, GridError, add_potential, add_potentials, build_free_laplacian
from wegner_lab.random_model import (
    AlloyModel,
    BallIndicator,
    BernoulliAt,
    CantorTranslate,
    ConstructionError,
    CoverageError,
    RasterProfile,
    ModelConfigError,
    ModelError,
    TruncatedPowerHolder,
    Uniform,
    construct_diluted_minorant,
    covering_model,
    geometric_dilution_model,
    load_model_config,
    mean_potential,
    modulus_s,
    potential_envelope,
    _couplings,
    _law_groups,
    _mix_entropy,
    _row_uniforms,
    build_model,
    sample_potential,
    sample_potentials,
    verify_NoPi,
    verify_Pi,
)
from wegner_lab.thick_sets import RasterGeometry, RasterSet, interval_member, save_raster, stripes_raster

from helpers import empirical_modulus, sample_iid

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _box(d=1, L=4.0, n=63, center=None):
    return BoxSpec(d=d, length=L, center=center or (0.0,) * d, n=n)


class TestDistributions:
    def test_uniform_basics(self):
        u = Uniform(1.0, 3.0)
        assert (u.min_support, u.max_support, u.mean) == (1.0, 3.0, 2.0)
        assert u.cdf(2.0) == pytest.approx(0.5)
        assert (u.cdf(0.5), u.cdf(1.0), u.cdf(6.0)) == (0.0, 0.0, 1.0)
        assert u.modulus(1.0) == pytest.approx(0.5)
        assert u.modulus(9.0) == 1.0

    def test_uniform_validation(self):
        with pytest.raises(ModelError):
            Uniform(1.0, 1.0)
        with pytest.raises(ModelError):
            Uniform(0.0, math.inf)

    def test_bernoulli_basics(self):
        b = BernoulliAt(0.0, 1.0, 0.3)
        assert b.mean == pytest.approx(0.7)
        assert b.cdf(0.5) == pytest.approx(0.3)
        assert (b.cdf(-0.5), b.cdf(0.0), b.cdf(1.5)) == (0.0, 0.3, 1.0)
        assert b.modulus(0.5) == pytest.approx(0.7)
        assert b.modulus(1.0) == 1.0
        assert b.holder_exponent is None

    def test_bernoulli_validation(self):
        with pytest.raises(ModelError):
            BernoulliAt(0.0, 1.0, 0.0)
        with pytest.raises(ModelError):
            BernoulliAt(2.0, 2.0, 0.5)

    def test_power_law_cdf_identities(self):
        t = TruncatedPowerHolder(2.0, 0.5)
        assert t.max_support == 2.0
        assert t.mean == pytest.approx(2.0 / 3.0)
        assert (t.cdf(0.0), t.cdf(2.0)) == (0.0, 1.0)
        assert t.cdf(0.5) == pytest.approx(0.5)  # (1/4)^(1/2)
        assert t.holder_exponent == 0.5

    def test_power_law_validation(self):
        with pytest.raises(ModelError):
            TruncatedPowerHolder(0.0, 0.5)
        with pytest.raises(ModelError):
            TruncatedPowerHolder(1.0, -1.0)

    @given(eps=st.floats(1e-6, 4.0), eps2=st.floats(1e-6, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_modulus_monotone_in_window(self, eps, eps2):
        lo, hi = sorted((eps, eps2))
        dists = [Uniform(0.0, 1.0), BernoulliAt(0.0, 1.0, 0.3), TruncatedPowerHolder(1.0, 0.5)]
        assert modulus_s(dists, lo) <= modulus_s(dists, hi) + 1e-12

    def test_modulus_worst_site_wins(self):
        dists = [Uniform(0.0, 1.0), Uniform(0.0, 4.0)]
        assert modulus_s(dists, 0.4) == pytest.approx(0.4)

    def test_modulus_power_law_left_endpoint(self):
        # density falls on (0, m]: the heaviest window hugs the left endpoint
        t = TruncatedPowerHolder(1.0, 0.5)
        assert modulus_s([t], 0.04) == pytest.approx(0.2, abs=1e-12)

    def test_modulus_power_law_right_endpoint(self):
        t = TruncatedPowerHolder(1.0, 2.0)
        want = 1.0 - 0.9**2
        assert modulus_s([t], 0.1) == pytest.approx(want, abs=1e-12)

    def test_modulus_nonpositive_window(self):
        assert modulus_s([Uniform(0.0, 1.0)], 0.0) == 0.0
        assert modulus_s([Uniform(0.0, 1.0)], -1.0) == 0.0

    @given(m_plus=st.floats(0.1, 10.0), alpha=st.floats(0.1, 5.0), frac=st.floats(1e-4, 1.5))
    @settings(max_examples=40, deadline=None)
    def test_power_law_closed_form_matches_the_grid_scan(self, m_plus, alpha, frac):
        law, eps = TruncatedPowerHolder(m_plus, alpha), frac * m_plus
        assert modulus_s([law], eps) == pytest.approx(_scanned_modulus(law, eps), rel=1e-9)


def _scanned_modulus(law, eps):
    """The sup of window masses over a grid of 4096 window centers across the
    support plus the two windows flush with its ends: the oracle the closed
    forms replaced, exact up to rounding for monotone densities."""
    lo, hi = law.min_support, law.max_support
    centers = np.concatenate([[lo + eps / 2, hi - eps / 2], np.linspace(lo - eps / 2, hi + eps / 2, 4096)])
    return min(max(law.cdf(e + eps / 2) - law.cdf(e - eps / 2) for e in centers), 1.0)


class TestSampling:
    def test_site_streams_reproducible(self):
        random_model._row_uniforms.cache_clear()
        u = _row_uniforms((), (7, 8), (3, 4))
        random_model._row_uniforms.cache_clear()
        assert np.array_equal(_row_uniforms((), (7, 8), (3, 4)), u)
        assert u[0, 0] != u[0, 1]
        assert u[0, 0] != u[1, 0]

    def test_replica_keys_are_distinct_streams(self):
        u = _row_uniforms((7,), (0, 1), (3,))
        assert u[0, 0] != u[1, 0]

    @given(
        cap=st.floats(0.05, 1.0),
        seedling=st.integers(0, 2**20),
        site=st.integers(0, 50),
    )
    @settings(max_examples=60, deadline=None)
    def test_conditioned_draw_coupled_below(self, cap, seedling, site):
        d = Uniform(0.0, 1.0)
        u = float(_row_uniforms((), (seedling,), (site,))[0, 0])
        full = d._from_uniform(u)
        below = d._from_uniform(u, cap)
        assert below <= cap + 1e-15
        assert below <= full + 1e-15  # one shared uniform makes the coupling monotone

    def test_conditioning_below_support_refused(self):
        for law, cap in [
            (Uniform(0.5, 1.0), 0.2),
            (Uniform(0.5, 1.0), 0.5),  # a cap at lo is a null event too
            (BernoulliAt(1.0, 2.0, 0.5), 0.5),
            (TruncatedPowerHolder(1.0, 0.5), 0.0),
        ]:
            model = covering_model(extent=8.0, dist=law)
            with pytest.raises(ModelError, match=f"conditioning cap {cap} leaves no mass below it"):
                sample_potential(model, (1, 0), _box(), conditioning_cap=cap)

    @pytest.mark.parametrize("law", [Uniform(0.0, 1.0), BernoulliAt(0.0, 1.0, 0.3), TruncatedPowerHolder(1.0, 0.5)],
                             ids=["uniform", "bernoulli", "power"])
    def test_a_nan_cap_is_refused_by_name(self, law):
        # it once drew an all-NaN potential, or was said to leave no mass below it
        model = covering_model(extent=8.0, dist=law)
        with pytest.raises(ModelError, match="^conditioning cap nan is not a number$"):
            sample_potential(model, (5, 0), _box(), conditioning_cap=math.nan)
        with pytest.raises(ModelError, match="^conditioning cap nan is not a number$"):
            sample_potentials(model, 5, [(0, None), (1, 0.5)], _box(), conditioning_cap=math.nan)

    @given(
        p0=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        atoms=st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2, unique=True),
        cap=st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0, 1])),  # an int: the cap on that atom
        u=st.floats(0.0, 1.0, exclude_max=True),
        step=st.sampled_from([None, -1.0, 0.0, 1.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_bernoulli_conditioning_matches_the_atom_accumulator(self, p0, atoms, cap, u, step):
        law = BernoulliAt(atoms[0], atoms[1], p0)
        if isinstance(cap, int):
            cap = atoms[cap]
        if law.cdf(cap) == 0.0:
            return  # refused by the caller
        if step is not None:
            u = float(np.nextafter(p0, p0 + step))  # the draw just below, at or just above p0
            if u >= 1.0:
                return  # above the largest p0 below 1: no uniform in [0, 1) is drawn there
        assert law._from_uniform(u, cap) == _accumulated_atom(law, u, cap)

    def test_bernoulli_conditioning_keeps_low_atom(self):
        b = BernoulliAt(0.0, 1.0, 0.3)
        vals = set(b._from_uniform(_row_uniforms((), tuple(range(20)), (0,))[:, 0], 0.5).tolist())
        assert vals == {0.0}

    def test_iid_moments(self):
        x = sample_iid(Uniform(0.0, 1.0), 1, 200_000)
        assert x.mean() == pytest.approx(0.5, abs=0.005)
        y = sample_iid(BernoulliAt(0.0, 1.0, 0.3), 1, 200_000)
        assert y.mean() == pytest.approx(0.7, abs=0.005)

    def test_empirical_modulus_validates(self):
        with pytest.raises(ModelError):
            empirical_modulus(Uniform(0.0, 1.0), 0.0, 100, 0)

    def test_empirical_modulus_tracks_closed_form(self):
        p, se, _ = empirical_modulus(Uniform(0.0, 1.0), 0.5, 40_000, 3)
        assert abs(p - 0.5) <= 5 * se


_EDGE_UNIFORMS = [0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53]  # the least, the next, a middle and the greatest draw
_LAWS = st.one_of(
    st.tuples(st.floats(-4.0, 4.0), st.floats(1e-3, 8.0)).map(lambda t: Uniform(t[0], t[0] + t[1])),
    st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    .filter(lambda t: t[0] != t[1]).map(lambda t: BernoulliAt(*t)),
    st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 5.0)).map(lambda t: TruncatedPowerHolder(*t)),
)


def _unconditioned(law, u):
    """Each law's unconditioned draw of a float or an array of uniforms, written out; the power law's on
    Python floats."""
    if isinstance(law, Uniform):
        return law.lo + u * (law.hi - law.lo)
    if isinstance(law, BernoulliAt):
        return np.where(u < law.p0, law.v0, law.v1)
    return np.reshape([law.m_plus * v ** (1 / law.alpha) for v in np.ravel(u).tolist()], np.shape(u))


@given(law=_LAWS, u=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=8))
@settings(max_examples=200, deadline=None)
def test_each_law_maps_at_no_cap_as_its_unconditioned_draw(law, u):
    # the one map at cap = +inf does the unconditioned draw's IEEE operations: no bit moves
    x = np.array(_EDGE_UNIFORMS + u)
    for draws in (x, x[:, None], x.reshape(2, -1) if x.size % 2 == 0 else x[None, :]):
        want = _unconditioned(law, draws)
        for got in (law._from_uniform(draws), law._from_uniform(draws, math.inf)):
            assert got.shape == draws.shape and got.dtype == np.float64 and got.tobytes() == want.tobytes()
    for v in x.tolist():
        want = float(_unconditioned(law, v)).hex()
        assert float(law._from_uniform(v)).hex() == want and float(law._from_uniform(v, math.inf)).hex() == want


def _accumulated_atom(law, u, cap):
    """The conditioned Bernoulli draw as it was computed before: renormalised
    masses of the atoms under the cap, accumulated until they pass u."""
    atoms = [(v, p) for v, p in ((law.v0, law.p0), (law.v1, 1 - law.p0)) if v <= cap]
    total = sum(p for _, p in atoms)
    acc = 0.0
    for v, p in atoms:
        acc += p / total
        if u < acc:
            return v
    return atoms[-1][0]


def _numpy_uniform(key, site):
    """numpy's scalar path, the reference for every coupling stream."""
    ss = np.random.SeedSequence(key, spawn_key=(site,))
    return np.random.Generator(np.random.Philox(ss)).uniform(0.0, 1.0)


_WORDS = st.one_of(st.sampled_from([0, 1, 2**31, 2**32 - 1]), st.integers(0, 2**32 - 1))
_SITES = _WORDS  # a site is one SeedSequence word, as a replica row is
_STEMS = st.lists(_WORDS, max_size=9).map(tuple)  # a seed's words: keys (*stem, r) of 1 to 10 words


def _words(key):
    """The flat uint32 words, least significant first, that SeedSequence reads from a key."""
    if isinstance(key, tuple):
        return [w for part in key for w in _words(part)]
    key = int(key)
    return [(key >> s) & 0xFFFFFFFF for s in range(0, max(32, key.bit_length()), 32)]


def _split(key):
    """A key as _couplings takes it: the stem, its words but the last, and a one-row list of the last."""
    words = _words(key)
    return tuple(words[:-1]), words[-1:]


def _mixed_pool(key, *spawn_key):
    """SeedSequence's entropy mixing by hand, mod 2**32 on Python ints: the pool of
    the key's words, padded to the pool size, and the spawn key's words after them.
    The oracle for _mix_entropy."""
    mask, init_a, mult_a, mix_l, mix_r = 0xFFFFFFFF, 0x43B0D7E5, 0x931E8875, 0xCA01F9DD, 0x4973F715
    words = _words(key)
    words += [0] * (4 - len(words)) + list(spawn_key)
    h = init_a
    pool = []
    for w in words[:4]:  # hashmix(v): v ^= h; h *= MULT_A; v *= h; v ^= v >> 16
        w ^= h
        h = h * mult_a & mask
        w = w * h & mask
        pool.append(w ^ w >> 16)
    for src, w in enumerate([None] * 4 + words[4:]):  # None: the pool word itself
        for dst in range(4):
            if src == dst:
                continue
            v = (pool[src] if w is None else w) ^ h
            h = h * mult_a & mask
            v = v * h & mask
            r = (mix_l * pool[dst] - mix_r * (v ^ v >> 16)) & mask  # mix(x, y) = L x - R y
            pool[dst] = r ^ r >> 16
    return pool


def _entropy(keys, sites=()):
    """The (keys, 1) word arrays of keys of one word count, padded to the pool size, then a (1, sites) site word."""
    words = np.array([_words(key) for key in keys], dtype=np.uint64).reshape(len(keys), -1)
    padded = [w[:, None] for w in words.T] + [np.zeros((len(keys), 1), dtype=np.uint64)] * (4 - words.shape[1])
    return padded + ([np.array(sites, dtype=np.uint64)[None, :]] if sites else [])


class TestStreams:
    @given(stem=_STEMS, rows=st.lists(_WORDS, max_size=5).map(tuple), sites=st.lists(_SITES, max_size=6).map(tuple))
    @settings(max_examples=150, deadline=None)
    def test_vectorised_streams_match_numpy(self, stem, rows, sites):
        got = _row_uniforms(stem, rows, sites)
        assert got.shape == (len(rows), len(sites)) and got.dtype == np.float64
        for k, r in enumerate(rows):
            for j, site in enumerate(sites):
                assert got[k, j] == _numpy_uniform(stem + (r,), site), (stem, r, site)

    def test_edge_keys_and_sites(self):
        keys = [0, 2**32 - 1, 2**32, 2**64 + 5, (0,), (1, 2, 3, 4), (1, 2, 3, 4, 5), tuple(range(9)), (5, 2**33)]
        sites = (0, 2**31, 2**32 - 1)
        for key in keys:  # each key as its stem and its last word, the row
            stem, rows = _split(key)
            want = [[_numpy_uniform(key, site) for site in sites]]
            assert _row_uniforms(stem, tuple(rows), sites).tolist() == want, key

    def test_empty_keys_or_sites(self):
        assert _row_uniforms((3,), (), (0, 1)).shape == (0, 2)
        assert _row_uniforms((3,), (0, 1), ()).shape == (2, 0)
        assert _row_uniforms((), (), ()).shape == (0, 0)

    @pytest.mark.parametrize(
        "keys, sites",
        [([-1], (0,)), ([(3, -2)], (0,)), ([3], (2**32,)), ([3], (-1,)), ([3.0], (0,)), ([3], (1.0,))],
        ids=["negative-key", "negative-key-word", "site-2**32", "negative-site", "float-key", "float-site"],
    )
    def test_out_of_range_input_raises(self, keys, sites):
        random_model._row_uniforms.cache_clear()  # a float site hashes like its int, so no kept array may answer it
        with pytest.raises(ModelError):  # the split of the key, or the sites of the stream
            words = random_model._key_words(keys[0])
            _row_uniforms(tuple(words[:-1]), tuple(words[-1:]), sites)
        with pytest.raises(ModelError):  # the same, behind the couplings
            words = random_model._key_words(keys[0])
            _couplings(((Uniform(0.0, 1.0), slice(None)),), tuple(words[:-1]), words[-1:], sites)

    @pytest.mark.parametrize("rows", [[-1], [5, 2**32], [2**64], [3.0], [0, 1.5], ["7"]])
    def test_a_replica_row_outside_32_bits_is_refused(self, covering, rows):
        with pytest.raises(ModelError, match="replica rows must be ints"):
            _couplings(((Uniform(0.0, 1.0), slice(None)),), (5,), rows, (0, 3))
        with pytest.raises(ModelError, match="replica rows must be ints"):
            sample_potentials(covering, 5, [(r, None) for r in rows], _box())
        _couplings(((Uniform(0.0, 1.0), slice(None)),), (5,), [0, 2**32 - 1, np.int64(7)], (0, 3))

    def test_a_float_key_word_is_refused_whatever_the_cache_holds(self, covering):
        # (3.0, 5) hashes like (3, 5), so a cached draw of (3, 5) must not answer it
        box = _box()
        random_model._row_uniforms.cache_clear()
        with pytest.raises(ModelError, match="stream keys"):
            sample_potential(covering, (3.0, 5), box)
        sample_potential(covering, (3, 5), box)
        for key in ((3.0, 5), (3, 5.0), 3.0):
            with pytest.raises(ModelError, match="stream keys"):
                sample_potential(covering, key, box)

    @given(
        key=st.one_of(
            st.integers(0, 2**200),  # one to seven words
            st.recursive(st.integers(0, 2**70), lambda part: st.lists(part, min_size=1, max_size=3).map(tuple)),
            st.lists(st.integers(0, 2**63 - 1).map(np.int64), min_size=1, max_size=4).map(tuple),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_every_key_draws_the_stream_of_its_word_tuple(self, covering, key):
        box = _box()
        got = sample_potential(covering, key, box)
        assert got.tobytes() == sample_potential(covering, tuple(_words(key)), box).tobytes()
        want = _loop_potential(covering, box, lambda i: covering.dists[i]._from_uniform(_numpy_uniform(key, i)))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("key", [(), ((),), ((), ())])
    def test_a_key_without_words_is_refused(self, covering, key):
        with pytest.raises(ModelError, match="stream keys"):
            sample_potential(covering, key, _box())

    @given(
        key=st.one_of(
            st.integers(0, 2**200),  # one to seven words
            st.lists(st.integers(0, 2**70), max_size=6).map(tuple),  # () included
            st.tuples(st.integers(0, 2**40), st.lists(st.integers(0, 2**40), max_size=3).map(tuple)),
        ),
        site=_SITES,
    )
    @settings(max_examples=200, deadline=None)
    def test_array_mixing_matches_hand_mixing(self, key, site):
        assert [int(w[0, 0]) for w in _mix_entropy(_entropy([key]))] == _mixed_pool(key)
        assert [int(w[0, 0]) for w in _mix_entropy(_entropy([key], (site,)))] == _mixed_pool(key, site)

    @given(
        width=st.integers(1, 6),
        rows=st.lists(st.lists(st.integers(0, 2**32 - 1), min_size=6, max_size=6), min_size=1, max_size=5),
        sites=st.lists(_SITES, min_size=1, max_size=4).map(tuple),
    )
    @settings(max_examples=120, deadline=None)
    def test_array_mixing_is_numpys_seedsequence_pool(self, width, rows, sites):
        # one pass over a (keys, words) array: each row's pool is SeedSequence(key).pool, and with a site word
        # after it, SeedSequence(key, spawn_key=(site,)).pool
        keys = [tuple(row[:width]) for row in rows]
        pool = np.stack(_mix_entropy(_entropy(keys)), axis=-1)[:, 0]
        assert pool.tolist() == [np.random.SeedSequence(key).pool.tolist() for key in keys]
        spawned = np.stack(_mix_entropy(_entropy(keys, sites)), axis=-1)
        for k, key in enumerate(keys):
            for j, site in enumerate(sites):
                assert spawned[k, j].tolist() == np.random.SeedSequence(key, spawn_key=(site,)).pool.tolist()

    def test_numpy_seedsequence_golden_values(self):
        # if this fails, numpy changed SeedSequence or Philox, not this package
        assert float(_numpy_uniform((20260822, 0), 40)).hex() == "0x1.d12ee300adf1ep-2"
        assert float(_numpy_uniform(7, 3)).hex() == "0x1.10976e51b6d00p-3"
        assert float(_numpy_uniform((777, 199), 2**32 - 1)).hex() == "0x1.3ab605ea98c40p-1"
        got = [_row_uniforms((20260822,), (0,), (40,)), _row_uniforms((), (7,), (3,)),
               _row_uniforms((777,), (199,), (2**32 - 1,))]
        assert [float(u[0, 0]).hex() for u in got] == [
            "0x1.d12ee300adf1ep-2", "0x1.10976e51b6d00p-3", "0x1.3ab605ea98c40p-1",
        ]

    @pytest.mark.parametrize(
        "dist, cap",
        [
            (Uniform(0.2, 1.7), 0.9),
            (BernoulliAt(0.0, 1.0, 0.3), 0.5),
            (TruncatedPowerHolder(2.0, 0.5), 0.7),
            (TruncatedPowerHolder(1.0, 3.0), 0.4),
            (TruncatedPowerHolder(1.5, 0.25), 1.2),
        ],
        ids=["uniform", "bernoulli", "power-0.5", "power-3", "power-0.25"],
    )
    def test_each_law_maps_the_scalar_uniform(self, dist, cap):
        # the law's scalar code on numpy's own uniform, bit for bit, plain and capped
        sites = (0, 7)
        groups = _law_groups([dist] * 8, sites)  # _law_groups takes each site's law from a list indexed by site
        for key in [4, (9, 0), (9, 63), (9, 64), (2**35, 1, 200)]:
            u = [float(_numpy_uniform(key, site)) for site in sites]
            assert _couplings(groups, *_split(key), sites)[0].tolist() == [float(dist._from_uniform(x)) for x in u]
            assert _couplings(groups, *_split(key), sites, cap)[0].tolist() == [float(dist._from_uniform(x, cap)) for x in u]

    def test_sample_couplings_match_numpy(self):
        model = geometric_dilution_model(extent=40.0, dist=TruncatedPowerHolder(2.0, 0.5))
        sites = tuple(range(len(model.dists)))
        got = _couplings(_law_groups(model.dists, sites), (3,), [70], sites)[0].tolist()
        want = [float(d._from_uniform(float(_numpy_uniform((3, 70), i)))) for i, d in enumerate(model.dists)]
        assert got == want


class TestProfiles:
    def test_ball_half_open_in_one_dimension(self):
        prof = BallIndicator(radius=0.5)
        pts = np.array([[-0.5], [0.0], [0.4999], [0.5]])
        assert prof.evaluate(pts, (0.0,)).tolist() == [1.0, 1.0, 1.0, 0.0]

    def test_ball_open_in_two_dimensions(self):
        prof = BallIndicator(radius=1.0)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.7, 0.7], [0.71, 0.71]])
        assert prof.evaluate(pts, (0.0, 0.0)).tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_unit_balls_tile_the_line(self):
        prof = BallIndicator(radius=0.5)
        pts = np.linspace(-3, 3, 601).reshape(-1, 1)
        total = sum(prof.evaluate(pts, (float(c),)) for c in range(-4, 5))
        assert np.all(total == 1.0)

    def test_cantor_translate_matches_exact_intervals(self):
        prof = CantorTranslate.from_depth(2)
        y = np.linspace(0.0, 1.0, 257)
        got = prof.evaluate((y + 2.5).reshape(-1, 1), (3.0,))
        want = interval_member(y, prof.intervals).astype(float)
        assert np.array_equal(got, want)

    def test_cantor_translate_vanishes_off_cell(self):
        prof = CantorTranslate.from_depth(2)
        pts = np.array([[-0.6], [0.6]])
        assert prof.evaluate(pts, (0.0,)).tolist() == [0.0, 0.0]

    def test_cantor_translate_one_dimensional_only(self):
        prof = CantorTranslate.from_depth(2)
        with pytest.raises(ModelError):
            prof.evaluate(np.zeros((1, 2)), (0.0, 0.0))


class TestAlloyModel:
    def test_model_validation(self):
        prof = BallIndicator(radius=0.5)
        with pytest.raises(ModelError):
            AlloyModel(d=1, centers=(), profile=prof, dists=(), extent=4.0)
        with pytest.raises(ModelError):
            AlloyModel(d=1, centers=((0.0,),), profile=prof, dists=(), extent=4.0)
        with pytest.raises(ModelError):
            AlloyModel(d=2, centers=((0.0,),), profile=prof, dists=(Uniform(0, 1),), extent=4.0)

    def test_covering_envelope_exactly_one(self, covering):
        env = potential_envelope(covering)
        assert float(env.values.min()) == 1.0
        assert float(env.values.max()) == 1.0

    def test_envelope_is_computed_once_per_model(self, monkeypatch):
        calls = []
        envelope = random_model.potential_envelope
        monkeypatch.setattr(random_model, "potential_envelope", lambda *a, **k: calls.append(a) or envelope(*a, **k))
        model = geometric_dilution_model()
        for _ in range(2):
            verify_NoPi(model, kappa_list=[0.5], a_list=[(4.0,)])
        assert model.envelope is model.envelope
        assert len(calls) == 1
        assert np.array_equal(model.envelope.values, envelope(model).values)
        assert not model.envelope.values.flags.writeable
        # tasks sent to worker processes leave it behind
        assert "envelope" not in vars(pickle.loads(pickle.dumps(model)))

    def test_sites_near_box(self, covering):
        box = _box(L=4.0)
        near = covering.sites_near_box(box)
        # centers within 2 + 0.5 of origin
        assert [covering.centers[i][0] for i in near] == [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_box_outside_registration_refused(self, covering):
        with pytest.raises(CoverageError):
            sample_potential(covering, 0, _box(L=4.0, center=(39.0,)))
        with pytest.raises(ModelError):
            covering.check_box_registered(BoxSpec(d=2, length=2.0, center=(0.0, 0.0), n=8))

    def test_override_seams(self, covering):
        box = _box()
        assert np.all(sample_potential(covering, 0, box, couplings_override=0.0) == 0.0)
        assert np.all(sample_potential(covering, 0, box, couplings_override=1.0) == 1.0)

    def test_sample_bounded_by_envelope(self, covering):
        box = _box()
        v = sample_potential(covering, 5, box)
        assert np.all(v >= 0.0)
        assert np.all(v <= covering.m_plus + 1e-12)

    def test_conditioning_cap_bounds_field(self, covering):
        box = _box()
        v = sample_potential(covering, 5, box, conditioning_cap=0.1)
        assert np.all(v <= 0.1 + 1e-12)

    def test_mean_potential_covering(self, covering):
        assert np.allclose(mean_potential(covering, _box()), 0.5)

    def test_profile_matrix_built_once_per_box(self, covering, monkeypatch):
        box = _box(L=6.0, n=95, center=(2.0,))
        first = sample_potential(covering, 3, box)
        calls = []
        monkeypatch.setattr(AlloyModel, "sites_near_box", lambda self, b: calls.append(b))
        assert np.array_equal(sample_potential(covering, 3, box), first)
        assert np.array_equal(mean_potential(covering, box), np.full(box.ndof, 0.5))
        assert calls == []

    def test_sample_couplings_matches_sitewise(self, covering):
        sites = tuple(range(len(covering.dists)))
        cs = _couplings(_law_groups(covering.dists, sites), (), [9], sites)[0]
        assert cs[3] == float(covering.dists[3]._from_uniform(float(_row_uniforms((), (9,), (3,))[0, 0])))

    def test_same_draw_on_overlapping_boxes(self, covering):
        # the same site must contribute the same coupling whatever box asks
        a = sample_potential(covering, 11, _box(L=4.0, center=(0.0,)))
        b = sample_potential(covering, 11, _box(L=4.0, center=(1.0,)))
        nodes_a = _box(L=4.0, center=(0.0,)).axis_nodes(0)
        nodes_b = _box(L=4.0, center=(1.0,)).axis_nodes(0)
        common_a = (nodes_a >= 0.5) & (nodes_a < 1.5)
        common_b = (nodes_b >= 0.5) & (nodes_b < 1.5)
        assert np.allclose(a[common_a], b[common_b])


class TestVerifiers:
    def test_covering_claim_certifies(self, covering):
        cert = verify_Pi(covering)
        assert cert.passed
        assert cert.gamma_star == 1.0
        assert cert.thickness_error == 0.0
        assert cert.first_violation is None

    def test_cantor_claim_certifies(self, cantor):
        cert = verify_Pi(cantor)
        assert cert.passed
        assert cert.gamma_claimed == 17 / 32
        assert cert.gamma_star >= 17 / 32

    def test_pi_requires_claims(self, geometric):
        with pytest.raises(ModelError):
            verify_Pi(geometric)

    def test_pi_detects_violation(self):
        # claim full thickness but leave every second integer site out
        base = covering_model(extent=8.0)
        centers = base.centers[::2]
        broken = AlloyModel(
            d=1,
            centers=centers,
            profile=base.profile,
            dists=base.dists[: len(centers)],
            extent=8.0,
            claimed_gamma=1.0,
            claimed_window=base.claimed_window,
            claimed_set=base.claimed_set,
        )
        cert = verify_Pi(broken)
        assert not cert.passed
        assert cert.first_violation is not None

    def test_geometric_refutation(self, geometric):
        cert = verify_NoPi(geometric, kappa_list=[0.5], a_list=[(8.0,)])
        assert cert.passed
        assert cert.sup_u == 1.0
        assert len(cert.witnesses) == 1
        (spot,) = cert.witnesses.values()
        # the witness window really is empty: no site center within reach
        lo = spot[0]
        centers = [c[0] for c in geometric.centers]
        assert all(c + 0.5 <= lo or c - 0.5 >= lo + 8.0 for c in centers)

    def test_nopi_requires_bound(self, covering):
        with pytest.raises(ModelError):
            verify_NoPi(covering, [0.5], [(4.0,)])

    def test_covering_support_defeats_nopi(self):
        m = covering_model(extent=8.0)
        claimed = AlloyModel(
            d=1,
            centers=m.centers,
            profile=m.profile,
            dists=m.dists,
            extent=m.extent,
            claimed_bound=1.0,
        )
        cert = verify_NoPi(claimed, kappa_list=[0.5], a_list=[(2.0,)])
        assert not cert.passed
        assert cert.missing


class TestDilutedMinorant:
    def test_covering_construction_pinned(self, covering):
        dm = construct_diluted_minorant(covering, 4.0)
        assert dm.spacing == 5.0
        assert dm.lattice_count == 5
        assert dm.weight == pytest.approx(0.2)
        assert dm.gamma_hat == pytest.approx(0.2)
        assert dm.threshold == pytest.approx(1e-6)
        assert dm.s_at_threshold == pytest.approx(1e-6)
        assert dm.margin == pytest.approx(2e-7)
        assert len(dm.cells) == 15
        for cell in dm.cells:
            assert cell.kept.measure == pytest.approx(0.1875)

    def test_cantor_construction(self, cantor):
        dm = construct_diluted_minorant(cantor, 4.0)
        assert dm.gamma_hat == pytest.approx(17 / 32 / 5)
        cell_vol = dm.cells[0].kept.geometry.cell_volume
        for cell in dm.cells:
            assert abs(cell.kept.measure - dm.gamma_hat) <= cell_vol

    def test_minorant_below_field_pathwise(self, covering):
        dm = construct_diluted_minorant(covering, 4.0)
        box = _box(L=8.0, n=127)
        W = dm.sample_on(covering, box, 13, range(30))
        for r in range(30):
            v = sample_potential(covering, (13, r), box)
            assert np.all(W[:, r] <= v + 1e-12)

    def test_construction_preconditions(self, geometric):
        with pytest.raises(ConstructionError):
            construct_diluted_minorant(geometric, 4.0)  # no thickness claim
        shifted = covering_model(dist=Uniform(0.5, 1.0))
        with pytest.raises(ConstructionError):
            construct_diluted_minorant(shifted, 4.0)  # support detached from zero

    def test_resolution_too_coarse(self):
        with pytest.raises(ConstructionError, match="too coarse"):
            construct_diluted_minorant(covering_model(u_resolution=2), 4.0)

    @pytest.mark.parametrize("L", [4.5, 0.0, -1.0])
    def test_spacing_must_be_whole_and_L_positive(self, covering, L):
        # at spacing 5.5 the odd sublattice anchors are no lattice points, and
        # their cells would silently drop out
        with pytest.raises(ConstructionError, match=rf"got L = {L:g}, spacing {L + 1:g}$"):
            construct_diluted_minorant(covering, L)

    def test_law_with_all_mass_in_the_threshold_window_refused(self, covering):
        # the threshold min(1e-6, m_plus / 4) follows the widest law; atoms
        # closer together than that sit in one window of that length
        dists = (Uniform(),) + (BernoulliAt(0.0, 1e-7),) * (len(covering.centers) - 1)
        with pytest.raises(ConstructionError, match=r"modulus s\(1e-06\) is one"):
            construct_diluted_minorant(dataclasses.replace(covering, dists=dists), 4.0)

    def test_atom_at_single_point_refused(self):
        m = covering_model(dist=BernoulliAt(0.0, 1.0, 0.3))
        dm = construct_diluted_minorant(m, 4.0)
        # two atoms are fine; the threshold must sit between them
        assert 0.0 < dm.threshold < 1.0
        assert dm.s_at_threshold == pytest.approx(0.7)


class TestFactoriesAndConfig:
    def test_factory_shapes(self, covering, cantor, geometric, slab):
        assert len(covering.centers) == 81
        assert covering.m_plus == 1.0
        assert len(geometric.centers) == 16  # +-1, 2, 4, ..., 128
        assert slab.d == 2
        assert slab.claimed_bound == 2.0
        assert cantor.claimed_gamma == pytest.approx(float(Fraction(17, 32)))

    def test_slab_envelope_two_deep(self, slab):
        env = potential_envelope(slab)
        assert float(env.values.max()) == 2.0

    # every shipped model file, so a stricter loader fails here, not in a benchmark run
    @pytest.mark.parametrize("name", sorted(path.name for path in CONFIG_DIR.glob("*.model.ini")))
    def test_shipped_configs_load(self, name):
        model = load_model_config(CONFIG_DIR / name)
        assert model.d in (1, 2)
        assert model.centers

    @pytest.mark.parametrize(
        "name, fixture",
        [
            ("covering.model.ini", "covering"),
            ("fat_cantor.model.ini", "cantor"),
            ("geometric.model.ini", "geometric"),
        ],
    )
    def test_config_matches_factory(self, name, fixture, request):
        loaded = load_model_config(CONFIG_DIR / name)
        built = request.getfixturevalue(fixture)
        assert (loaded.d, loaded.centers, loaded.profile, loaded.dists) == (
            built.d,
            built.centers,
            built.profile,
            built.dists,
        )
        assert (loaded.extent, loaded.u_resolution) == (built.extent, built.u_resolution)
        assert (loaded.claimed_gamma, loaded.claimed_window, loaded.claimed_bound) == (
            built.claimed_gamma,
            built.claimed_window,
            built.claimed_bound,
        )
        if built.claimed_set is None:
            assert loaded.claimed_set is None
        else:
            assert loaded.claimed_set.geometry == built.claimed_set.geometry
            assert np.array_equal(loaded.claimed_set.cells, built.claimed_set.cells)
        if loaded.claimed_set is not None:
            assert verify_Pi(loaded).passed
        box = _box(d=loaded.d)
        assert np.array_equal(sample_potential(loaded, 3, box), sample_potential(built, 3, box))

    def test_model_file_keys_are_build_model_keywords(self):
        # the section table is the one fact about a model file that build_model's signature does not state
        params = inspect.signature(build_model).parameters
        keys = {key for key, section in random_model._MODEL_SECTIONS.items() if section != "distribution"}
        assert keys == set(params) - {"law", "base"}
        assert all(params[key].annotation.removesuffix(" | None") in random_model.KINDS for key in keys)

    @pytest.mark.parametrize(
        "extra, keywords",
        [
            ("", {}),
            ("[thickness]\ngamma = 0.5\n", {"set": "full", "gamma": 0.5}),
            ("[thickness]\ngamma = 0.5\na = 2.0,\n", {"set": "full", "gamma": 0.5, "a": (2.0,)}),
            ("[bound]\nc_u = 2.0\n", {"c_u": 2.0}),
        ],
        ids=["required-only", "thickness-gamma-only", "blank-list-entry", "bound"],
    )
    def test_model_file_defaults_are_build_model_defaults(self, tmp_path, extra, keywords):
        path = tmp_path / "minimal.model.ini"
        path.write_text("[model]\n[sites]\n[distribution]\nkind = uniform\n" + extra)
        loaded, built = load_model_config(path), build_model(**keywords)
        for f in dataclasses.fields(AlloyModel):
            got, want = getattr(loaded, f.name), getattr(built, f.name)
            if isinstance(want, RasterSet):
                assert got.geometry == want.geometry and np.array_equal(got.cells, want.cells)
            else:
                assert got == want, f.name
        box = _box()
        assert np.array_equal(sample_potential(loaded, 3, box), sample_potential(built, 3, box))

    def test_thickness_claim_without_gamma_refused(self, tmp_path):
        # a claimed set with no gamma claims nothing that certify or the minorant could use
        with pytest.raises(ModelConfigError, match=r"set 'full' needs \[thickness\] gamma"):
            build_model(set="full")
        bad = tmp_path / "nogamma.model.ini"
        bad.write_text("[model]\n[sites]\n[distribution]\nkind = uniform\n[thickness]\nset = full\na = 1.0\n")
        with pytest.raises(ModelConfigError, match=r"nogamma\.model\.ini: .* needs \[thickness\] gamma"):
            load_model_config(bad)

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.model.ini"
        bad.write_text("[model]\ndimension = 1\nextent = 4\nbogus = 1\n")
        with pytest.raises(ModelConfigError, match="bogus"):
            load_model_config(bad)

    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad2.model.ini"
        bad.write_text("[model]\ndimension = 1\n[extras]\nx = 1\n")
        with pytest.raises(ModelConfigError, match="extras"):
            load_model_config(bad)

    def test_missing_sections_rejected(self, tmp_path):
        bad = tmp_path / "bad3.model.ini"
        bad.write_text("[model]\ndimension = 1\n")
        with pytest.raises(ModelConfigError):
            load_model_config(bad)

    @pytest.mark.parametrize(
        "kind, keys, given_law, default_law",
        [
            ("uniform", "lo = 0.25\nhi = 2.0\n", Uniform(0.25, 2.0), Uniform(0.0, 1.0)),
            ("bernoulli", "v0 = 0.25\nv1 = 2.0\np0 = 0.75\n", BernoulliAt(0.25, 2.0, 0.75), BernoulliAt(0.0, 1.0, 0.5)),
            ("truncated-power", "m_plus = 2.0\nalpha = 1.5\n", TruncatedPowerHolder(2.0, 1.5), TruncatedPowerHolder(1.0, 0.5)),
        ],
    )
    def test_every_law_kind_loads_with_all_keys_and_with_none(self, tmp_path, kind, keys, given_law, default_law):
        path = tmp_path / "law.model.ini"
        head = f"[model]\ndimension = 1\nextent = 4\n[sites]\nplacement = all-integers\n[distribution]\nkind = {kind}\n"
        path.write_text(head + keys)
        assert set(load_model_config(path).dists) == {given_law}
        path.write_text(head)
        assert set(load_model_config(path).dists) == {default_law}
        path.write_text(head + keys + "stray = 1\n")
        with pytest.raises(ModelConfigError, match=r"unknown key 'stray' in section \[distribution\]"):
            load_model_config(path)

    @pytest.mark.parametrize(
        "kind, stray",
        [("uniform", "p0 = 0.3\nalpha = 9\n"), ("bernoulli", "hi = 2.0\n"), ("truncated-power", "v1 = 2.0\n")],
    )
    def test_another_laws_key_refused(self, tmp_path, kind, stray):
        # the first stray key is named; the law's own keys may sit beside it
        bad = tmp_path / "law.model.ini"
        bad.write_text(f"[model]\ndimension = 1\nextent = 4\n[sites]\n[distribution]\nkind = {kind}\n" + stray)
        key = stray.split(" =")[0]
        with pytest.raises(ModelConfigError, match=rf"law\.model\.ini: \[distribution\] key '{key}' does not apply to kind {kind}"):
            load_model_config(bad)

    @pytest.mark.parametrize(
        "sites, thickness, named",
        [
            ("profile = cantor-translate\nradius = 3.0\n", "", "key 'radius' does not apply to profile cantor-translate"),
            ("profile = cantor-translate\nraster = nothing.rast\n", "", "key 'raster' does not apply to profile cantor-translate"),
            ("profile = indicator-ball\ncantor_depth = 3\n", "", "key 'cantor_depth' does not apply to profile indicator-ball"),
            ("profile = raster-file\nraster = b.rast\nradius = 1\n", "", "key 'radius' does not apply to profile raster-file"),
            ("set_resolution = 512\n", "", r"'set_resolution' applies only to \[thickness\] set = cantor"),
            ("set_resolution = 512\n", "[thickness]\ngamma = 1.0\nset = full\n", "'set_resolution' applies only"),
            ("profile = blob\nradius = 1.0\n", "", r"keys\.model\.ini: unknown profile kind 'blob'"),
        ],
        ids=["cantor-radius", "cantor-raster", "ball-depth", "raster-radius", "resolution-no-claim", "resolution-full-set",
             "unknown-profile"],
    )
    def test_another_profiles_key_refused(self, tmp_path, sites, thickness, named):
        bad = tmp_path / "keys.model.ini"
        bad.write_text(
            "[model]\ndimension = 1\nextent = 4\n[sites]\n" + sites + "[distribution]\nkind = uniform\n" + thickness
        )
        with pytest.raises(ModelConfigError, match=named):
            load_model_config(bad)

    def test_periodic_raster_profile_refused(self, tmp_path):
        # a periodic bump has no finite support, so no radius bounds the sites that reach a box
        save_raster(stripes_raster(0.25, 1.0, 8), tmp_path / "stripes.npz")
        bad = tmp_path / "periodic.model.ini"
        bad.write_text(
            "[model]\ndimension = 1\nextent = 4\n[sites]\nprofile = raster-file\nraster = stripes.npz\n"
            "[distribution]\nkind = uniform\n"
        )
        with pytest.raises(ModelConfigError, match=r"periodic\.model\.ini: raster-file profile stripes\.npz is periodic"):
            load_model_config(bad)

    def test_unknown_distribution_rejected(self, tmp_path):
        bad = tmp_path / "bad4.model.ini"
        bad.write_text(
            "[model]\ndimension = 1\nextent = 4\n"
            "[sites]\nplacement = all-integers\n"
            "[distribution]\nkind = cauchy\n"
        )
        with pytest.raises(ModelConfigError, match="cauchy"):
            load_model_config(bad)

    @pytest.mark.parametrize(
        "section, key, value",
        [("model", "extent", "ten"), ("model", "dimension", "1.5"), ("distribution", "hi", "1,0"),
         ("thickness", "a", "1.0, x")],
    )
    def test_unparseable_value_names_file_section_and_key(self, tmp_path, section, key, value):
        bad = tmp_path / "bad5.model.ini"
        bad.write_text(
            "[model]\ndimension = 1\nextent = 4\n"
            "[sites]\nplacement = all-integers\n"
            "[distribution]\nkind = uniform\nhi = 1.0\n"
            "[thickness]\ngamma = 1.0\na = 1.0\n".replace(f"\n{key} = ", f"\n{key} = {value}  # ", 1)
        )
        with pytest.raises(ModelConfigError, match=rf"bad5\.model\.ini: cannot parse \[{section}\] {key} = '{value}'"):
            load_model_config(bad)

    @pytest.mark.parametrize(
        "section, key, value",
        [("model", "extent", "nan"), ("model", "extent", "inf"), ("sites", "radius", "-inf"),
         ("distribution", "hi", "NaN"), ("thickness", "gamma", "inf"), ("thickness", "a", "1.0, nan")],
    )
    def test_non_finite_value_names_file_section_and_key(self, tmp_path, section, key, value):
        # every float of a model file goes through the run files' finite parser
        bad = tmp_path / "bad6.model.ini"
        bad.write_text(
            "[model]\ndimension = 1\nextent = 4\n"
            "[sites]\nplacement = all-integers\nradius = 0.5\n"
            "[distribution]\nkind = uniform\nhi = 1.0\n"
            "[thickness]\ngamma = 1.0\na = 1.0\n".replace(f"\n{key} = ", f"\n{key} = {value}  # ", 1)
        )
        with pytest.raises(ModelConfigError, match=rf"bad6\.model\.ini: cannot parse \[{section}\] {key} = '{value}'"):
            load_model_config(bad)


# ---------------------------------------------------------------------------
# the cached profile matrix against the per-site loop it replaced


def _loop_potential(model, box, coupling):
    """Sum of coupling(j) * u_j over the sites near the box, one site at a time."""
    nodes = box.nodes()
    v = np.zeros(box.ndof)
    for i in model.sites_near_box(box):
        c = coupling(i)
        if c != 0.0:
            v += c * model.profile.evaluate(nodes, model.centers[i])
    return v


@pytest.fixture(scope="module")
def raster_bump(tmp_path_factory):
    # a ragged 1.5-wide raster bump, so neighbouring sites overlap
    geo = RasterGeometry(origin=(-0.75,), extent=(1.5,), resolution=(8,), periodic=False)
    cells = np.array([1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1, 0], dtype=bool)
    folder = tmp_path_factory.mktemp("raster_model")
    save_raster(RasterSet(geometry=geo, cells=cells), folder / "bump.npz")
    (folder / "bump.model.ini").write_text(
        "[model]\ndimension = 1\nextent = 20\nresolution = 16\n"
        "[sites]\nprofile = raster-file\nraster = bump.npz\nplacement = all-integers\n"
        "[distribution]\nkind = truncated-power\nm_plus = 2.0\nalpha = 0.5\n"
    )
    return load_model_config(folder / "bump.model.ini")


@st.composite
def _draw_case(draw):
    name = draw(st.sampled_from(["covering", "cantor", "geometric", "slab", "raster_bump"]))
    d = 2 if name == "slab" else 1
    L = draw(st.sampled_from([1.0, 2.0, 4.0, 8.0]))
    span = 6 if name in ("slab", "raster_bump") else 28
    center = tuple(draw(st.integers(-2 * span, 2 * span)) / 4.0 for _ in range(d))
    n = draw(st.integers(3, 16 if d == 2 else 90))
    seed = draw(st.one_of(st.integers(0, 2**31), st.tuples(st.integers(0, 999), st.integers(0, 999))))
    mode = draw(st.sampled_from(["plain", "cap", "override"]))
    knob = draw(st.floats(0.05, 1.5) if mode == "cap" else st.floats(-2.0, 2.0))
    return name, BoxSpec(d=d, length=L, center=center, n=n), seed, mode, knob


@given(case=_draw_case())
@settings(max_examples=120, deadline=None)
def test_profile_matrix_matches_per_site_loop(case, covering, cantor, geometric, slab, raster_bump):
    name, box, seed, mode, knob = case
    model = {"covering": covering, "cantor": cantor, "geometric": geometric, "slab": slab, "raster_bump": raster_bump}[name]
    # a tuple key sweeps replicas across the edges of the 64-replica draw blocks
    keys = [seed] if isinstance(seed, int) else [seed] + [(seed[0], r) for r in (0, 63, 64, 65, 128)]
    for key in keys:
        u = functools.partial(_numpy_uniform, key)
        if mode == "plain":
            got = sample_potential(model, key, box)
            want = _loop_potential(model, box, lambda i: float(model.dists[i]._from_uniform(float(u(i)))))
        elif mode == "cap":
            got = sample_potential(model, key, box, conditioning_cap=knob)
            want = _loop_potential(model, box, lambda i: float(model.dists[i]._from_uniform(float(u(i)), knob)))
        else:
            got = sample_potential(model, key, box, couplings_override=knob)
            want = _loop_potential(model, box, lambda i: knob)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), key
    mean = _loop_potential(model, box, lambda i: model.dists[i].mean)
    assert mean_potential(model, box).tobytes() == mean.tobytes()


def test_slab_balls_overlap_two_deep(slab):
    # nodes between neighbouring sites carry two couplings, summed in site order
    box = BoxSpec(d=2, length=3.0, center=(0.0, 0.5), n=23)
    v = sample_potential(slab, 4, box)
    want = _loop_potential(slab, box, lambda i: float(slab.dists[i]._from_uniform(float(_row_uniforms((), (4,), (i,))[0, 0]))))
    assert v.tobytes() == want.tobytes()
    near = slab.sites_near_box(box)
    depth = sum(slab.profile.evaluate(box.nodes(), slab.centers[i]) for i in near)
    assert depth.max() == 2.0


def _scalar_coupling(law, u, cap):
    """Each law's scalar map of one Python-float uniform, plain or conditioned below cap."""
    if isinstance(law, Uniform):
        return law.lo + u * ((law.hi if cap is None else min(cap, law.hi)) - law.lo)
    if isinstance(law, BernoulliAt):
        return (law.v0 if u < law.p0 else law.v1) if cap is None else _accumulated_atom(law, u, cap)
    return law.m_plus * (u if cap is None else u * law.cdf(cap)) ** (1.0 / law.alpha)


_LAW_POOL = (
    Uniform(0.2, 1.7), Uniform(-0.5, 0.5), BernoulliAt(0.0, 1.0, 0.3), BernoulliAt(2.0, -1.0, 0.6),
    TruncatedPowerHolder(2.0, 0.5), TruncatedPowerHolder(1.0, 3.0),
)


@st.composite
def _law_case(draw):
    d = draw(st.sampled_from([1, 2]))
    model = build_model(dimension=d, extent=6.0 if d == 1 else 3.0, radius=0.5 if d == 1 else 0.75)
    n_sites = len(model.centers)
    if draw(st.booleans()):  # one law at every site, or a law per site
        dists = (draw(st.sampled_from(_LAW_POOL)),) * n_sites
    else:
        dists = tuple(draw(st.lists(st.sampled_from(_LAW_POOL), min_size=n_sites, max_size=n_sites)))
    L = draw(st.sampled_from([1.0, 2.0, 4.0] if d == 1 else [1.0, 2.0]))
    reach = (6.0 - 0.5 if d == 1 else 3.0 - 0.75) - L / 2
    center = tuple(draw(st.integers(-int(4 * reach), int(4 * reach))) / 4.0 for _ in range(d))
    box = BoxSpec(d=d, length=L, center=center, n=draw(st.integers(3, 40 if d == 1 else 12)))
    stem = draw(st.integers(0, 2**40))
    # replica keys across the edges of the 64-replica blocks, and keys whose last word is no replica index
    key = draw(st.sampled_from([(stem, 0), (stem, 63), (stem, 64), (stem, 130), stem, (stem, (1, 2)), (stem,)]))
    cap = draw(st.one_of(st.none(), st.floats(-1.0, 2.0)))
    return dataclasses.replace(model, dists=dists), box, key, cap


@given(case=_law_case())
@settings(max_examples=150, deadline=None)
def test_sampled_potential_is_each_laws_scalar_map_of_numpys_uniform(case):
    model, box, key, cap = case
    sites = model.sites_near_box(box)
    if cap is not None and any(model.dists[i].cdf(cap) == 0.0 for i in sites):
        with pytest.raises(ModelError, match="leaves no mass below it"):
            sample_potential(model, key, box, conditioning_cap=cap)
        return
    got = sample_potential(model, key, box, conditioning_cap=cap)
    want = _loop_potential(model, box, lambda i: _scalar_coupling(model.dists[i], _numpy_uniform(key, i), cap))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def _block_case(draw):
    """A model (one law, or a law per site), a d=1 or d=2 box, a cap or none, a seed of one or more
    words, and a block of (replica, override) draws: consecutive replicas from a start that may
    straddle replicas 63/64, some overridden, with far replicas mixed in."""
    model, box, _, cap = draw(_law_case())
    seed = draw(st.one_of(st.integers(0, 2**40), st.tuples(st.integers(0, 9), st.integers(0, 2**33)), st.just(())))
    start = draw(st.sampled_from([0, 1, 40, 63, 64, 120]))
    rows = list(range(start, start + draw(st.integers(1, 70))))
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from([0, 3, start, 200, 2**32 - 1])))
    overrides = draw(st.lists(st.sampled_from([None, None, None, 0.0, 0.75, -1.5]), min_size=len(rows), max_size=len(rows)))
    return model, box, cap, seed, list(zip(rows, overrides))


@given(case=_block_case())
@settings(max_examples=120, deadline=None)
def test_a_block_of_draws_is_the_column_stack_of_single_draws(case):
    model, box, cap, seed, draws = case
    sites = model.sites_near_box(box)
    refused = cap is not None and any(model.dists[i].cdf(cap) == 0.0 for i in sites)
    if refused and any(override is None for _, override in draws):
        with pytest.raises(ModelError, match="leaves no mass below it"):
            sample_potentials(model, seed, draws, box, conditioning_cap=cap)
        return
    V = sample_potentials(model, seed, draws, box, conditioning_cap=cap)
    singles = [sample_potential(model, (seed, r), box, conditioning_cap=cap, couplings_override=o) for r, o in draws]
    want = np.column_stack(singles)
    assert V.shape == want.shape == (box.ndof, len(draws)) and V.dtype == want.dtype
    assert np.array_equal(V.view(np.int64), want.view(np.int64))
    # the block's first and last drawn columns against numpy's scalar stream
    drawn = [r for r, (_, override) in enumerate(draws) if override is None]
    for r in drawn[:1] + drawn[-1:]:
        key = tuple(_words((seed, draws[r][0])))
        oracle = _loop_potential(model, box, lambda i: _scalar_coupling(model.dists[i], _numpy_uniform(key, i), cap))
        assert V[:, r].tobytes() == oracle.tobytes()
    # the block's operators: each diagonal is the per-draw chain's, bit for bit, read-only, on the box's stencil
    free = build_free_laplacian(box)
    block = add_potentials(free, V)
    assert len(block.operators) == len(draws) and not block.diag.flags.writeable
    for r, (H, v) in enumerate(zip(block.operators, singles)):
        single = add_potential(free, v)
        assert np.array_equal(H.diag.view(np.int64), single.diag.view(np.int64))
        assert np.array_equal(block.diag[:, r].view(np.int64), single.diag.view(np.int64))
        assert H.stencil is free.stencil and not H.diag.flags.writeable


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_block_with_a_non_finite_potential_is_refused(covering, bad):
    box = _box(L=4.0, n=63)
    draws = [(r, None) for r in range(60, 68)]
    draws[3] = (63, bad)
    V = sample_potentials(covering, 5, draws, box)
    free = build_free_laplacian(box)
    with pytest.raises(GridError, match="potential contains non-finite entries"):
        add_potentials(free, V)
    with pytest.raises(GridError, match="potential contains non-finite entries"):
        add_potential(free, V[:, 3])
    add_potentials(free, np.delete(V, 3, axis=1))  # the finite draws alone are accepted


def test_a_draw_mixes_its_own_row_at_every_box_size(covering, monkeypatch):
    random_model._row_uniforms.cache_clear()
    stem, mixed = (918273,), []
    pool_uniforms = random_model._pool_uniforms

    def counted(words, sites):
        mixed.append(words.tolist())
        return pool_uniforms(words, sites)

    monkeypatch.setattr(random_model, "_pool_uniforms", counted)
    draws = [sample_potential(covering, stem + (70,), _box(L=L, n=int(16 * L) - 1)) for L in (4.0, 8.0)]
    assert mixed == [[[918273, 70]]] * 2  # one key, one row, for each size's sites
    for L, draw in zip((4.0, 8.0), draws):  # each size's draw is the per-site oracle's
        box = _box(L=L, n=int(16 * L) - 1)
        want = _loop_potential(covering, box, lambda i: covering.dists[i]._from_uniform(_numpy_uniform(stem + (70,), i)))
        assert draw.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# a block's replicas of one seed read from one pass over exactly its rows


def test_row_uniforms_are_numpys_first_uniforms_of_their_keys():
    random_model._row_uniforms.cache_clear()
    sites = (0, 5, 17, 2**32 - 1)
    rows = (0, 130, 64, 5, 2**32 - 1, 5)
    u = random_model._row_uniforms((77, 3), rows, sites)
    assert u.shape == (6, 4) and u.tolist() == [[_numpy_uniform((77, 3, r), j) for j in sites] for r in rows]
    assert not u.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        u[0, 0] = 0.5
    assert random_model._row_uniforms((77, 3), rows, sites) is u  # kept


_SEEDS = st.one_of(
    st.sampled_from([5, 2**32 - 1, (), (5, 6)]),
    st.integers(0, 2**70),  # one to three words
    st.tuples(st.tuples(st.just(5)), st.integers(0, 2**40)),  # nested
    st.tuples(st.integers(0, 2**63 - 1).map(np.int64)),  # np.int64 words
)


@given(seed=_SEEDS, rows=st.lists(st.one_of(st.integers(0, 400), st.just(2**32 - 1)), min_size=1, max_size=40),
       int64=st.booleans())
@settings(max_examples=100, deadline=None)
def test_couplings_read_every_row_of_every_stem(seed, rows, int64):
    # the seed is split once into the stem; every row, near or far apart, in any order
    sites = (0, 3, 64, 1000)
    stem = tuple(random_model._key_words(seed))
    assert list(stem) == _words(seed)
    given_rows = np.array(rows, dtype=np.int64) if int64 else rows
    got = _couplings(((Uniform(0.0, 1.0), slice(None)),), stem, given_rows, sites)  # 0.0 + u * 1.0 is u
    assert got.tolist() == [[_numpy_uniform(stem + (r,), j) for j in sites] for r in rows]


# ---------------------------------------------------------------------------
# profiles evaluated on their support only, against full evaluation


def _raster_profile(d):
    """A ragged raster bump, off centre, so its far corner sets its radius."""
    geo = RasterGeometry(origin=(-0.75,) + (-0.5,) * (d - 1), extent=(1.25,) + (1.0,) * (d - 1), resolution=(8,) * d,
                         periodic=False)
    return RasterProfile(RasterSet(geometry=geo, cells=np.random.default_rng(d).random(geo.shape) < 0.6))


_PATCH_MODELS = {
    "ball-1d": lambda: build_model(extent=5.0, radius=0.5),  # half open: [c - 1/2, c + 1/2)
    "ball-1d-wide": lambda: build_model(extent=5.0, radius=1.25),
    "ball-2d": lambda: build_model(dimension=2, extent=3.0, radius=0.75),
    "cantor": lambda: build_model(extent=5.0, profile="cantor-translate", cantor_depth=3),
    "raster-1d": lambda: dataclasses.replace(build_model(extent=5.0), profile=_raster_profile(1)),
    "raster-2d": lambda: dataclasses.replace(build_model(dimension=2, extent=3.0), profile=_raster_profile(2)),
}


@st.composite
def _patch_case(draw):
    name = draw(st.sampled_from(sorted(_PATCH_MODELS)))
    model = _PATCH_MODELS[name]()
    d = model.d
    L = draw(st.sampled_from([1.0, 2.0, 3.0]))
    center = tuple(draw(st.integers(-6, 6)) / 4.0 for _ in range(d))
    # n = 4L - 1 puts Dirichlet nodes on the quarter points, where half-open ball ends fall
    n = draw(st.one_of(st.just(int(4 * L) - 1), st.integers(2, 12 if d == 2 else 60)))
    bc = draw(st.sampled_from(["dirichlet", "neumann", "periodic"]))
    return name, model, BoxSpec(d=d, length=L, center=center, n=n, bc=bc)


@given(case=_patch_case())
@settings(max_examples=80, deadline=None)
def test_profiles_on_their_patches_are_the_full_evaluation(case):
    name, model, box = case
    nodes, near = box.nodes(), model.sites_near_box(box)
    full = [model.profile.evaluate(nodes, model.centers[i]) for i in near]
    axes = [box.axis_nodes(k) for k in range(box.d)]
    for u, (at, patch) in zip(full, random_model._profile_patches(model, axes, near)):
        assert np.all(np.diff(at) > 0)
        off = np.ones(box.ndof, dtype=bool)
        off[at] = False
        assert not u[off].any(), name
        assert u[at].tobytes() == patch.tobytes()
    # P holds the full evaluation's nonzeros, in its order
    _, P, _ = random_model._box_profiles.__wrapped__(model, box)
    want = sp.csr_matrix(np.column_stack(full) if full else np.zeros((box.ndof, 0)))
    assert np.array_equal(P.indptr, want.indptr) and np.array_equal(P.indices, want.indices)
    assert P.data.tobytes() == want.data.tobytes()
    # the envelope: every site's full evaluation summed in site order, bit for bit
    pts = random_model.registration_geometry(model).centers()
    total = np.zeros(pts.shape[0])
    for c in model.centers:
        total += model.profile.evaluate(pts, c)
    assert potential_envelope(model).values.ravel().tobytes() == total.tobytes()


# ---------------------------------------------------------------------------
# the minorant's fields for a list of keys against the per-draw loop


@pytest.mark.parametrize("name", ["covering", "cantor", "covering-bernoulli"])
def test_minorant_fields_are_the_per_draw_loop(name, covering, cantor):
    model = {"covering": covering, "cantor": cantor}.get(name)
    if model is None:  # half the cells fall below the threshold
        model = dataclasses.replace(covering, dists=(BernoulliAt(0.0, 1.0, 0.5),) * len(covering.centers))
    dm = construct_diluted_minorant(model, 4.0)
    box = _box(L=8.0, n=127)
    nodes = box.nodes()
    for seed, rows in ((13, range(70)), ((6, 2**40), [64, 5, 2**32 - 1])):
        W = dm.sample_on(model, box, seed, rows)
        assert W.shape == (box.ndof, len(rows))
        for r, w in zip(rows, W.T):
            key = tuple(_words((seed, r)))
            want = np.zeros(box.ndof)
            for cell in dm.cells:
                pi = model.dists[cell.site_index]._from_uniform(_numpy_uniform(key, cell.site_index))
                if pi >= dm.threshold:
                    want += dm.threshold * dm.weight * cell.kept.contains(nodes).astype(float)
            assert w.tobytes() == want.tobytes(), key
