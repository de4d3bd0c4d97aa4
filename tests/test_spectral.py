"""Eigenvalue counting, bounded eigensolves, resolvent blocks, compressions.

Counting is cross-checked against dense LAPACK spectra on small problems and
against the closed-form discrete Dirichlet levels where those apply.  The
iterative path is forced explicitly so method dispatch cannot hide it.
"""

import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wegner_lab import spectral
from wegner_lab.grids import (
    BoxSpec,
    DiscreteHamiltonian,
    Stencil,
    add_potential,
    add_potentials,
    build_free_laplacian,
    discrete_dirichlet_spectrum,
)
from wegner_lab.random_model import load_model_config, sample_potential
from wegner_lab.spectral import (
    INERTIA_DENSE_LIMIT,
    EigensolverError,
    ResonantSampleError,
    _eigs_dense,
    _eigs_lanczos,
    _eigs_tridiagonal,
    block_sturm_count,
    compressed_indicator_min_eig,
    count_in_interval,
    count_windows,
    eigs_below,
    inertia_count,
    resolvent_block_norm,
    sturm_count,
)
from wegner_lab.thick_sets import stripes_raster

from helpers import diagonal_hamiltonian

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _random_operator(d, n, length, seed, amplitude=1.0):
    box = BoxSpec(d=d, length=length, center=(0.0,) * d, n=n)
    rng = np.random.default_rng(seed)
    return box, add_potential(
        build_free_laplacian(box), rng.uniform(0.0, amplitude, size=box.ndof)
    )


class TestSturmCount:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_count_strictly_below(self, seed, n):
        rng = np.random.default_rng(seed)
        diag = rng.normal(scale=3.0, size=n)
        off = rng.normal(size=n - 1)
        ev = sla.eigvalsh_tridiagonal(diag, off)
        probes = [ev[0] - 1.0, ev[-1] + 1.0]
        probes += [0.5 * (a + b) for a, b in zip(ev, ev[1:]) if b - a > 1e-9]
        for x in probes:
            assert sturm_count(diag, off, x) == int(np.count_nonzero(ev < x))

    def test_multiple_eigenvalue_counts_all_copies(self):
        diag = np.full(5, 2.0)
        off = np.zeros(4)
        assert sturm_count(diag, off, 2.0) == 0
        assert sturm_count(diag, off, 2.0 + 1e-9) == 5

    def test_probe_exactly_on_eigenvalue_stays_strict(self):
        # 2x2 with spectrum {-1, 1}; a zero pivot appears mid-recursion
        diag = np.zeros(2)
        off = np.ones(1)
        assert sturm_count(diag, off, 1.0) == 1
        assert sturm_count(diag, off, -1.0) == 0


def _ndarray_sturm(diag, off, x):
    """The recurrence as it ran on numpy scalars before moving to Python floats."""
    count = 0
    q = diag[0] - x
    if q == 0.0:
        q = 1e-300
    if q < 0.0:
        count += 1
    for i in range(1, diag.shape[0]):
        q = (diag[i] - x) - off[i - 1] * off[i - 1] / q
        if q == 0.0:
            q = 1e-300
        if q < 0.0:
            count += 1
    return count


class TestSturmFloatLoop:
    def test_one_unknown_counts_strictly_below(self):
        diag, off = np.array([2.0]), np.array([])
        assert [sturm_count(diag, off, x) for x in (1.0, 2.0, np.nextafter(2.0, 3.0))] == [0, 0, 1]

    @given(
        st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=40),
        st.lists(st.floats(-3.0, 3.0), min_size=39, max_size=39),
        st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_ndarray_recurrence(self, d, o, probes):
        diag = np.array(d)
        off = np.array(o[: len(d) - 1])
        # probes on the diagonal values themselves force zero pivots and ties
        for x in list(probes) + list(d[:3]):
            with np.errstate(over="ignore"):  # a 1e-300 pivot can overflow the next quotient
                want = _ndarray_sturm(diag, off, np.float64(x))
            assert sturm_count(diag, off, x) == want

    @given(st.integers(0, 2**32 - 1), st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_eigvalsh(self, seed, n):
        rng = np.random.default_rng(seed)
        diag = rng.normal(scale=4.0, size=n)
        off = rng.normal(size=n - 1)
        ev = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        gaps = np.concatenate([[1.0], np.diff(ev), [1.0]])
        probes = [p for p in rng.uniform(ev[0] - 1.0, ev[-1] + 1.0, size=8) if np.min(np.abs(ev - p)) > 1e-9]
        probes += [0.5 * (a + b) for a, b, g in zip(ev, ev[1:], gaps[1:-1]) if g > 1e-9]
        for x in probes:
            assert sturm_count(diag, off, x) == int(np.count_nonzero(ev < x))

    def test_inertia_uses_operator_bands(self):
        _, H = _random_operator(1, 50, 5.0, seed=3, amplitude=4.0)
        diag, off = H.tridiagonal()
        assert H.tridiagonal()[0] is diag
        for x in (0.0, 10.0, 200.0, 3000.0):
            assert inertia_count(H, x) == _ndarray_sturm(diag, off, x)


@st.composite
def _lane_problem(draw):
    """Diagonals (one per column) sharing an off-diagonal, and shifts on their
    eigenvalues, on eigenvalues of their leading sub-matrices (zero pivots)
    and at diag[0] (a zero first pivot)."""
    n = draw(st.integers(2, 64))
    R = draw(st.integers(1, 6))
    S = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # small integers hit pivots of exactly zero, and decouple at zero couplings
        off = rng.integers(-1, 2, size=n - 1).astype(float)
        diag = rng.integers(-2, 4, size=(n, R)).astype(float)
    else:
        off = rng.normal(size=n - 1)
        diag = rng.normal(scale=3.0, size=(n, R))
    candidates = list(rng.uniform(-6.0, 6.0, size=4))
    for r in range(R):
        T = np.diag(diag[:, r]) + np.diag(off, 1) + np.diag(off, -1)
        k = int(rng.integers(1, n + 1))
        candidates += list(np.linalg.eigvalsh(T[:k, :k])) + list(np.linalg.eigvalsh(T)) + [diag[0, r]]
    return diag, off, rng.choice(np.array(candidates), size=S)


def _loop_counts(diag, off, shifts):
    with np.errstate(over="ignore"):  # a 1e-300 pivot can overflow the next quotient
        return np.array([[_ndarray_sturm(diag[:, r], off, x) for x in shifts] for r in range(diag.shape[1])])


def _counting_lanes(monkeypatch):
    """The list that gets one entry per _sturm_lanes call from now on."""
    calls = []
    real = spectral._sturm_lanes
    monkeypatch.setattr(spectral, "_sturm_lanes", lambda *a: calls.append(1) or real(*a))
    return calls


class TestSturmLanes:
    @given(_lane_problem())
    @settings(max_examples=200, deadline=None)
    def test_lanes_match_the_loop_and_the_dense_count(self, problem):
        diag, off, shifts = problem
        lanes = spectral._sturm_lanes(diag, off * off, shifts)
        assert lanes.shape == (diag.shape[1], shifts.shape[0])
        assert np.array_equal(lanes, _loop_counts(diag, off, shifts))
        for r in range(diag.shape[1]):
            ev = np.linalg.eigvalsh(np.diag(diag[:, r]) + np.diag(off, 1) + np.diag(off, -1))
            for s, x in enumerate(shifts):
                if np.min(np.abs(ev - x)) > 1e-9 * max(1.0, abs(x)):
                    assert lanes[r, s] == int(np.count_nonzero(ev < x))

    @given(_lane_problem(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_counts_ahead_match_count_in_interval(self, problem, data):
        diag, _, shifts = problem
        n, R = diag.shape
        # unit spacing: couplings -1 and integer diagonals keep exact zero pivots
        box = BoxSpec(d=1, length=float(n + 1), center=(0.0,), n=n)
        free = build_free_laplacian(box)
        ends = st.sampled_from(sorted(set(shifts.tolist())))
        windows = data.draw(st.lists(st.tuples(st.one_of(st.just(-math.inf), ends), ends), min_size=1, max_size=6))
        # the loop, operator by operator, against the block's lanes
        want = [[count_in_interval(add_potential(free, diag[:, r]), lo, hi) for lo, hi in windows] for r in range(R)]
        block = add_potentials(free, diag)
        got = count_windows(block, windows)
        assert [list(counts) for counts in got] == want
        assert [[count_in_interval(H, lo, hi) for lo, hi in windows] for H in block.operators] == want

    @given(_lane_problem(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_resolvent_lanes_match_resolvent_block_norm(self, problem, data):
        diag, _, _ = problem
        n, R = diag.shape
        free = build_free_laplacian(BoxSpec(d=1, length=float(n + 1), center=(0.0,), n=n))
        alone = [add_potential(free, diag[:, r]) for r in range(R)]
        # z is an eigenvalue of one lane's operator, up to rounding
        hit = data.draw(st.integers(0, R - 1))
        z = data.draw(st.sampled_from(sla.eigvalsh(alone[hit].matrix.toarray()).tolist()))
        picks = np.array(data.draw(st.permutations(range(n))))
        p = data.draw(st.integers(1, n - 1))
        q = data.draw(st.integers(1, n - p))
        rows, cols = np.sort(picks[:p]), np.sort(picks[p : p + q])

        def one(H):
            try:
                return resolvent_block_norm(H, z, rows, cols)
            except ResonantSampleError:
                return None

        want = [one(H) for H in alone]
        block = add_potentials(free, diag)
        got = spectral.resolvent_norms(block, z, rows, cols)
        assert got[hit] is None and want[hit] is None
        assert got == want  # every other lane bit for bit, floats compared exactly
        with pytest.raises(ValueError, match="blocks overlap"):
            spectral.resolvent_norms(block, z, rows, np.append(cols, rows[0]))

    @pytest.mark.parametrize("R", [1, 2, 31, 32, 200])
    def test_every_block_counts_ahead_in_one_lane_pass(self, R, monkeypatch):
        free = build_free_laplacian(BoxSpec(d=1, length=5.0, center=(0.0,), n=80))
        V = np.random.default_rng(R).uniform(0.0, 20.0, size=(80, R))
        want = [count_in_interval(add_potential(free, v), -math.inf, 40.0) for v in V.T]
        norms = [resolvent_block_norm(add_potential(free, v), 5.0, np.array([0]), np.array([79])) for v in V.T]
        calls = _counting_lanes(monkeypatch)
        block = add_potentials(free, V)
        # one window end: R lanes, whatever R is
        assert count_windows(block, [(-math.inf, 40.0)]) == [(count,) for count in want]
        assert len(calls) == 1
        # the two resonance shifts: 2R lanes, one more pass
        assert spectral.resolvent_norms(block, 5.0, np.array([0]), np.array([79])) == norms
        assert len(calls) == 2

    @pytest.mark.parametrize("d", [1, 2])
    def test_a_line_block_builds_no_operator_to_count(self, d, monkeypatch):
        box = BoxSpec(d=d, length=3.0, center=(0.0,) * d, n=7)
        free = build_free_laplacian(box)
        V = np.random.default_rng(d).uniform(0.0, 3.0, size=(box.ndof, 5))
        windows = [(1.0, 9.0), (-math.inf, 4.0)]
        want = [tuple(count_in_interval(add_potential(free, v), lo, hi) for lo, hi in windows) for v in V.T]
        built = []
        init = DiscreteHamiltonian.__init__
        monkeypatch.setattr(DiscreteHamiltonian, "__init__", lambda H, *args: built.append(H) or init(H, *args))
        assert count_windows(add_potentials(free, V), windows) == want
        # a d=2 block counts operator by operator, so it builds each one
        assert len(built) == (0 if d == 1 else 5)

    @pytest.mark.parametrize("R", [1, 3])
    def test_a_plane_block_never_counts_ahead(self, R, monkeypatch):
        box = BoxSpec(d=2, length=3.0, center=(0.0, 0.0), n=7)
        V = np.random.default_rng(R).uniform(0.0, 3.0, size=(box.ndof, R))
        rows, cols = box.node_block((-1.5, -1.5), (-0.5, 1.5)), box.node_block((0.5, -1.5), (1.5, 1.5))
        alone = [add_potential(build_free_laplacian(box), v) for v in V.T]
        want = [count_in_interval(H, 1.0, 40.0) for H in alone]
        norms = [resolvent_block_norm(H, 0.5, rows, cols) for H in alone]
        calls = _counting_lanes(monkeypatch)
        block = add_potentials(build_free_laplacian(box), V)
        assert count_windows(block, [(1.0, 40.0)]) == [(count,) for count in want]
        assert spectral.resolvent_norms(block, 0.5, rows, cols) == norms
        assert not calls

    def test_a_count_of_one_operator_runs_the_loop(self, monkeypatch):
        _, H = _random_operator(1, 127, 8.0, seed=2, amplitude=3.0)
        calls = _counting_lanes(monkeypatch)
        assert inertia_count(H, 5.0) == sturm_count(*H.tridiagonal(), 5.0)
        assert count_in_interval(H, 1.0, 5.0) == inertia_count(H, 5.0 + 5e-12) - inertia_count(H, 1.0 - 5e-12)
        assert not calls


def _zero_pivot_bands(zeros, x, off):
    """An integer diagonal whose Sturm pivots at the integer shift x, with couplings
    off in {0, +-1, +-2**14}, are exactly zero at the steps in zeros and +-1 at the
    others, and the steps at which they are zero.  A zero pivot taken as 1e-300
    makes the next pivot about -c*c*1e300 (-inf once that overflows) when the
    coupling c is not zero, whatever the diagonal, so the next zero can come
    three steps later."""
    diag, hit, q = [], [], None
    o2 = [c * c for c in off.tolist()]  # Python floats overflow to inf without a warning
    for i in range(len(o2) + 1):
        ratio = 0.0 if q is None else o2[i - 1] / q
        target = 0.0 if i in zeros else (1.0 if i % 3 else -1.0)
        diag.append(float(x) if abs(ratio) > 1e200 else x + target + ratio)  # else ratio is an integer or tiny
        q = (diag[-1] - x) - ratio
        if q == 0.0:
            hit.append(i)
            q = 1e-300
    return np.array(diag), hit


_COUPLINGS = {"unit": [1.0], "overflow": [2.0**14], "mixed": [1.0, 0.0, -(2.0**14), -1.0]}  # 2**28 / 1e-300 overflows


class TestChunkedLanes:
    """_sturm_lanes runs its steps in chunks and reruns a chunk with a zero pivot; the counts stay the loop's."""

    @pytest.mark.parametrize("couplings", sorted(_COUPLINGS))
    @pytest.mark.parametrize(
        "n, zeros",
        [
            (1, {0}),
            (7, {0, 3, 6}),
            (8, {7}),
            (9, {8}),
            (16, {0, 3, 8, 11, 15}),
            (27, {8, 12, 15, 23, 26}),
            (40, {2, 5, 23, 31, 39}),
        ],
    )
    def test_zero_pivots_anywhere_in_a_chunk(self, n, zeros, couplings):
        assert spectral._STURM_CHUNK == 8  # the cases put zeros at the first, a middle and the last step of a chunk
        off = np.resize(_COUPLINGS[couplings], n - 1)
        built, hit = _zero_pivot_bands(zeros, 2, off)
        assert hit == sorted(zeros)
        rng = np.random.default_rng(n)
        # other lanes beside the constructed one: other shifts, and integer diagonals of their own
        diag = np.column_stack([built, rng.integers(-2, 4, size=n).astype(float), built[::-1]])
        shifts = np.array([2.0, 1.0, 2.5, -3.0, 4.0])
        lanes = spectral._sturm_lanes(diag, off * off, shifts)
        assert np.array_equal(lanes, _loop_counts(diag, off, shifts))

    @given(n=st.integers(1, 45), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_integer_bands_of_any_length(self, n, data):
        zeros = set(data.draw(st.lists(st.integers(0, n - 1), max_size=6)))
        off = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, -1.0, 2.0**14]), min_size=n - 1, max_size=n - 1)))
        built, _ = _zero_pivot_bands(zeros, 1, off)
        R = data.draw(st.integers(1, 5))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        diag = np.column_stack([built] + [rng.integers(-2, 4, size=n).astype(float) for _ in range(R - 1)])
        shifts = np.array(data.draw(st.lists(st.integers(-4, 5), min_size=1, max_size=6)), dtype=float)
        assert np.array_equal(spectral._sturm_lanes(diag, off * off, shifts), _loop_counts(diag, off, shifts))

    @pytest.mark.parametrize("lanes", [1, 31, 32])
    def test_blocks_of_any_size_count_zero_pivots_ahead(self, lanes):
        # unit spacing: the free stencil couples by -1 and has 2 on the diagonal, so the bands are integers
        n = 21
        free = build_free_laplacian(BoxSpec(d=1, length=float(n + 1), center=(0.0,), n=n))
        built, hit = _zero_pivot_bands({0, 8, 12, 20}, 1, -np.ones(n - 1))
        assert hit == [0, 8, 12, 20]
        rng = np.random.default_rng(lanes)
        columns = [built] + [rng.integers(-2, 4, size=n).astype(float) for _ in range(lanes - 1)]
        block = add_potentials(free, np.column_stack(columns) - 2.0)
        # a window whose upper end is nudged onto the integer shift 1, where the pivots are exactly zero
        hi = 1.0 - 1e-12
        assert spectral._window_ends(-math.inf, hi) == [(1.0, 1)]
        assert count_windows(block, [(-math.inf, hi)]) == [(sturm_count(v, -np.ones(n - 1), 1.0),) for v in columns]


class TestInertiaCount:
    def test_tridiagonal_route_matches_dense(self):
        box, H = _random_operator(1, 60, 6.0, seed=21, amplitude=5.0)
        ev = sla.eigvalsh(H.matrix.toarray())
        for x in (ev[0] - 0.5, 3.0, 11.0, 40.0, ev[-1] + 1.0):
            assert inertia_count(H, x) == int(np.count_nonzero(ev < x))

    def test_factorization_route_matches_dense(self):
        box, H = _random_operator(2, 12, 2.0, seed=4, amplitude=3.0)
        assert not H.is_tridiagonal and box.ndof <= 4096
        ev = sla.eigvalsh(H.matrix.toarray())
        for x in (ev[0] - 1.0, ev[3] + 1e-6, 25.0, 80.0, ev[-1] + 1.0):
            assert inertia_count(H, x) == int(np.count_nonzero(ev < x))

    def test_indefinite_shift_exercises_block_pivots(self):
        # a shift deep inside the spectrum leaves the Schur blocks of this
        # Dirichlet box indefinite, so the block Sturm count sums signs of both kinds
        box, H = _random_operator(2, 9, 2.0, seed=8)
        ev = sla.eigvalsh(H.matrix.toarray())
        mid = float(np.median(ev)) + 1e-7
        assert inertia_count(H, mid) == int(np.count_nonzero(ev < mid))

    def test_free_plane_past_the_old_dense_limit_counts_exactly(self):
        # past the old dense LDL limit the block Sturm count is still exact
        box = BoxSpec(d=2, length=1.0, center=(0.5, 0.5), n=70)
        H = build_free_laplacian(box)
        assert box.ndof > 4096
        levels = discrete_dirichlet_spectrum(box)
        with np.errstate(all="raise"):  # 69 Schur steps at h^-4 = 2.5e7 must not overflow
            for x in (30.0, 500.0, 2.0e4):
                assert inertia_count(H, x) == int(np.count_nonzero(levels < x))


def _sub_box_levels(H, leading):
    """Eigenvalues of every leading (or trailing) run of first-axis slices."""
    A = H.matrix.toarray()
    n = H.box.n
    m = H.box.ndof // n
    cuts = [slice(0, k * m) if leading else slice((n - k) * m, n * m) for k in range(1, n)]
    return np.concatenate([np.linalg.eigvalsh(A[c, c]) for c in cuts])


@st.composite
def _block_operator(draw):
    """d=2 or d=3 open boxes: the free stencil or a diagonal leaf, then up to two potentials."""
    d = draw(st.integers(2, 3))
    box = BoxSpec(
        d=d,
        length=draw(st.sampled_from([0.5, 1.0, 3.0])),
        center=(0.0,) * d,
        n=draw(st.integers(2, 7 if d == 2 else 4)),
        bc=draw(st.sampled_from(["dirichlet", "neumann"])),
    )
    values = st.lists(st.floats(-40.0, 40.0, allow_nan=False), min_size=box.ndof, max_size=box.ndof)
    leaf = draw(st.booleans())
    H = diagonal_hamiltonian(box, np.array(draw(values))) if leaf else build_free_laplacian(box)
    for _ in range(draw(st.integers(0, 2))):
        H = add_potential(H, np.array(draw(values)))
    return H


def _exact_or_refused(H, shifts):
    """Each shift well off the spectrum gets the dense count or a refusal; returns the refusals."""
    ev = np.linalg.eigvalsh(H.matrix.toarray())
    scale = float(abs(H.matrix).sum(axis=0).max())
    refused = 0
    for x in shifts:
        if np.min(np.abs(ev - x)) < 1e-8 * max(scale, 1.0):
            continue  # on the spectrum the strict count is a rounding call
        try:
            got = inertia_count(H, x)
        except ResonantSampleError:
            refused += 1
        else:
            assert got == int(np.count_nonzero(ev < x)), x
    return refused


@st.composite
def _periodic_operator(draw):
    """d=1 or d=2 periodic boxes with a random potential, and shifts from below the spectrum to deep inside it."""
    d = draw(st.integers(1, 2))
    box = BoxSpec(
        d=d,
        length=draw(st.sampled_from([1.0, 2.0])),
        center=(0.0,) * d,
        n=draw(st.integers(3, 30 if d == 1 else 7)),
        bc="periodic",
    )
    values = st.lists(st.floats(-20.0, 20.0, allow_nan=False), min_size=box.ndof, max_size=box.ndof)
    H = add_potential(build_free_laplacian(box), np.array(draw(values)))
    fractions = draw(st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=6))
    return H, fractions


class TestPeriodicLDLCount:
    """The LDL signs of periodic boxes against numpy.linalg.eigvalsh."""

    @given(_periodic_operator())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_eigvalsh(self, case):
        H, fractions = case
        ev = np.linalg.eigvalsh(H.matrix.toarray())
        # interior shifts leave the shifted matrix indefinite, which forces 2x2 pivots
        shifts = [ev[0] + f * (ev[-1] - ev[0]) for f in fractions]
        shifts += [0.5 * (a + b) for a, b in zip(ev, ev[1:])][::2]
        for x in shifts:
            if np.min(np.abs(ev - x)) < 1e-8:
                continue  # on the spectrum the strict count is a rounding call
            assert inertia_count(H, x) == int(np.count_nonzero(ev < x)), x


class TestBlockSturmCount:
    """The block Schur count of d>=2 open boxes against numpy.linalg.eigvalsh."""

    @given(_block_operator(), st.lists(st.floats(-2.0, 1.0), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_eigvalsh(self, H, fractions):
        ev = np.linalg.eigvalsh(H.matrix.toarray())
        span = ev[-1] - ev[0] + 1.0
        shifts = [ev[0] + f * span for f in fractions] + [0.5 * (a + b) for a, b in zip(ev, ev[1:])][::3]
        _exact_or_refused(H, shifts + [ev[0] - 1.0, ev[-1] + 1.0])

    @given(_block_operator(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_a_sub_box_level_gets_the_dense_count_or_lies_within_delta_of_an_eigenvalue(self, H, leading):
        # a leading level makes a Schur block singular, so the count brackets it;
        # a trailing level is one too on a mirror-symmetric operator
        ev = np.linalg.eigvalsh(H.matrix.toarray())
        delta = 10.0 * spectral.SCHUR_PIVOT_TOL * spectral._operator_scale(H)  # inertia_count's bracket
        levels = _sub_box_levels(H, leading)
        for x in levels[:: max(1, levels.size // 40)].tolist():
            near = np.abs(ev - x).min()
            try:
                got = inertia_count(H, x)
            except ResonantSampleError:
                assert near <= 1.01 * delta, x  # 1%: eigvalsh's own error, far below delta
            else:
                # within delta of an eigenvalue the strict count is a rounding call (a level can be one)
                assert near <= delta or got == int(np.count_nonzero(ev < x)), x

    @pytest.mark.parametrize("amplitude", [0.0, 5.0], ids=["free", "random"])
    @pytest.mark.parametrize("d, n, bc", [(2, 9, "dirichlet"), (2, 8, "neumann"), (3, 4, "dirichlet")])
    def test_the_bracket_answers_sub_box_levels_off_the_spectrum(self, d, n, bc, amplitude):
        box = BoxSpec(d=d, length=3.0, center=(0.0,) * d, n=n, bc=bc)
        rng = np.random.default_rng(n)
        H = add_potential(build_free_laplacian(box), rng.uniform(-amplitude, amplitude, box.ndof))
        diag, coupling = H.diag.reshape(n, -1), H.stencil.coupling
        tol = spectral.SCHUR_PIVOT_TOL * spectral._operator_scale(H)
        leading, trailing = _sub_box_levels(H, leading=True), _sub_box_levels(H, leading=False)
        # every leading level refuses the one slice order, so each count here is a bracket
        assert all(block_sturm_count(H.stencil.inner, diag, coupling, x, tol) is None for x in leading)
        assert _exact_or_refused(H, np.concatenate([leading, trailing])) == 0

    def test_mirror_symmetric_operator_counts_at_a_shared_sub_box_level(self):
        # the free stencil reads the same in both slice orders, so a level of
        # the first slice makes a Schur block singular in either; the bracket counts
        box = BoxSpec(d=2, length=2.0, center=(0.0, 0.0), n=6)
        H = build_free_laplacian(box)
        x = float(_sub_box_levels(H, leading=True)[0])
        ev = np.linalg.eigvalsh(H.matrix.toarray())
        assert np.abs(ev - x).min() > 1e-3
        assert inertia_count(H, x) == int(np.count_nonzero(ev < x))

    def test_an_eigenvalue_within_delta_of_a_refused_shift_splits_the_bracket(self):
        # no couplings: 5 on the first slice is a sub-box level, so the slice order
        # refuses at 5, and an eigenvalue delta/2 below it makes the bracket counts differ
        box = BoxSpec(d=2, length=3.0, center=(0.0, 0.0), n=3)
        diag = np.full(box.ndof, 10.0)
        delta = 10.0 * spectral.SCHUR_PIVOT_TOL * 10.0  # the scale is the largest |diagonal entry|
        diag[0], diag[-1] = 5.0, 5.0 - delta / 2
        H = diagonal_hamiltonian(box, diag)
        assert (inertia_count(H, 5.0 - delta), inertia_count(H, 5.0 + delta)) == (0, 2)
        with pytest.raises(ResonantSampleError, match="an eigenvalue may lie within 1e-08 of shift 5.0"):
            inertia_count(H, 5.0)

    def test_exact_past_the_old_dense_limit_on_the_slab(self):
        # 5041 unknowns; numpy.linalg.eigvalsh on the dense matrix finds 51
        # eigenvalues in [3, 5], the nearest 0.030 and 0.0033 from its ends
        model = load_model_config(CONFIG_DIR / "slab.model.ini")
        box = BoxSpec(d=2, length=18.0, center=(0.0, 0.0), n=71)
        H = add_potential(build_free_laplacian(box), sample_potential(model, (1, 0), box))
        assert count_in_interval(H, 3.0, 5.0) == 51
        assert "matrix" not in vars(H)

    def test_slices_past_the_dense_limit_give_no_count(self):
        # a d=3 slice of 65^2 unknowns would be factored densely at every step
        box = BoxSpec(d=3, length=1.0, center=(0.0, 0.0, 0.0), n=65)
        assert box.n**2 > INERTIA_DENSE_LIMIT
        with pytest.raises(EigensolverError, match="4225 unknowns to factor densely, limit 4096"):
            inertia_count(diagonal_hamiltonian(box, np.zeros(box.ndof)), 1.0)

    def test_periodic_boxes_keep_the_dense_factorization(self):
        box = BoxSpec(d=2, length=2.0, center=(0.0, 0.0), n=8, bc="periodic")
        P = add_potential(build_free_laplacian(box), np.random.default_rng(6).uniform(0.0, 3.0, box.ndof))
        ev = np.linalg.eigvalsh(P.matrix.toarray())
        for x in (5.0, 40.0, 90.0):
            assert inertia_count(P, x) == int(np.count_nonzero(ev < x))
        big = build_free_laplacian(BoxSpec(d=2, length=1.0, center=(0.0, 0.0), n=65, bc="periodic"))
        assert big.box.ndof > INERTIA_DENSE_LIMIT
        with pytest.raises(EigensolverError, match="no exact eigenvalue count: 4225 unknowns"):
            inertia_count(big, 30.0)


def _eigvalsh_block_count(inner, diag, coupling, x, tol):
    """The block Sturm count with each Schur block's count from numpy.linalg.eigvalsh,
    refused when a non-final block has an eigenvalue within tol of zero; its
    inverses are block_sturm_count's, so both see the same blocks."""
    base = inner.toarray()
    below = np.tril_indices_from(base, -1)
    count = 0
    for k, dk in enumerate(diag):
        S = base.copy()
        S[np.diag_indices_from(S)] = dk - x
        if k:
            S -= coupling[k - 1] ** 2 * s_inv
        w = np.linalg.eigvalsh(S)
        count += int(np.count_nonzero(w < 0.0))
        if k == diag.shape[0] - 1:
            return count
        if np.abs(w).min() <= tol:
            return None
        factor, pivots, info = sla.lapack.dsytrf(S, lower=1)
        if info == 0:
            s_inv, info = sla.lapack.dsytri(factor, pivots, lower=1)
        if info != 0:
            return None
        s_inv.T[below] = s_inv[below]


class TestCountsFromTheFactor:
    """Each Schur block's count read from its Bunch-Kaufman factor, and its
    refusal from the norm of its inverse, against eigvalsh of the same block."""

    @given(_block_operator(), st.booleans(), st.lists(st.floats(-2.0, 1.0), min_size=1, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_refuses_where_eigvalsh_refused_and_agrees_where_both_answer(self, H, leading, fractions):
        ev = np.linalg.eigvalsh(H.matrix.toarray())
        span = ev[-1] - ev[0] + 1.0
        levels = _sub_box_levels(H, leading)
        shifts = [ev[0] + f * span for f in fractions] + list(levels[:: max(1, levels.size // 20)])
        inner, coupling = H.stencil.inner, H.stencil.coupling
        diag = H.diag.reshape(H.box.n, -1)
        scale = spectral._operator_scale(H)
        tol = spectral.SCHUR_PIVOT_TOL * scale
        for x in shifts:
            # on the spectrum the last block is singular, and either strict count is a rounding call
            on_spectrum = np.min(np.abs(ev - x)) < 1e-8 * scale
            for order in ((diag, coupling), (diag[::-1], coupling[::-1])):
                old = _eigvalsh_block_count(inner, *order, x, tol)
                new = block_sturm_count(inner, *order, x, tol)
                assert old is not None or new is None, x
                if old is not None and new is not None and not on_spectrum:
                    assert new == old, x

    def test_an_overflowing_inverse_is_refused(self):
        # 1 / 2.2e-311 overflows to inf and 0 * inf is NaN, so the norm is NaN, not >= 1/tol
        x = 2.225073858507e-311
        diag = np.array([[0.0, 0.0], [0.0, x]])
        assert _eigvalsh_block_count(sp.csr_matrix((2, 2)), diag, np.zeros(1), x, 1e-10) is None
        assert block_sturm_count(sp.csr_matrix((2, 2)), diag, np.zeros(1), x, 1e-10) is None

    @pytest.mark.parametrize("b, c, x", [(1.0, 0.1, 0.0), (-2.0, 0.0, 0.3), (3.0, -1.0, -0.5)])
    def test_two_by_two_pivots_count_once(self, b, c, x):
        # a zero corner and |c| < 0.64 |b| leave Bunch-Kaufman no 1x1 pivot: S_1 = [[0, b], [b, c]]
        assert np.all(sla.lapack.dsytrf(np.array([[0.0, b], [b, c]]), lower=1)[1] < 0)
        inner = sp.csr_matrix(np.array([[0.0, b], [b, 0.0]]))
        for n in (1, 4):
            diag, coupling = np.tile([x, x + c], (n, 1)), np.full(n - 1, 0.3)
            A = sp.kron(sp.identity(n), inner) + sp.diags(diag.ravel())
            A += sp.kron(sp.diags([coupling, coupling], [-1, 1]), sp.identity(2))
            want = int(np.count_nonzero(np.linalg.eigvalsh(A.toarray()) < x))
            assert block_sturm_count(inner, diag, coupling, x, 1e-10) == want


class TestCountInInterval:
    def test_closed_endpoints_on_known_diagonal(self):
        box = BoxSpec(d=1, length=1.0, center=(0.5,), n=4)
        H = diagonal_hamiltonian(box, np.array([1.0, 2.0, 2.0, 3.0]))
        assert count_in_interval(H, 2.0, 2.0) == 2
        assert count_in_interval(H, 1.0, 3.0) == 4
        assert count_in_interval(H, 1.0 + 1e-6, 3.0 - 1e-6) == 2
        assert count_in_interval(H, 3.0, 1.0) == 0
        assert count_in_interval(H, -math.inf, 2.0) == 3

    def test_disjoint_pieces_add_up(self):
        for seed in range(8):
            box, H = _random_operator(1, 40, 4.0, seed=seed, amplitude=4.0)
            ev = sla.eigvalsh(H.matrix.toarray())
            rng = np.random.default_rng(1000 + seed)
            a, b, c = np.sort(rng.uniform(ev[0] - 1.0, ev[-1] + 1.0, size=3))
            if np.min(np.abs(ev - b)) < 1e-6:
                continue  # the middle cut must miss the spectrum
            assert count_in_interval(H, a, b) + count_in_interval(H, b, c) == count_in_interval(
                H, a, c
            )

    def test_whole_line_counts_every_dof(self):
        box, H = _random_operator(2, 10, 2.0, seed=3)
        top = float(abs(H.matrix).sum(axis=0).max())
        assert count_in_interval(H, -math.inf, top + 1.0) == box.ndof

    # a window end at +-inf is not nudged and nudges no finite end: the first
    # draw is the free operator, whose dense counts these pin
    @pytest.mark.parametrize("d, n, length, free", [(1, 127, 8.0, (122, 127, 0, 0)), (2, 7, 3.0, (48, 49, 0, 0))])
    # the ends 5 - 5e-12 and +inf make 2R lanes, one lane pass in d=1 only, for one operator or many
    @pytest.mark.parametrize("R", [1, 16])
    def test_windows_with_an_infinite_end_match_dense_counts(self, d, n, length, free, R, monkeypatch):
        windows = [(5.0, math.inf), (-math.inf, math.inf), (-math.inf, -math.inf), (math.inf, math.inf)]
        box = BoxSpec(d=d, length=length, center=(0.0,) * d, n=n)
        V = np.random.default_rng(R).uniform(0.0, 3.0, size=(box.ndof, R))
        V[:, 0] = 0.0
        block = add_potentials(build_free_laplacian(box), V)
        want = []
        for H in block.operators:
            ev = sla.eigvalsh(H.matrix.toarray())
            want.append(tuple(int(np.count_nonzero((ev >= lo) & (ev <= hi))) for lo, hi in windows))
        assert want[0] == free
        alone = [add_potential(build_free_laplacian(box), v) for v in V.T]
        assert [tuple(count_in_interval(H, lo, hi) for lo, hi in windows) for H in alone] == want
        calls = _counting_lanes(monkeypatch)
        assert count_windows(block, windows) == want
        assert len(calls) == (d == 1)

    def test_a_mirror_symmetric_box_counts_at_a_sub_box_level(self):
        # 5 = 2 + 3 is a level of a leading sub-box, 0.082 from every eigenvalue: the bracket answers
        box = BoxSpec(d=2, length=8.0, center=(0.0, 0.0), n=7)
        H = build_free_laplacian(box)
        ev = sla.eigvalsh(H.matrix.toarray())
        assert np.abs(ev - 5.0).min() > 0.08 and int(np.count_nonzero(ev >= 5.0)) == 15
        assert count_in_interval(H, 5.0, math.inf) == 15

    def test_interval_below_spectrum_is_empty(self):
        box = BoxSpec(d=1, length=1.0, center=(0.5,), n=50)
        H = build_free_laplacian(box)
        assert count_in_interval(H, -5.0, 0.0) == 0

    def test_exact_count_past_the_old_factorization_limit(self):
        # 4900 dof and not tridiagonal: the block Sturm count over 70 slices
        # of 70 unknowns counts exactly where dense LDL would not fit
        box = BoxSpec(d=2, length=1.0, center=(0.5, 0.5), n=70)
        H = build_free_laplacian(box)
        levels = discrete_dirichlet_spectrum(box)
        assert levels[0] < 30.0 < levels[1]
        assert count_in_interval(H, -math.inf, 30.0) == 1
        assert count_in_interval(H, 0.0, 10.0) == 0


class TestNanShifts:
    """A NaN shift has no count: every sign test would read its pivots as not below.  (Infinite ends stay legal:
    TestCountInInterval.test_windows_with_an_infinite_end_match_dense_counts.)"""

    @pytest.fixture(params=[1, 2], ids=["d=1", "d=2"])
    def free(self, request):
        d = request.param
        box = BoxSpec(d=1, length=8.0, center=(0.0,), n=127) if d == 1 else BoxSpec(d=2, length=3.0, center=(0.0, 0.0), n=7)
        return build_free_laplacian(box), add_potentials(build_free_laplacian(box), np.zeros((box.ndof, 2)))

    @pytest.mark.parametrize("lo, hi", [(math.nan, 5.0), (0.0, math.nan), (-math.inf, math.nan), (math.nan, math.inf)])
    def test_a_window_with_a_nan_end_is_refused(self, free, lo, hi):
        H, block = free
        with pytest.raises(ValueError, match="shift nan"):
            count_in_interval(H, lo, hi)
        with pytest.raises(ValueError, match="shift nan"):
            count_windows(block, [(1.0, 5.0), (lo, hi)])

    def test_the_counts_and_the_resolvent_refuse_a_nan_shift(self, free, monkeypatch):
        H, block = free
        with pytest.raises(ValueError, match="shift nan"):
            inertia_count(H, math.nan)
        rows, cols = np.array([0]), np.array([H.box.ndof - 1])
        with pytest.raises(ValueError, match="shift nan"):
            resolvent_block_norm(H, math.nan, rows, cols)
        # the block queries refuse before any lane pass
        calls = _counting_lanes(monkeypatch)
        with pytest.raises(ValueError, match="shift nan"):
            count_windows(block, [(1.0, 5.0), (math.nan, 5.0)])
        with pytest.raises(ValueError, match="shift nan"):
            spectral.resolvent_norms(block, math.nan, rows, cols)
        assert not calls


class TestEigsBelow:
    def test_dirichlet_line_matches_closed_form(self):
        box = BoxSpec(d=1, length=2.0, center=(1.0,), n=199)
        H = build_free_laplacian(box)
        res = eigs_below(H, 60.0)
        assert res.method == "tridiagonal"
        want = discrete_dirichlet_spectrum(box)
        want = want[want <= 60.0]
        np.testing.assert_allclose(res.eigenvalues, want, rtol=1e-12, atol=1e-9)
        assert res.eigenvectors is None
        pairs = eigs_below(H, 60.0, want_vectors=True)
        np.testing.assert_allclose(pairs.eigenvalues, res.eigenvalues, rtol=1e-12)
        r = H.matrix @ pairs.eigenvectors - pairs.eigenvectors * pairs.eigenvalues
        assert float(np.sqrt((r * r).sum(axis=0)).max()) < 1e-7

    def test_requested_vectors_are_orthonormal_with_small_residual(self):
        box, H = _random_operator(1, 120, 8.0, seed=5, amplitude=2.0)
        res = eigs_below(H, 8.0, want_vectors=True)
        k = res.eigenvalues.size
        assert k > 3
        gram = res.eigenvectors.T @ res.eigenvectors
        np.testing.assert_allclose(gram, np.eye(k), atol=1e-10)
        r = H.matrix @ res.eigenvectors - res.eigenvectors * res.eigenvalues
        one_norm = float(abs(H.matrix).sum(axis=0).max())
        assert float(np.sqrt((r * r).sum(axis=0)).max()) <= 64 * np.finfo(float).eps * one_norm

    def test_band_solves_never_build_the_matrix(self):
        box, H = _random_operator(1, 40, 3.0, seed=12, amplitude=4.0)
        for want_vectors in (False, True):
            res = eigs_below(H, 20.0, want_vectors=want_vectors)
            assert res.method == "tridiagonal" and res.eigenvalues.size > 0
            assert "matrix" not in vars(H)

    def test_dense_and_tridiagonal_agree(self):
        box, H = _random_operator(1, 80, 5.0, seed=9, amplitude=3.0)
        a = _eigs_tridiagonal(H, 25.0, False).eigenvalues
        b = _eigs_dense(H, 25.0, False).eigenvalues
        assert a.size == b.size > 0
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_plane_auto_selects_dense(self):
        box = BoxSpec(d=2, length=1.0, center=(0.5, 0.5), n=31)
        H = build_free_laplacian(box)
        res = eigs_below(H, 100.0)
        assert res.method == "dense"
        want = discrete_dirichlet_spectrum(box)
        np.testing.assert_allclose(res.eigenvalues, want[want <= 100.0], atol=1e-9)

    def test_forced_lanczos_recovers_multiplicities(self):
        # the square has genuine double eigenvalues; the inertia cross-check
        # forces the iteration to find both copies
        box = BoxSpec(d=2, length=1.0, center=(0.5, 0.5), n=31)
        H = build_free_laplacian(box)
        res = _eigs_lanczos(H, 100.0, False)
        assert res.method == "lanczos"
        dense = _eigs_dense(H, 100.0, False).eigenvalues
        assert res.eigenvalues.size == dense.size == 6
        np.testing.assert_allclose(res.eigenvalues, dense, atol=1e-8)

    def test_lanczos_vectors_diagonalize_the_operator(self):
        box, H = _random_operator(2, 18, 2.0, seed=14)
        res = _eigs_lanczos(H, 40.0, True)
        assert res.eigenvalues.size > 0
        r = H.matrix @ res.eigenvectors - res.eigenvectors * res.eigenvalues
        assert float(np.sqrt((r * r).sum(axis=0)).max()) < 1e-6

    def test_cutoff_below_spectrum_returns_empty(self):
        box = BoxSpec(d=1, length=1.0, center=(0.5,), n=30)
        H = build_free_laplacian(box)
        res = eigs_below(H, 0.0)
        assert res.eigenvalues.size == 0

    def test_lanczos_certifies_empty_window_by_inertia(self):
        box = BoxSpec(d=2, length=1.0, center=(0.5, 0.5), n=70)
        H = build_free_laplacian(box)
        res = _eigs_lanczos(H, 10.0, False)
        assert res.eigenvalues.size == 0


class TestResolventBlockNorm:
    def test_line_block_matches_dense_inverse(self):
        box, H = _random_operator(1, 30, 3.0, seed=2, amplitude=1.0)
        ba, bb = np.arange(0, 5), np.arange(20, 30)
        z = -1.0
        M = np.linalg.inv(H.matrix.toarray() - z * np.eye(box.ndof))
        want = sla.svdvals(M[np.ix_(ba, bb)])[0]
        assert resolvent_block_norm(H, z, ba, bb) == pytest.approx(want, rel=1e-10)

    def test_plane_block_matches_dense_inverse(self):
        box, H = _random_operator(2, 12, 2.0, seed=3, amplitude=1.0)
        ba = box.node_block((-0.9, -0.9), (-0.4, -0.4))
        bb = box.node_block((0.4, 0.4), (0.9, 0.9))
        z = -1.0
        M = np.linalg.inv(H.matrix.toarray() - z * np.eye(box.ndof))
        want = sla.svdvals(M[np.ix_(ba, bb)])[0]
        assert resolvent_block_norm(H, z, ba, bb) == pytest.approx(want, rel=1e-9)

    def test_interior_shift_works_off_resonance(self):
        box, H = _random_operator(1, 40, 4.0, seed=11, amplitude=2.0)
        ev = sla.eigvalsh(H.matrix.toarray())
        z = 0.5 * (ev[4] + ev[5])
        ba, bb = np.arange(0, 8), np.arange(30, 40)
        M = np.linalg.inv(H.matrix.toarray() - z * np.eye(box.ndof))
        want = sla.svdvals(M[np.ix_(ba, bb)])[0]
        assert resolvent_block_norm(H, z, ba, bb) == pytest.approx(want, rel=1e-8)

    def test_overlapping_blocks_refused(self):
        box = BoxSpec(d=1, length=1.0, center=(0.5,), n=20)
        H = build_free_laplacian(box)
        with pytest.raises(ValueError, match="overlap"):
            resolvent_block_norm(H, -1.0, np.arange(0, 11), np.arange(10, 20))

    def test_shift_on_an_eigenvalue_refused(self):
        box = BoxSpec(d=1, length=1.0, center=(0.5,), n=40)
        H = build_free_laplacian(box)
        z = float(discrete_dirichlet_spectrum(box)[0])
        with pytest.raises(ResonantSampleError):
            resolvent_block_norm(H, z, np.arange(0, 5), np.arange(30, 40))

    def test_norm_decays_with_separation(self):
        # below the spectrum the off-diagonal resolvent falls off with the
        # distance between the blocks
        box = BoxSpec(d=1, length=8.0, center=(4.0,), n=159)
        H = build_free_laplacian(box)
        ba = np.arange(0, 10)
        norms = [resolvent_block_norm(H, -1.0, ba, np.arange(s, s + 10)) for s in (40, 80, 120)]
        assert norms[0] > norms[1] > norms[2] > 0.0


def _jacobi(diag, off):
    """The d=1 operator with these bands; its box fixes only the size."""
    box = BoxSpec(d=1, length=float(diag.size + 1), center=(0.0,), n=diag.size)
    stencil = Stencil(box, sp.diags([off, off], [-1, 1], format="csr"), sp.csr_matrix((1, 1)), off)
    return DiscreteHamiltonian(stencil, diag)


def _wrapper_norm(H, z, rows, cols):
    """The block norm through scipy's wrappers: solve_banded (d=1) or splu, then svdvals."""
    n = H.box.ndof
    rhs = np.zeros((n, cols.size))
    rhs[cols, np.arange(cols.size)] = 1.0
    if H.is_tridiagonal:
        diag, off = H.tridiagonal()
        ab = np.zeros((3, n))
        ab[0, 1:] = off
        ab[1, :] = diag - z
        ab[2, :-1] = off
        sol = sla.solve_banded((1, 1), ab, rhs)
    else:
        sol = spla.splu(sp.csc_matrix(H.matrix - z * sp.identity(n, format="csc"))).solve(rhs)
    return float(sla.svdvals(sol[rows, :])[0])


@st.composite
def _separated_blocks(draw, n):
    """Two disjoint runs of 1 to 64 consecutive nodes out of n, in either order."""
    p = draw(st.integers(1, min(64, n - 1)))
    q = draw(st.integers(1, min(64, n - p)))
    a = draw(st.integers(0, n - p - q))
    b = draw(st.integers(a + p, n - q))
    first, second = np.arange(a, a + p), np.arange(b, b + q)
    return (first, second) if draw(st.booleans()) else (second, first)


class TestResolventMatchesTheWrappers:
    """The direct LAPACK calls give the wrappers' bits, at any shift off resonance."""

    @given(st.integers(2, 300), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=150, deadline=None)
    def test_jacobi_blocks(self, n, seed, data):
        rng = np.random.default_rng(seed)
        H = _jacobi(rng.uniform(-5.0, 5.0, n), rng.uniform(-2.0, 2.0, n - 1))
        z = float(rng.uniform(-7.0, 7.0))
        rows, cols = data.draw(_separated_blocks(n))
        try:
            got = resolvent_block_norm(H, z, rows, cols)
        except ResonantSampleError:
            assume(False)
        assert got == _wrapper_norm(H, z, rows, cols)

    @given(st.integers(2, 9), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_plane_blocks(self, n, seed, data):
        box, H = _random_operator(2, n, 2.0, seed, amplitude=3.0)
        rng = np.random.default_rng(seed)
        z = float(rng.uniform(-5.0, 60.0))
        picks = rng.permutation(box.ndof)
        p = data.draw(st.integers(1, min(64, box.ndof - 1)))
        q = data.draw(st.integers(1, min(64, box.ndof - p)))
        rows, cols = np.sort(picks[:p]), np.sort(picks[p : p + q])
        try:
            got = resolvent_block_norm(H, z, rows, cols)
        except ResonantSampleError:
            assume(False)
        assert got == _wrapper_norm(H, z, rows, cols)

    def test_zero_pivot_is_refused_as_resonant(self):
        # past the resonance check, a singular solve still returns no number
        H = _jacobi(np.array([1.0, 1.0, 5.0]), np.array([0.0, 1.0]))
        with pytest.raises(ResonantSampleError, match="zero pivot"):
            spectral._off_resonance_norm(H, 1.0, np.array([0]), np.array([2]))


def _band_floor(H):
    diag, off = H.tridiagonal()
    return float(diag.min() - 2.0 * (abs(off).max() if off.size else 0.0) - 1.0)


@st.composite
def _jacobi_cutoff(draw):
    """A Jacobi operator (potentials up to 1e3, some couplings zero so the bands
    split) and a cutoff between levels, on a level, above the top, at the
    Gershgorin floor or below it."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    off = rng.uniform(-50.0, 0.0, n - 1) * (rng.uniform(size=n - 1) > 0.1)
    H = _jacobi(rng.uniform(0.0, 1e3, n) * draw(st.sampled_from([0.0, 1e-3, 1.0])), off)
    ev = np.linalg.eigvalsh(H.matrix.toarray())
    k = draw(st.integers(0, n - 1))
    floor = _band_floor(H)
    cutoff = draw(
        st.sampled_from(
            [
                0.5 * (ev[k] + ev[min(k + 1, n - 1)]),
                float(ev[k]),
                float(ev[-1]) + 1.0,
                floor,
                floor - 1.0,
            ]
        )
    )
    return H, float(cutoff)


def _count_stebz(monkeypatch):
    calls = []
    stebz = spectral._STEBZ

    def counted(*args):
        calls.append(args)
        return stebz(*args)

    monkeypatch.setattr(spectral, "_STEBZ", counted)
    return calls


class TestTridiagonalBisection:
    """The direct stebz/stein calls give eigh_tridiagonal's bits, and each
    operator bisects a cutoff once."""

    @given(_jacobi_cutoff(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_eigh_tridiagonal_bit_for_bit(self, problem, want_vectors):
        H, cutoff = problem
        got = _eigs_tridiagonal(H, cutoff, want_vectors)
        if cutoff <= _band_floor(H):  # scipy and stebz both refuse an empty range
            assert got.eigenvalues.shape == (0,)
            if want_vectors:
                assert got.eigenvectors.shape == (H.box.ndof, 0)
            return
        diag, off = H.tridiagonal()
        want = sla.eigh_tridiagonal(
            diag, off, eigvals_only=not want_vectors, select="v", select_range=(_band_floor(H), cutoff)
        )
        values, vectors = want if want_vectors else (want, None)
        assert got.eigenvalues.shape == values.shape
        assert got.eigenvalues.tobytes() == values.tobytes()
        if want_vectors:
            assert got.eigenvectors.shape == vectors.shape
            assert got.eigenvectors.tobytes() == vectors.tobytes()
        else:
            assert got.eigenvectors is None

    @given(_jacobi_cutoff())
    @settings(max_examples=300, deadline=None)
    def test_stebz_ascending_order_is_its_block_order_sorted(self, problem):
        # so one bisection in block order serves the eigenvalues-only call too
        H, cutoff = problem
        assume(cutoff > _band_floor(H))
        diag, off = H.tridiagonal()
        m_e, w_e, _, _, info_e = spectral._STEBZ(diag, off, 1, _band_floor(H), cutoff, 1, 1, 0.0, "E")
        m_b, w_b, _, _, info_b = spectral._STEBZ(diag, off, 1, _band_floor(H), cutoff, 1, 1, 0.0, "B")
        assert info_e == info_b == 0 and m_e == m_b
        assert w_e[:m_e].tobytes() == np.sort(w_b[:m_b]).tobytes()

    @pytest.mark.parametrize("want_vectors", [False, True])
    def test_a_repeated_cutoff_bisects_once(self, monkeypatch, want_vectors):
        calls = _count_stebz(monkeypatch)
        box, H = _random_operator(1, 90, 6.0, seed=21, amplitude=5.0)
        first = eigs_below(H, 30.0, want_vectors=want_vectors)
        again = eigs_below(H, 30.0, want_vectors=want_vectors)
        assert len(calls) == 1
        assert again.eigenvalues.tobytes() == first.eigenvalues.tobytes()
        if want_vectors:
            assert again.eigenvectors.tobytes() == first.eigenvectors.tobytes()
        other = eigs_below(H, 30.0, want_vectors=not want_vectors)  # the other kind of call reads the same bisection
        assert len(calls) == 1
        assert other.eigenvalues.tobytes() == first.eigenvalues.tobytes()

    def test_another_cutoff_is_never_served_from_an_entry(self, monkeypatch):
        calls = _count_stebz(monkeypatch)
        box, H = _random_operator(1, 90, 6.0, seed=22, amplitude=5.0)
        ev = np.linalg.eigvalsh(H.matrix.toarray())
        low, high = 0.5 * (ev[2] + ev[3]), 0.5 * (ev[6] + ev[7])
        assert eigs_below(H, low).eigenvalues.size == 3
        assert eigs_below(H, high).eigenvalues.size == 7
        assert eigs_below(H, low, want_vectors=True).eigenvectors.shape == (90, 3)
        assert eigs_below(H, high, want_vectors=True).eigenvectors.shape == (90, 7)
        assert len(calls) == 2
        assert len(H.bisections) == 2

    def test_kept_arrays_are_read_only(self):
        box, H = _random_operator(1, 70, 5.0, seed=23, amplitude=5.0)
        values = eigs_below(H, 40.0).eigenvalues
        before = values.copy()
        for kept in H.bisections.values():
            assert not any(a.flags.writeable for a in kept)
        values[:] = 0.0  # the sorted eigenvalues are the caller's own too
        pairs = eigs_below(H, 40.0, want_vectors=True)
        pairs.eigenvalues[:] = 0.0  # the sorted copy is the caller's own
        pairs.eigenvectors[:] = 0.0
        assert eigs_below(H, 40.0).eigenvalues.tobytes() == before.tobytes()
        again = eigs_below(H, 40.0, want_vectors=True)
        assert again.eigenvalues.tobytes() == before.tobytes()
        assert np.abs(again.eigenvectors).max() > 0.0

    @pytest.mark.parametrize("below", [0.0, 1.0, 1e3])
    @pytest.mark.parametrize("want_vectors", [False, True])
    def test_a_cutoff_at_or_below_the_floor_is_empty_without_bisection(self, monkeypatch, below, want_vectors):
        calls = _count_stebz(monkeypatch)
        box, H = _random_operator(1, 40, 4.0, seed=24, amplitude=2.0)
        res = eigs_below(H, _band_floor(H) - below, want_vectors=want_vectors)
        assert res.method == "tridiagonal" and res.eigenvalues.shape == (0,)
        assert res.eigenvectors is None if not want_vectors else res.eigenvectors.shape == (40, 0)
        assert calls == []


class TestCompressedIndicator:
    def test_full_set_gives_exactly_one(self):
        box = BoxSpec(d=1, length=1.0, center=(0.5,), n=50)
        H = build_free_laplacian(box)
        res = eigs_below(H, 200.0, want_vectors=True)
        everything = stripes_raster(1.0, 1.0, 16)
        val = compressed_indicator_min_eig(res.eigenvectors, box, everything)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_two_mode_half_interval_gram(self):
        # lowest two Dirichlet modes on the unit interval against its left
        # half: the limiting 2x2 overlap matrix has entries 1/2 on the
        # diagonal and 4/(3 pi) off it, so the small eigenvalue is
        # 1/2 - 4/(3 pi); the mesh value converges second order
        box = BoxSpec(d=1, length=1.0, center=(0.5,), n=400)
        H = build_free_laplacian(box)
        res = eigs_below(H, 60.0, want_vectors=True)
        assert res.eigenvalues.size == 2
        half = stripes_raster(0.5, 1.0, 64)
        val = compressed_indicator_min_eig(res.eigenvectors, box, half)
        assert val == pytest.approx(0.5 - 4.0 / (3.0 * math.pi), abs=5e-5)

    @given(st.integers(1, 15))
    @settings(max_examples=12, deadline=None)
    def test_value_stays_in_unit_interval(self, sixteenths):
        box = BoxSpec(d=1, length=1.0, center=(0.5,), n=60)
        H = build_free_laplacian(box)
        res = eigs_below(H, 150.0, want_vectors=True)
        S = stripes_raster(sixteenths / 16.0, 1.0, 32)
        val = compressed_indicator_min_eig(res.eigenvectors, box, S)
        assert -1e-12 <= val <= 1.0 + 1e-12

    def test_thicker_set_never_lowers_the_bound(self):
        box = BoxSpec(d=1, length=1.0, center=(0.5,), n=80)
        H = build_free_laplacian(box)
        res = eigs_below(H, 100.0, want_vectors=True)
        vals = [
            compressed_indicator_min_eig(
                res.eigenvectors, box, stripes_raster(w, 1.0, 32)
            )
            for w in (0.25, 0.5, 0.75, 1.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_skewed_basis_refused(self):
        box = BoxSpec(d=1, length=1.0, center=(0.5,), n=50)
        H = build_free_laplacian(box)
        res = eigs_below(H, 100.0, want_vectors=True)
        skewed = res.eigenvectors.copy()
        skewed[:, 0] *= 1.01
        with pytest.raises(EigensolverError, match="orthonormal"):
            compressed_indicator_min_eig(skewed, box, stripes_raster(0.5, 1.0, 8))

    def test_shape_mismatches_refused(self):
        box = BoxSpec(d=1, length=1.0, center=(0.5,), n=10)
        S = stripes_raster(0.5, 1.0, 8)
        with pytest.raises(ValueError):
            compressed_indicator_min_eig(np.ones(10), box, S)
        with pytest.raises(ValueError):
            compressed_indicator_min_eig(np.ones((7, 2)), box, S)
        with pytest.raises(ValueError):
            compressed_indicator_min_eig(np.ones((10, 0)), box, S)
