"""Boxes, stencils, and the exact free spectra they must reproduce."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from wegner_lab.grids import (
    DOF_BUDGET,
    BoxSpec,
    GridError,
    add_potential,
    add_potentials,
    build_free_laplacian,
    discrete_dirichlet_spectrum,
    free_dirichlet_spectrum,
)

from helpers import diagonal_hamiltonian, max_spectral_gap_below


def _box(d=1, L=1.0, n=8, bc="dirichlet", center=None):
    return BoxSpec(d=d, length=L, center=center or (0.0,) * d, n=n, bc=bc)


class TestBoxSpec:
    def test_spacing_conventions(self):
        assert _box(L=1.0, n=9).h == 0.1
        assert _box(L=1.0, n=10, bc="neumann").h == 0.1
        assert _box(L=1.0, n=10, bc="periodic").h == 0.1

    def test_dirichlet_nodes_exclude_boundary(self):
        box = _box(L=2.0, n=3, center=(0.0,))
        assert np.allclose(box.axis_nodes(0), [-0.5, 0.0, 0.5])

    def test_neumann_nodes_at_cell_centers(self):
        box = _box(L=2.0, n=4, bc="neumann")
        assert np.allclose(box.axis_nodes(0), [-0.75, -0.25, 0.25, 0.75])

    def test_periodic_nodes_include_left_edge(self):
        box = _box(L=2.0, n=4, bc="periodic")
        assert np.allclose(box.axis_nodes(0), [-1.0, -0.5, 0.0, 0.5])

    def test_nodes_c_order(self):
        box = _box(d=2, L=2.0, n=2)
        pts = box.nodes()
        # first axis varies slowest
        assert pts.shape == (4, 2)
        assert np.allclose(pts[0], pts[1] * [1, -1])
        assert pts[0][0] == pts[1][0]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=0, length=1.0, center=(), n=4),
            dict(d=4, length=1.0, center=(0.0,) * 4, n=4),
            dict(d=1, length=0.0, center=(0.0,), n=4),
            dict(d=1, length=1.0, center=(0.0, 0.0), n=4),
            dict(d=1, length=1.0, center=(0.0,), n=1),
            dict(d=1, length=1.0, center=(0.0,), n=4, bc="robin"),
            dict(d=3, length=1.0, center=(0.0,) * 3, n=200),
        ],
    )
    def test_invalid_specs_refused(self, kwargs):
        with pytest.raises(GridError):
            BoxSpec(**kwargs)

    @pytest.mark.parametrize("center", [[0.5, -1.0], np.array([0.5, -1.0]), (np.float64(0.5), -1)])
    def test_any_sequence_center_gives_a_hashable_box(self, center):
        box = BoxSpec(d=2, length=2.0, center=center, n=4)
        twin = BoxSpec(d=2, length=2.0, center=(0.5, -1.0), n=4)
        assert box.center == (0.5, -1.0) and all(type(c) is float for c in box.center)
        assert box == twin and hash(box) == hash(twin)
        assert {box: 1}[twin] == 1

    def test_dof_budget_is_the_refusal_line(self):
        n = int(round(DOF_BUDGET ** (1 / 3))) + 1
        with pytest.raises(GridError):
            _box(d=3, n=n)


class TestLaplacian:
    @given(
        d=st.integers(1, 2),
        n=st.integers(2, 7),
        bc=st.sampled_from(["dirichlet", "neumann", "periodic"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_symmetry_exact(self, d, n, bc):
        H = build_free_laplacian(_box(d=d, n=n, bc=bc))
        assert (H.matrix - H.matrix.T).nnz == 0

    def test_dirichlet_interior_stencil(self):
        box = _box(L=1.0, n=4)
        H = build_free_laplacian(box).matrix.toarray()
        inv_h2 = 1.0 / box.h**2
        assert np.allclose(np.diag(H), 2 * inv_h2)
        assert np.allclose(np.diag(H, 1), -inv_h2)

    def test_neumann_constant_in_kernel(self):
        H = build_free_laplacian(_box(d=2, n=5, bc="neumann"))
        ones = np.ones(H.box.ndof)
        assert np.allclose(H.matrix @ ones, 0.0)

    def test_periodic_constant_in_kernel(self):
        H = build_free_laplacian(_box(d=1, n=6, bc="periodic"))
        assert np.allclose(H.matrix @ np.ones(6), 0.0)

    def test_kronecker_sum_spectrum(self):
        # 2-d eigenvalues are sums of 1-d ones; check against dense eigvalsh
        box = _box(d=2, L=1.5, n=5)
        H = build_free_laplacian(box)
        got = np.sort(np.linalg.eigvalsh(H.matrix.toarray()))
        assert np.allclose(got, discrete_dirichlet_spectrum(box), atol=1e-9)

    def test_tridiagonal_bands(self):
        box = _box(n=5)
        H = build_free_laplacian(box)
        assert H.is_tridiagonal
        diag, off = H.tridiagonal()
        assert diag.shape == (5,) and off.shape == (4,)
        with pytest.raises(GridError):
            build_free_laplacian(_box(d=2, n=3)).tridiagonal()

    @given(n=st.integers(2, 30))
    @settings(max_examples=25, deadline=None)
    def test_add_potential_pure(self, n):
        H = build_free_laplacian(_box(n=n))
        rng = np.random.default_rng(n)
        v = rng.uniform(0, 2, size=n)
        before = H.matrix.copy()
        H2 = add_potential(H, v)
        assert (H.matrix != before).nnz == 0
        assert np.allclose(H2.diag - H.diag, v)

    def test_add_potential_validates(self):
        H = build_free_laplacian(_box(n=4))
        with pytest.raises(GridError):
            add_potential(H, np.ones(5))
        with pytest.raises(GridError):
            add_potential(H, np.array([1.0, np.nan, 0.0, 0.0]))

    @pytest.mark.parametrize("shape", [(7,), (7, 2, 1), ()])
    def test_add_potentials_refuses_an_array_that_is_not_2d(self, shape):
        # a flat potential of ndof entries would broadcast into a (7, 7) block of 7 operators
        H = build_free_laplacian(_box(n=7))
        with pytest.raises(GridError, match=r"potentials of shape \(.*\) for 7 dof"):
            add_potentials(H, np.zeros(shape))

    def test_diagonal_seam(self):
        box = _box(n=3)
        H = diagonal_hamiltonian(box, np.array([3.0, 1.0, 2.0]))
        assert np.allclose(np.sort(np.linalg.eigvalsh(H.matrix.toarray())), [1, 2, 3])


def _eager_sum(matrix, v):
    """The sparse assembly add_potential made before operators kept their parent."""
    return (matrix + sp.diags(v, format="csr")).tocsr()


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_matrix(a, b):
    return all(_same_bits(x, y) for x, y in ((a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr)))


@st.composite
def _box_and_potentials(draw):
    d = draw(st.integers(1, 2))
    n = draw(st.integers(2, 24 if d == 1 else 6))
    box = _box(d=d, L=draw(st.sampled_from([0.5, 1.0, 3.0, 7.5])), n=n, bc=draw(st.sampled_from(["dirichlet", "neumann"])))
    values = st.floats(-50.0, 50.0, allow_nan=False)
    vs = [np.array(draw(st.lists(values, min_size=box.ndof, max_size=box.ndof))) for _ in range(draw(st.integers(1, 2)))]
    return box, vs


class TestFastOperator:
    """Direct bands, lazy matrix and the free-stencil cache against eager assembly."""

    @given(_box_and_potentials())
    @settings(max_examples=80, deadline=None)
    def test_bands_and_lazy_matrix_match_eager_sums(self, case):
        box, vs = case
        H = build_free_laplacian(box)
        eager = H.matrix
        for v in vs:
            H = add_potential(H, v)
            eager = _eager_sum(eager, v)
        if box.d == 1:
            diag, off = H.tridiagonal()
            assert _same_bits(diag, eager.diagonal())
            assert _same_bits(off, np.asarray(eager.diagonal(k=1)).ravel())
        assert _same_matrix(H.matrix, eager)

    def test_free_operator_shared_per_box(self):
        box = _box(n=9, L=2.0)
        H = build_free_laplacian(box)
        assert build_free_laplacian(BoxSpec(d=1, length=2.0, center=[0.0], n=9)) is H
        assert build_free_laplacian(_box(n=10, L=2.0)) is not H

    def test_cached_free_operator_is_read_only(self):
        H = build_free_laplacian(_box(n=7, L=1.5))
        diag, off = H.tridiagonal()
        for a in (H.matrix.data, H.matrix.indices, H.matrix.indptr, H.diag, diag, off):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 99

    @pytest.mark.parametrize("d", [1, 2])
    def test_add_potential_leaves_cached_operator_unchanged(self, d):
        box = _box(d=d, n=6, L=1.5)
        H = build_free_laplacian(box)
        snapshot = H.matrix.copy()
        diag = H.diag.copy()
        chained = add_potential(add_potential(H, np.full(box.ndof, 3.0)), np.arange(box.ndof, dtype=float))
        chained.matrix, chained.diag
        if d == 1:
            chained.tridiagonal()
        assert build_free_laplacian(box) is H and chained.stencil is H.stencil
        assert _same_matrix(H.matrix, snapshot) and _same_bits(H.diag, diag)
        build_free_laplacian.cache_clear()
        assert _same_matrix(build_free_laplacian(box).matrix, snapshot)

    def test_caller_writes_after_add_potential_do_not_leak(self):
        H0 = build_free_laplacian(_box(n=5))
        v = np.ones(5)
        H = add_potential(H0, v)
        v[:] = 7.0
        assert np.array_equal(H.tridiagonal()[0], H0.tridiagonal()[0] + 1.0)
        assert np.array_equal(H.matrix.diagonal(), H0.tridiagonal()[0] + 1.0)


@st.composite
def _block_box_and_potentials(draw):
    d = draw(st.integers(2, 3))
    box = _box(
        d=d,
        L=draw(st.sampled_from([0.5, 1.0, 3.0, 7.5])),
        n=draw(st.integers(2, 6 if d == 2 else 4)),
        bc=draw(st.sampled_from(["dirichlet", "neumann"])),
    )
    values = st.floats(-50.0, 50.0, allow_nan=False)
    vs = [np.array(draw(st.lists(values, min_size=box.ndof, max_size=box.ndof))) for _ in range(draw(st.integers(0, 2)))]
    return box, vs


def _assemble_blocks(H):
    """The operator rebuilt from its stencil's first-axis slices and its diagonal."""
    n, m = H.box.n, H.box.ndof // H.box.n
    inner, coupling = H.stencil.inner, H.stencil.coupling
    return (
        sp.kron(sp.identity(n), inner)
        + sp.diags(H.diag)
        + sp.kron(sp.diags([coupling, coupling], [-1, 1]), sp.identity(m))
    ).toarray()


class TestFirstAxisBlocks:
    """The stencil's slices along the first axis, which the block Sturm count runs on."""

    @given(_block_box_and_potentials())
    @settings(max_examples=60, deadline=None)
    def test_blocks_match_eager_sums(self, case):
        box, vs = case
        H = build_free_laplacian(box)
        eager = H.matrix
        for v in vs:
            H = add_potential(H, v)
            eager = _eager_sum(eager, v)
        assert _same_bits(H.diag, eager.diagonal())
        assert np.array_equal(_assemble_blocks(H), eager.toarray())
        assert np.all(H.stencil.coupling == -1.0 / box.h**2)
        if vs:
            assert "matrix" not in vars(H)  # a child's slices never sum the sparse matrix

    def test_child_shares_the_cached_free_blocks(self):
        box = _box(d=2, n=5, L=2.0)
        free = build_free_laplacian(box)
        H = add_potential(add_potential(free, np.ones(25)), np.arange(25.0))
        assert build_free_laplacian(box) is free
        assert H.stencil.inner is free.stencil.inner and H.stencil.coupling is free.stencil.coupling
        for a in (free.stencil.inner.data, free.diag, free.stencil.coupling, H.diag):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 99

    def test_diagonal_leaf_is_sliced_directly(self):
        box = _box(d=3, n=3)
        H = diagonal_hamiltonian(box, np.arange(27.0))
        assert H.stencil.inner.shape == (9, 9) and H.stencil.inner.nnz == 0
        assert H.stencil.coupling.shape == (2,) and np.all(H.stencil.coupling == 0.0)
        assert np.array_equal(H.diag, np.arange(27.0))


def _assembled_then_sliced(box):
    """The free operator assembled whole and cut back into its parts: the 1-d
    second difference through a lil matrix, the full Kronecker sum over the
    axes, the diagonal subtracted, and the first-axis slices read off.
    Returns (diagonal, off, inner, coupling)."""
    n = box.n
    side = np.full(n - 1, -1.0)
    one = sp.diags([side, np.full(n, 2.0), side], [-1, 0, 1], format="lil")
    if box.bc == "neumann":
        one[0, 0] = one[n - 1, n - 1] = 1.0
    elif box.bc == "periodic":
        one[0, n - 1] += -1.0
        one[n - 1, 0] += -1.0
    one = (one.tocsr() * (1.0 / (box.h * box.h))).tocsr()
    eye = sp.identity(n, format="csr")
    total = None
    for axis in range(box.d):
        term = one if axis == 0 else eye
        for k in range(1, box.d):
            term = sp.kron(term, one if k == axis else eye, format="csr")
        total = term if total is None else total + term
    free = total.diagonal()
    off = (total - sp.diags(free, format="csr")).tocsr()
    m = box.ndof // n
    return free, off, off[:m, :m].tocsr(), off.diagonal(k=-m)[::m].copy()


class TestFreeOperatorFromFactors:
    """build_free_laplacian, built from the 1-d factors, against the assembled-then-sliced construction."""

    @given(
        d=st.integers(1, 3),
        n=st.integers(2, 11),
        bc=st.sampled_from(["dirichlet", "neumann", "periodic"]),
        L=st.sampled_from([0.3, 1.0, 3.7, 8.0]),
    )
    @settings(max_examples=120, deadline=None)
    def test_same_bits_as_the_assembled_operator(self, d, n, bc, L):
        box = _box(d=d, L=L, n=min(n, 6) if d == 3 else n, bc=bc)
        free, off, inner, coupling = _assembled_then_sliced(box)
        H = build_free_laplacian(box)
        assert _same_bits(H.diag, free)
        assert _same_matrix(H.stencil.off, off)
        assert _same_matrix(H.matrix, (off + sp.diags(free, format="csr")).tocsr())
        if bc == "periodic":  # one slice: the whole stencil, coupled to no other slice
            assert _same_matrix(H.stencil.inner, off) and H.stencil.coupling.shape == (0,)
        else:
            assert _same_matrix(H.stencil.inner, inner) and H.stencil.inner.shape == inner.shape
            assert _same_bits(H.stencil.coupling, coupling)


class TestNodeBlock:
    """Flat node indices of a closed coordinate box, which the resolvent blocks take."""

    def test_coordinate_window_snaps_to_nodes(self):
        box = BoxSpec(d=2, length=4.0, center=(0.0, 0.0), n=7)
        np.testing.assert_allclose(box.axis_nodes(0), np.arange(-1.5, 1.6, 0.5))
        idx = box.node_block((-1.5, -1.5), (-0.5, 0.0))
        assert idx.tolist() == [i0 * 7 + i1 for i0 in range(3) for i1 in range(4)]

    def test_endpoint_jitter_keeps_boundary_nodes(self):
        box = BoxSpec(d=1, length=4.0, center=(0.0,), n=7)
        assert box.node_block((-1.5 + 1e-13,), (0.5 - 1e-13,)).tolist() == [0, 1, 2, 3, 4]

    def test_window_missing_every_node_refused(self):
        box = BoxSpec(d=2, length=4.0, center=(0.0, 0.0), n=7)
        with pytest.raises(GridError, match=r"no grid node in \[0.1, 0.2\] along axis 1"):
            box.node_block((-1.0, 0.1), (1.0, 0.2))

    @pytest.mark.parametrize("lo, hi", [((0.0, 5.0), (1.0,)), ((0.0,), (1.0, 5.0)), ((), (1.0,)), ((0.0, 1.0), (1.0, 2.0))])
    def test_corners_of_another_dimension_refused(self, lo, hi):
        box = BoxSpec(d=1, length=4.0, center=(0.0,), n=7)
        with pytest.raises(GridError, match="coordinates for a box of dimension 1"):
            box.node_block(lo, hi)

    def test_c_order_without_repeats(self):
        # nodes at -0.6, -0.2, 0.2, 0.6 on every axis; the window holds axis
        # indices 1..3, 0..1 and 2..3
        box = BoxSpec(d=3, length=2.0, center=(0.0, 0.0, 0.0), n=4)
        idx = box.node_block((-0.2, -0.6, 0.2), (0.6, -0.2, 0.6))
        assert idx.tolist() == [16 * i + 4 * j + k for i in (1, 2, 3) for j in (0, 1) for k in (2, 3)]
        assert np.all(np.diff(idx) > 0)


class TestContinuumSpectra:
    def test_unit_interval_levels(self):
        pairs = free_dirichlet_spectrum(1.0, 1, 50.0)
        want = [math.pi**2 * k * k for k in (1, 2)]
        assert [v for v, _ in pairs] == pytest.approx(want)
        assert all(m == 1 for _, m in pairs)

    def test_square_multiplicities(self):
        pairs = free_dirichlet_spectrum(1.0, 2, 60.0)
        # n^2-sums 2, 5, 5 -> levels 2 pi^2 (x1) and 5 pi^2 (x2)
        assert pairs[0] == pytest.approx((2 * math.pi**2, 1))
        assert pairs[1][1] == 2

    def test_empty_below_ground_state(self):
        assert free_dirichlet_spectrum(1.0, 1, 1.0) == []

    @pytest.mark.parametrize("e_max", [math.nan, math.inf])
    def test_a_nan_or_infinite_cutoff_is_refused(self, e_max):
        with pytest.raises(GridError, match=f"energy cutoff must be finite or -inf, got {e_max}"):
            free_dirichlet_spectrum(1.0, 2, e_max)

    def test_a_cutoff_of_minus_infinity_has_no_level(self):
        assert free_dirichlet_spectrum(1.0, 2, -math.inf) == []

    def test_scaling_in_length(self):
        a = free_dirichlet_spectrum(1.0, 1, 200.0)
        b = free_dirichlet_spectrum(2.0, 1, 50.0)
        assert b[0][0] == pytest.approx(a[0][0] / 4)

    def test_gap_one_dimensional_unit_box(self):
        # only the ground state pi^2 sits in [0, 1]; the distance from 0 is it
        assert max_spectral_gap_below(1.0, 1, 0.0) == pytest.approx(math.pi**2)

    def test_gap_known_excess_point(self):
        # the one corner where 6 pi sqrt(E+1)/L fails on the published grid
        g = max_spectral_gap_below(1.0, 2, 0.0)
        assert g == pytest.approx(2 * math.pi**2, rel=1e-12)
        assert g > 6 * math.pi

    def test_gap_shrinks_with_box(self):
        gaps = [max_spectral_gap_below(L, 1, 5.0) for L in (2.0, 4.0, 8.0, 16.0)]
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))

    @given(L=st.sampled_from([1.0, 2.0, 4.0, 8.0]), E=st.sampled_from([0.0, 1.0, 5.0, 20.0]))
    @settings(max_examples=16, deadline=None)
    def test_gap_bounded_by_midpoint_argument(self, L, E):
        # d=1 split: consecutive levels differ by pi^2 (2k+1) / L^2, and the gap
        # is at most half of the largest such difference inside the window
        pairs = free_dirichlet_spectrum(L, 1, 4 * (E + 1) + 40.0 / L**2)
        values = [v for v, _ in pairs]
        worst = max(values[0], max((b - a) / 2 for a, b in zip(values, values[1:])))
        assert max_spectral_gap_below(L, 1, E) <= worst + 1e-12


class TestDiscreteSpectrum:
    def test_matches_dense_eigvalsh(self):
        box = _box(L=2.0, n=12)
        got = discrete_dirichlet_spectrum(box)
        want = np.sort(np.linalg.eigvalsh(build_free_laplacian(box).matrix.toarray()))
        assert np.allclose(got, want, atol=1e-10)

    def test_second_order_convergence(self):
        # relative error of the ground state falls like h^2
        L = math.pi
        errs = []
        for n in (20, 40, 80):
            box = _box(L=L, n=n)
            errs.append(abs(discrete_dirichlet_spectrum(box)[0] - 1.0))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)

    def test_dirichlet_only(self):
        with pytest.raises(GridError):
            discrete_dirichlet_spectrum(_box(n=4, bc="neumann"))

    def test_count_matches_ndof(self):
        box = _box(d=2, n=4)
        assert discrete_dirichlet_spectrum(box).shape == (16,)
