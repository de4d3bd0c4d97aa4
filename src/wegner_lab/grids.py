"""Finite-difference boxes and discrete Schrodinger operators.

Second-order central differences on a cube of side L centered at x.
Dirichlet grids exclude the boundary (spacing L/(n+1)), Neumann grids put
nodes at cell centers with mirror ghosts (spacing L/n), periodic grids wrap
(spacing L/n).  The free stencil is a sparse symmetric matrix, assembled
once per box and shared read-only; symmetry is exact by construction, not up
to tolerance.  Adding a potential keeps the parent operator and the added
diagonal instead of a new matrix: d=1 open-boundary operators expose their
tridiagonal bands directly, d>=2 open-boundary operators their blocks along
the first axis, and the sparse matrix is summed only when a solver asks for
it, with the same floating-point additions an eager sum does.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
import scipy.sparse as sp

Bc = Literal["dirichlet", "neumann", "periodic"]

MAX_DIMENSION = 3
DOF_BUDGET = 2_000_000
DENSE_LIMIT = 2000  # dense eigensolves above this many dof are refused
FREE_CACHE_SIZE = 32  # distinct boxes whose free stencil is kept


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class BoxSpec:
    """Cube Lambda_L(x): side length L, center x, n interior points per axis."""

    d: int
    length: float
    center: tuple[float, ...]
    n: int
    bc: Bc = "dirichlet"

    def __post_init__(self) -> None:
        # plain floats keep the box hashable whatever sequence the center came in
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if not (1 <= self.d <= MAX_DIMENSION):
            raise GridError(f"dimension {self.d} unsupported, need 1..{MAX_DIMENSION}")
        if not (self.length > 0 and math.isfinite(self.length)):
            raise GridError(f"box length must be positive, got {self.length}")
        if len(self.center) != self.d:
            raise GridError("center must have one coordinate per axis")
        if self.n < 2:
            raise GridError("need at least two grid points per axis")
        if self.bc not in ("dirichlet", "neumann", "periodic"):
            raise GridError(f"unknown boundary condition {self.bc!r}")
        if self.n**self.d > DOF_BUDGET:
            raise GridError(f"{self.n}^{self.d} grid points exceed the dof budget {DOF_BUDGET}")

    @property
    def h(self) -> float:
        if self.bc == "dirichlet":
            return self.length / (self.n + 1)
        return self.length / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def ndof(self) -> int:
        return self.n**self.d

    def axis_nodes(self, axis: int) -> np.ndarray:
        """Grid coordinates along one axis."""
        lo = self.center[axis] - self.length / 2
        i = np.arange(self.n, dtype=float)
        if self.bc == "dirichlet":
            return lo + (i + 1.0) * self.h
        if self.bc == "neumann":
            return lo + (i + 0.5) * self.h
        return lo + i * self.h

    def nodes(self) -> np.ndarray:
        """All grid points as an (ndof, d) array in C order."""
        axes = [self.axis_nodes(k) for k in range(self.d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class BlockTridiagonal:
    """An operator cut along its first axis into n slices of m unknowns.

    Diagonal block k is inner + diag(diag[k]); slices k and k+1 meet through
    coupling[k] times the identity.  Every slice shares `inner` (its own
    couplings, zero on the diagonal), so the blocks read the same in reverse.
    """

    inner: sp.csr_matrix  # m x m
    diag: np.ndarray  # (n, m): the operator's diagonal, one row per slice
    coupling: np.ndarray  # (n - 1,)

    def reversed(self) -> BlockTridiagonal:
        return BlockTridiagonal(self.inner, self.diag[::-1], self.coupling[::-1])


def _slice_blocks(a: sp.csr_matrix, n: int) -> BlockTridiagonal:
    """Slice a leaf matrix, refusing one the slices would not reproduce exactly."""
    m = a.shape[0] // n
    first = a[:m, :m]
    inner = (sp.triu(first, 1) + sp.tril(first, -1)).tocsr()
    blocks = BlockTridiagonal(inner, a.diagonal().reshape(n, m), a.diagonal(k=-m)[::m].copy())
    rebuilt = (
        sp.kron(sp.identity(n), inner)
        + sp.diags(blocks.diag.ravel())
        + sp.kron(sp.diags([blocks.coupling, blocks.coupling], [-1, 1]), sp.identity(m))
    )
    if (rebuilt != a).nnz:
        raise GridError("operator is not block tridiagonal along its first axis")
    for arr in (inner.data, inner.indices, inner.indptr, blocks.diag, blocks.coupling):
        _read_only(arr)
    return blocks


@dataclass(frozen=True, eq=False)
class DiscreteHamiltonian:
    """-Laplacian + diag(potential) on a BoxSpec grid.

    A leaf operator holds its sparse matrix in `leaf_matrix`.  One made by
    add_potential holds its parent and the added diagonal instead, and
    derives its bands, its blocks and its matrix from them on first use.
    """

    box: BoxSpec
    potential: np.ndarray
    leaf_matrix: sp.csr_matrix | None = None
    parent: DiscreteHamiltonian | None = None
    added: np.ndarray | None = None

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        if self.leaf_matrix is not None:
            return self.leaf_matrix
        assert self.parent is not None and self.added is not None
        return (self.parent.matrix + sp.diags(self.added, format="csr")).tocsr()

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()

    def tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """(diagonal, off-diagonal) bands; only meaningful for d=1 non-periodic."""
        if not self.is_tridiagonal:
            raise GridError("tridiagonal bands exist only for d=1 with open boundary")
        return self._bands

    @functools.cached_property
    def _bands(self) -> tuple[np.ndarray, np.ndarray]:
        # d=1 slices hold one unknown each: their diagonal and couplings are the bands
        return self._blocks.diag[:, 0], self._blocks.coupling

    @functools.cached_property
    def below(self) -> dict[float, int]:
        """Counts of eigenvalues strictly below a shift, found ahead of the
        queries that read them (spectral.precount_windows)."""
        return {}

    @property
    def is_tridiagonal(self) -> bool:
        return self.box.d == 1 and self.box.bc != "periodic"

    def blocks(self) -> BlockTridiagonal:
        """Slices along the first axis; only for d>=2 with open boundary."""
        if not self.is_block_tridiagonal:
            raise GridError("first-axis blocks exist only for d>=2 with open boundary")
        return self._blocks

    @functools.cached_property
    def _blocks(self) -> BlockTridiagonal:
        if self.parent is not None:
            # the sparse sum makes these same additions on the diagonal
            b = self.parent._blocks
            return BlockTridiagonal(b.inner, _read_only(b.diag + self.added.reshape(b.diag.shape)), b.coupling)
        return _slice_blocks(self.matrix, self.box.n)

    @property
    def is_block_tridiagonal(self) -> bool:
        return self.box.d >= 2 and self.box.bc != "periodic"


def _laplacian_1d(n: int, h: float, bc: Bc) -> sp.csr_matrix:
    main = np.full(n, 2.0)
    side = np.full(n - 1, -1.0)
    mat = sp.diags([side, main, side], [-1, 0, 1], format="lil")
    if bc == "neumann":
        # mirror ghost node folds the outward difference back in
        mat[0, 0] = 1.0
        mat[n - 1, n - 1] = 1.0
    elif bc == "periodic":
        mat[0, n - 1] += -1.0
        mat[n - 1, 0] += -1.0
    return (mat.tocsr() * (1.0 / (h * h))).tocsr()


@functools.lru_cache(maxsize=FREE_CACHE_SIZE)
def build_free_laplacian(box: BoxSpec) -> DiscreteHamiltonian:
    """Assemble -Delta on the box as a Kronecker sum of 1-d stencils.

    Memoised per box: equal boxes share one operator, whose arrays are
    read-only.
    """
    one = _laplacian_1d(box.n, box.h, box.bc)
    eye = sp.identity(box.n, format="csr")
    total: sp.spmatrix | None = None
    for axis in range(box.d):
        factors = [one if k == axis else eye for k in range(box.d)]
        term = factors[0]
        for f in factors[1:]:
            term = sp.kron(term, f, format="csr")
        total = term if total is None else total + term
    assert total is not None
    total = total.tocsr()
    for a in (total.data, total.indices, total.indptr):
        _read_only(a)
    return DiscreteHamiltonian(box=box, potential=_read_only(np.zeros(box.ndof)), leaf_matrix=total)


def add_potential(ham: DiscreteHamiltonian, v: np.ndarray) -> DiscreteHamiltonian:
    """Return a new operator with diag(v) added; the input is left untouched."""
    v = np.array(v, dtype=float).ravel()  # a copy, so later writes by the caller cannot reach it
    if v.shape[0] != ham.box.ndof:
        raise GridError(f"potential length {v.shape[0]} does not match {ham.box.ndof} dof")
    if not np.all(np.isfinite(v)):
        raise GridError("potential contains non-finite entries")
    return DiscreteHamiltonian(box=ham.box, potential=ham.potential + v, parent=ham, added=_read_only(v))


def diagonal_hamiltonian(box: BoxSpec, diag: np.ndarray) -> DiscreteHamiltonian:
    """Test seam: a purely diagonal operator on the box grid (free part zeroed)."""
    diag = np.asarray(diag, dtype=float).ravel()
    if diag.shape[0] != box.ndof:
        raise GridError("diagonal length does not match the grid")
    return DiscreteHamiltonian(box=box, potential=diag.copy(), leaf_matrix=sp.diags(diag, format="csr").tocsr())


def free_dirichlet_spectrum(L: float, d: int, E_max: float) -> list[tuple[float, int]]:
    """Continuum Dirichlet eigenvalues (pi^2/L^2) * sum(n_j^2) up to E_max.

    Returns (eigenvalue, multiplicity) pairs sorted ascending.  E_max below
    the ground state yields an empty list rather than an error.
    """
    if not (1 <= d <= MAX_DIMENSION):
        raise GridError(f"dimension {d} unsupported")
    if not (L > 0 and math.isfinite(L)):
        raise GridError("box length must be positive")
    scale = math.pi * math.pi / (L * L)
    cap = E_max / scale
    if cap < d:  # smallest integer sum of d squares is d
        return []
    n_max = int(math.isqrt(int(cap)) + 1)
    counts: dict[int, int] = {}
    for tup in itertools.product(range(1, n_max + 1), repeat=d):
        s = sum(t * t for t in tup)
        if s <= cap * (1 + 1e-15):
            counts[s] = counts.get(s, 0) + 1
    return [(scale * s, counts[s]) for s in sorted(counts)]


def max_spectral_gap_below(L: float, d: int, E: float) -> float:
    """Largest distance from any energy in [0, E+1] to the continuum Dirichlet spectrum.

    The maximum is attained at 0, at a midpoint between consecutive
    eigenvalues, or at E+1, so a finite candidate scan is exact.
    """
    if E < 0:
        raise GridError("energy must be nonnegative")
    top = E + 1.0
    # enumerate eigenvalues until at least one lies above the scan window
    e_max = 2.0 * top + 10.0 * math.pi * math.pi / (L * L)
    while True:
        pairs = free_dirichlet_spectrum(L, d, e_max)
        if pairs and pairs[-1][0] > top:
            break
        e_max = 2.0 * e_max + 10.0
    values = np.array([v for v, _ in pairs])
    candidates = [0.0, top]
    for a, b in zip(values, values[1:]):
        mid = 0.5 * (a + b)
        if 0.0 <= mid <= top:
            candidates.append(mid)
    return max(float(np.min(np.abs(values - c))) for c in candidates)


def discrete_dirichlet_spectrum(box: BoxSpec) -> np.ndarray:
    """All eigenvalues of the free discrete Dirichlet operator on the box, sorted.

    Exact closed form: per-axis values (4/h^2) sin^2(k pi h / (2L)) summed
    across axes.  Only valid for Dirichlet boundary conditions.
    """
    if box.bc != "dirichlet":
        raise GridError("closed-form spectrum implemented for Dirichlet boxes only")
    k = np.arange(1, box.n + 1, dtype=float)
    lam_axis = (4.0 / box.h**2) * np.sin(k * math.pi * box.h / (2.0 * box.length)) ** 2
    total = lam_axis
    for _ in range(box.d - 1):
        total = (total[:, None] + lam_axis[None, :]).ravel()
    return np.sort(total)
