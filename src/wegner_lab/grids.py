"""Finite-difference boxes and discrete Schrodinger operators.

Second-order central differences on a cube of side L centered at x.
Dirichlet grids exclude the boundary (spacing L/(n+1)), Neumann grids put
nodes at cell centers with mirror ghosts (spacing L/n), periodic grids wrap
(spacing L/n).  An operator is two read-only parts: the box's stencil (the
off-diagonal part of -Delta, built once per box from the 1-d second
difference and shared by every operator on it) and its own full diagonal,
to which add_potential adds.  -Delta is the Kronecker sum of the 1-d second
difference, so its diagonal is the Kronecker sum of the 1-d diagonal and its
stencil recurses over the axes; an open box's first-axis slices are the
factors of that recursion, and a periodic box is one slice.  A block of
operators keeps the stencil and the diagonals as one array's columns, and
builds operator objects on request (add_potentials).  A sparse matrix is
summed only for a solver that asks, with an eager sum's additions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Literal, Sequence, get_args

import numpy as np
import scipy.sparse as sp

Bc = Literal["dirichlet", "neumann", "periodic"]

MAX_DIMENSION = 3
DOF_BUDGET = 2_000_000
FREE_CACHE_SIZE = 32  # distinct boxes whose free stencil is kept


class GridError(ValueError):
    pass


def axes_product(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Every point of the product of the axes as an (N, d) array in C order."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


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
        if self.bc not in get_args(Bc):
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
        return axes_product([self.axis_nodes(k) for k in range(self.d)])

    def node_block(self, lo: Sequence[float], hi: Sequence[float]) -> np.ndarray:
        """Flat C-order indices of the nodes in the closed box [lo, hi], each end widened by 1e-12."""
        if not len(lo) == len(hi) == self.d:
            raise GridError(f"corners of {len(lo)} and {len(hi)} coordinates for a box of dimension {self.d}")
        axes = []
        for axis in range(self.d):
            xs = self.axis_nodes(axis)
            inside = np.flatnonzero((xs >= lo[axis] - 1e-12) & (xs <= hi[axis] + 1e-12))
            if inside.size == 0:
                raise GridError(f"no grid node in [{lo[axis]:g}, {hi[axis]:g}] along axis {axis}")
            axes.append(inside)
        return np.ravel_multi_index(axes_product(axes).T, self.shape)


def _read_only(a: np.ndarray | sp.csr_matrix) -> np.ndarray | sp.csr_matrix:
    """a, an array or a sparse matrix, with its arrays made read-only."""
    for arr in (a.data, a.indices, a.indptr) if sp.issparse(a) else (a,):
        arr.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Stencil:
    """The off-diagonal part of every operator on a box, shared read-only.

    `off` is symmetric with nothing on its diagonal.  It also comes as
    slices of m unknowns along the first axis: each slice's own couplings
    `inner` (m x m, shared by every slice) and the couplings between slices
    k and k+1, `coupling[k]` times the identity (in d=1, the off-diagonal
    band).  An open box has n slices; a periodic box is one slice, `inner`
    is `off` and `coupling` is empty.  All three are made read-only.
    """

    box: BoxSpec
    off: sp.csr_matrix
    inner: sp.csr_matrix
    coupling: np.ndarray

    def __post_init__(self) -> None:
        for part in (self.off, self.inner, self.coupling):
            _read_only(part)

    @property
    def is_tridiagonal(self) -> bool:
        return self.box.d == 1 and self.box.bc != "periodic"


@dataclass(frozen=True, eq=False)
class DiscreteHamiltonian:
    """-Laplacian + diag(potential) on a BoxSpec grid: the box's shared
    stencil plus the operator's own full diagonal, both read-only."""

    stencil: Stencil
    diag: np.ndarray

    @property
    def box(self) -> BoxSpec:
        return self.stencil.box

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        """The sparse operator, summed on first use; its arrays are read-only."""
        return _read_only((self.stencil.off + sp.diags(self.diag, format="csr")).tocsr())

    def tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """(diagonal, off-diagonal) bands; only meaningful for d=1 non-periodic."""
        if not self.is_tridiagonal:
            raise GridError("tridiagonal bands exist only for d=1 with open boundary")
        return self.diag, self.stencil.coupling

    @functools.cached_property
    def bisections(self) -> dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """LAPACK stebz's bisections of the d=1 bands per cutoff, in block order:
        the eigenvalues, blocks and splits that spectral._eigs_tridiagonal
        reuses, each array read-only."""
        return {}

    @property
    def is_tridiagonal(self) -> bool:
        return self.stencil.is_tridiagonal


def _kron_sum(values: np.ndarray, d: int) -> np.ndarray:
    """values[i_0] + ... + values[i_{d-1}] over every index tuple in C order, summed axis 0 first."""
    total = values
    for _ in range(d - 1):
        total = (total[:, None] + values[None, :]).ravel()
    return total


@functools.lru_cache(maxsize=FREE_CACHE_SIZE)
def build_free_laplacian(box: BoxSpec) -> DiscreteHamiltonian:
    """-Delta on the box, built from the 1-d second difference.

    Memoised per box: equal boxes share one operator, whose arrays are
    read-only.
    """
    n, inv = box.n, 1.0 / (box.h * box.h)
    main = np.full(n, 2.0 * inv)
    if box.bc == "neumann":
        main[[0, -1]] = inv  # the mirror ghost folds the outward difference back in
    band = np.full(n - 1, -inv)
    off_1 = sp.diags([band, band], [-1, 1], format="csr")
    if box.bc == "periodic":
        off_1 = off_1 + sp.csr_matrix(([-inv, -inv], ([0, n - 1], [n - 1, 0])), shape=(n, n))
    # off_d = kron(off_1, I) + kron(I, off_{d-1}); off_{d-1} is one first-axis slice
    inner, off = sp.csr_matrix((1, 1)), off_1
    for _ in range(box.d - 1):
        inner, off = off, sp.kron(off_1, sp.identity(off.shape[0]), "csr") + sp.kron(sp.identity(n), off, "csr")
    if box.bc == "periodic":  # the wrap couples the last slice to the first, so the box is one slice
        inner, band = off, np.empty(0)
    return DiscreteHamiltonian(Stencil(box, off, inner, band), _read_only(_kron_sum(main, box.d)))


@dataclass(frozen=True, eq=False)
class OperatorBlock:
    """Operators on one stencil: their diagonals the columns of one read-only (ndof, R) array, and their
    potentials.  `operators` builds each column's read-only operator on first use, so a d=1 count builds none."""

    stencil: Stencil
    diag: np.ndarray
    potentials: np.ndarray

    @functools.cached_property
    def operators(self) -> list[DiscreteHamiltonian]:
        return [DiscreteHamiltonian(self.stencil, d) for d in self.diag.T]


def add_potentials(ham: DiscreteHamiltonian, V: np.ndarray) -> OperatorBlock:
    """The operators ham + diag(V[:, r]) on ham's stencil as one block, ham left untouched: the
    potentials' finiteness is checked once, and the diagonals are one elementwise sum."""
    if V.ndim != 2 or V.shape[0] != ham.box.ndof:
        raise GridError(f"potentials of shape {V.shape} for {ham.box.ndof} dof; need one column per operator")
    if not np.isfinite(V).all():
        raise GridError("potential contains non-finite entries")
    diag = _read_only(ham.diag[:, np.newaxis] + V)
    return OperatorBlock(ham.stencil, diag, V)


def add_potential(ham: DiscreteHamiltonian, v: np.ndarray) -> DiscreteHamiltonian:
    """Return the operator with diag(v) added, on the same stencil; the input is left untouched."""
    return add_potentials(ham, np.asarray(v, dtype=float).reshape(-1, 1)).operators[0]


def free_dirichlet_spectrum(L: float, d: int, E_max: float) -> list[tuple[float, int]]:
    """Continuum Dirichlet eigenvalues (pi^2/L^2) * sum(n_j^2) up to E_max.

    Returns (eigenvalue, multiplicity) pairs sorted ascending.  E_max below
    the ground state (-inf too) yields an empty list; a NaN or +inf one has
    no finite list and raises GridError.
    """
    if not (1 <= d <= MAX_DIMENSION):
        raise GridError(f"dimension {d} unsupported")
    if not (L > 0 and math.isfinite(L)):
        raise GridError("box length must be positive")
    if not E_max < math.inf:
        raise GridError(f"energy cutoff must be finite or -inf, got {E_max}")
    scale = (math.pi / L) ** 2
    cap = E_max / scale
    if cap < d:  # smallest integer sum of d squares is d
        return []
    n_max = int(math.isqrt(int(cap)) + 1)
    sums, counts = np.unique(_kron_sum(np.arange(1, n_max + 1) ** 2, d), return_counts=True)
    keep = sums <= cap * (1 + 1e-15)
    return [(scale * int(s), int(c)) for s, c in zip(sums[keep], counts[keep])]


def discrete_dirichlet_spectrum(box: BoxSpec) -> np.ndarray:
    """All eigenvalues of the free discrete Dirichlet operator on the box, sorted.

    Exact closed form: per-axis values (4/h^2) sin^2(k pi h / (2L)) summed
    across axes.  Only valid for Dirichlet boundary conditions.
    """
    if box.bc != "dirichlet":
        raise GridError("closed-form spectrum implemented for Dirichlet boxes only")
    k = np.arange(1, box.n + 1, dtype=float)
    lam_axis = (4.0 / box.h**2) * np.sin(k * math.pi * box.h / (2.0 * box.length)) ** 2
    return np.sort(_kron_sum(lam_axis, box.d))
