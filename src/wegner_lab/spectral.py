"""Spectral primitives: counting, bounded eigensolves, resolvent blocks.

Counting is exact integer arithmetic on matrix inertia, so interval counts
never depend on eigensolver convergence.  Which count runs depends on the box:

- d=1 with Dirichlet or Neumann boundary: a Sturm sequence on the
  tridiagonal bands (`sturm_count`).  A block of replicas keeps its
  diagonals as one (n, R) array beside the shared off-diagonal
  (`grids.OperatorBlock`), and the block queries (`count_windows`,
  `resolvent_norms`) read their counts from one numpy recurrence over every
  (operator, shift) lane of it, whatever the block's size: one step per
  unknown, with the scalar loop's IEEE operations in the same order.  The
  shifts are the window ends or z -+ 1e-10.  A count of one operator alone
  (inertia_count) runs the Python-float loop.
- everything else (d>=2, and periodic boxes): the block Sturm count
  (`block_sturm_count`) on the stencil's first-axis slices and the diagonal
  cut into one row per slice.  An open box has n slices of n^(d-1)
  unknowns; a periodic box is one slice.  Each Schur block's count comes
  from the Bunch-Kaufman factor that its inverse is built from.  A shift
  at which a Schur block is nearly singular is counted at x -+ 10
  SCHUR_PIVOT_TOL x the operator scale instead; unequal counts raise
  ResonantSampleError.  The count is exact at every size whose slice fits
  INERTIA_DENSE_LIMIT, so every open d=2 box within the dof budget; a
  larger slice is refused with EigensolverError, since no answer rests on
  an uncertified count.

The iterative eigensolver accepts its Ritz values only when they number
exactly the inertia count, and refuses to return silently short.

On the d=1 bands eigs_below runs LAPACK's bisection stebz over (floor, e_max],
the floor below the Gershgorin disc, then stein for the vectors.  The
bisection depends only on the operator and the cutoff, so each operator
keeps it per cutoff, in stebz's block order (`DiscreteHamiltonian.bisections`,
read-only), and bisects a cutoff once for calls with and without vectors;
stein runs on every call, so no n x k vectors are kept.  The free operator
is memoised per box, so every scan over a box shares its bisections.

A resolvent block is refused when the shift lies within 1e-10 of an
eigenvalue (the two resonance counts differ).  Otherwise one factorization
serves every column: LAPACK's gtsv on the d=1 bands, sparse LU in d>=2; the
block's norm is its largest singular value from LAPACK's gesdd.  All four
LAPACK routines (stebz, stein, gtsv, gesdd) are called directly, fetched as
scipy's eigh_tridiagonal, solve_banded and svdvals fetch them, with their
arguments, so the bits are theirs.

Everything here is deterministic: iterative starts come from a fixed
counter-based key, never from global state.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .grids import BoxSpec, DiscreteHamiltonian, OperatorBlock
from .thick_sets import RasterSet

DENSE_LIMIT = 2000  # largest operator eigs_below solves densely; Lanczos runs above it
INERTIA_DENSE_LIMIT = 4096  # largest slice (a Schur block; a whole periodic box) factored densely
SCHUR_PIVOT_TOL = 1e-10  # relative to the operator scale: a Schur block this close to singular is refused
_LANCZOS_KEY = 12345


class EigensolverError(RuntimeError):
    pass


class ResonantSampleError(RuntimeError):
    """The shift sits too close to an eigenvalue to trust a factorization."""


@dataclass(frozen=True, eq=False)
class EigenResult:
    eigenvalues: np.ndarray  # ascending, all <= the requested cutoff
    eigenvectors: np.ndarray | None  # columns match eigenvalues when requested
    method: str


def _operator_scale(H: DiscreteHamiltonian) -> float:
    # 1-norm of a symmetric matrix (its largest absolute row sum) dominates its
    # spectral radius; the stencil's first-axis slices give it without summing the sparse matrix
    inner = H.stencil.inner
    rows = np.abs(H.diag.reshape(-1, inner.shape[0])) + np.asarray(abs(inner).sum(axis=1)).ravel()
    side = np.abs(H.stencil.coupling)[:, np.newaxis]
    rows[1:] += side
    rows[:-1] += side
    return float(max(rows.max(), 1.0))


_STURM_CHUNK = 8  # steps per chunk of _sturm_lanes: few, so its (steps, R, S) buffer stays small


def _sturm_steps(q: np.ndarray | None, o2: list[float], chunk: np.ndarray, zero_rule: bool) -> None:
    """Turn the chunk's d - x into the pivots q_i = (d_i - x) - o2_i / q_{i-1}, in place, from
    the pivot q before it (None at the first unknown); zero_rule takes a zero pivot as 1e-300."""
    ratio = np.empty(chunk.shape[1:])
    for o2_i, q_i in zip(o2, chunk):
        if q is not None:
            np.divide(o2_i, q, out=ratio)
            np.subtract(q_i, ratio, out=q_i)
        if zero_rule and not q_i.all():
            np.copyto(q_i, 1e-300, where=q_i == 0.0)
        q = q_i


def _sturm_lanes(diag: np.ndarray, o2: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """The recurrence of sturm_count's loop on every (column, shift) lane at once: (R, S) counts.

    The steps go in chunks of _STURM_CHUNK: one subtraction forms d - x for
    the chunk, then each step is one division and one subtraction over the
    R x S lanes.  At the end of a chunk one pass counts its negative pivots;
    a chunk with an exact zero pivot is first run again with the loop's
    1e-300 rule, step by step.  The IEEE operations per lane are the loop's,
    in its order, so the counts are its counts.
    """
    count = np.zeros((diag.shape[1], shifts.shape[0]), dtype=np.int64)
    o2 = [0.0] + o2.tolist()  # o2[i] meets the pivot before step i; step 0 has none
    q = None
    # a zero pivot divides before its chunk is run again; a 1e-300 one can overflow the next quotient, as in the loop
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, diag.shape[0], _STURM_CHUNK):
            rows = diag[start : start + _STURM_CHUNK, :, np.newaxis]
            chunk = rows - shifts
            _sturm_steps(q, o2[start : start + _STURM_CHUNK], chunk, zero_rule=False)
            if not chunk.all():
                chunk = rows - shifts
                _sturm_steps(q, o2[start : start + _STURM_CHUNK], chunk, zero_rule=True)
            count += (chunk < 0.0).sum(axis=0)
            q = chunk[-1]
    return count


def sturm_count(diag: np.ndarray, off: np.ndarray, x: float | Sequence[float]) -> int | np.ndarray:
    """Eigenvalues strictly below x of symmetric tridiagonal matrices.

    The Sturm sequence of Barth, Martin and Wilkinson (1967): the count of
    negative q_i in q_1 = d_1 - x, q_i = (d_i - x) - o_i*o_i / q_{i-1}, a zero
    q_i taken as 1e-300.  With a 1-d diag and a scalar x the answer is an int,
    from a loop on Python floats.  A 2-d diag holds one diagonal per column (all
    sharing off) and x is then a sequence of shifts: the answer is the (R, S)
    array of counts, diagonal by shift, from one numpy recurrence over all
    (column, shift) lanes.
    """
    off = np.asarray(off, dtype=float)
    diag = np.asarray(diag, dtype=float)
    if diag.ndim == 2:
        return _sturm_lanes(diag, off * off, np.asarray(x, dtype=float).reshape(-1))
    # Python floats are much cheaper to index and combine than numpy scalars
    x = float(x)
    d = diag.tolist()
    count = 0
    q = d[0] - x
    if q == 0.0:
        q = 1e-300
    elif q < 0.0:
        count += 1
    for di, o2 in zip(d[1:], (off * off).tolist()):
        q = (di - x) - o2 / q
        if q == 0.0:
            q = 1e-300
        elif q < 0.0:
            count += 1
    return count


def block_sturm_count(inner: sp.csr_matrix, diag: np.ndarray, coupling: np.ndarray, x: float, tol: float) -> int | None:
    """Eigenvalues strictly below x of the block tridiagonal operator with
    diagonal blocks D_k = inner + diag(diag[k]) and off-diagonal blocks
    coupling[k] I: a stencil's first-axis slices and an (n, m) diagonal.

    Block LDL^T: S_1 = D_1 - x and S_k = D_k - x - c_k^2 S_{k-1}^{-1}.  By
    Sylvester's law of inertia and Haynsworth's inertia additivity the count
    is the sum of the negative eigenvalue counts of the S_k; this is
    `sturm_count` with m x m blocks for scalars.  S_k's count comes from the
    Bunch-Kaufman factor (dsytrf) its inverse is built from: its negative
    1x1 pivots, and each 2x2 pivot once (Bunch-Kaufman picks one only with a
    negative determinant).  Returns None when a non-final S_k is nearly
    singular, ||S_k^{-1}||_1 >= 1/tol or not a number (so at every
    eigenvalue within tol of zero): its inverse would carry rounding large
    enough to flip later signs.
    """
    x = float(x)
    base = inner.toarray()
    on_diag = np.diag_indices_from(base)
    below = np.tril_indices_from(base, -1)
    last = diag.shape[0] - 1
    count = 0
    for k, dk in enumerate(diag):
        S = base.copy()
        S[on_diag] = dk - x
        if k:
            c = coupling[k - 1]
            S -= (c * c) * s_inv
        factor, pivots, info = sla.lapack.dsytrf(S, lower=1)
        one = pivots > 0  # a 2x2 pivot fills two entries of pivots, both negative
        count += int(np.count_nonzero(np.diagonal(factor)[one] < 0.0)) + int(np.count_nonzero(~one)) // 2
        if k == last:
            return count
        if info == 0:
            s_inv, info = sla.lapack.dsytri(factor, pivots, lower=1)
        if info != 0:
            return None
        s_inv.T[below] = s_inv[below]  # dsytri fills the lower triangle only
        if not np.abs(s_inv).sum(axis=0).max() * tol < 1.0:  # an overflowed inverse gives a NaN norm
            return None


def _check_shifts(*shifts: float) -> None:
    """Refuse a NaN shift: every sign test would read its NaN pivots as not below, and count nothing."""
    if any(map(math.isnan, shifts)):
        raise ValueError("no eigenvalue count below shift nan")


def inertia_count(H: DiscreteHamiltonian, x: float) -> int:
    """Number of eigenvalues strictly below x; a NaN x raises ValueError, an infinite one counts none or all.

    On the d=1 bands this is sturm_count's loop; off them, the block Sturm
    count on the stencil's slices (a periodic box is one slice).  Where a
    Schur block is nearly singular, equal counts at x -+ delta leave no
    eigenvalue in [x - delta, x + delta) and are the count at x; unequal
    ones raise ResonantSampleError.  A slice over INERTIA_DENSE_LIMIT
    unknowns has no exact count: EigensolverError.
    """
    _check_shifts(x)
    if H.is_tridiagonal:
        diag, off = H.tridiagonal()
        return sturm_count(diag, off, x)
    inner, coupling = H.stencil.inner, H.stencil.coupling
    m = inner.shape[0]
    if m > INERTIA_DENSE_LIMIT:
        raise EigensolverError(f"no exact eigenvalue count: {m} unknowns to factor densely, limit {INERTIA_DENSE_LIMIT}")
    diag = H.diag.reshape(-1, m)
    tol = SCHUR_PIVOT_TOL * _operator_scale(H)
    count = block_sturm_count(inner, diag, coupling, x, tol)
    if count is None:
        delta = 10.0 * tol
        count, above = (block_sturm_count(inner, diag, coupling, y, tol) for y in (x - delta, x + delta))
        if count is None or count != above:
            raise ResonantSampleError(f"an eigenvalue may lie within {delta:.3g} of shift {x}")
    return count


def _window_ends(lo: float, hi: float) -> list[tuple[float, int]]:
    """The closed window [lo, hi] as (shift, sign) pairs, its count the sum of sign x (count below shift), for
    count_in_interval and count_windows alike.  An empty window (hi < lo) has none; an end at -inf is left out.
    Finite ends move outward by 1e-12 x max(1, their magnitudes), far below eigenvalue spacing here."""
    if hi < lo:
        return []
    delta = 1e-12 * max(1.0, abs(lo) if math.isfinite(lo) else 0.0, abs(hi) if math.isfinite(hi) else 0.0)
    return [(hi + delta, 1)] + ([] if lo == -math.inf else [(lo - delta, -1)])


def count_in_interval(H: DiscreteHamiltonian, lo: float, hi: float) -> int:
    """Exact count of eigenvalues in the closed interval [lo, hi]."""
    return sum(sign * inertia_count(H, x) for x, sign in _window_ends(lo, hi))


def count_windows(block: OperatorBlock, windows: Sequence[tuple[float, float]]) -> list[tuple[int, ...]]:
    """Each operator's count_in_interval in every closed (lo, hi) window; a NaN end is refused before any count.
    A d=1 block with an open boundary reads every window from one sturm_count pass over its lanes."""
    ends = [_window_ends(lo, hi) for lo, hi in windows]
    shifts = sorted({x for pairs in ends for x, _ in pairs})
    _check_shifts(*shifts)
    if not block.stencil.is_tridiagonal:
        return [tuple(count_in_interval(H, lo, hi) for lo, hi in windows) for H in block.operators]
    below = dict(zip(shifts, sturm_count(block.diag, block.stencil.coupling, shifts).T))
    counts = np.empty((len(windows), block.diag.shape[1]), dtype=np.int64)
    for row, pairs in zip(counts, ends):
        row[...] = sum(sign * below[x] for x, sign in pairs)
    return list(map(tuple, counts.T.tolist()))


# the LAPACK routines behind scipy.linalg.eigh_tridiagonal's select by value,
# fetched the way it fetches them
_STEBZ, _STEIN = sla.get_lapack_funcs(("stebz", "stein"), dtype=np.float64)


def _check_info(info: int, routine: str) -> None:
    """Raise on a LAPACK routine's nonzero info, as scipy's wrappers do."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine} failed with info {info}")


def _bisect(H: DiscreteHamiltonian, e_max: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """stebz's eigenvalues of the bands in (floor, e_max], with their blocks and
    splits, in order "B" (by block); kept in H.bisections.

    The floor lies below the Gershgorin disc, so every eigenvalue at or
    below e_max is found; a cutoff at or below the floor has none, and
    stebz is never asked for an empty range (it refuses one).
    """
    found = H.bisections.get(e_max)
    if found is None:
        diag, off = H.tridiagonal()
        floor = float(diag.min() - 2.0 * (abs(off).max() if off.size else 0.0) - 1.0)
        if not e_max > floor:
            found = (np.empty(0), np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32))
        else:
            m, w, iblock, isplit, info = _STEBZ(diag, off, 1, floor, e_max, 1, 1, 0.0, "B")
            _check_info(info, "stebz")
            found = (w[:m].copy(), iblock, isplit)  # not a view of all n entries
        for a in found:
            a.flags.writeable = False
        H.bisections[e_max] = found
    return found


def _eigs_tridiagonal(H: DiscreteHamiltonian, e_max: float, want_vectors: bool) -> EigenResult:
    """eigh_tridiagonal's select by value, from its LAPACK calls: stebz with
    tol 0 in block order (memoised per cutoff), sorted, and stein for the
    vectors.  stebz's ascending order "E" is the same bisection, sorted."""
    w, iblock, isplit = _bisect(H, e_max)
    if not want_vectors:
        return EigenResult(np.sort(w), None, "tridiagonal")
    if not w.size:
        return EigenResult(w, np.empty((H.box.ndof, 0)), "tridiagonal")
    v, info = _STEIN(*H.tridiagonal(), w, iblock, isplit)
    _check_info(info, "stein")
    order = np.argsort(w)
    return EigenResult(w[order], v[:, order], "tridiagonal")


def _eigs_dense(H: DiscreteHamiltonian, e_max: float, want_vectors: bool) -> EigenResult:
    out = sla.eigh(H.matrix.toarray(), eigvals_only=not want_vectors, subset_by_value=(-np.inf, e_max))
    return EigenResult(*(out if want_vectors else (out, None)), "dense")


def _eigs_lanczos(H: DiscreteHamiltonian, e_max: float, want_vectors: bool) -> EigenResult:
    """Lanczos with full reorthogonalization, certified by the inertia count.

    The start vector comes from a fixed counter-based key so repeated runs
    agree bit for bit.  Iteration proceeds in blocks of 60 steps until the
    Ritz values at or below the cutoff are accepted: they number exactly the
    inertia count, and each has a residual bound within tol (100 tol once the
    steps run out, else the run is refused).
    """
    n = H.box.ndof
    scale = _operator_scale(H)
    tol = 1e-9 * scale
    want_count = inertia_count(H, _window_ends(-math.inf, e_max)[0][0])
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=_LANCZOS_KEY)))
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    max_steps = min(n, 600)
    V = np.empty((n, max_steps + 1))
    V[:, 0] = v
    alphas: list[float] = []
    betas: list[float] = []
    theta = S = None
    m = 0
    exhausted = False

    def accepted(bound: float) -> bool:
        sel = theta <= e_max
        if int(sel.sum()) != want_count:
            return False
        # an exact invariant subspace leaves no residual
        return exhausted or bool(np.all(np.abs(betas[-1] * S[-1, sel]) <= bound))

    for step in range(max_steps):
        w = H.matrix @ V[:, step]
        if step > 0:
            w -= betas[step - 1] * V[:, step - 1]
        alpha = float(V[:, step] @ w)
        w -= alpha * V[:, step]
        # two passes of full reorthogonalization keep ghosts out
        for _ in range(2):
            w -= V[:, : step + 1] @ (V[:, : step + 1].T @ w)
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        betas.append(beta)
        m = step + 1
        if beta <= 1e-13 * scale:
            exhausted = True  # exact invariant subspace
        else:
            V[:, step + 1] = w / beta
        if exhausted or m == max_steps or (m % 60 == 0):
            theta, S = sla.eigh_tridiagonal(np.array(alphas), np.array(betas[:-1]))
            if exhausted or accepted(tol):
                break
    sel = theta <= e_max
    if not accepted(100 * tol):
        raise EigensolverError(
            f"iteration stalled: {int(sel.sum())} Ritz values at cutoff, inertia says {want_count}"
            f" (residuals within {100 * tol:.3g} required)"
        )
    return EigenResult(theta[sel], V[:, :m] @ S[:, sel] if want_vectors else None, "lanczos")


def eigs_below(H: DiscreteHamiltonian, e_max: float, want_vectors: bool = False) -> EigenResult:
    """All eigenvalues (with multiplicity) at or below e_max, ascending.

    The operator picks the solver: the bands for d=1 with open boundary, a
    dense solve up to DENSE_LIMIT unknowns, Lanczos beyond.
    """
    if H.is_tridiagonal:
        return _eigs_tridiagonal(H, e_max, want_vectors)
    if H.box.ndof <= DENSE_LIMIT:
        return _eigs_dense(H, e_max, want_vectors)
    return _eigs_lanczos(H, e_max, want_vectors)


# ---------------------------------------------------------------------------
# resolvent blocks


# the LAPACK routines behind scipy.linalg.solve_banded (one band each side)
# and svdvals, fetched the way those wrappers fetch them
(_GTSV,) = sla.get_lapack_funcs(("gtsv",), dtype=np.float64)
_GESDD, _GESDD_LWORK = sla.get_lapack_funcs(("gesdd", "gesdd_lwork"), dtype=np.float64, ilp64="preferred")


def _resonance_shifts(z: float) -> tuple[float, float]:
    """The two shifts whose eigenvalue counts differ when z is within 1e-10 of an eigenvalue."""
    return z - 1e-10, z + 1e-10


def _check_disjoint(rows: np.ndarray, cols: np.ndarray) -> None:
    if not set(rows.tolist()).isdisjoint(cols.tolist()):
        raise ValueError("blocks overlap; the off-diagonal norm is not defined")


def resolvent_block_norm(
    H: DiscreteHamiltonian,
    z: float,
    rows: np.ndarray,
    cols: np.ndarray,
) -> float:
    """Operator norm of the rows-by-cols block of (H - z)^{-1}, for flat node indices (BoxSpec.node_block).

    One factorization serves every column; the norm of the extracted dense
    block is then exact (up to the factorization's own accuracy).  A shift
    within 1e-10 of an eigenvalue is refused rather than silently amplified.
    """
    _check_disjoint(rows, cols)
    lo, hi = _resonance_shifts(z)
    if inertia_count(H, lo) != inertia_count(H, hi):
        raise ResonantSampleError(f"eigenvalue within 1e-10 of shift {z}")
    return _off_resonance_norm(H, z, rows, cols)


def _off_resonance_norm(H: DiscreteHamiltonian, z: float, rows: np.ndarray, cols: np.ndarray) -> float:
    """resolvent_block_norm past its checks: the solve and the block's largest singular value."""
    if rows.size == 0 or cols.size == 0:
        return 0.0
    n = H.box.ndof
    rhs = np.zeros((n, cols.size), order="F")
    rhs[cols, np.arange(cols.size)] = 1.0
    if H.is_tridiagonal:
        diag, off = H.tridiagonal()
        *_, sol, info = _GTSV(off, diag - z, off, rhs, overwrite_d=1, overwrite_b=1)
        if info > 0:
            raise ResonantSampleError(f"zero pivot in row {info} of the tridiagonal solve at shift {z}")
        _check_info(info, "gtsv")
    else:
        from scipy.sparse.linalg import splu  # about 18 ms to load; d=1 runs never need it

        lu = splu(sp.csc_matrix(H.matrix - z * sp.identity(n, format="csc")))
        sol = lu.solve(rhs)
    M = sol[rows, :]
    if not np.all(np.isfinite(M)):
        raise ResonantSampleError("factorization produced non-finite entries at this shift")
    work, info = _GESDD_LWORK(*M.shape, compute_uv=0, full_matrices=1)
    if info == 0:
        _, s, _, info = _GESDD(M, compute_uv=0, full_matrices=1, lwork=int(work), overwrite_a=1)
    _check_info(info, "gesdd")
    return float(s[0])


def _or_none(norm, *args) -> float | None:
    try:
        return norm(*args)
    except ResonantSampleError:
        return None


def resolvent_norms(block: OperatorBlock, z: float, rows: np.ndarray, cols: np.ndarray) -> list[float | None]:
    """Each operator's resolvent_block_norm, None where z is resonant for it; a NaN z is refused before any count.
    A d=1 block with an open boundary reads both resonance counts from one sturm_count pass over its lanes."""
    shifts = _resonance_shifts(z)
    _check_shifts(*shifts)
    if not block.stencil.is_tridiagonal:
        return [_or_none(resolvent_block_norm, H, z, rows, cols) for H in block.operators]
    _check_disjoint(rows, cols)
    resonant = [lo != hi for lo, hi in sturm_count(block.diag, block.stencil.coupling, shifts).tolist()]
    return [None if r else _or_none(_off_resonance_norm, H, z, rows, cols) for H, r in zip(block.operators, resonant)]


# ---------------------------------------------------------------------------
# compressed indicators over a spectral subspace


def compressed_indicator_min_eig(basis: np.ndarray, box: BoxSpec, S: RasterSet) -> float:
    """Smallest eigenvalue of the indicator of S compressed to span(basis).

    basis columns must be orthonormal in the mesh inner product (plain dot
    product; uniform cell volumes cancel from the Rayleigh quotient).  The
    result lies in [0, 1]; its distance from zero is the certified fraction
    of mass any unit vector of the subspace keeps on S.
    """
    if basis.ndim != 2 or basis.shape[0] != box.ndof:
        raise ValueError("basis must be ndof-by-k")
    k = basis.shape[1]
    if k == 0:
        raise ValueError("empty basis")
    gram_id = basis.T @ basis - np.eye(k)
    if float(np.abs(gram_id).max()) > 1e-8:
        raise EigensolverError("basis columns are not orthonormal to the required tolerance")
    mask = S.contains(box.nodes()).astype(float)
    G = basis.T @ (mask[:, np.newaxis] * basis)
    return float(sla.eigvalsh(0.5 * (G + G.T))[0])
