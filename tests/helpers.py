"""Test-side helpers: operators, spectra and samplers that only the tests use."""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from wegner_lab.grids import BoxSpec, DiscreteHamiltonian, GridError, Stencil, _read_only, free_dirichlet_spectrum
from wegner_lab.random_model import Distribution, ModelError


def diagonal_hamiltonian(box: BoxSpec, diag: np.ndarray) -> DiscreteHamiltonian:
    """A purely diagonal operator on the box grid (free part zeroed)."""
    diag = np.array(diag, dtype=float).ravel()
    if diag.shape[0] != box.ndof:
        raise GridError("diagonal length does not match the grid")
    m = box.ndof if box.bc == "periodic" else box.ndof // box.n  # a periodic box is one slice
    zero = Stencil(box, sp.csr_matrix((box.ndof, box.ndof)), sp.csr_matrix((m, m)), np.zeros(box.ndof // m - 1))
    return DiscreteHamiltonian(zero, _read_only(diag))


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


def sample_iid(dist: Distribution, seed: int | tuple[int, ...], n: int) -> np.ndarray:
    """Vectorized draws for statistics on a single distribution."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
    return dist._from_uniform(rng.uniform(0.0, 1.0, size=n))


def empirical_modulus(
    dist: Distribution, eps: float, n_samples: int, seed: int | tuple[int, ...]
) -> tuple[float, float, float]:
    """Monte Carlo estimate of the single-site modulus, with standard error.

    Split-sample design: the first half of the draws locates the heaviest
    closed window of length eps (two-pointer sweep over the sorted sample);
    the second half counts hits in that fixed window, so the estimate is an
    unbiased binomial proportion rather than a maximum over fitted windows.
    Returns (estimate, stderr, window_left).
    """
    if eps <= 0:
        raise ModelError("window length must be positive")
    draws = sample_iid(dist, seed, n_samples)
    half = n_samples // 2
    locate, count = np.sort(draws[:half]), draws[half:]
    best_count, best_lo = 0, float(locate[0]) if half else 0.0
    j = 0
    for i in range(locate.shape[0]):
        while j < locate.shape[0] and locate[j] <= locate[i] + eps:
            j += 1
        if j - i > best_count:
            best_count, best_lo = j - i, float(locate[i])
    inside = (count >= best_lo - 1e-12) & (count <= best_lo + eps + 1e-12)
    p = float(inside.mean())
    se = math.sqrt(max(p * (1 - p), 1e-12) / count.shape[0])
    return p, se, best_lo
