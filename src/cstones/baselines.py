"""Reference recoverers: genie-aided least squares, a dense grid oracle, and
a band-excluded orthogonal matching pursuit over the 5x oversampled DFT grid,
with exclusion radius pi/N.

These exist to bracket the main recoverer from both sides: the oracle solver
knows the true frequencies and bounds the error from below, while the
grid-locked pursuit quantizes frequencies and bounds it from above on
off-grid inputs.  The grid oracle is the brute-force anti-drift check for
the estimator's frequency search.
"""

from __future__ import annotations

import math

import numpy as np

from .estimator import (
    _cis,
    _dft_atoms,
    _measured_atoms,
    _orthonormal_pairs,
    _params_from_coef,
    amplitude_ls,
    build_atoms,
)
from .model import SignalModel
from .sensing import Measurement, SensingMatrix

__all__ = [
    "oracle_ls",
    "grid_oracle_batch",
    "bomp_recover",
]

# Grid nodes per grid_oracle_batch chunk: sets the size of every per-chunk
# GEMM operand.
_SCAN_CHUNK = 512

# BOMP's candidate grid oversamples the N-point DFT grid this many times.
_BOMP_OVERSAMPLING = 5


def oracle_ls(phi: SensingMatrix, m: Measurement, true_frequencies) -> SignalModel:
    """Genie-aided fit: jointly optimal amplitudes at known frequencies.

    Solves one 2K-column least-squares problem with the frequencies fixed
    at their true values, giving the error floor any frequency-estimating
    recoverer can be compared against.

    Raises
    ------
    ValueError
        On duplicate frequencies, 2K > M, or a rank-deficient atom stack.
    """
    freqs = [float(w) for w in true_frequencies]
    if len(set(freqs)) != len(freqs):
        raise ValueError(f"frequencies must be distinct: {freqs}")
    if 2 * len(freqs) > phi.m_rows:
        raise ValueError(
            f"need 2k <= m for a determined solve, got k={len(freqs)}, m={phi.m_rows}"
        )
    if len(m.values) != phi.m_rows:
        raise ValueError(f"measurement length {len(m.values)} != matrix m={phi.m_rows}")
    if not freqs:
        return SignalModel(components=(), n_samples=phi.n_cols)
    # M x 2K, columns interleaved (cos_1, sin_1, cos_2, sin_2, ...)
    a = _measured_atoms(phi.entries, freqs).reshape(phi.m_rows, -1)
    coef, _, rank, _ = np.linalg.lstsq(a, m.values, rcond=None)
    if rank < a.shape[1]:
        raise ValueError(
            f"stacked atom matrix is rank-deficient (rank {rank} < {a.shape[1]})"
        )
    return SignalModel(components=_params_from_coef(freqs, coef), n_samples=phi.n_cols)


def grid_oracle_batch(
    phi: SensingMatrix, residuals: np.ndarray, grid_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force minimizer of the single-sinusoid squared error on [0, pi],
    for every column of the M x B ``residuals``.

    Evaluates the amplitude-optimized squared error at ``grid_size``
    uniformly spaced frequencies and keeps the exact grid argmin of each
    column, lowest index on ties.  The grid is scanned in chunks of
    ``_SCAN_CHUNK`` nodes; each chunk's measured pairs are orthonormalized,
    so scoring every residual column is two GEMMs and a sum of squares.
    Returns per-column arrays (omega, s_omega); the reported s_omega is
    re-evaluated directly at the winning frequency.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    residuals = np.asarray(residuals, dtype=float)
    if residuals.ndim != 2 or residuals.shape[0] != phi.m_rows:
        raise ValueError(
            f"residuals must be M x B with M={phi.m_rows}, got {residuals.shape}"
        )
    norms_sq = np.einsum("ij,ij->j", residuals, residuals)
    if np.any(norms_sq == 0.0):
        raise ValueError("zero residual column; nothing to scan")

    n_batch = residuals.shape[1]
    omegas = np.linspace(0.0, math.pi, grid_size)
    # best captured energy per column; larger gain means smaller error, and
    # strict ">" keeps the lowest grid index on ties
    best_gain = np.full(n_batch, -np.inf)
    best_omega = np.zeros(n_batch)
    cols = np.arange(n_batch)
    residuals_t = np.ascontiguousarray(residuals.T)
    # node start + j is omega_start + omega_j: rotate the first chunk's phasors
    table = _cis(omegas[:_SCAN_CHUNK], phi.n_cols)
    phasors = np.empty_like(table)
    for start in range(0, grid_size, _SCAN_CHUNK):
        chunk = omegas[start:start + _SCAN_CHUNK]
        np.multiply(table, _cis(omegas[start:start + 1], phi.n_cols), out=phasors)
        w = phi.entries @ phasors[:, : chunk.size].view(float)
        q0, q1 = _orthonormal_pairs(w.reshape(phi.m_rows, -1, 2))
        gain = np.square(residuals_t @ q0)
        gain += np.square(residuals_t @ q1)
        j = np.argmax(gain, axis=1)
        g_max = gain[cols, j]
        better = g_max > best_gain
        best_gain = np.where(better, g_max, best_gain)
        best_omega = np.where(better, chunk[j], best_omega)

    s_exact = np.empty(n_batch)
    for col in range(n_batch):
        pair = build_atoms(phi, float(best_omega[col]))
        _, _, s_exact[col] = amplitude_ls(pair, residuals[:, col])
    return best_omega, s_exact


def _candidate_frequencies(oversampling: int, n: int) -> np.ndarray:
    """The oversampled DFT grid w_i = i * 2*pi/(cN) restricted to [0, pi]:
    the ``_dft_atoms`` bins i = 0..cN // 2.

    For real signals the atom pair at w and 2*pi - w spans the same
    subspace, so grid frequencies above pi are redundant.
    """
    length = oversampling * n
    return np.arange(length // 2 + 1) * (2.0 * math.pi / length)


def bomp_recover(phi: SensingMatrix, m: Measurement, k: int) -> SignalModel:
    """Band-excluded orthogonal matching pursuit for ``k`` sinusoids.

    Candidate frequencies are the DFT grid oversampled 5 times, restricted
    to [0, pi]; each candidate contributes the measured (sin, cos) pair so
    all arithmetic stays real, and the whole table is one real FFT of each
    row of Phi zero-padded to 5N.  After every selection the residual is
    recomputed from a joint least-squares fit over all selected pairs, and
    every candidate within pi/N of a selected frequency is excluded.  Each
    pick excludes at most 5 of the 5N/2 + 1 candidates, so the grid always
    outlasts the k <= N/2 picks a model admits.

    Raises
    ------
    ValueError
        On k < 0, 2k > N, or a measurement of the wrong length.
    """
    n = phi.n_cols
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if 2 * k > n:
        raise ValueError(f"need 2k <= n for an identifiable model, got k={k}, n={n}")
    if len(m.values) != phi.m_rows:
        raise ValueError(f"measurement length {len(m.values)} != matrix m={phi.m_rows}")
    if k == 0:
        return SignalModel(components=(), n_samples=n)

    cand = _candidate_frequencies(_BOMP_OVERSAMPLING, n)
    w = _dft_atoms(phi.entries, _BOMP_OVERSAMPLING * n)  # w[:, i] is the pair at cand[i]
    q0, q1 = _orthonormal_pairs(w)

    allowed = np.ones(cand.size, dtype=bool)
    selected: list[int] = []
    r = m.values.copy()
    for _ in range(k):
        gain = np.square(q0.T @ r) + np.square(q1.T @ r)  # energy each pair captures
        gain = np.where(allowed, gain, -np.inf)
        pick = int(np.argmax(gain))
        selected.append(pick)
        allowed &= np.abs(cand - cand[pick]) >= math.pi / n
        a_sel = w[:, selected, :].reshape(phi.m_rows, -1)
        coef, _, _, _ = np.linalg.lstsq(a_sel, m.values, rcond=None)
        r = m.values - a_sel @ coef

    return SignalModel(components=_params_from_coef(cand[selected], coef), n_samples=n)
