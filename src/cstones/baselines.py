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

# Grid nodes per grid_oracle_batch chunk: sets the size of every float32 GEMM
# operand; the float64 stage rescores _SCAN_CHUNK to 2 * _SCAN_CHUNK - 1
# queued nodes at a time, the last batch fewer.
_SCAN_CHUNK = 512

# grid_oracle_batch rescores a node in float64 while some residual r's float32
# captured energy there is within this times ||r||^2 of r's running best.
# The float32 energy's measured error at pairs above _F32_GRAM_RATIO is at
# most 1.3e-6 * ||r||^2 (Gaussian and subsampling Phi from 8 x 64 to
# 64 x 256, random and single-tone residuals): the slack is 230 times that,
# and 115 times the most by which a float32 leader can beat the true winner.
_F32_GAIN_SLACK = 3e-4
# Pairs whose Gram ratio det / trace^2 is at most this lie near 0 and pi,
# where the sine column nearly vanishes.  Float32 is least accurate there
# (measured error up to 2e-6 * ||r||^2 at ratios 1e-8 to 1e-4), and near
# the rank-1 threshold _GRAM_DET_TOL float32 cannot tell a regular pair from
# a degenerate one, so those nodes always go to the float64 stage.
_F32_GRAM_RATIO = 1e-4

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
        On a frequency outside (0, pi) (NaN and inf included), duplicate
        frequencies, 2K > M, or a rank-deficient atom stack.
    """
    freqs = [float(w) for w in true_frequencies]
    if not all(0.0 < w < math.pi for w in freqs):
        raise ValueError(f"frequencies must lie in (0, pi): {freqs}")
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
    column, lowest index on ties.  Each column r is scaled by a power of
    two to max |r| in [0.5, 1), which is exact.  Each ``_SCAN_CHUNK`` slice
    of the grid is scored in float32: the first chunk's ``_cis`` table
    rotated by the chunk's ``_cis`` factor, the Phi GEMM,
    ``_orthonormal_pairs`` and two gain GEMMs.  Every column keeps a running
    float32 best over nodes with Gram ratio above ``_F32_GRAM_RATIO``,
    seeded from ``_SCAN_CHUNK`` nodes spread over the grid.  A node is queued
    when its energy is within ``_F32_GAIN_SLACK`` * ||r||^2 of some
    column's running best, and so is every node at or below the ratio.  The
    running best never exceeds the final one, so the queue holds every node
    within the slack of the final best; the slack is far above the float32
    error, so that includes each column's float64 argmax.  Once at least
    ``_SCAN_CHUNK`` nodes are queued, and at the last chunk, they are
    rescored in float64 through ``_measured_atoms`` and
    ``_orthonormal_pairs`` (fewer than 2 * ``_SCAN_CHUNK`` at a time), and
    each column keeps its largest energy; batches ascend and a later one
    must be strictly larger, so the lowest index wins ties.  Returns
    per-column arrays (omega, s_omega); s_omega is ``amplitude_ls`` at the
    winning frequency, scaled back.  Raises ValueError on a non-finite
    entry or an all-zero column.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    residuals = np.asarray(residuals, dtype=float)
    if residuals.ndim != 2 or residuals.shape[0] != phi.m_rows:
        raise ValueError(
            f"residuals must be M x B with M={phi.m_rows}, got {residuals.shape}"
        )
    if not np.all(np.isfinite(residuals)):
        raise ValueError("residuals must be finite (no NaN or inf)")
    col_max = np.max(np.abs(residuals), axis=0)
    if np.any(col_max == 0.0):
        raise ValueError("zero residual column; nothing to scan")

    exps = np.frexp(col_max)[1]
    scaled = np.ldexp(residuals, -exps)
    n_batch = residuals.shape[1]
    omegas = np.linspace(0.0, math.pi, grid_size)
    residuals_t = np.ascontiguousarray(scaled.T)
    # q0, q1 do not change with the scale of Phi: a power of two keeps the
    # float32 copy in range whatever Phi's own scale
    entries = np.ldexp(phi.entries, -np.frexp(np.max(np.abs(phi.entries)))[1]).astype(np.float32)
    residuals32 = residuals_t.astype(np.float32)
    slack = (_F32_GAIN_SLACK * np.einsum("ij,ij->j", scaled, scaled)).astype(np.float32)

    def energies(phasors):
        """B x C float32 gains at the phasor columns, -inf where ill-conditioned."""
        w = entries @ phasors.view(np.float32)
        # a pair whose sine part cancels to zero in float32 while its ratio
        # rounds above _GRAM_DET_TOL normalizes 0 / 0: it is ill-conditioned,
        # and its energy is masked below
        with np.errstate(divide="ignore", invalid="ignore"):
            q0, q1, ratio = _orthonormal_pairs(w.reshape(phi.m_rows, -1, 2))
        gain = np.square(residuals32 @ q0)
        gain += np.square(residuals32 @ q1)
        ill = ratio <= _F32_GRAM_RATIO
        gain[:, ill] = -np.inf  # an ill-conditioned float32 energy may be too high
        return gain, ill

    # Seeded near each column's peak, the running best queues few of the
    # first chunks' nodes: unseeded, a 1e6-node scan kept 1e5 of them.
    spread = omegas[:: -(-omegas.size // _SCAN_CHUNK)]
    best32 = energies(_cis(spread, phi.n_cols).astype(np.complex64))[0].max(axis=1)
    # node start + j is omega_start + omega_j: rotate the first chunk's phasors
    table = _cis(omegas[:_SCAN_CHUNK], phi.n_cols).astype(np.complex64)
    phasors = np.empty_like(table)
    # best float64 captured energy per column; larger gain means smaller error
    best_gain = np.full(n_batch, -np.inf)
    best_omega = np.zeros(n_batch)
    cols = np.arange(n_batch)
    pending, n_pending = [], 0  # queued node indices, ascending
    for start in range(0, omegas.size, _SCAN_CHUNK):
        size = min(_SCAN_CHUNK, omegas.size - start)
        rotation = _cis(omegas[start:start + 1], phi.n_cols).astype(np.complex64)
        np.multiply(table, rotation, out=phasors)
        gain, ill = energies(phasors[:, :size])
        np.maximum(best32, gain.max(axis=1), out=best32)
        near = np.any(gain >= (best32 - slack)[:, None], axis=0)
        pending.append(start + np.flatnonzero(near | ill))
        n_pending += pending[-1].size
        if n_pending < _SCAN_CHUNK and start + size < omegas.size:
            continue
        nodes = omegas[np.concatenate(pending)]
        pending, n_pending = [], 0
        q0, q1, _ = _orthonormal_pairs(_measured_atoms(phi.entries, nodes))
        gain = np.square(residuals_t @ q0)
        gain += np.square(residuals_t @ q1)
        j = np.argmax(gain, axis=1)
        g_max = gain[cols, j]
        better = g_max > best_gain
        best_gain = np.where(better, g_max, best_gain)
        best_omega = np.where(better, nodes[j], best_omega)

    s_exact = np.empty(n_batch)
    for col in range(n_batch):
        pair = build_atoms(phi, float(best_omega[col]))
        s_exact[col] = amplitude_ls(pair, scaled[:, col])[2]
    return best_omega, np.ldexp(s_exact, 2 * exps)


def bomp_recover(phi: SensingMatrix, m: Measurement, k: int) -> SignalModel:
    """Band-excluded orthogonal matching pursuit for ``k`` sinusoids.

    Candidate frequencies are the bins of the 5N-point DFT in [0, pi], each
    with its measured (cos, sin) pair so all arithmetic stays real; both
    come from ``_dft_atoms``, one real FFT of each row of Phi zero-padded
    to 5N.  After every selection the residual is recomputed from a joint
    least-squares fit over all selected pairs, and every candidate within
    pi/N of a selected frequency is excluded.  Each pick excludes at most 5
    of the 5N/2 + 1 candidates, so the grid always outlasts the k <= N/2
    picks a model admits.

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

    cand, w = _dft_atoms(phi.entries, _BOMP_OVERSAMPLING * n)  # w[:, i] is the pair at cand[i]
    q0, q1, _ = _orthonormal_pairs(w)

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
