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

# Grid nodes per grid_oracle_batch chunk, scored in float32 from power series
# about _SCAN_CHUNK / G centres (_scan_series): sets the size of each chunk's
# GEMMs; the float64 stage rescores _SCAN_CHUNK to 2 * _SCAN_CHUNK - 1 queued
# nodes at a time, the last batch fewer.
_SCAN_CHUNK = 512

# grid_oracle_batch rescores a node in float64 while some residual r's float32
# captured energy there is within this times ||r||^2 of r's running best.
# The float32 energy's measured error at pairs above _F32_GRAM_RATIO is at
# most 3.6e-6 * ||r||^2 (Gaussian and subsampling Phi from 8 x 64 to
# 64 x 256, random and single-tone residuals, grids of 1325 to 100 000
# nodes; the largest at 16 x 128 on 25 536 nodes): the slack is 83 times
# that, and 41 times the most by which a float32 leader can beat the true
# winner.
_F32_GAIN_SLACK = 3e-4
# Pairs whose Gram ratio det / trace^2 is at most this lie near 0 and pi,
# where the sine column nearly vanishes.  Float32 is least accurate there
# (measured error up to 2.2e-5 * ||r||^2 at ratios 1e-8 to 1e-4), and near
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
    # M x 2K, columns interleaved (cos_1, sin_1, cos_2, sin_2, ...)
    a = _measured_atoms(phi.entries, freqs).reshape(phi.m_rows, -1)
    coef, _, rank, _ = np.linalg.lstsq(a, m.values, rcond=None)
    if rank < a.shape[1]:
        raise ValueError(
            f"stacked atom matrix is rank-deficient (rank {rank} < {a.shape[1]})"
        )
    return SignalModel(components=_params_from_coef(freqs, coef), n_samples=phi.n_cols)


def _scan_series(n: int, step: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``size`` nodes j * step of ``grid_oracle_batch``'s scan as
    power series about centres: an N x (k P) table and P x G powers.

    The nodes split into k groups of G, each about its centre w_c.  For a
    node w_c + s with |s| <= h (Anderson & Dahleh 1996),

        exp(i (w_c + s) t) = exp(i w_c t) sum_{p<P} (i t / N)^p / p! (s N)^p + R,
        |R| <= (h N)^P / P! e^(h N),

    so column (c, p) of the table is exp(i w_c t) (i t / N)^p / p!, row p of
    the powers is (s_g N)^p, and Phi @ table_c @ powers is group c's atoms.
    G is a power of two at most ``_SCAN_CHUNK`` and floor(2 / (N step)) + 1,
    so h N <= 1, and P is the least order whose bound is below float32
    rounding, 2^-26: P = 12 at h N = 1, and P = 1 at G = 1, where the table
    is direct evaluation.  Of those G, the one with the fewest multiply-adds
    per node, P (N / G + 1), is taken: P N / G in the Phi GEMM, and a share
    linear in P in ``_series_gains``' GEMM against the node's powers.
    """
    limit = min(_SCAN_CHUNK, math.floor(2.0 / (n * step)) + 1)
    plans, width = [], 1
    while width <= limit:
        h_n = (width - 1) * step * n / 2
        order, bound = 1, h_n * math.exp(h_n)
        while bound >= 2.0**-26:
            order += 1
            bound *= h_n / order
        plans.append((order * (n / width + 1), width, order))
        width *= 2
    _, width, order = min(plans)
    centres = (np.arange(0, size, width) + (width - 1) / 2) * step
    table = _cis(centres, n)
    if order > 1:
        rise = 1j / n * np.arange(1.0, n + 1.0)  # i t / N
        terms = np.cumprod([np.ones(n), *(rise / p for p in range(1, order))], axis=0)
        table = table[:, :, None] * terms.T[:, None, :]
    offsets = (np.arange(width) - (width - 1) / 2) * (step * n)
    return np.ascontiguousarray(table.reshape(n, -1)), offsets ** np.arange(order)[:, None]


def _series_grams(block: np.ndarray, powers: np.ndarray):
    """Each node's pair Gram (gvv, guv, guu), k x G float64 arrays, from the
    M x k x 2 x P float64 series block and the P x G ``powers`` of
    ``_scan_series``.

    Node g of centre c has the pair (block[:, c, 0] @ powers[:, g],
    block[:, c, 1] @ powers[:, g]), so its Gram entries are quadratic forms
    in powers[:, g] of the centre's 2P x 2P Gram, taken once per centre.
    """
    m_rows, k, _, order = block.shape
    if order == 1:  # one node per centre: the pair's own Gram
        pairs = block[..., 0]
        squares = np.einsum("mcs,mcs->cs", pairs, pairs)
        cross = np.einsum("mc,mc->c", pairs[:, :, 0], pairs[:, :, 1])
        return squares[:, :1], cross[:, None], squares[:, 1:]
    cols = block.reshape(m_rows, k, 2 * order).transpose(1, 0, 2)  # k x M x 2P
    gram = cols.transpose(0, 2, 1) @ cols
    half = (gram.reshape(-1, order) @ powers).reshape(k, 2, order, 2, -1)
    forms = np.einsum("cspth,ph->csth", half, powers)  # k x 2 x 2 x G
    return forms[:, 0, 0], forms[:, 1, 0], forms[:, 1, 1]


def _series_gains(y: np.ndarray, residuals: np.ndarray, powers: np.ndarray):
    """Captured energies (k x B x G, in the block's precision) of the B x M
    ``residuals`` at the k G nodes of a series block, and the k x G mask of
    ill pairs.

    ``y`` is Phi times an N x kP complex series table (M x 2kP, column
    (c, p, cos/sin)) and ``powers`` its P x G powers, so node g of centre
    c has the atoms sum_p y[:, c, p] powers[p, g].  From the pair Gram of
    ``_series_grams``, Gram-Schmidt from the cosine atom gives the node's
    basis on its centre's 2P table columns:

        q0 = v / sqrt(gvv),  q1 = (u - guv / gvv v) sqrt(gvv / det).

    The residuals are projected on the table columns once, in float64, and
    one GEMM per centre in the block's precision, (B x 2P)(2P x 2G), gives
    every node's q0 . r and q1 . r, whose squares sum to the energy; at one
    node per centre (P = 1) the coefficients apply elementwise instead.  A
    pair is ill where det <= ``_F32_GRAM_RATIO`` trace^2; its basis, and
    so its energy, is 0.
    """
    m_rows, (order, width) = y.shape[0], powers.shape
    block = np.ascontiguousarray(np.swapaxes(y.reshape(m_rows, -1, order, 2), 2, 3), dtype=float)
    k = block.shape[1]
    gvv, guv, guu = _series_grams(block, powers)
    trace = gvv + guu
    det = gvv * guu - guv * guv
    ill = ~((det > _F32_GRAM_RATIO * trace * trace) & (trace > 0))
    # q0 = a v and q1 = b v + c u, with b = -c guv / gvv; 0 at ill pairs
    gvv_ok = np.where(ill, np.inf, gvv)
    c = np.sqrt(gvv / np.where(ill, np.inf, det))
    a, b, c = (x.astype(y.dtype) for x in (1.0 / np.sqrt(gvv_ok), -guv / gvv_ok * c, c))
    proj = (residuals @ block.reshape(m_rows, -1)).astype(y.dtype)  # B x (c, cos/sin, p)
    if order == 1:  # one node per centre: its coefficients apply elementwise
        z = proj.reshape(-1, k, 2)
        q1 = z[..., 0] * b[:, 0]
        q1 += z[..., 1] * c[:, 0]
        energy = np.square(q1, out=q1)
        energy += np.square(z[..., 0] * a[:, 0])
        return energy.T[:, :, None], ill
    coef = np.zeros((k, 2, 2, width), dtype=y.dtype)  # k x (cos/sin) x (q0/q1) x G
    coef[:, 0, 0], coef[:, 0, 1], coef[:, 1, 1] = a, b, c
    basis = coef[:, :, None] * powers.astype(y.dtype)[:, None]  # k x (cos/sin, p) x (q0/q1, g)
    energy = proj.reshape(-1, k, 2 * order).transpose(1, 0, 2) @ basis.reshape(k, 2 * order, -1)
    np.square(energy, out=energy)
    return energy[..., :width] + energy[..., width:], ill


def grid_oracle_batch(
    phi: SensingMatrix, residuals: np.ndarray, grid_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force minimizer of the single-sinusoid squared error on [0, pi],
    for every column of the M x B ``residuals``.

    Evaluates the amplitude-optimized squared error at ``grid_size``
    uniformly spaced frequencies and keeps the exact grid argmin of each
    column, lowest index on ties.  Each column r is scaled by a power of
    two to max |r| in [0.5, 1), which is exact.  Each ``_SCAN_CHUNK`` slice
    of the grid is scored in float32 from power series of its atoms about
    centres, G nodes to a centre and P terms, both from N and the grid step
    (``_scan_series``): the first chunk's N x kP series table, rotated by
    the chunk's ``_cis`` factor, takes one thin Phi GEMM (M x N x 2kP), and
    ``_series_gains`` scores the block without forming any node's atoms:
    it projects the residuals on the block in float64, reads each node's
    pair Gram, and so its Gram-Schmidt basis, from its centre's 2P x 2P
    Gram, and takes one float32 GEMM per centre (B x 2P x 2G).  The
    series' remainder is below float32 rounding.  Every column keeps a
    running float32 best over nodes with Gram ratio above
    ``_F32_GRAM_RATIO``, seeded from ``_SCAN_CHUNK`` nodes spread over the
    grid and scored the same way at one node per centre.  A node is queued
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
    # the gains do not change with the scale of Phi: a power of two keeps the
    # float32 copy in range whatever Phi's own scale
    entries = np.ldexp(phi.entries, -np.frexp(np.max(np.abs(phi.entries)))[1]).astype(np.float32)
    slack = (_F32_GAIN_SLACK * np.einsum("ij,ij->j", scaled, scaled)).astype(np.float32)

    def series_block(table):
        """Phi times the N x C complex table, M x 2C float32 (cos, sin) columns."""
        return entries @ table.astype(np.complex64, copy=False).view(np.float32)

    # Seeded near each column's peak, the running best queues few of the
    # first chunks' nodes: unseeded, a 1e6-node scan kept 1e5 of them.
    spread = omegas[:: -(-omegas.size // _SCAN_CHUNK)]
    best32 = _series_gains(
        series_block(_cis(spread, phi.n_cols)), residuals_t, np.ones((1, 1))
    )[0].max(axis=(0, 2))
    # node start + j is node j of the first chunk, rotated by omega_start
    table, powers = _scan_series(phi.n_cols, omegas[1], min(_SCAN_CHUNK, grid_size))
    table = table.astype(np.complex64)
    phasors = np.empty_like(table)
    order, width = powers.shape
    # best float64 captured energy per column; larger gain means smaller error
    best_gain = np.full(n_batch, -np.inf)
    best_omega = np.zeros(n_batch)
    cols = np.arange(n_batch)
    pending, n_pending = [], 0  # queued node indices, ascending
    for start in range(0, omegas.size, _SCAN_CHUNK):
        size = min(_SCAN_CHUNK, omegas.size - start)
        used = -(-size // width) * order  # the table columns of this chunk's centres
        rotation = _cis(omegas[start:start + 1], phi.n_cols).astype(np.complex64)
        np.multiply(table[:, :used], rotation, out=phasors[:, :used])
        gain, ill = _series_gains(series_block(phasors[:, :used]), residuals_t, powers)
        gain[-1, :, (size - 1) % width + 1:] = 0.0  # the last centre's nodes past the grid's end
        np.maximum(best32, gain.max(axis=(0, 2)), out=best32)
        near = np.any(gain >= (best32 - slack)[:, None], axis=1)
        pending.append(start + np.flatnonzero((near | ill).ravel()[:size]))
        n_pending += pending[-1].size
        if n_pending < _SCAN_CHUNK and start + size < omegas.size:
            continue
        nodes = omegas[np.concatenate(pending)]
        pending, n_pending = [], 0
        q0, q1 = _orthonormal_pairs(_measured_atoms(phi.entries, nodes))
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
