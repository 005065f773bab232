"""Single-sinusoid estimation from a compressed residual vector.

Given a sensing matrix Phi and a residual measurement r, the estimator finds
the sinusoid (omega, a, phi) whose compressed samples best explain r in the
least-squares sense.  For a fixed frequency the optimal linear amplitudes
(a1, a2) against the measured atom pair

    A_w = [Phi @ sin_w, Phi @ cos_w]

solve a 2x2 normal system in closed form (``amplitude_ls``); the frequency
itself is found by an iterative grid search over [0, pi] that repeatedly
re-grids the bracket around the best candidate ("frequency range
refinement").  Every round lays N + 1 nodes over its bracket (N the
matrix's column count), so the bracket shrinks by a factor of at most 2/N
per round and a handful of rounds reaches the frequency tolerance
``freq_tol``, the search's one setting.

Each round measures the atom pairs of all its grid nodes at once through
one factored phasor kernel (``_measured_atoms``) and scores the residual
against each pair's orthonormal basis (``_orthonormal_pairs``, which holds
the rank-1 rule for degenerate pairs); the baselines share both.  A round's
table depends only on Phi and its bracket, so recent brackets' tables, the
full band's among them, are kept per matrix and reused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import SinusoidParams, sinusoid_samples
from .sensing import SensingMatrix

__all__ = [
    "EstimateOutcome",
    "build_atoms",
    "amplitude_ls",
    "estimate_sinusoid",
]

# Cap on refinement rounds.  A bracket of N + 1 nodes shrinks by at most 2/N
# per round, so for N >= 3 the default freq_tol stops the search first.
_MAX_REFINEMENTS = 60
# Atom pairs whose Gram determinant is at most this times trace^2 are solved
# rank-1 (omega at 0 or pi, where the sine column vanishes).
_GRAM_DET_TOL = 1e-12


@dataclass(frozen=True)
class EstimateOutcome:
    """Result of one single-sinusoid estimation.

    ``bracket_history`` records (alpha, beta) per round starting from the
    initial bracket; ``best_s_history`` the running best squared error after
    each round.  Both exist so callers can audit the refinement invariants.
    """

    params: SinusoidParams
    residual_sq: float
    refinements_used: int
    bracket_history: tuple[tuple[float, float], ...] = field(default=())
    best_s_history: tuple[float, ...] = field(default=())


def build_atoms(phi: SensingMatrix, omega: float) -> np.ndarray:
    """The M x 2 measured atom pair [Phi @ sin_w, Phi @ cos_w] at ``omega``."""
    sin_w, cos_w = sinusoid_samples(omega, phi.n_cols)
    return np.column_stack((phi.entries @ sin_w, phi.entries @ cos_w))


def _inside_band(omega: float) -> float:
    """``omega`` moved one ulp inside (0, pi) if it lies on or past an end.

    SinusoidParams requires the open interval; the boundary atoms are
    degenerate anyway, their sine column vanishing.
    """
    if omega <= 0.0:
        return math.nextafter(0.0, 1.0)
    if omega >= math.pi:
        return math.nextafter(math.pi, 0.0)
    return omega


def amplitude_ls(a: np.ndarray, r: np.ndarray) -> tuple[float, float, float]:
    """Least-squares amplitudes of ``r`` against one measured atom pair.

    ``a`` is the M x 2 pair from :func:`build_atoms`.  Returns (a1, a2,
    s_omega) where (a1, a2) minimizes ||r - A_w a||^2 via the 2x2 normal
    equations and s_omega is the attained minimum, evaluated directly as
    the squared norm of the residual.
    """
    a = np.asarray(a, dtype=float)
    r = np.asarray(r, dtype=float)
    if r.ndim != 1 or a.shape != (r.size, 2):
        raise ValueError(f"atoms {a.shape} must be M x 2 for a residual of shape {r.shape}")
    col0 = a[:, 0]
    col1 = a[:, 1]
    g00 = float(col0 @ col0)
    g01 = float(col0 @ col1)
    g11 = float(col1 @ col1)
    b0 = float(col0 @ r)
    b1 = float(col1 @ r)
    det = g00 * g11 - g01 * g01
    trace = g00 + g11
    if det > _GRAM_DET_TOL * trace * trace:
        a1 = (g11 * b0 - g01 * b1) / det
        a2 = (g00 * b1 - g01 * b0) / det
    elif g00 >= g11:  # degenerate pair: rank-1 fit on the dominant column
        a1, a2 = (b0 / g00 if g00 > 0.0 else 0.0), 0.0
    else:
        a1, a2 = 0.0, (b1 / g11 if g11 > 0.0 else 0.0)
    res = r - col0 * a1 - col1 * a2
    return a1, a2, float(res @ res)


def _phasors(omegas: np.ndarray, n: int) -> np.ndarray:
    """The n x K complex table exp(i * omegas[k] * t) for t = 1..n, by factoring.

    With S = ceil(sqrt(n)) every sample time writes uniquely as
    t = S*a + b + 1 with 0 <= b < S, so

        exp(i w t) = exp(i w (S a + 1)) * exp(i w b).

    The head table exp(i w (S a + 1)) has ceil(n/S) rows and the tail table
    exp(i w b) has S rows; both are running products of exp(i w S) and
    exp(i w).  Per frequency that is two cos/sin pairs and about 2*sqrt(n)
    complex multiplies instead of n cos/sin pairs, and one broadcast
    multiply of head and tail then fills the n x K table (the chirp-z /
    Vandermonde factoring of Rabiner, Schafer and Rader, 1969).  The nodes
    ``omegas`` need not be uniform.

    Accuracy: the seed exp(i w S) is a correctly rounded cos/sin of the
    argument w*S, itself rounded with relative error eps, so its phase is
    off by about eps*w*S; its a-th power in the running product carries
    a*eps*w*S plus one rounding per multiply, at most about eps*(pi*n +
    2*sqrt(n)) in all.  The tail and the final multiply add O(sqrt(n)*eps).
    The error is O(eps*n) per entry, the same order as evaluating
    sin(w*t) directly from the rounded product w*t.
    """
    step = math.isqrt(n - 1) + 1
    rows = -(-n // step)
    args = np.multiply.outer(np.array([1.0, step]), omegas)
    seeds = np.empty(args.shape, dtype=complex)
    np.cos(args, out=seeds.real)
    np.sin(args, out=seeds.imag)
    head = np.empty((rows, omegas.size), dtype=complex)
    head[0] = seeds[0]
    head[1:] = seeds[1]
    np.cumprod(head, axis=0, out=head)
    tail = np.empty((step, omegas.size), dtype=complex)
    tail[0] = 1.0
    tail[1:] = seeds[0]
    np.cumprod(tail, axis=0, out=tail)
    return (head[:, None, :] * tail[None, :, :]).reshape(rows * step, -1)[:n]


def _measure_phasors(phi_entries: np.ndarray, phasors: np.ndarray) -> np.ndarray:
    """Phi @ phasors as one real GEMM on the interleaved (cos, sin) view.

    Returns an M x K x 2 array whose [..., 0] plane is Phi @ cos(w_k t) and
    whose [..., 1] plane is Phi @ sin(w_k t).
    """
    w = phi_entries @ np.ascontiguousarray(phasors).view(float)
    return w.reshape(phi_entries.shape[0], -1, 2)


def _measured_atoms(phi_entries: np.ndarray, omegas) -> np.ndarray:
    """Measured cos/sin atoms at every frequency in ``omegas`` (M x K x 2).

    This is the one path that builds measured sinusoid atoms for many
    frequencies at once; ``build_atoms`` stays the direct single-frequency
    reference it is tested against.
    """
    omegas = np.asarray(omegas, dtype=float)
    return _measure_phasors(phi_entries, _phasors(omegas, phi_entries.shape[1]))


def _orthonormal_pairs(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis (q0, q1) of each measured (cos, sin) pair in ``w``.

    ``w`` is M x C x 2 as from ``_measured_atoms``; q0 and q1 are M x C.
    Regular pairs get Gram-Schmidt from the cosine column, so the captured
    energy of a residual r is (q0 . r)^2 + (q1 . r)^2.  Degenerate pairs
    (Gram determinant at most _GRAM_DET_TOL * trace^2, e.g. omega at 0 or
    pi where the sine column vanishes) keep only their dominant column,
    normalized, and a zero q1: the rank-1 fit of ``amplitude_ls``.  A zero
    dominant column gains nothing.  The estimator rounds, the grid oracle
    and BOMP all take their pair bases from here.
    """
    v = np.ascontiguousarray(w[..., 0])
    u = np.ascontiguousarray(w[..., 1])
    gvv = np.einsum("ij,ij->j", v, v)
    guu = np.einsum("ij,ij->j", u, u)
    guv = np.einsum("ij,ij->j", u, v)
    trace = gvv + guu
    regular = gvv * guu - guv * guv > _GRAM_DET_TOL * trace * trace
    inv_v = 1.0 / np.sqrt(np.where(regular, gvv, 1.0))
    q0 = v * inv_v
    q1 = q0 * -(guv * inv_v)
    q1 += u
    q1 *= 1.0 / np.sqrt(np.where(regular, np.einsum("ij,ij->j", q1, q1), 1.0))
    for idx in np.nonzero(~regular)[0]:
        g_dom, col = (guu[idx], u[:, idx]) if guu[idx] >= gvv[idx] else (gvv[idx], v[:, idx])
        q0[:, idx] = col / math.sqrt(g_dom) if g_dom > 0 else 0.0
        q1[:, idx] = 0.0
    return q0, q1


# Round tables of the current matrix (held, so an identity match is never a
# recycled id), read-only, in an LRU keyed on the bracket.  Brackets follow
# from earlier argmins, so sweeps revisit them and a hit equals a rebuild bit
# for bit.  Each call touches (0, pi), then cycles through K components x ~4
# rounds, so fewer than 4K + 1 entries never hit.  16 serve K <= 3 (2.2 MB at
# N=128, M=64); a larger K may thrash, costing one dict lookup a round more.
_CACHE_SIZE = 16
_cache_phi = None
_cache: dict = {}


def _round_tables(phi: SensingMatrix, alpha: float, beta: float):
    """Grid nodes over [alpha, beta] and their orthonormal pair tables (q0, q1).

    Column k of q0 and q1 is an orthonormal basis of node k's measured
    (cos, sin) pair, from ``_orthonormal_pairs``; a degenerate node has a
    zero q1 column.
    """
    global _cache_phi
    if _cache_phi is not phi:
        _cache.clear()
        _cache_phi = phi
    entry = _cache.pop((alpha, beta), None)
    if entry is None:
        omegas = np.linspace(alpha, beta, phi.n_cols + 1)
        q0, q1 = _orthonormal_pairs(_measured_atoms(phi.entries, omegas))
        for x in (omegas, q0, q1):
            x.flags.writeable = False
        entry = (omegas, (q0, q1))
        if len(_cache) >= _CACHE_SIZE:
            del _cache[next(iter(_cache))]
    _cache[(alpha, beta)] = entry
    return entry


def _grid_eval(tables, r):
    """Least-squares squared error of ``r`` against every node's atom pair.

    With each pair's orthonormal basis (q0, q1) the fit is the projection
    q0 (q0 . r) + q1 (q1 . r).  The error is evaluated directly as
    ||r - q0 (q0 . r) - q1 (q1 . r)||^2, not as ||r||^2 minus the captured
    energy, so it keeps its relative precision in late noiseless rounds
    where it is many orders below ||r||^2.
    """
    q0, q1 = tables
    res = r[:, None] - q0 * (q0.T @ r) - q1 * (q1.T @ r)
    return np.einsum("ij,ij->j", res, res)


def estimate_sinusoid(
    phi: SensingMatrix, r: np.ndarray, freq_tol: float = 1e-8
) -> EstimateOutcome:
    """Estimate the best-matching sinusoid for a residual measurement.

    Each round lays a uniform grid of N + 1 frequencies over the current
    bracket [alpha, beta], starting from the full [0, pi], solves the
    closed-form amplitude problem at every node, and keeps the global best
    (strict improvement, lowest index on ties).  The bracket then contracts
    to the grid neighbors of the best-known frequency and the search repeats
    until the bracket is narrower than ``freq_tol``.

    Parameters
    ----------
    phi : SensingMatrix
        Measurement operator.
    r : np.ndarray
        Residual measurement vector of length M; must be nonzero.
    freq_tol : float
        Bracket width at which the search stops; must be positive and finite.

    Returns
    -------
    EstimateOutcome
        Final parameters, attained squared error, and per-round history.
        The returned residual_sq is exactly ``amplitude_ls`` re-evaluated
        at the returned frequency.
    """
    if not (0.0 < freq_tol < math.inf):
        raise ValueError(f"freq_tol must be positive and finite, got {freq_tol}")
    r = np.asarray(r, dtype=float)
    if r.ndim != 1 or r.size != phi.m_rows:
        raise ValueError(f"residual length {r.shape} does not match matrix m={phi.m_rows}")
    if float(r @ r) == 0.0:
        raise ValueError("residual is identically zero; nothing to estimate")

    grid_points = phi.n_cols
    if grid_points < 2:
        raise ValueError(f"the frequency grid needs N >= 2 columns, got N={grid_points}")
    alpha, beta = 0.0, math.pi
    best_s = math.inf
    best_omega = alpha
    brackets = [(alpha, beta)]
    s_history = []
    rounds = 0

    while (beta - alpha) >= freq_tol and rounds < _MAX_REFINEMENTS:
        omegas, tables = _round_tables(phi, alpha, beta)
        s = _grid_eval(tables, r)
        j = int(np.argmin(s))
        improved = bool(s[j] < best_s)
        if improved:
            best_s = float(s[j])
            best_omega = float(omegas[j])
        rounds += 1
        s_history.append(best_s)
        # Recenter on the grid node nearest the incumbent frequency; when the
        # round improved this is the argmin node itself.  Missing neighbors at
        # the grid edge clamp to the current bracket endpoint.
        i_star = j if improved else int(np.argmin(np.abs(omegas - best_omega)))
        new_alpha = max(float(omegas[i_star - 1]), alpha) if i_star >= 1 else alpha
        new_beta = min(float(omegas[i_star + 1]), beta) if i_star <= grid_points - 1 else beta
        if not improved and new_alpha == alpha and new_beta == beta:
            break
        alpha, beta = new_alpha, new_beta
        brackets.append((alpha, beta))

    omega_hat = _inside_band(best_omega)
    a1, a2, s_final = amplitude_ls(build_atoms(phi, omega_hat), r)
    params = SinusoidParams.from_linear(omega_hat, a1, a2)
    return EstimateOutcome(
        params=params,
        residual_sq=s_final,
        refinements_used=rounds,
        bracket_history=tuple(brackets),
        best_s_history=tuple(s_history),
    )
