"""Single-sinusoid estimation from a compressed residual vector.

Given a sensing matrix Phi and a residual measurement r, the estimator finds
the sinusoid (omega, a, phi) whose compressed samples best explain r in the
least-squares sense.  For a fixed frequency the optimal linear amplitudes
(a1, a2) against the measured atom pair

    A_w = [Phi @ sin_w, Phi @ cos_w]

solve a 2x2 normal system in closed form; the frequency itself is found by
an iterative grid search over [0, pi] that repeatedly re-grids the bracket
around the best candidate ("frequency range refinement").  Every round lays
N + 1 nodes over its bracket (N the matrix's column count), so the bracket
shrinks by a factor of at most 2/N per round and a handful of rounds reaches
the frequency tolerance ``freq_tol``, the search's one setting.

Each round measures the atom pairs of all its grid nodes at once through
one factored phasor kernel (``_measured_atoms``), which the baselines share.
The first round's full-band table depends only on Phi, so it is built once
per matrix and reused by every later call.
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


def _solve_normal_2x2(g00, g01, g11, b0, b1, tol):
    """Solve the 2x2 normal equations G a = b, elementwise over arrays.

    Falls back to rank-1 least squares on the dominant column wherever the
    Gram determinant is at most tol * trace^2 (degenerate atom pairs, e.g.
    omega in {0, pi} where the sine column vanishes).
    """
    det = g00 * g11 - g01 * g01
    trace = g00 + g11
    regular = det > tol * trace * trace
    if np.all(regular):
        return (g11 * b0 - g01 * b1) / det, (g00 * b1 - g01 * b0) / det
    safe_det = np.where(regular, det, 1.0)
    a1 = (g11 * b0 - g01 * b1) / safe_det
    a2 = (g00 * b1 - g01 * b0) / safe_det
    dom0 = g00 >= g11
    fb1 = np.where((g00 > 0) & dom0, b0 / np.where(g00 > 0, g00, 1.0), 0.0)
    fb2 = np.where((g11 > 0) & ~dom0, b1 / np.where(g11 > 0, g11, 1.0), 0.0)
    a1 = np.where(regular, a1, fb1)
    a2 = np.where(regular, a2, fb2)
    return a1, a2


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
    a1, a2 = _solve_normal_2x2(g00, g01, g11, b0, b1, _GRAM_DET_TOL)
    a1 = float(a1)
    a2 = float(a2)
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


def _grid_tables(phi_entries, omegas):
    """Measured atom pairs (u = sin, v = cos) and their Gram terms on a grid."""
    w = _measured_atoms(phi_entries, omegas)
    u = np.ascontiguousarray(w[..., 1])
    v = np.ascontiguousarray(w[..., 0])
    g00 = np.einsum("ij,ij->j", u, u)
    g01 = np.einsum("ij,ij->j", u, v)
    g11 = np.einsum("ij,ij->j", v, v)
    return u, v, g00, g01, g11


# The round-1 grid over [0, pi] depends only on the sensing matrix, so it is
# built once and shared by every estimate against that matrix.  One entry:
# (phi, omegas, tables).  The entry holds phi itself, so an identity match
# can never be a recycled id.
_full_band = None


def _full_band_grid(phi: SensingMatrix):
    global _full_band
    entry = _full_band
    if entry is None or entry[0] is not phi:
        omegas = np.linspace(0.0, math.pi, phi.n_cols + 1)
        tables = _grid_tables(phi.entries, omegas)
        for a in (omegas, *tables):
            a.flags.writeable = False
        entry = (phi, omegas, tables)
        _full_band = entry
    return entry[1], entry[2]


def _grid_eval(tables, r):
    """Squared error at every grid node, from the closed-form amplitudes.

    The error is evaluated directly as ||r - u a1 - v a2||^2, not as
    ||r||^2 minus the captured energy, so it keeps its relative precision
    in late noiseless rounds where it is many orders below ||r||^2.
    """
    u, v, g00, g01, g11 = tables
    b0 = u.T @ r
    b1 = v.T @ r
    a1, a2 = _solve_normal_2x2(g00, g01, g11, b0, b1, _GRAM_DET_TOL)
    res = r[:, None] - u * a1 - v * a2
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
        Bracket width at which the search stops; must be positive.

    Returns
    -------
    EstimateOutcome
        Final parameters, attained squared error, and per-round history.
        The returned residual_sq is exactly ``amplitude_ls`` re-evaluated
        at the returned frequency.
    """
    if freq_tol <= 0.0:
        raise ValueError(f"freq_tol must be positive, got {freq_tol}")
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
        if alpha == 0.0 and beta == math.pi:
            omegas, tables = _full_band_grid(phi)
        else:
            omegas = np.linspace(alpha, beta, grid_points + 1)
            tables = _grid_tables(phi.entries, omegas)
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

    # Keep omega strictly inside (0, pi); the boundary atoms are degenerate
    # and SinusoidParams requires the open interval.
    omega_hat = best_omega
    if omega_hat <= 0.0:
        omega_hat = math.nextafter(0.0, 1.0)
    elif omega_hat >= math.pi:
        omega_hat = math.nextafter(math.pi, 0.0)

    a1, a2, s_final = amplitude_ls(build_atoms(phi, omega_hat), r)
    params = SinusoidParams.from_linear(omega_hat, a1, a2)
    return EstimateOutcome(
        params=params,
        residual_sq=s_final,
        refinements_used=rounds,
        bracket_history=tuple(brackets),
        best_s_history=tuple(s_history),
    )
