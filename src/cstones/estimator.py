"""Single-sinusoid estimation from a compressed residual vector.

Given a sensing matrix Phi and a residual measurement r, the estimator finds
the sinusoid (omega, a, phi) whose compressed samples best explain r in the
least-squares sense.  For a fixed frequency the optimal linear amplitudes
(a1, a2) against the measured atom pair

    A_w = [Phi @ sin_w, Phi @ cos_w]

solve a 2x2 normal system in closed form (``amplitude_ls``), leaving the
attained error s(omega) a function of frequency alone.  One grid round over
the N + 1 full-band nodes picks the best node; a bracketed Newton iteration
on s' then polishes it, to a bracket narrower than ``_FREQ_TOL`` unless a
``newton_steps`` budget stops it first.

A single frequency's atoms (``build_atoms``, the Newton step's
``_s_derivatives``) come from ``sinusoid_samples``; many frequencies take
one of two kernels.  A uniform DFT grid w_k = 2 pi k / L (the full band,
L = 2N, and BOMP's oversampled grid) is one real FFT of each zero-padded
row of Phi (``_dft_atoms``, which returns the bins too); arbitrary
frequencies (the polish fits, ``oracle_ls``) take one GEMM on directly
evaluated cos/sin samples (``_measured_atoms``).  All feed the pair bases
of ``_orthonormal_pairs``, against which a residual is scored by its
captured energy.  The grid oracle alone leaves float64: it scores every
node of its uniform scan in float32 from a short power series about
centres, whose directly evaluated table (``_cis``) it rotates per chunk,
reading each node's pair Gram from its centre's, without forming the
node's atoms; then it rescores the nodes near each residual's running best
through ``_measured_atoms`` and ``_orthonormal_pairs``, in batches, as the
scan goes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import SinusoidParams, sinusoid_samples
from .sensing import SensingMatrix

__all__ = [
    "EstimateOutcome",
    "build_atoms",
    "amplitude_ls",
    "estimate_sinusoid",
]

# Bracket width at which the frequency search stops.
_FREQ_TOL = 1e-8
# Cap on Newton steps.  Even pure bisection narrows the round-1 bracket
# (at most 2 pi / N wide) below _FREQ_TOL within 30 steps.
_MAX_NEWTON_STEPS = 60
# Atom pairs whose Gram determinant is at most this times trace^2 are solved
# rank-1 (omega at 0 or pi, where the sine column vanishes).
_GRAM_DET_TOL = 1e-12
# A grid node whose captured energy falls short of the best by more than
# this times ||r||^2 cannot have the least error: the energy and the
# error's direct form each carry rounding of a few eps * ||r||^2.
_GAIN_ROUNDING = 1e-12


@dataclass(frozen=True)
class EstimateOutcome:
    """Result of one single-sinusoid estimation.

    ``refinements_used`` is 1 (the grid round) plus the Newton steps, and
    ``best_s_history`` the running best squared error after each.
    ``bracket_history`` records the full band, the grid round's bracket
    and, when the Newton polish is kept, its final bracket.
    """

    params: SinusoidParams
    residual_sq: float
    refinements_used: int
    bracket_history: tuple[tuple[float, float], ...]
    best_s_history: tuple[float, ...]


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
    the squared norm of the residual.  Raises ValueError on non-finite
    atoms or residual.
    """
    a = np.asarray(a, dtype=float)
    r = np.asarray(r, dtype=float)
    if r.ndim != 1 or a.shape != (r.size, 2):
        raise ValueError(f"atoms {a.shape} must be M x 2 for a residual of shape {r.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(r))):
        raise ValueError("atoms and residual must be finite (no NaN or inf)")
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


def _cis(omegas: np.ndarray, n: int) -> np.ndarray:
    """The n x K table exp(i w_k t), t = 1..n, by direct cos/sin of t * w_k."""
    wt = np.multiply.outer(np.arange(1.0, n + 1.0), omegas)
    table = np.empty(wt.shape, dtype=complex)
    np.cos(wt, out=table.real)
    np.sin(wt, out=table.imag)
    return table


def _measured_atoms(phi_entries: np.ndarray, omegas) -> np.ndarray:
    """Measured cos/sin atoms at every frequency in ``omegas`` (M x K x 2).

    The [..., 0] plane is Phi @ cos(w_k t) and the [..., 1] plane
    Phi @ sin(w_k t), from one real GEMM on the interleaved (cos, sin) view
    of the directly evaluated table ``_cis``.  This is the path for
    arbitrary frequencies; a uniform DFT grid is cheaper through
    ``_dft_atoms``.  ``build_atoms`` stays the single-frequency reference
    both are tested against.
    """
    table = _cis(np.asarray(omegas, dtype=float), phi_entries.shape[1])
    w = phi_entries @ table.view(float)
    return w.reshape(phi_entries.shape[0], -1, 2)


def _params_from_coef(frequencies, coef) -> tuple[SinusoidParams, ...]:
    """Components from fit coefficients ordered (cos_1, sin_1, cos_2, sin_2, ...)."""
    return tuple(
        SinusoidParams.from_linear(_inside_band(float(w)), float(s), float(c))
        for w, c, s in zip(frequencies, coef[0::2], coef[1::2])
    )


def _dft_atoms(phi_entries: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """The bins w_k = 2 pi k / length, k = 0..length // 2, and their measured
    cos/sin atoms (M x (length // 2 + 1) x 2, planes as in ``_measured_atoms``).

    The pair at 2 pi - w spans the pair at w's subspace, so bins past pi
    are left out; for an even ``length`` the top bin is exactly pi.  Each
    row of Phi, zero-padded to ``length`` >= N + 1 columns with sample
    t = 1..N at index t, has the DFT X_k = sum_t Phi[., t] exp(-i w_k t),
    so conj(X_k) = Phi @ cos(w_k t) + i Phi @ sin(w_k t): one real FFT per
    row (Cooley & Tukey 1965) gives the whole table in O(M L log L), and
    the sine plane is exactly zero at w = 0 and, for even ``length``, at pi.
    """
    m, n = phi_entries.shape
    padded = np.zeros((m, length))
    padded[:, 1 : n + 1] = phi_entries
    spectrum = np.fft.rfft(padded, axis=1)
    np.negative(spectrum.imag, out=spectrum.imag)  # conj without a second table
    top = length // 2
    omegas = np.linspace(0.0, math.pi * (2 * top / length), top + 1)
    return omegas, spectrum.view(float).reshape(m, -1, 2)


def _orthonormal_pairs(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis (q0, q1) of each measured (cos, sin) pair in ``w``.

    ``w`` is M x C x 2 float64 as from ``_measured_atoms`` or
    ``_dft_atoms``; q0 and q1 are M x C.  Regular pairs get Gram-Schmidt
    from the cosine column, so the captured energy of a residual r is
    (q0 . r)^2 + (q1 . r)^2.  Degenerate pairs (Gram ratio det / trace^2
    at most _GRAM_DET_TOL, e.g. omega at 0 or pi where the sine column
    vanishes) keep only their dominant column, normalized, and a zero q1:
    the rank-1 fit of ``amplitude_ls``.  A zero dominant column gains
    nothing.  The estimator's grid round, the grid oracle's float64 stage
    and BOMP all take their pair bases from here.
    """
    v = np.ascontiguousarray(w[..., 0])
    u = np.ascontiguousarray(w[..., 1])
    gvv = np.einsum("ij,ij->j", v, v)
    guu = np.einsum("ij,ij->j", u, u)
    guv = np.einsum("ij,ij->j", u, v)
    trace_sq = np.square(gvv + guu)
    det = gvv * guu - guv * guv
    ratio = np.divide(det, trace_sq, out=np.zeros_like(det), where=trace_sq > 0)
    regular = ratio > _GRAM_DET_TOL
    inv_v = 1.0 / np.sqrt(np.where(regular, gvv, 1.0))
    q0 = v * inv_v
    q1 = q0 * -(guv * inv_v)
    q1 += u
    norm_sq = np.where(regular, np.einsum("ij,ij->j", q1, q1), 1.0)
    q1 *= 1.0 / np.sqrt(norm_sq)
    degenerate = np.flatnonzero(~regular)
    if degenerate.size:
        use_u = guu[degenerate] >= gvv[degenerate]
        norm = np.sqrt(np.where(use_u, guu[degenerate], gvv[degenerate]))
        col = np.where(use_u, u[:, degenerate], v[:, degenerate])
        q0[:, degenerate] = np.divide(col, norm, out=np.zeros_like(col), where=norm > 0)
        q1[:, degenerate] = 0.0
    return q0, q1


@functools.lru_cache(maxsize=1)
def _full_band(phi: SensingMatrix):
    """The N + 1 nodes over [0, pi] and their orthonormal pair tables
    (nodes, q0, q1), read only by ``_grid_round``.

    Nodes and atoms are the 2N-point DFT bins of ``_dft_atoms``, the top
    node exactly pi.  Cached, as ``_derivative_operator`` is, for the most
    recent matrix, which hashes by identity and is held, so a hit is never
    a recycled id.
    """
    omegas, w = _dft_atoms(phi.entries, 2 * phi.n_cols)
    q0, q1 = _orthonormal_pairs(w)
    for x in (omegas, q0, q1):
        x.flags.writeable = False
    return omegas, q0, q1


@functools.lru_cache(maxsize=1)
def _derivative_operator(phi: SensingMatrix) -> np.ndarray:
    """The 3M x N operator [Phi; Phi T; Phi T^2], T = diag(1..N).

    One product of it with sin/cos samples at a frequency gives the
    measured pair and its t- and t^2-weighted versions, from which
    ``_s_derivatives`` and the recovery polish read their derivatives.
    """
    t = np.arange(1.0, phi.n_cols + 1.0)
    stacked = np.concatenate((phi.entries, phi.entries * t, phi.entries * (t * t)))
    stacked.flags.writeable = False
    return stacked


def _grid_round(phi: SensingMatrix, r: np.ndarray):
    """The full-band grid round on a finite residual ``r``; raises
    ValueError when r is identically zero.

    The round runs on r / 2^e with max |r / 2^e| in [0.5, 1), an exact,
    contiguous copy, so that no square overflows or underflows and the
    round depends neither on the scale of r nor on its memory layout.
    Against each node's pair basis (q0, q1) the fit leaves ||r||^2 minus the
    captured energy (q0 . r)^2 + (q1 . r)^2, so two GEMVs score every node.
    The nodes within _GAIN_ROUNDING * ||r||^2 of the best energy, and their
    neighbours, are rescored by the direct form ||r - q0 (q0 . r) -
    q1 (q1 . r)||^2, which keeps its relative precision where the error is
    many orders below ||r||^2 (a node on a noiseless tone); every other node
    loses by more than rounding.  Returns the copy, e, the bracket
    (omega_lo, omega_j, omega_hi) around the rescored node j of least error
    (lowest index on ties), clipped to the band (lo = j at j = 0, hi = j at
    j = N), and those three nodes' errors at the copy's scale, inf for a
    neighbour that was not rescored.
    """
    r_max = float(np.max(np.abs(r)))
    if r_max == 0.0:
        raise ValueError("residual is identically zero; nothing to estimate")
    e = math.frexp(r_max)[1]  # a power of two: scaling is exact
    r = np.ldexp(r, -e)
    omegas, q0, q1 = _full_band(phi)
    b0 = q0.T @ r
    b1 = q1.T @ r
    gain = np.square(b0)
    gain += np.square(b1)
    near = gain >= gain.max() - _GAIN_ROUNDING * float(r @ r)
    rescore = near.copy()
    rescore[1:] |= near[:-1]
    rescore[:-1] |= near[1:]
    nodes = rescore.nonzero()[0]
    res = r[:, None] - q0[:, nodes] * b0[nodes] - q1[:, nodes] * b1[nodes]
    s = np.einsum("ij,ij->j", res, res)
    j = nodes.item(s.argmin())
    scored = dict(zip(nodes.tolist(), s.tolist()))
    bracket = (max(j - 1, 0), j, min(j + 1, omegas.size - 1))
    errors = tuple(scored.get(i, math.inf) for i in bracket)
    return r, e, tuple(omegas.item(i) for i in bracket), errors


def _s_derivatives(stacked: np.ndarray, r: np.ndarray, omega: float):
    """s(omega) = min_x ||r - A x||^2 and its exact derivatives s', s''.

    ``stacked`` is the operator [Phi; Phi T; Phi T^2] of ``_derivative_operator``.
    One product of it with the N x 2 block [sin wt, cos wt] of
    ``sinusoid_samples`` gives, as row slices, the pair A = [Phi sin,
    Phi cos] and the weighted pairs from which A' = [Phi T cos, -Phi T sin]
    and A'' = -[Phi T^2 sin, Phi T^2 cos] are read.  With G = A^T A, the
    fit x = G^-1 A^T r and its error e = r - A x, s' = -2 e . A'x (envelope
    theorem) and
    s'' = 2 ||A'x||^2 - 2 e . A''x - 2 c^T G^-1 c, where c = A'^T e - A^T A'x
    is G dx/domega.  The 2x2 algebra runs on scalars, and e . A'x and
    e . A''x come from one product of e with the weighted rows.  A
    degenerate pair (omega within rounding of 0 or pi) has no 2x2 fit: s
    is then inf and s', s'' NaN.
    """
    m = r.size
    y = stacked @ np.column_stack(sinusoid_samples(omega, stacked.shape[1]))
    a, ta = y[:m], y[m : 2 * m]
    (g00, g01), (_, g11) = (a.T @ a).tolist()
    det = g00 * g11 - g01 * g01
    if not det > _GRAM_DET_TOL * (g00 + g11) ** 2:
        return math.inf, math.nan, math.nan
    b0, b1 = (r @ a).tolist()
    x0 = (g11 * b0 - g01 * b1) / det
    x1 = (g00 * b1 - g01 * b0) / det
    e = r - a @ (x0, x1)
    v = ta @ (-x1, x0)  # A'x
    # e against Phi T sin, Phi T cos, Phi T^2 sin, Phi T^2 cos
    (e_ts, e_tc), (e_t2s, e_t2c) = (e @ y[m:].reshape(2, m, 2)).tolist()
    a_v0, a_v1 = (v @ a).tolist()
    c0 = e_tc - a_v0
    c1 = -e_ts - a_v1
    c_g_c = (g11 * c0 * c0 - 2.0 * g01 * c0 * c1 + g00 * c1 * c1) / det
    e_dv = x0 * e_tc - x1 * e_ts  # e . A'x
    e_d2v = -(x0 * e_t2s + x1 * e_t2c)  # e . A''x
    return float(e @ e), -2.0 * e_dv, 2.0 * (float(v @ v) - e_d2v - c_g_c)


def estimate_sinusoid(
    phi: SensingMatrix, r: np.ndarray, *, newton_steps: int | None = None
) -> EstimateOutcome:
    """Estimate the sinusoid that best explains the residual measurement ``r``.

    ``r`` is finite, nonzero and of length M.  One grid round
    (``_grid_round``) returns the best full-band node omega_j and its
    bracket [omega_lo, omega_hi]; Newton steps on s' then polish omega_j
    inside that bracket until it is narrower than _FREQ_TOL, starting
    mid-bracket when omega_j is a band end, whose pair is degenerate.  A
    positive integer ``newton_steps`` stops the polish after that many
    evaluations of s' instead; the final bracket is then wider than
    _FREQ_TOL and need not contract by the grid's factor, so both of those
    guarantees (criterion 3) hold only for the default, ``None``.  Each
    evaluated point replaces the bracket end whose s' sign it shares.  s is
    even about each band end, so a Newton point past 0 or pi is mirrored
    back into the band; a step that then leaves the bracket or meets
    s'' <= 0 bisects, and one shorter than _FREQ_TOL / 2 is lengthened to
    it, so that the bracket closes from both sides.  The polished frequency
    is the latest Newton point in the bracket (else its end of lower s),
    kept only if its error is no larger than omega_j's.  A point whose pair
    is degenerate (within rounding of 0 or pi) ends the search at once, on
    the bracket end of lower s.  The returned residual_sq is exactly
    ``amplitude_ls`` re-evaluated at the returned frequency.  The search
    runs on the grid round's copy r / 2^e, so the result depends neither on
    the scale of r nor on its memory layout; amplitudes and squared errors
    are scaled back by 2^e and 2^2e.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 1 or r.size != phi.m_rows:
        raise ValueError(f"residual length {r.shape} does not match matrix m={phi.m_rows}")
    if not np.all(np.isfinite(r)):
        raise ValueError("residual must be finite (no NaN or inf)")
    n = phi.n_cols
    if n < 2:
        raise ValueError(f"the frequency grid needs N >= 2 columns, got N={n}")
    if newton_steps is None:
        newton_steps = _MAX_NEWTON_STEPS
    elif not (type(newton_steps) is int and newton_steps >= 1):  # refuses bool, an int subclass
        raise ValueError(f"newton_steps must be a positive integer or None, got {newton_steps!r}")

    r, e, (a, w_j, b), (s_a, s_j, s_b) = _grid_round(phi, r)
    stacked = _derivative_operator(phi)
    brackets = [(0.0, math.pi), (a, b)]
    s_history = [s_j]
    x = omega = w_j if a < w_j < b else 0.5 * (a + b)
    while b - a >= _FREQ_TOL and len(s_history) <= newton_steps:
        s_x, d1, d2 = _s_derivatives(stacked, r, x)
        s_history.append(min(s_history[-1], s_x))
        if s_x == math.inf:  # a degenerate pair has no s' to bracket by
            omega = a if s_a <= s_b else b
            break
        if d1 > 0.0:
            b, s_b = x, s_x
        else:
            a, s_a = x, s_x
        newton = x - d1 / d2 if d2 > 0.0 else math.nan
        # s is even about each band end, so a Newton point past one is
        # mirrored back into the band
        if newton < 0.0:
            newton = -newton
        elif newton > math.pi:
            newton = 2.0 * math.pi - newton
        if a <= newton <= b:
            omega = newton
            step = newton - x
            x += step if abs(step) >= _FREQ_TOL / 2 else math.copysign(_FREQ_TOL / 2, step)
        elif not a <= omega <= b:
            omega = a if s_a <= s_b else b
        if not a < x < b:
            x = 0.5 * (a + b)

    omega_hat = _inside_band(omega)
    a1, a2, s_final = amplitude_ls(build_atoms(phi, omega_hat), r)
    if s_final > s_history[0]:
        omega_hat = _inside_band(w_j)
        a1, a2, s_final = amplitude_ls(build_atoms(phi, omega_hat), r)
    elif len(s_history) > 1:
        brackets.append((a, b))
    # np.ldexp, not math.ldexp: a squared error past the float range is inf
    a1, a2 = math.ldexp(a1, e), math.ldexp(a2, e)
    s_final, *s_history = np.ldexp([s_final, *s_history], 2 * e).tolist()
    return EstimateOutcome(
        params=SinusoidParams.from_linear(omega_hat, a1, a2),
        residual_sq=s_final,
        refinements_used=len(s_history),
        bracket_history=tuple(brackets),
        best_s_history=tuple(s_history),
    )
