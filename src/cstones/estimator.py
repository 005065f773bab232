"""Single-sinusoid estimation from a compressed residual vector.

Given a sensing matrix Phi and a residual measurement r, the estimator finds
the sinusoid (omega, a, phi) whose compressed samples best explain r in the
least-squares sense.  For a fixed frequency the optimal linear amplitudes
(a1, a2) against the measured atom pair

    A_w = [Phi @ sin_w, Phi @ cos_w]

solve a 2x2 normal system in closed form (``amplitude_ls``), leaving the
attained error s(omega) a function of frequency alone.  One grid round over
the N + 1 full-band nodes, scored through the measured-atom kernel and pair
bases that the baselines share, picks the best node; a bracketed Newton
iteration on s' then polishes it to a fixed bracket width, ``_FREQ_TOL``.
"""

from __future__ import annotations

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


def _measured_atoms(phi_entries: np.ndarray, omegas) -> np.ndarray:
    """Measured cos/sin atoms at every frequency in ``omegas`` (M x K x 2).

    The [..., 0] plane is Phi @ cos(w_k t) and the [..., 1] plane
    Phi @ sin(w_k t), from one real GEMM on the interleaved (cos, sin) view
    of the phasor table.  This is the one path that builds measured
    sinusoid atoms for many frequencies at once; ``build_atoms`` stays the
    direct single-frequency reference it is tested against.
    """
    phasors = _phasors(np.asarray(omegas, dtype=float), phi_entries.shape[1])
    w = phi_entries @ phasors.view(float)
    return w.reshape(phi_entries.shape[0], -1, 2)


def _orthonormal_pairs(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis (q0, q1) of each measured (cos, sin) pair in ``w``.

    ``w`` is M x C x 2 as from ``_measured_atoms``; q0 and q1 are M x C.
    Regular pairs get Gram-Schmidt from the cosine column, so the captured
    energy of a residual r is (q0 . r)^2 + (q1 . r)^2.  Degenerate pairs
    (Gram determinant at most _GRAM_DET_TOL * trace^2, e.g. omega at 0 or
    pi where the sine column vanishes) keep only their dominant column,
    normalized, and a zero q1: the rank-1 fit of ``amplitude_ls``.  A zero
    dominant column gains nothing.  The estimator's grid round, the grid
    oracle and BOMP all take their pair bases from here.
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


# The most recent matrix, held so an identity match is never a recycled id,
# with its read-only full-band table and derivative operator.
_full_band_cache = None


def _full_band(phi: SensingMatrix):
    """The N + 1 nodes over [0, pi], their orthonormal pair tables (q0, q1)
    and the 3M x N derivative operator [Phi; Phi T; Phi T^2], T = diag(1..N).

    One product of the operator with sin/cos samples at a frequency gives
    the measured pair and its t- and t^2-weighted versions, from which
    ``_s_derivatives`` and the recovery polish read their derivatives.
    """
    global _full_band_cache
    if _full_band_cache is None or _full_band_cache[0] is not phi:
        omegas = np.linspace(0.0, math.pi, phi.n_cols + 1)
        q0, q1 = _orthonormal_pairs(_measured_atoms(phi.entries, omegas))
        t = np.arange(1.0, phi.n_cols + 1.0)
        stacked = np.concatenate((phi.entries, phi.entries * t, phi.entries * (t * t)))
        for x in (omegas, q0, q1, stacked):
            x.flags.writeable = False
        _full_band_cache = (phi, omegas, (q0, q1), stacked)
    return _full_band_cache[1:]


def _grid_eval(tables, r):
    """Least-squares squared error of ``r`` against every node's atom pair.

    With each pair's orthonormal basis (q0, q1) the fit is the projection
    q0 (q0 . r) + q1 (q1 . r).  The error is evaluated directly as
    ||r - q0 (q0 . r) - q1 (q1 . r)||^2, not as ||r||^2 minus the captured
    energy, so it keeps its relative precision at a node on a noiseless
    tone, where it is many orders below ||r||^2.
    """
    q0, q1 = tables
    res = r[:, None] - q0 * (q0.T @ r) - q1 * (q1.T @ r)
    return np.einsum("ij,ij->j", res, res)


def _s_derivatives(stacked: np.ndarray, r: np.ndarray, omega: float):
    """s(omega) = min_x ||r - A x||^2 and its exact derivatives s', s''.

    ``stacked`` is the operator [Phi; Phi T; Phi T^2] from ``_full_band``.
    One product of it with the N x 2 block [sin wt, cos wt] gives, as row
    slices, the pair A = [Phi sin, Phi cos] and the weighted pairs from
    which A' = [Phi T cos, -Phi T sin] and A'' = -[Phi T^2 sin, Phi T^2 cos]
    are read.  With G = A^T A, the fit x = G^-1 A^T r and its error
    e = r - A x, s' = -2 e . A'x (envelope theorem) and
    s'' = 2 ||A'x||^2 - 2 e . A''x - 2 c^T G^-1 c, where c = A'^T e - A^T A'x
    is G dx/domega.  The 2x2 algebra runs on scalars, and e . A'x and
    e . A''x come from one product of e with the weighted rows.  A
    degenerate pair (omega within rounding of 0 or pi) has no 2x2 fit: s
    is then inf and s', s'' NaN.
    """
    m, n = r.size, stacked.shape[1]
    wt = omega * np.arange(1.0, n + 1.0)
    block = np.empty((n, 2))
    np.sin(wt, out=block[:, 0])
    np.cos(wt, out=block[:, 1])
    y = stacked @ block
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


def estimate_sinusoid(phi: SensingMatrix, r: np.ndarray) -> EstimateOutcome:
    """Estimate the sinusoid that best explains the residual measurement ``r``.

    ``r`` has length M and must be nonzero.  One grid round takes the best
    full-band node j (lowest index on ties); Newton steps on s' then polish
    it inside [omega_(j-1), omega_(j+1)] until the bracket is narrower than
    _FREQ_TOL, starting mid-bracket when j is a band end, whose pair is
    degenerate.  Each evaluated point replaces the bracket end whose s'
    sign it shares.  s is even about each band end, so a Newton point past
    0 or pi is mirrored back into the band; a step that then leaves the
    bracket or meets s'' <= 0 bisects, and one shorter than _FREQ_TOL / 2
    is lengthened to it, so that the bracket closes from both sides.  The
    polished frequency is the latest Newton point in the bracket (else its
    end of lower s), kept only if its error is no larger than node j's.  A
    point whose pair is degenerate (within rounding of 0 or pi) ends the
    search at once, on the bracket end of lower s.  The returned
    residual_sq is exactly ``amplitude_ls`` re-evaluated at the returned
    frequency.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 1 or r.size != phi.m_rows:
        raise ValueError(f"residual length {r.shape} does not match matrix m={phi.m_rows}")
    if float(r @ r) == 0.0:
        raise ValueError("residual is identically zero; nothing to estimate")
    n = phi.n_cols
    if n < 2:
        raise ValueError(f"the frequency grid needs N >= 2 columns, got N={n}")

    omegas, tables, stacked = _full_band(phi)
    s = _grid_eval(tables, r)
    j = int(np.argmin(s))
    lo, hi = max(j - 1, 0), min(j + 1, n)
    a, b, s_a, s_b = float(omegas[lo]), float(omegas[hi]), float(s[lo]), float(s[hi])
    brackets = [(0.0, math.pi), (a, b)]
    s_history = [float(s[j])]
    x = omega = float(omegas[j]) if 0 < j < n else 0.5 * (a + b)
    while b - a >= _FREQ_TOL and len(s_history) <= _MAX_NEWTON_STEPS:
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
        omega_hat = _inside_band(float(omegas[j]))
        a1, a2, s_final = amplitude_ls(build_atoms(phi, omega_hat), r)
    elif len(s_history) > 1:
        brackets.append((a, b))
    return EstimateOutcome(
        params=SinusoidParams.from_linear(omega_hat, a1, a2),
        residual_sq=s_final,
        refinements_used=len(s_history),
        bracket_history=tuple(brackets),
        best_s_history=tuple(s_history),
    )
