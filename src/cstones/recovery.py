"""Recovery of K sinusoids from compressed measurements: a short cyclic
warm-up, then one joint polish of all K frequencies.

The recoverer keeps K component slots, initially empty.  Each warm-up sweep
visits the slots in index order; for slot i it forms the residual
measurement

    r = m - sum_{j != i} Phi @ s_j

where s_j are the samples of slot j, and replaces slot i with the single
best-matching sinusoid for r.  A replacement is only accepted if it does not
increase the total measurement residual, which keeps the per-sweep residual
norms non-increasing.  The warm-up stops after ``RecoveryConfig.max_sweeps``
sweeps, or earlier once the residual norm stops changing (relative to
||m||).

Cyclic descent converges only linearly, so the warm-up merely lands every
slot in its basin.  The polish then minimizes ||m - A(w) c|| over all K
frequencies w at once, with the 2K linear amplitudes c projected out by
least squares (variable projection, Golub & Pereyra 1973), by
Levenberg-Marquardt steps on Kaufman's Jacobian.  It is kept only if it
lowers the measurement residual.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .estimator import _full_band, _inside_band, _measured_atoms, estimate_sinusoid
from .model import SignalModel, SinusoidParams, component_samples, synthesize
from .sensing import Measurement, SensingMatrix

__all__ = [
    "RecoveryConfig",
    "RecoveryResult",
    "recover",
]

# Warm-up sweeps halt once the residual norm changes by less than this
# times ||m||.
_RESIDUAL_REL_TOL = 1e-10
# The polish ends once a trial step moves no frequency by more than this,
# or after this many trial steps.
_POLISH_STEP_TOL = 1e-12
_POLISH_MAX_TRIALS = 30
# A trial step counts as no worse if it raises ||e||^2 by at most this
# relative amount, the rounding noise of the fit: near the optimum the
# Gauss-Newton step, taken from the gradient, still points the right way
# when the change in ||e||^2 is lost in rounding.
_POLISH_COST_SLACK = 1e-13


@dataclass(frozen=True)
class RecoveryConfig:
    """The recovery's one setting, ``k``: the number of sinusoids to fit.

    ``max_sweeps`` is a class constant, not a field: the number of cyclic
    warm-up sweeps before the joint polish.  Four land the slots in their
    basins at the flagship operating point and at low M, where one does
    not.
    """

    k: int
    max_sweeps: ClassVar[int] = 4

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class RecoveryResult:
    """Recovered model plus convergence bookkeeping.

    ``signal`` is exactly ``synthesize(model)``.  ``sweeps_used`` counts
    the cyclic warm-up sweeps, and ``sweep_residual_norms`` holds the
    measurement-domain residual norm at the end of each, plus one last
    entry for the joint polish when it is kept (a non-increasing
    sequence).  ``stop_reason`` is ``"zero_input"`` for a zero
    measurement, ``"polished"`` when the polish is kept, and otherwise
    says how the warm-up ended: ``"converged"`` on the residual test or
    ``"sweep_cap"`` after ``RecoveryConfig.max_sweeps`` sweeps.
    """

    model: SignalModel
    signal: np.ndarray
    sweeps_used: int
    final_residual_norm: float
    sweep_residual_norms: tuple[float, ...]
    stop_reason: str


def _placeholder_frequencies(k: int) -> list[float]:
    return [math.pi * (i + 1) / (k + 1) for i in range(k)]


def _assemble_model(params: list[SinusoidParams | None], n: int) -> SignalModel:
    """Turn per-slot parameters into a valid model.

    Empty slots get zero-amplitude components at distinct placeholder
    frequencies; exact-duplicate frequencies are nudged apart by one ulp so
    the model's distinctness invariant holds (the synthesized signal is
    unchanged at double precision).
    """
    k = len(params)
    placeholders = _placeholder_frequencies(k)
    used: set[float] = set()
    comps = []
    for i, p in enumerate(params):
        if p is None:
            p = SinusoidParams(omega=placeholders[i], amplitude=0.0, phase=0.0)
        omega = p.omega
        while omega in used:
            omega = math.nextafter(omega, math.pi)
        used.add(omega)
        if omega != p.omega:
            p = SinusoidParams(omega=omega, amplitude=p.amplitude, phase=p.phase)
        comps.append(p)
    return SignalModel(components=tuple(comps), n_samples=n)


def _admissible(omegas: np.ndarray) -> bool:
    """True when every frequency lies inside (0, pi) and no two are equal."""
    inside = bool(np.all((omegas > 0.0) & (omegas < math.pi)))
    return inside and np.unique(omegas).size == omegas.size


def _projected_fit(weighted: np.ndarray, mv: np.ndarray, omegas: np.ndarray):
    """The least-squares fit of ``mv`` by tones at ``omegas``.

    One ``_measured_atoms`` call on ``weighted`` = [Phi; Phi T] gives the
    M x 2K atoms A (cosine, sine per tone) and their t-weighted versions.
    Returns A, the coefficients c, the columns D = dA/dw c (see
    ``_polish``) and the error ||mv - A c||^2.
    """
    atoms = _measured_atoms(weighted, omegas)
    a = atoms[: mv.size].reshape(mv.size, -1)
    coef = np.linalg.lstsq(a, mv, rcond=None)[0]
    d = atoms[mv.size :, :, 0] * coef[1::2] - atoms[mv.size :, :, 1] * coef[0::2]
    e = mv - a @ coef
    return a, coef, d, float(e @ e)


def _polish(stacked: np.ndarray, mv: np.ndarray, omegas: np.ndarray):
    """Levenberg-Marquardt on the K frequencies with the amplitudes projected out.

    ``stacked`` is the derivative operator [Phi; Phi T; Phi T^2] from
    ``_full_band``; the fits read its top 2M rows.  Tone k contributes
    c_k cos(w_k t) + s_k sin(w_k t), so with the fitted coefficients the
    columns D_k = Phi @ (t * (s_k cos w_k t - c_k sin w_k t)), read as
    s_k (Phi T cos) - c_k (Phi T sin) off the fit's weighted atoms, are
    dA/dw_k c, and Kaufman's variable-projection Jacobian of the error e is
    J = -P D, P the projector off the atoms' span.  Each trial step solves
    (J^T J + lam diag(J^T J)) delta = D^T e; a step is taken only if it
    keeps the frequencies admissible and does not raise ||e||^2 beyond
    _POLISH_COST_SLACK, and lam shrinks tenfold on a taken step and grows
    tenfold on a refused one.  Returns the final frequencies and
    coefficients.
    """
    weighted = stacked[: 2 * mv.size]
    a, coef, d, cost = _projected_fit(weighted, mv, omegas)
    lam = 1e-3
    jtj = None
    for _ in range(_POLISH_MAX_TRIALS):
        if jtj is None:  # the Jacobian at a newly taken point
            jac = d - a @ np.linalg.lstsq(a, d, rcond=None)[0]
            jtj = jac.T @ jac
            grad = d.T @ (mv - a @ coef)
        delta = np.linalg.lstsq(jtj + lam * np.diag(np.diag(jtj)), grad, rcond=None)[0]
        trial = omegas + delta
        fit = _projected_fit(weighted, mv, trial) if _admissible(trial) else None
        if fit is not None and fit[3] <= cost * (1.0 + _POLISH_COST_SLACK):
            omegas, (a, coef, d, cost) = trial, fit
            jtj = None
            lam *= 0.1
        else:
            lam *= 10.0
        if not np.max(np.abs(delta)) > _POLISH_STEP_TOL:
            break
    return omegas, coef


def recover(
    phi: SensingMatrix,
    m: Measurement,
    cfg: RecoveryConfig,
) -> RecoveryResult:
    """Recover ``cfg.k`` sinusoids from the measurement ``m = Phi @ x``.

    Deterministic for fixed inputs.  Emits a warning (and still runs) when
    3k exceeds the measurement count, i.e. more parameters than equations.
    A zero measurement returns the all-zero model immediately; the joint
    polish is skipped when the warm-up leaves a slot empty or fits ``m``
    exactly.  Scaling
    ``m`` by a power of two scales the amplitudes, the signal and the
    residual norms by it and changes nothing else, bit for bit, as long as
    no result overflows or turns subnormal.
    """
    if len(m.values) != phi.m_rows:
        raise ValueError(f"measurement length {len(m.values)} != matrix m={phi.m_rows}")
    k = cfg.k
    n = phi.n_cols
    if 3 * k > phi.m_rows:
        warnings.warn(
            f"underdetermined recovery: 3k={3 * k} parameters from only "
            f"{phi.m_rows} measurements",
            stacklevel=2,
        )

    # Run on m / 2^e with max |m / 2^e| in [0.5, 1), so no squared norm
    # overflows or underflows, and scale back by 2^e at the end; scaling by
    # a power of two is exact, so the result is scale-equivariant bit for bit.
    m_max = float(np.max(np.abs(m.values)))
    if m_max == 0.0:
        model = _assemble_model([None] * k, n)
        return RecoveryResult(
            model=model,
            signal=synthesize(model),
            sweeps_used=0,
            final_residual_norm=0.0,
            sweep_residual_norms=(),
            stop_reason="zero_input",
        )

    e = math.frexp(m_max)[1]
    mv = np.ldexp(m.values, -e)
    m_norm = float(np.linalg.norm(mv))
    params: list[SinusoidParams | None] = [None] * k
    measured = [np.zeros(phi.m_rows) for _ in range(k)]
    sweep_norms: list[float] = []
    stop_reason = "sweep_cap"

    for _sweep in range(cfg.max_sweeps):
        for i in range(k):
            r = mv - (sum(measured) - measured[i])
            if float(r @ r) == 0.0:
                params[i] = None
                measured[i] = np.zeros(phi.m_rows)
                continue
            outcome = estimate_sinusoid(phi, r)
            cand_measured = phi.entries @ component_samples(outcome.params, n)
            old_sq = float(np.sum((r - measured[i]) ** 2))
            new_sq = float(np.sum((r - cand_measured) ** 2))
            # Keep the old component when the estimator's grid happens to
            # miss it; this is what makes sweeps monotone.
            if new_sq <= old_sq:
                params[i] = outcome.params
                measured[i] = cand_measured

        resid = float(np.linalg.norm(mv - sum(measured)))
        sweep_norms.append(resid)
        if len(sweep_norms) >= 2 and abs(sweep_norms[-2] - resid) < _RESIDUAL_REL_TOL * m_norm:
            stop_reason = "converged"
            break

    sweeps_used = len(sweep_norms)
    omegas = np.array([math.nan if p is None else p.omega for p in params])
    if sweep_norms[-1] > 0.0 and _admissible(omegas):
        omegas, coef = _polish(_full_band(phi)[2], mv, omegas)
        polished = [
            SinusoidParams.from_linear(_inside_band(float(w)), float(s), float(c))
            for w, c, s in zip(omegas, coef[0::2], coef[1::2])
        ]
        polished_measured = [phi.entries @ component_samples(p, n) for p in polished]
        resid = float(np.linalg.norm(mv - sum(polished_measured)))
        if resid < sweep_norms[-1]:
            params = polished
            sweep_norms.append(resid)
            stop_reason = "polished"

    params = [
        None if p is None else SinusoidParams(p.omega, math.ldexp(p.amplitude, e), p.phase)
        for p in params
    ]
    model = _assemble_model(params, n)
    signal = synthesize(model)
    final_norm = float(np.linalg.norm(mv - phi.entries @ np.ldexp(signal, -e)))
    return RecoveryResult(
        model=model,
        signal=signal,
        sweeps_used=sweeps_used,
        final_residual_norm=math.ldexp(final_norm, e),
        sweep_residual_norms=tuple(math.ldexp(x, e) for x in sweep_norms),
        stop_reason=stop_reason,
    )
