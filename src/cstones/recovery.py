"""Recovery of K sinusoids from compressed measurements: rounds of one
cyclic warm-up sweep and one joint polish of all K frequencies.

The recoverer keeps K component slots, initially empty.  Each sweep visits
the slots in index order; for slot i it forms the residual measurement

    r = m - sum_{j != i} Phi @ s_j

where s_j are the samples of slot j, and replaces slot i with the single
best-matching sinusoid for r.  A replacement is only accepted if it lowers
the slot's squared residual by more than the polish's rounding slack, which
keeps the residual norms non-increasing and a polished fit in place.  Once
a polish has been kept, a visit first runs the estimator's grid round alone
on r: when the best node's bracket [omega_(j-1), omega_(j+1)] holds the
slot's frequency, the Newton steps would start in the polished frequency's
cell, so the slot stays as it is and the estimator is not called.

Cyclic descent converges only linearly, so a sweep merely lands every slot
in its basin, and each of its estimates stops after three Newton steps.
The polish that follows each sweep minimizes ||m - A(w) c|| over all K
frequencies w at once, with the 2K linear amplitudes c projected out by
least squares (variable projection, Golub & Pereyra 1973), by
Levenberg-Marquardt steps on Kaufman's Jacobian, which stop once a taken
step no longer lowers the error beyond rounding; it is kept only if it
lowers the measurement residual.  This is Newtonized OMP's order, detection
then joint refinement (Mamandipoor, Ramasamy & Madhow 2016).  The rounds
stop after ``RecoveryConfig.max_sweeps`` sweeps, at a sweep that changes no
slot (the next one would repeat it bit for bit), or at a kept polish that
fits m exactly (residual at most _CERTIFIED_FIT ||m||).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .estimator import (
    _full_band,
    _grid_round,
    _measured_atoms,
    _params_from_coef,
    estimate_sinusoid,
)
from .model import SignalModel, SinusoidParams, component_samples, synthesize
from .sensing import Measurement, SensingMatrix

__all__ = [
    "RecoveryConfig",
    "RecoveryResult",
    "recover",
]

# Each warm-up estimate stops after this many evaluations of s': the
# warm-up only has to land every slot in its basin, and the joint polish
# then sets every frequency to machine precision.
_WARMUP_NEWTON_STEPS = 3
# The polish ends once a trial step moves no frequency by more than this,
# or after this many trial steps (or at a flat step, see _POLISH_COST_SLACK).
_POLISH_STEP_TOL = 1e-12
_POLISH_MAX_TRIALS = 30
# A trial step counts as no worse if it raises ||e||^2 by at most this
# relative amount, the rounding noise of the fit: near the optimum the
# Gauss-Newton step, taken from the gradient, still points the right way
# when the change in ||e||^2 is lost in rounding.  A taken step that lowers
# ||e||^2 by no more than this ends the polish: the cost is at its floor.
_POLISH_COST_SLACK = 1e-13
# A kept polish whose residual is at most this fraction of ||m|| certifies
# an exact fit and ends the recovery: in every noiseless draw measured, an
# exact fit was a success.
_CERTIFIED_FIT = 1e-10


@dataclass(frozen=True)
class RecoveryConfig:
    """The recovery's one setting, ``k``: the number of sinusoids to fit.

    ``max_sweeps`` is a class constant, not a field: the most cyclic sweeps
    a recovery runs, each followed by one joint polish.  Noiseless inputs
    usually stop at the first polish's exact fit and noisy ones at their
    second sweep; the cap bounds the low-M inputs that do neither.
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
    the cyclic sweeps only.  A sweep makes at most k estimates: k before
    the first kept polish, and after it one per slot that its grid round
    does not confirm.
    ``sweep_residual_norms`` holds the measurement-domain residual norm
    after each sweep and after each kept polish, in the order they ran (a
    non-increasing sequence).  ``stop_reason`` is ``"zero_input"`` for a
    zero measurement, ``"polished"`` when any polish was kept, and
    otherwise says how the sweeps ended: ``"converged"`` when the last one
    changed no slot, or ``"sweep_cap"`` after ``RecoveryConfig.max_sweeps``
    sweeps.
    """

    model: SignalModel
    signal: np.ndarray
    sweeps_used: int
    final_residual_norm: float
    sweep_residual_norms: tuple[float, ...]
    stop_reason: str


def _assemble_model(params: list[SinusoidParams | None], n: int) -> SignalModel:
    """Turn per-slot parameters into a valid model.

    Empty slots get zero-amplitude components at distinct placeholder
    frequencies; exact-duplicate frequencies are nudged apart by one ulp,
    away from the nearer band end so that they stay inside (0, pi), and the
    model's distinctness invariant holds (the synthesized signal is
    unchanged at double precision).
    """
    k = len(params)
    used: set[float] = set()
    comps = []
    for i, p in enumerate(params):
        if p is None:
            p = SinusoidParams(omega=math.pi * (i + 1) / (k + 1), amplitude=0.0, phase=0.0)
        omega = p.omega
        away = math.pi if omega < math.pi / 2 else 0.0
        while omega in used:
            omega = math.nextafter(omega, away)
        used.add(omega)
        if omega != p.omega:
            p = SinusoidParams(omega=omega, amplitude=p.amplitude, phase=p.phase)
        comps.append(p)
    return SignalModel(components=tuple(comps), n_samples=n)


def _admissible(omegas: np.ndarray) -> bool:
    """True when every frequency lies inside (0, pi) and no two are equal."""
    values = omegas.tolist()
    return all(0.0 < w < math.pi for w in values) and len(set(values)) == len(values)


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
    tenfold on a refused one.  A taken step that lowers ||e||^2 by at most
    _POLISH_COST_SLACK ||e||^2 is the last.  Returns the final frequencies
    and coefficients.
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
            flat = cost - fit[3] <= cost * _POLISH_COST_SLACK
            omegas, (a, coef, d, cost) = trial, fit
            if flat:  # the cost has reached its rounding floor
                break
            jtj = None
            lam *= 0.1
        else:
            lam *= 10.0
        if not np.max(np.abs(delta)) > _POLISH_STEP_TOL:
            break
    return omegas, coef


def _kept_polish(
    phi: SensingMatrix, mv: np.ndarray, params: list[SinusoidParams | None], resid: float
):
    """Polish ``params`` jointly against ``mv``, whose residual they leave at
    ``resid``.  Returns the polished parameters, their measured components
    and residual norm, or None when the polish cannot start (an empty slot
    or an exact fit) or does not lower the residual.
    """
    omegas = np.array([math.nan if p is None else p.omega for p in params])
    if not (resid > 0.0 and _admissible(omegas)):
        return None
    omegas, coef = _polish(_full_band(phi)[2], mv, omegas)
    polished = list(_params_from_coef(omegas, coef))
    measured = [phi.entries @ component_samples(p, phi.n_cols) for p in polished]
    new_resid = float(np.linalg.norm(mv - sum(measured)))
    return (polished, measured, new_resid) if new_resid < resid else None


def recover(
    phi: SensingMatrix,
    m: Measurement,
    cfg: RecoveryConfig,
) -> RecoveryResult:
    """Recover ``cfg.k`` sinusoids from the measurement ``m = Phi @ x``.

    Deterministic for fixed inputs.  Raises ValueError up front when 2k > N,
    which no model admits, and emits a warning (and still runs) when 3k
    exceeds the measurement count, i.e. more parameters than equations.
    Every warm-up estimate stops after _WARMUP_NEWTON_STEPS evaluations of
    s', and the joint polish owns the precision.  After a kept polish, a
    visit whose grid round brackets the slot's frequency keeps the slot
    without an estimate, so a sweep whose visits all do so is the fixed
    point that ends a noisy recovery.  A zero measurement
    returns the all-zero model immediately.  A round's polish is skipped
    when its sweep leaves a slot empty or fits ``m`` exactly, and a
    certified exact fit is polished once more from its own output before
    the recovery stops.  Scaling ``m`` by a power of two scales the
    amplitudes, the signal and the residual norms by it and changes nothing
    else, bit for bit, as long as no result overflows or turns subnormal.
    """
    if len(m.values) != phi.m_rows:
        raise ValueError(f"measurement length {len(m.values)} != matrix m={phi.m_rows}")
    k = cfg.k
    n = phi.n_cols
    if 2 * k > n:
        raise ValueError(f"need 2k <= n for an identifiable model, got k={k}, n={n}")
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
    certified = _CERTIFIED_FIT * float(np.linalg.norm(mv))
    params: list[SinusoidParams | None] = [None] * k
    measured = [np.zeros(phi.m_rows) for _ in range(k)]
    sweep_norms: list[float] = []
    stop_reason = "sweep_cap"

    for sweeps_used in range(1, cfg.max_sweeps + 1):
        before = list(params)
        for i in range(k):
            r = mv - (sum(measured) - measured[i])
            if float(r @ r) == 0.0:
                params[i] = None
                measured[i] = np.zeros(phi.m_rows)
                continue
            if stop_reason == "polished" and params[i] is not None:
                # a polished slot inside the cell of the grid round's best
                # node stays: Newton steps from that node only re-find it
                lo, _, hi = _grid_round(phi, r)[2]
                if lo <= params[i].omega <= hi:
                    continue
            outcome = estimate_sinusoid(phi, r, newton_steps=_WARMUP_NEWTON_STEPS)
            cand_measured = phi.entries @ component_samples(outcome.params, n)
            old_sq = float(np.sum((r - measured[i]) ** 2))
            new_sq = float(np.sum((r - cand_measured) ** 2))
            # Keep the old component when the estimator's grid happens to
            # miss it, which makes sweeps monotone, and when the candidate
            # gains only rounding noise, which keeps a polished fit.
            if new_sq < old_sq * (1.0 - _POLISH_COST_SLACK):
                params[i] = outcome.params
                measured[i] = cand_measured

        sweep_norms.append(float(np.linalg.norm(mv - sum(measured))))
        if params == before:  # a fixed point: the next sweep would repeat this one
            if stop_reason != "polished":
                stop_reason = "converged"
            break
        kept = _kept_polish(phi, mv, params, sweep_norms[-1])
        if kept is None:
            continue
        params, measured, resid = kept
        sweep_norms.append(resid)
        stop_reason = "polished"
        if resid <= certified:
            # An exact fit ends the recovery; one more polish from it
            # lowers the noiseless error floor.
            kept = _kept_polish(phi, mv, params, resid)
            if kept is not None:
                params, measured, resid = kept
                sweep_norms.append(resid)
            break

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
