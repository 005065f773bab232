"""Cyclic greedy recovery of K sinusoids from compressed measurements.

The recoverer keeps K per-component sample estimates, initially zero.  Each
sweep visits the components in index order; for component i it forms the
residual measurement

    r = m - sum_{j != i} Phi @ s_j

and replaces component i with the single best-matching sinusoid for r.  A
replacement is only accepted if it does not increase the total measurement
residual, which keeps the per-sweep residual norms non-increasing.  Sweeps
repeat until the residual norm stops changing (relative to ||m||) or a
sweep cap is reached.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .estimator import estimate_sinusoid
from .model import SignalModel, SinusoidParams, component_samples, synthesize
from .sensing import Measurement, SensingMatrix

__all__ = [
    "RecoveryConfig",
    "RecoveryResult",
    "recover",
]

# Tiny tolerance (scaled by the residual) that separates float jitter from a
# genuine residual increase when recording per-sweep norms.
_MONOTONE_EPS = 1e-12
# Sweeps halt once the residual norm changes by less than this times ||m||.
_RESIDUAL_REL_TOL = 1e-10


@dataclass(frozen=True)
class RecoveryConfig:
    """Settings of the cyclic recovery loop.

    ``k`` is the number of sinusoids to fit.  ``max_sweeps`` caps the
    sweeps; the default of 60 covers the slow zigzag convergence of tone
    pairs near the pi/N separation floor, while typical instances halt on
    the residual tolerance after ~14 sweeps.  ``freq_tol`` is the bracket
    width at which each frequency search stops; it is also the distance
    below which two components count as duplicates, and the lower-energy
    one is zeroed so the freed slot can capture a missed tone next sweep.
    """

    k: int
    max_sweeps: int = 60
    freq_tol: float = 1e-8

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if not (0.0 < self.freq_tol < math.inf):
            raise ValueError(f"freq_tol must be positive and finite, got {self.freq_tol}")


@dataclass(frozen=True)
class RecoveryResult:
    """Recovered model plus convergence bookkeeping.

    ``signal`` is exactly ``synthesize(model)``; ``sweep_residual_norms``
    holds the measurement-domain residual norm recorded at the end of each
    sweep (a non-increasing sequence).
    """

    model: SignalModel
    signal: np.ndarray
    sweeps_used: int
    final_residual_norm: float
    sweep_residual_norms: tuple[float, ...] = field(default=())


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


def recover(
    phi: SensingMatrix,
    m: Measurement,
    cfg: RecoveryConfig,
) -> RecoveryResult:
    """Recover ``cfg.k`` sinusoids from the measurement ``m = Phi @ x``.

    Deterministic for fixed inputs.  Emits a warning (and still runs) when
    3k exceeds the measurement count, i.e. more parameters than equations.
    A zero measurement returns the all-zero model immediately.
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

    mv = m.values
    m_norm = float(np.linalg.norm(mv))
    if m_norm == 0.0:
        model = _assemble_model([None] * k, n)
        return RecoveryResult(
            model=model,
            signal=synthesize(model),
            sweeps_used=0,
            final_residual_norm=0.0,
            sweep_residual_norms=(),
        )

    params: list[SinusoidParams | None] = [None] * k
    samples = [np.zeros(n) for _ in range(k)]
    measured = [np.zeros(phi.m_rows) for _ in range(k)]
    pending_zero: set[int] = set()
    sweep_norms: list[float] = []
    snapshot = None

    for _sweep in range(cfg.max_sweeps):
        for i in pending_zero:
            params[i] = None
            samples[i] = np.zeros(n)
            measured[i] = np.zeros(phi.m_rows)
        pending_zero = set()

        for i in range(k):
            r = mv - (sum(measured) - measured[i])
            if float(r @ r) == 0.0:
                params[i] = None
                samples[i] = np.zeros(n)
                measured[i] = np.zeros(phi.m_rows)
                continue
            outcome = estimate_sinusoid(phi, r, cfg.freq_tol)
            cand_samples = component_samples(outcome.params, n)
            cand_measured = phi.entries @ cand_samples
            old_sq = float(np.sum((r - measured[i]) ** 2))
            new_sq = float(np.sum((r - cand_measured) ** 2))
            # Keep the old component when the estimator's grid happens to
            # miss it; this is what makes sweeps monotone.
            if new_sq <= old_sq:
                params[i] = outcome.params
                samples[i] = cand_samples
                measured[i] = cand_measured

        pending_zero = _duplicate_losers(params, samples, cfg.freq_tol)

        resid = float(np.linalg.norm(mv - sum(measured)))
        if sweep_norms and resid > sweep_norms[-1] + _MONOTONE_EPS * max(1.0, sweep_norms[-1]):
            # A collapse did not pay off this sweep; restore the previous
            # state and stop rather than record a residual increase.
            params, samples, measured = snapshot
            break
        snapshot = (
            list(params),
            [s.copy() for s in samples],
            [q.copy() for q in measured],
        )
        sweep_norms.append(resid)
        converged = (
            len(sweep_norms) >= 2
            and abs(sweep_norms[-2] - resid) < _RESIDUAL_REL_TOL * m_norm
        )
        # A pending collapse will change the state next sweep, so only halt
        # on a flat residual when no collapse is queued.
        if converged and not pending_zero:
            break

    model = _assemble_model(params, n)
    signal = synthesize(model)
    final_norm = float(np.linalg.norm(mv - phi.entries @ signal))
    return RecoveryResult(
        model=model,
        signal=signal,
        sweeps_used=len(sweep_norms),
        final_residual_norm=final_norm,
        sweep_residual_norms=tuple(sweep_norms),
    )


def _duplicate_losers(
    params: list[SinusoidParams | None],
    samples: list[np.ndarray],
    freq_tol: float,
) -> set[int]:
    """Indices of lower-energy members of frequency-duplicate pairs."""
    losers: set[int] = set()
    active = [i for i, p in enumerate(params) if p is not None and p.amplitude > 0.0]
    for a_pos, i in enumerate(active):
        for j in active[a_pos + 1 :]:
            if i in losers or j in losers:
                continue
            if abs(params[i].omega - params[j].omega) < freq_tol:
                ei = float(samples[i] @ samples[i])
                ej = float(samples[j] @ samples[j])
                losers.add(i if ei <= ej else j)
    return losers
