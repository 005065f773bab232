"""Cyclic greedy recovery of K sinusoids from compressed measurements.

The recoverer keeps K component slots, initially empty.  Each sweep visits
the slots in index order; for slot i it forms the residual measurement

    r = m - sum_{j != i} Phi @ s_j

where s_j are the samples of slot j, and replaces slot i with the single
best-matching sinusoid for r.  A replacement is only accepted if it does not
increase the total measurement residual, which keeps the per-sweep residual
norms non-increasing.  Sweeps repeat until the residual norm stops changing
(relative to ||m||) or a sweep cap is reached.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .estimator import estimate_sinusoid
from .model import SignalModel, SinusoidParams, component_samples, synthesize
from .sensing import Measurement, SensingMatrix

__all__ = [
    "RecoveryConfig",
    "RecoveryResult",
    "recover",
]

# Sweeps halt once the residual norm changes by less than this times ||m||.
_RESIDUAL_REL_TOL = 1e-10


@dataclass(frozen=True)
class RecoveryConfig:
    """The recovery loop's one setting, ``k``: the number of sinusoids to fit.

    ``max_sweeps`` is a class constant, not a field: the cap of 60 covers
    the slow zigzag convergence of tone pairs near the pi/N separation
    floor, while typical instances halt on the residual tolerance after
    ~14 sweeps.
    """

    k: int
    max_sweeps: ClassVar[int] = 60

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


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
    sweep_residual_norms: tuple[float, ...]


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
    A zero measurement returns the all-zero model immediately.  Scaling
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
        )

    e = math.frexp(m_max)[1]
    mv = np.ldexp(m.values, -e)
    m_norm = float(np.linalg.norm(mv))
    params: list[SinusoidParams | None] = [None] * k
    measured = [np.zeros(phi.m_rows) for _ in range(k)]
    sweep_norms: list[float] = []

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
        sweeps_used=len(sweep_norms),
        final_residual_norm=math.ldexp(final_norm, e),
        sweep_residual_norms=tuple(math.ldexp(x, e) for x in sweep_norms),
    )
