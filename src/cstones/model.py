"""Sinusoid signal model: domain types, synthesis, noise, and random draws.

A frequency-sparse signal is a superposition of K real sinusoids observed at
integer sample times t = 1..N:

    x_t = sum_j a_j * sin(omega_j * t + phi_j) + xi_t

Each component carries an angular frequency omega in (0, pi) rad/sample, a
nonnegative amplitude, and a phase canonicalized to (-pi, pi].  The
equivalent linear parameterization a1 = a*cos(phi), a2 = a*sin(phi) writes
the component as a1*sin(omega*t) + a2*cos(omega*t); both forms are used
throughout the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FREQ_PRESET",
    "SINU_PRESET",
    "SINU_AMP_RANGE",
    "SinusoidParams",
    "SignalModel",
    "NoiseSpec",
    "canonical_phase",
    "sinusoid_samples",
    "component_samples",
    "synthesize",
    "add_noise",
    "draw_model",
]

FREQ_PRESET = "freq"  # unit amplitudes, zero phases
SINU_PRESET = "sinu"  # random amplitudes and phases

# Amplitude band for the "sinu" preset, centered on 1 so that per-sample SNR
# stays comparable with the unit-amplitude preset.
SINU_AMP_RANGE = (0.5, 1.5)

# Rejection-sampling budget of draw_model.
_MAX_DRAWS = 1_000_000


def canonical_phase(phase: float) -> float:
    """Map an angle in radians to the interval (-pi, pi]."""
    p = math.remainder(float(phase), math.tau)
    if p <= -math.pi:
        p += math.tau
    return p


@dataclass(frozen=True)
class SinusoidParams:
    """One sinusoid's (omega, amplitude, phase) triple.

    Attributes
    ----------
    omega : float
        Angular frequency in radians per sample, strictly inside (0, pi).
    amplitude : float
        Nonnegative amplitude.
    phase : float
        Phase in radians; canonicalized to (-pi, pi] on construction.
    """

    omega: float
    amplitude: float
    phase: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.omega < math.pi):
            raise ValueError(f"omega must lie in (0, pi), got {self.omega!r}")
        if not (self.amplitude >= 0.0):
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude!r}")
        if not math.isfinite(self.phase):
            raise ValueError(f"phase must be finite, got {self.phase!r}")
        object.__setattr__(self, "phase", canonical_phase(self.phase))

    @property
    def linear_amplitudes(self) -> tuple[float, float]:
        """The (a1, a2) pair with a1 = a*cos(phi), a2 = a*sin(phi)."""
        return (
            self.amplitude * math.cos(self.phase),
            self.amplitude * math.sin(self.phase),
        )

    @classmethod
    def from_linear(cls, omega: float, a1: float, a2: float) -> "SinusoidParams":
        """Build from the linear (a1, a2) pair via the full-quadrant arctangent."""
        amplitude = math.hypot(a1, a2)
        phase = math.atan2(a2, a1) if amplitude > 0.0 else 0.0
        return cls(omega=omega, amplitude=amplitude, phase=phase)

    def to_dict(self) -> dict:
        return {"omega": self.omega, "amplitude": self.amplitude, "phase": self.phase}

    @classmethod
    def from_dict(cls, d: dict) -> "SinusoidParams":
        return cls(omega=d["omega"], amplitude=d["amplitude"], phase=d["phase"])


@dataclass(frozen=True)
class SignalModel:
    """An ordered set of sinusoid components plus the sample count N.

    Component frequencies must be pairwise distinct and, for K >= 1, the
    length must satisfy N >= 2K so the parameters stay identifiable.  An
    empty component tuple is allowed and synthesizes to the zero signal
    (it is what grid baselines return for sparsity 0 or a failed search).
    """

    components: tuple[SinusoidParams, ...]
    n_samples: int

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be positive, got {self.n_samples}")
        k = len(self.components)
        if k >= 1 and self.n_samples < 2 * k:
            raise ValueError(
                f"n_samples={self.n_samples} too short for k={k} components "
                f"(need n >= 2k)"
            )
        omegas = [c.omega for c in self.components]
        if len(set(omegas)) != len(omegas):
            raise ValueError(f"component frequencies must be pairwise distinct: {omegas}")

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def frequencies(self) -> np.ndarray:
        return np.array([c.omega for c in self.components], dtype=float)

    def to_dict(self) -> dict:
        return {
            "n": self.n_samples,
            "components": [c.to_dict() for c in self.components],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SignalModel":
        comps = tuple(SinusoidParams.from_dict(c) for c in d["components"])
        return cls(components=comps, n_samples=int(d["n"]))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "SignalModel":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class NoiseSpec:
    """Additive white Gaussian noise at a target SNR, or no noise at all.

    ``snr_db`` is the per-sample signal-to-noise ratio in dB; ``None``
    disables noise entirely.  The seed makes the noise vector reproducible.
    """

    snr_db: float | None
    seed: int = 0

    def __post_init__(self):
        snr = self.snr_db
        if snr is not None:
            snr = float(snr)
            if not math.isfinite(snr):
                raise ValueError(f"snr_db must be finite, got {snr!r}")
        object.__setattr__(self, "snr_db", snr)

    @property
    def noiseless(self) -> bool:
        return self.snr_db is None


def sinusoid_samples(omega: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample sin and cos at frequency ``omega`` over times t = 1..n.

    Returns
    -------
    (sin_w, cos_w) : tuple of np.ndarray
        Length-n vectors with entries sin(t*omega) and cos(t*omega).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega!r}")
    t = np.arange(1, n + 1, dtype=float)
    arg = t * float(omega)
    return np.sin(arg), np.cos(arg)


def component_samples(params: SinusoidParams, n: int) -> np.ndarray:
    """Samples a * sin(omega * t + phi) of one component over t = 1..n."""
    t = np.arange(1, n + 1, dtype=float)
    return params.amplitude * np.sin(params.omega * t + params.phase)


def synthesize(model: SignalModel) -> np.ndarray:
    """Evaluate the model's sample vector s_t = sum_j a_j sin(omega_j t + phi_j)."""
    s = np.zeros(model.n_samples, dtype=float)
    for comp in model.components:
        s += component_samples(comp, model.n_samples)
    return s


def add_noise(s: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """Return ``s`` plus i.i.d. zero-mean Gaussian noise at the spec's SNR.

    The noise variance is sigma^2 = (||s||^2 / N) * 10^(-snr_db / 10), i.e.
    SNR is defined against the per-sample signal power.  A noiseless spec
    returns ``s`` unchanged.  Deterministic for a fixed (s, spec).
    """
    s = np.asarray(s, dtype=float)
    if spec.noiseless:
        return s.copy()
    power = float(s @ s) / s.size
    if power == 0.0:
        raise ValueError("cannot set a finite SNR against an all-zero signal")
    sigma = math.sqrt(power * 10.0 ** (-spec.snr_db / 10.0))
    rng = np.random.default_rng(spec.seed)
    return s + rng.normal(0.0, sigma, size=s.size)


def _check_draw(k: int, min_sep: float, preset: str) -> None:
    """Raise ValueError unless ``draw_model`` can draw with these settings.

    K tones in (min_sep, pi - min_sep) with gaps of at least ``min_sep``
    need (k + 1) * min_sep < pi, which a NaN ``min_sep`` fails.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not (min_sep >= 0.0 and (k + 1) * min_sep < math.pi):
        raise ValueError(
            f"infeasible separation: need 0 <= (k+1)*min_sep < pi, got min_sep={min_sep!r}, k={k}"
        )
    if preset.lower() not in (FREQ_PRESET, SINU_PRESET):
        raise ValueError(f"unknown preset {preset!r}; expected 'freq' or 'sinu'")


def draw_model(
    k: int,
    n: int,
    min_sep: float,
    preset: str = FREQ_PRESET,
    seed: int = 0,
) -> SignalModel:
    """Draw a random K-component model with well-separated frequencies.

    Frequencies are uniform on (min_sep, pi - min_sep), redrawn until every
    pairwise gap is at least ``min_sep`` (rejection sampling).  The "freq"
    preset uses unit amplitudes and zero phases; "sinu" draws amplitudes
    uniformly from [0.5, 1.5] and phases uniformly from (-pi, pi].

    Raises
    ------
    ValueError
        If ``_check_draw`` refuses k, ``min_sep`` or the preset.
    RuntimeError
        If no admissible draw is found within ``_MAX_DRAWS`` attempts.
    """
    _check_draw(k, min_sep, preset)
    preset = preset.lower()

    rng = np.random.default_rng(seed)
    lo, hi = min_sep, math.pi - min_sep
    omegas = None
    for _ in range(_MAX_DRAWS):
        cand = np.sort(rng.uniform(lo, hi, size=k))
        if k == 1 or (np.min(np.diff(cand)) >= min_sep and np.all(np.diff(cand) > 0)):
            omegas = cand
            break
    if omegas is None:
        raise RuntimeError(
            f"no frequency set with pairwise separation >= {min_sep:.6g} found in "
            f"{_MAX_DRAWS} draws (k={k}, range=({lo:.6g}, {hi:.6g}))"
        )

    if preset == FREQ_PRESET:
        amps = np.ones(k)
        phases = np.zeros(k)
    else:
        amps = rng.uniform(SINU_AMP_RANGE[0], SINU_AMP_RANGE[1], size=k)
        phases = rng.uniform(-math.pi, math.pi, size=k)

    comps = tuple(
        SinusoidParams(omega=float(w), amplitude=float(a), phase=float(p))
        for w, a, p in zip(omegas, amps, phases)
    )
    return SignalModel(components=comps, n_samples=n)
