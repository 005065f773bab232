"""Monte Carlo experiment harness: sweeps over measurement count or SNR.

For every (sweep value, trial) cell the harness draws a random model,
synthesizes and optionally noises its samples, draws a fresh sensing matrix,
measures, runs each requested method, and scores the reconstruction with the
normalized l2 error ||x - xhat|| / ||x|| against the (noisy) sample vector.
Everything is keyed off deterministic seeds so a spec reruns to identical
tables; wall time is the only non-reproducible column.

Method ids: "mds" (the model-selection recoverer), "oracle" (genie-aided
least squares at the true frequencies), "bomp" (band-excluded pursuit).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .baselines import bomp_recover, oracle_ls
from .model import NoiseSpec, _check_draw, add_noise, draw_model, synthesize
from .recovery import RecoveryConfig, recover
from .sensing import GAUSSIAN, SUBSAMPLING, matrix_from_kind, measure

__all__ = [
    "METHOD_MDS",
    "METHOD_ORACLE",
    "METHOD_BOMP",
    "CSV_HEADER",
    "ExperimentSpec",
    "TrialResult",
    "ExperimentResult",
    "normalized_l2_error",
    "match_frequencies",
    "run_experiment",
    "write_csv",
    "write_summary_json",
    "write_svg",
]

METHOD_MDS = "mds"
METHOD_ORACLE = "oracle"
METHOD_BOMP = "bomp"
_KNOWN_METHODS = (METHOD_MDS, METHOD_ORACLE, METHOD_BOMP)

AXIS_M = "m"
AXIS_SNR = "snr"

CSV_HEADER = "sweep_value,method,trial,seed,nl2_error,freq_err_total,error,time_s"

# Salt separating the noise stream from the model-drawing stream, which both
# derive from base_seed ^ trial.
_NOISE_SALT = 0x5EED_0F_A11


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one sweep experiment.

    ``sweep_axis`` is "m" (vary measurement count, fixed SNR) or "snr"
    (vary SNR in dB, fixed measurement count).  ``fixed_snr_db`` of None
    means noiseless.  Sweep values must be strictly ascending.  The "mds"
    method recovers ``k`` components with ``RecoveryConfig(k)``.  A
    ``min_sep`` of None is stored as its default, pi / n.  A spec that no
    trial can run is rejected: 2k > n, a k, ``min_sep`` or preset
    ``draw_model`` refuses, or a measurement count not an integer in 1..n
    or an SNR ``NoiseSpec`` refuses (the sweep values or the fixed value).
    """

    sweep_axis: str
    sweep_values: tuple[float, ...]
    n: int = 128
    k: int = 3
    preset: str = "freq"
    matrix_kind: str = GAUSSIAN
    fixed_m: int = 64
    fixed_snr_db: float | None = None
    trials: int = 50
    base_seed: int = 0
    methods: tuple[str, ...] = (METHOD_MDS,)
    min_sep: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "sweep_values", tuple(float(v) for v in self.sweep_values))
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.sweep_axis not in (AXIS_M, AXIS_SNR):
            raise ValueError(f"sweep_axis must be 'm' or 'snr', got {self.sweep_axis!r}")
        if not self.sweep_values:
            raise ValueError("sweep_values must be nonempty")
        if not all(a < b for a, b in zip(self.sweep_values, self.sweep_values[1:])):
            raise ValueError(f"sweep_values must be strictly ascending: {self.sweep_values}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        for meth in self.methods:
            if meth not in _KNOWN_METHODS:
                raise ValueError(f"unknown method {meth!r}; known: {_KNOWN_METHODS}")
        if self.matrix_kind not in (GAUSSIAN, SUBSAMPLING):
            raise ValueError(f"unknown matrix kind {self.matrix_kind!r}")
        if 2 * self.k > self.n:
            raise ValueError(f"need 2k <= n for an identifiable model, got k={self.k}, n={self.n}")
        for m in self.sweep_values if self.sweep_axis == AXIS_M else (self.fixed_m,):
            if not (float(m).is_integer() and 1 <= m <= self.n):
                raise ValueError(f"measurement count {m} is not an integer in 1..n={self.n}")
        if self.min_sep is None:  # n >= 1 here: some measurement count lies in 1..n
            object.__setattr__(self, "min_sep", math.pi / self.n)
        _check_draw(self.k, self.min_sep, self.preset)
        for snr in self.sweep_values if self.sweep_axis == AXIS_SNR else (self.fixed_snr_db,):
            NoiseSpec(snr)  # raises on a non-finite SNR

    def to_dict(self) -> dict:
        """Every field, tuples as lists; ``ExperimentSpec(**d)`` rebuilds the spec."""
        return {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(self).items()
        }


@dataclass(frozen=True)
class TrialResult:
    """One (sweep value, method, trial) row.

    ``error`` is the class name of the exception a failed trial raised,
    and empty on success.
    """

    sweep_value: float
    method: str
    trial: int
    seed: int
    nl2_error: float
    freq_errors: tuple[float, ...] | None
    time_s: float
    error: str = ""

    @property
    def freq_err_total(self) -> float:
        if self.freq_errors is None:
            return float("nan")
        return float(sum(self.freq_errors))


@dataclass(frozen=True)
class ExperimentResult:
    """All trial rows plus per-cell aggregates and run metadata."""

    spec: ExperimentSpec
    rows: tuple[TrialResult, ...]
    summary: dict
    metadata: dict

    def csv_lines(self) -> list[str]:
        return [CSV_HEADER] + [
            f"{row.sweep_value!r},{row.method},{row.trial},{row.seed},"
            f"{row.nl2_error!r},{row.freq_err_total!r},{row.error},{row.time_s!r}"
            for row in self.rows
        ]


def normalized_l2_error(x: np.ndarray, xhat: np.ndarray) -> float:
    """||x - xhat||_2 / ||x||_2; rejects a zero reference vector."""
    x = np.asarray(x, dtype=float)
    xhat = np.asarray(xhat, dtype=float)
    if x.shape != xhat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {xhat.shape}")
    denom = float(np.linalg.norm(x))
    if denom == 0.0:
        raise ValueError("reference vector is zero; error undefined")
    return float(np.linalg.norm(x - xhat)) / denom


def match_frequencies(truth, estimate) -> tuple[tuple[tuple[int, int], ...], tuple[float, ...]]:
    """Minimum-total-absolute-error assignment between two frequency sets.

    Returns (pairs, errors) where pairs[(i, j)] matches truth[i] with
    estimate[j] and errors holds |truth[i] - estimate[j]| per pair, in
    truth order.  With cost |truth - estimate| on a line the sorted
    (monotone) matching is optimal, so the k-th smallest truth is paired
    with the k-th smallest estimate, ties kept in input order.
    """
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if truth.shape != estimate.shape or truth.ndim != 1:
        raise ValueError(f"count mismatch: {truth.shape} vs {estimate.shape}")
    if not (np.all(np.isfinite(truth)) and np.all(np.isfinite(estimate))):
        raise ValueError("frequencies must be finite")
    match = np.empty(truth.size, dtype=int)
    match[np.argsort(truth, kind="stable")] = np.argsort(estimate, kind="stable")
    pairs = tuple(enumerate(match.tolist()))
    errors = tuple(np.abs(truth - estimate[match]).tolist())
    return pairs, errors


def _mix_seed(base: int, trial: int, sweep_value: float | None = None) -> int:
    seed = base ^ trial
    if sweep_value is not None:
        seed ^= int(round(float(sweep_value)))
    return seed & 0x7FFF_FFFF_FFFF_FFFF


def _run_cell(spec: ExperimentSpec, sweep_value: float, trial: int) -> list[TrialResult]:
    """Run every method for one (sweep value, trial) cell."""
    model_seed = _mix_seed(spec.base_seed, trial)
    model = draw_model(spec.k, spec.n, spec.min_sep, preset=spec.preset, seed=model_seed)
    s = synthesize(model)
    snr = sweep_value if spec.sweep_axis == AXIS_SNR else spec.fixed_snr_db
    noise_seed = _mix_seed(spec.base_seed ^ _NOISE_SALT, trial)
    x = add_noise(s, NoiseSpec(snr_db=snr, seed=noise_seed))
    m_rows = int(sweep_value) if spec.sweep_axis == AXIS_M else spec.fixed_m
    matrix_seed = _mix_seed(spec.base_seed, trial, sweep_value)
    phi = matrix_from_kind(spec.matrix_kind, m_rows, spec.n, matrix_seed)
    meas = measure(phi, x)

    rows = []
    for method in spec.methods:
        t0 = time.perf_counter()
        error = ""
        try:
            xhat, freqs_hat = _apply_method(method, spec, phi, meas, model)
            elapsed = time.perf_counter() - t0
            nl2 = normalized_l2_error(x, xhat)
            _, freq_errors = match_frequencies(model.frequencies, freqs_hat)
        except Exception as exc:
            # Failed trials score the worst-case xhat = 0 error, record the
            # exception's class and keep the sweep running.
            elapsed = time.perf_counter() - t0
            nl2 = 1.0
            freq_errors = None
            error = type(exc).__name__
        rows.append(
            TrialResult(
                sweep_value=sweep_value,
                method=method,
                trial=trial,
                seed=model_seed,
                nl2_error=nl2,
                freq_errors=freq_errors,
                time_s=elapsed,
                error=error,
            )
        )
    return rows


def _apply_method(method, spec, phi, meas, model):
    if method == METHOD_MDS:
        result = recover(phi, meas, RecoveryConfig(spec.k))
        return result.signal, result.model.frequencies
    if method == METHOD_ORACLE:
        fitted = oracle_ls(phi, meas, model.frequencies)
        return synthesize(fitted), fitted.frequencies
    # METHOD_BOMP, the one method left: ExperimentSpec accepts no other
    fitted = bomp_recover(phi, meas, spec.k)
    return synthesize(fitted), fitted.frequencies


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """Run the full sweep and aggregate per-cell statistics.

    ``workers`` > 1 fans trials out over a process pool; rows are gathered
    in deterministic (sweep value, method, trial) order either way.
    """
    tasks = [(v, t) for v in spec.sweep_values for t in range(spec.trials)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cell_rows = list(pool.map(_run_cell, itertools.repeat(spec), *zip(*tasks)))
    else:
        cell_rows = [_run_cell(spec, v, t) for v, t in tasks]

    ordered = sorted(
        itertools.chain.from_iterable(cell_rows),
        key=lambda r: (r.sweep_value, spec.methods.index(r.method), r.trial),
    )
    summary = {}
    for (v, meth), group in itertools.groupby(ordered, lambda r: (r.sweep_value, r.method)):
        cell = list(group)
        errs = [r.nl2_error for r in cell]
        times = [r.time_s for r in cell]
        summary.setdefault(_value_key(v), {})[meth] = {
            "mean_error": float(np.mean(errs)),
            "median_error": float(np.median(errs)),
            "mean_time_s": float(np.mean(times)),
            "median_time_s": float(np.median(times)),
            "trials": len(cell),
            "failures": sum(bool(r.error) for r in cell),
        }

    metadata = {
        "error_reference": "noisy sample vector x (equals the clean signal when noiseless)",
        "matrix_policy": "redrawn per trial, seed = base_seed ^ trial ^ round(sweep_value)",
        "model_seed": "base_seed ^ trial (shared across sweep values)",
        "noise_seed": "(base_seed ^ salt) ^ trial, common noise stream across sweep values",
        "failed_trial_convention": (
            "nl2_error = 1.0 (the xhat = 0 worst case), freq errors empty, "
            "error = the exception's class name"
        ),
    }
    return ExperimentResult(spec=spec, rows=tuple(ordered), summary=summary, metadata=metadata)


def _value_key(v: float) -> str:
    return repr(int(v)) if float(v).is_integer() else repr(float(v))


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` by a rename, creating missing directories.

    The temporary file is opened like any output file, so the result gets
    the usual umask-governed permissions.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(result: ExperimentResult, path: str) -> None:
    """Write the per-trial table; atomic (temp file then rename)."""
    _atomic_write(path, "\n".join(result.csv_lines()) + "\n")


def write_summary_json(result: ExperimentResult, path: str) -> None:
    """Write per-cell aggregates with the full spec echoed for provenance."""
    payload = {
        "spec": result.spec.to_dict(),
        "summary": result.summary,
        "metadata": result.metadata,
    }
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


_SVG_COLORS = {
    METHOD_MDS: "#d62728",
    METHOD_ORACLE: "#2ca02c",
    METHOD_BOMP: "#1f77b4",
}


def write_svg(result: ExperimentResult, path: str) -> None:
    """Self-contained SVG line chart of mean error vs. sweep value.

    The y axis is log10 of the mean normalized error, clipped below at
    1e-12; one polyline per method.
    """
    spec = result.spec
    width, height = 640, 420
    left, right, top, bottom = 70, 20, 25, 50
    xs = list(spec.sweep_values)
    floor = 1e-12

    series = {}
    for meth in spec.methods:
        series[meth] = [
            math.log10(max(result.summary[_value_key(v)][meth]["mean_error"], floor))
            for v in xs
        ]
    all_y = [y for ys in series.values() for y in ys]
    y_lo = math.floor(min(all_y)) if all_y else -1
    y_hi = math.ceil(max(all_y)) if all_y else 0
    if y_hi == y_lo:
        y_hi = y_lo + 1
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def sx(v):
        return left + (v - x_lo) / (x_hi - x_lo) * (width - left - right)

    def sy(y):
        return top + (y_hi - y) / (y_hi - y_lo) * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
    ]
    for v in xs:
        parts.append(
            f'<text x="{sx(v):.1f}" y="{height - bottom + 18}" font-size="11" '
            f'text-anchor="middle">{_value_key(v)}</text>'
        )
    for tick in range(y_lo, y_hi + 1):
        parts.append(
            f'<line x1="{left - 4}" y1="{sy(tick):.1f}" x2="{left}" y2="{sy(tick):.1f}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{sy(tick) + 4:.1f}" font-size="11" '
            f'text-anchor="end">1e{tick}</text>'
        )
    axis_label = "measurements M" if spec.sweep_axis == AXIS_M else "SNR (dB)"
    parts.append(
        f'<text x="{(left + width - right) / 2:.1f}" y="{height - 12}" font-size="12" '
        f'text-anchor="middle">{axis_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{(top + height - bottom) / 2:.1f}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 14 {(top + height - bottom) / 2:.1f})">'
        f"mean normalized error</text>"
    )
    for idx, meth in enumerate(spec.methods):
        color = _SVG_COLORS.get(meth, "#7f7f7f")
        points = " ".join(f"{sx(v):.1f},{sy(y):.1f}" for v, y in zip(xs, series[meth]))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        ly = top + 14 + 16 * idx
        parts.append(
            f'<line x1="{width - right - 120}" y1="{ly - 4}" x2="{width - right - 95}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - right - 88}" y="{ly}" font-size="12">{meth}</text>'
        )
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")
