"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line (visible with ``pytest -s`` or in failure output).

Criteria cover estimator accuracy against a dense million-point oracle,
normal-equation optimality, refinement bracket invariants, recovery quality
at the flagship operating point (N=128, K=3, Gaussian M=64), error trends
over measurement count and SNR, baseline ordering, sweep determinism, and
per-sweep residual monotonicity.  All tolerances are fixed here, not
calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

import cstones as cs
from cstones.baselines import grid_oracle_batch
from cstones.harness import METHOD_BOMP, METHOD_MDS, METHOD_ORACLE

N = 128
K = 3
M = 64
MIN_SEP = math.pi / N
GRID_POINTS = N  # estimator default resolves to the matrix's column count


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _wrapped_phase_error(a: float, b: float) -> float:
    return abs(math.remainder(a - b, math.tau))


# ---------------------------------------------------------------------------
# shared workloads


@pytest.fixture(scope="module")
def single_tone_runs():
    """100 seeded noiseless single-tone estimates plus the dense grid oracle.

    One Gaussian matrix is shared across the instances so the oracle's
    trigonometric grid work is shared too; the budget in criterion 1 covers
    the estimator calls and the full million-point scan.
    """
    phi = cs.gaussian_matrix(M, N, seed=101)
    truths = []
    residuals = np.empty((M, 100))
    for i in range(100):
        model = cs.draw_model(1, N, MIN_SEP, preset="sinu", seed=7000 + i)
        truths.append(model.components[0])
        residuals[:, i] = cs.measure(phi, cs.synthesize(model)).values
    t0 = time.perf_counter()
    outcomes = [cs.estimate_sinusoid(phi, residuals[:, i]) for i in range(100)]
    oracle_omega, oracle_s = grid_oracle_batch(phi, residuals, 1_000_000)
    elapsed = time.perf_counter() - t0
    return {
        "phi": phi,
        "truths": truths,
        "residuals": residuals,
        "outcomes": outcomes,
        "oracle_omega": oracle_omega,
        "oracle_s": oracle_s,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def noisy_estimator_runs():
    """Estimator runs on rough residuals (noise-dominated, no clean tone)."""
    phi = cs.gaussian_matrix(M, N, seed=202)
    rng = np.random.default_rng(303)
    runs = []
    for _ in range(20):
        r = rng.normal(size=M)
        runs.append((r, cs.estimate_sinusoid(phi, r)))
    return {"phi": phi, "runs": runs}


@pytest.fixture(scope="module")
def flagship_recoveries():
    """50 seeded noiseless trials at the flagship operating point, timed."""
    trials = []
    elapsed = 0.0
    for t in range(50):
        truth = cs.draw_model(K, N, MIN_SEP, preset="freq", seed=1000 + t)
        x = cs.synthesize(truth)
        phi = cs.gaussian_matrix(M, N, seed=2000 + t)
        meas = cs.measure(phi, x)
        t0 = time.perf_counter()
        result = cs.recover(phi, meas, cs.RecoveryConfig(k=K))
        elapsed += time.perf_counter() - t0
        trials.append((truth, x, result))
    return {"trials": trials, "elapsed": elapsed}


@pytest.fixture(scope="module")
def paired_baseline_trials():
    """100 paired off-grid noiseless trials scored for all three methods."""
    errs = {"oracle": [], "mds": [], "bomp": []}
    recoveries = []
    for t in range(100):
        truth = cs.draw_model(K, N, MIN_SEP, preset="freq", seed=40000 + t)
        x = cs.synthesize(truth)
        phi = cs.gaussian_matrix(M, N, seed=41000 + t)
        meas = cs.measure(phi, x)
        fitted = cs.oracle_ls(phi, meas, truth.frequencies)
        errs["oracle"].append(cs.normalized_l2_error(x, cs.synthesize(fitted)))
        rec = cs.recover(phi, meas, cs.RecoveryConfig(k=K))
        recoveries.append(rec)
        errs["mds"].append(cs.normalized_l2_error(x, rec.signal))
        fitted = cs.bomp_recover(phi, meas, K)
        errs["bomp"].append(cs.normalized_l2_error(x, cs.synthesize(fitted)))
    return {"errs": errs, "recoveries": recoveries}


@pytest.fixture(scope="module")
def hard_regime_recoveries():
    """Recoveries in the stressed regimes the sweeps visit (low M, low SNR)."""
    results = []
    for m_rows in (16, 32, 48):
        for t in range(3):
            truth = cs.draw_model(K, N, MIN_SEP, preset="freq", seed=50000 + t)
            x = cs.synthesize(truth)
            phi = cs.gaussian_matrix(m_rows, N, seed=51000 + m_rows * 100 + t)
            meas = cs.measure(phi, x)
            results.append(cs.recover(phi, meas, cs.RecoveryConfig(k=K)))
    for snr in (0.0, 20.0):
        for preset in ("freq", "sinu"):
            for t in range(2):
                truth = cs.draw_model(K, N, MIN_SEP, preset=preset, seed=60000 + t)
                s = cs.synthesize(truth)
                x = cs.add_noise(s, cs.NoiseSpec(snr_db=snr, seed=61000 + t))
                phi = cs.gaussian_matrix(M, N, seed=62000 + t)
                meas = cs.measure(phi, x)
                results.append(cs.recover(phi, meas, cs.RecoveryConfig(k=K)))
    return results


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_single_sinusoid_estimator(single_tone_runs):
    data = single_tone_runs
    grid_res = math.pi / 1_000_000
    worst_omega = worst_amp = worst_phase = worst_gap = 0.0
    s_dominated = True
    for i, (truth, out) in enumerate(zip(data["truths"], data["outcomes"])):
        worst_omega = max(worst_omega, abs(out.params.omega - truth.omega))
        worst_amp = max(worst_amp, abs(out.params.amplitude - truth.amplitude))
        worst_phase = max(worst_phase, _wrapped_phase_error(out.params.phase, truth.phase))
        worst_gap = max(worst_gap, abs(out.params.omega - data["oracle_omega"][i]))
        r = data["residuals"][:, i]
        if out.residual_sq > data["oracle_s"][i] + 1e-12 * float(r @ r):
            s_dominated = False
    ok = (
        worst_omega < 1e-6
        and worst_amp < 1e-6
        and worst_phase < 1e-6
        and worst_gap <= grid_res
        and s_dominated
        and data["elapsed"] < 5.0
    )
    _report(
        1,
        ok,
        f"max errors omega {worst_omega:.2e}, amp {worst_amp:.2e}, phase "
        f"{worst_phase:.2e}; oracle gap {worst_gap:.2e} (res {grid_res:.2e}); "
        f"runtime {data['elapsed']:.2f}s < 5s",
    )
    assert ok


def test_criterion_2_normal_equation_optimality(single_tone_runs, noisy_estimator_runs):
    worst = 0.0
    checks = []
    for i, out in enumerate(single_tone_runs["outcomes"]):
        checks.append((single_tone_runs["phi"], single_tone_runs["residuals"][:, i], out))
    for r, out in noisy_estimator_runs["runs"]:
        checks.append((noisy_estimator_runs["phi"], r, out))
    for phi, r, out in checks:
        atoms = cs.build_atoms(phi, out.params.omega)
        a1 = out.params.amplitude * math.cos(out.params.phase)
        a2 = out.params.amplitude * math.sin(out.params.phase)
        grad = atoms.T @ (r - atoms @ np.array([a1, a2]))
        worst = max(worst, float(np.linalg.norm(grad) / np.linalg.norm(r)))
    ok = worst < 1e-9
    _report(2, ok, f"max ||A^T(r - A a)|| / ||r|| = {worst:.2e} over {len(checks)} estimates")
    assert ok


def test_criterion_3_bracket_invariants(single_tone_runs, noisy_estimator_runs):
    outcomes = list(single_tone_runs["outcomes"])
    outcomes += [out for _, out in noisy_estimator_runs["runs"]]
    ok = True
    for out in outcomes:
        widths = [b - a for a, b in out.bracket_history]
        for w_prev, w_next in zip(widths, widths[1:]):
            if w_next > w_prev or w_next > 2.0 * w_prev / GRID_POINTS + 1e-15:
                ok = False
        for a, b in out.bracket_history:
            if not (a - 1e-15 <= out.params.omega <= b + 1e-15):
                ok = False
    _report(3, ok, f"width contraction and containment over {len(outcomes)} runs")
    assert ok


def test_criterion_4_noiseless_recovery_flagship(flagship_recoveries):
    trials = flagship_recoveries["trials"]
    errors = [cs.normalized_l2_error(x, res.signal) for _, x, res in trials]
    successes = sum(e < 1e-3 for e in errors)
    elapsed = flagship_recoveries["elapsed"]
    ok = successes >= 45 and elapsed < 120.0
    _report(
        4,
        ok,
        f"{successes}/50 trials below 1e-3 (need >= 45); recovery time "
        f"{elapsed:.1f}s < 120s",
    )
    assert ok


def test_criterion_5_error_vs_measurements_trend():
    spec = cs.ExperimentSpec(
        sweep_axis="m",
        sweep_values=(16.0, 32.0, 48.0, 64.0),
        n=N,
        k=K,
        preset="freq",
        trials=50,
        base_seed=2024,
        methods=(METHOD_MDS,),
    )
    result = cs.run_experiment(spec)
    means = [result.summary[key][METHOD_MDS]["mean_error"] for key in ("16", "32", "48", "64")]
    ok = all(b <= a for a, b in zip(means, means[1:]))
    _report(5, ok, "mean error over M: " + ", ".join(f"{m:.3g}" for m in means))
    assert ok


def test_criterion_6_error_vs_snr_trend_both_presets():
    means = {}
    for preset in ("freq", "sinu"):
        spec = cs.ExperimentSpec(
            sweep_axis="snr",
            sweep_values=(0.0, 20.0, 40.0, 60.0),
            n=N,
            k=K,
            preset=preset,
            fixed_m=M,
            trials=50,
            base_seed=2025,
            methods=(METHOD_MDS,),
        )
        result = cs.run_experiment(spec)
        means[preset] = [
            result.summary[key][METHOD_MDS]["mean_error"] for key in ("0", "20", "40", "60")
        ]
    monotone = all(
        all(b <= a for a, b in zip(m, m[1:])) for m in means.values()
    )
    ratios = [s / f for s, f in zip(means["sinu"], means["freq"])]
    mild = all(r < 2.0 for r in ratios)
    ok = monotone and mild
    _report(
        6,
        ok,
        "freq: " + ", ".join(f"{m:.3g}" for m in means["freq"])
        + "; sinu/freq ratios: " + ", ".join(f"{r:.2f}" for r in ratios),
    )
    assert ok


def test_criterion_7_baseline_ordering(paired_baseline_trials):
    errs = paired_baseline_trials["errs"]
    mean_oracle = float(np.mean(errs["oracle"]))
    mean_mds = float(np.mean(errs["mds"]))
    mean_bomp = float(np.mean(errs["bomp"]))
    ok = mean_oracle <= mean_mds <= mean_bomp
    _report(
        7,
        ok,
        f"mean errors: oracle {mean_oracle:.2e} <= mds {mean_mds:.2e} "
        f"<= bomp {mean_bomp:.2e}",
    )
    assert ok


def test_criterion_8_sweep_determinism(tmp_path):
    spec = cs.ExperimentSpec(
        sweep_axis="m",
        sweep_values=(32.0, 64.0),
        n=N,
        k=K,
        preset="freq",
        trials=5,
        base_seed=7,
        methods=(METHOD_MDS, METHOD_ORACLE, METHOD_BOMP),
    )
    paths = []
    for tag in ("one", "two"):
        result = cs.run_experiment(spec)
        path = tmp_path / f"{tag}.csv"
        cs.write_csv(result, str(path))
        paths.append(path)

    def strip_time(path):
        return [",".join(line.split(",")[:-1]) for line in path.read_text().splitlines()]

    ok = strip_time(paths[0]) == strip_time(paths[1])
    _report(8, ok, "repeated sweep CSVs byte-identical excluding time_s")
    assert ok


def test_criterion_9_sweep_residual_monotonicity(
    flagship_recoveries, paired_baseline_trials, hard_regime_recoveries
):
    results = [res for _, _, res in flagship_recoveries["trials"]]
    results += paired_baseline_trials["recoveries"]
    results += hard_regime_recoveries
    ok = True
    worst = 0.0
    for res in results:
        norms = res.sweep_residual_norms
        for a, b in zip(norms, norms[1:]):
            worst = max(worst, b - a)
            if b > a + 1e-9:
                ok = False
    _report(
        9,
        ok,
        f"max residual increase {worst:.2e} over {len(results)} recoveries "
        f"(slack 1e-9)",
    )
    assert ok
