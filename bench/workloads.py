"""The three workloads.  Each makes its inputs from a seed, runs one job as
a single call into the public cstones API, and checks the job's output.

- ``flagship``: one ``recover`` at the paper's operating point (N=128, K=3,
  Gaussian M=64, noiseless, ``freq`` preset, min_sep pi/N).  The estimator's
  grid rounds take most of the time; the sweep-cap trials make the tail.
- ``oracle_scan``: one ``grid_oracle_batch`` over 100 noiseless single-tone
  residuals on a 100 000-point grid: the brute-force certification kernel,
  a wide grid over a batch instead of the estimator's narrow one.
- ``noisy_sweep``: one ``cstones.cli.main(["sweep", ...])`` with one trial
  at 20 dB, N=256, row-subsampling M=64, methods mds, oracle and bomp, so
  every module is reached through the user's entry point.

The benchmark reaches cstones only through ``api`` (a namespace of public
names), so the tracer can wrap each direct call of a workload.
"""

from __future__ import annotations

import csv
import math
import os
import types

import numpy as np

import metrics

# Warm-up inputs come from this fixed seed, not from --seed, so that the
# warm-up job, and with it setup_s, costs the same for every seed.
WARMUP_SEED = 0x5E7


def public_api(cs, cli) -> types.SimpleNamespace:
    """The public cstones names the workloads call directly."""
    names = (
        "RecoveryConfig", "recover", "grid_oracle_batch", "draw_model",
        "synthesize", "gaussian_matrix", "measure",
    )
    api = types.SimpleNamespace(**{n: getattr(cs, n) for n in names})
    api.main = cli.main
    return api


def seed_rows(seed: int, count: int, width: int) -> np.ndarray:
    """``count`` rows of ``width`` input seeds, all drawn from ``seed``."""
    return np.random.default_rng(seed).integers(0, 2**31 - 1, size=(count, width))


def _nl2(x: np.ndarray, xhat: np.ndarray) -> float:
    return float(np.linalg.norm(x - xhat) / np.linalg.norm(x))


class Flagship:
    name = "flagship"
    pool_size = 512
    n, k, m = 128, 3, 64
    success_gate = 1e-3  # nl2 against the clean signal (acceptance criterion 4)
    success_floor = 0.90  # criterion 4 passes at 45 of 50
    seed_width = 2  # model seed, matrix seed

    def __init__(self, api):
        self.api = api
        self.cfg = api.RecoveryConfig(k=self.k)

    def make(self, row):
        model_seed, matrix_seed = (int(s) for s in row)
        truth = self.api.draw_model(self.k, self.n, math.pi / self.n, preset="freq", seed=model_seed)
        x = self.api.synthesize(truth)
        phi = self.api.gaussian_matrix(self.m, self.n, seed=matrix_seed)
        return x, phi, self.api.measure(phi, x)

    def run(self, inp):
        _, phi, meas = inp
        return self.api.recover(phi, meas, self.cfg)

    def check(self, inp, result) -> metrics.JobOutcome:
        x = inp[0]
        if not np.all(np.isfinite(result.signal)):
            return metrics.JobOutcome(True, False, "non-finite signal")
        err = _nl2(x, result.signal)
        if err < self.success_gate:
            return metrics.JobOutcome(False, True)
        return metrics.JobOutcome(False, False, f"nl2 {err:.3g}")


class OracleScan:
    name = "oracle_scan"
    pool_size = 16
    n, m, batch, grid = 128, 64, 100, 100_000
    success_floor = 1.0  # a brute-force scan has no excuse to miss
    seed_width = batch + 1  # matrix seed, then one model seed per residual

    def __init__(self, api):
        self.api = api

    def make(self, row):
        phi = self.api.gaussian_matrix(self.m, self.n, seed=int(row[0]))
        truths = np.empty(self.batch)
        residuals = np.empty((self.m, self.batch))
        for i, s in enumerate(row[1:]):
            model = self.api.draw_model(1, self.n, math.pi / self.n, preset="sinu", seed=int(s))
            truths[i] = model.components[0].omega
            residuals[:, i] = self.api.measure(phi, self.api.synthesize(model)).values
        return truths, phi, residuals

    def run(self, inp):
        _, phi, residuals = inp
        return self.api.grid_oracle_batch(phi, residuals, self.grid)

    def check(self, inp, result) -> metrics.JobOutcome:
        truths = inp[0]
        omegas, s = result
        if not (np.all(np.isfinite(omegas)) and np.all(np.isfinite(s))):
            return metrics.JobOutcome(True, False, "non-finite output")
        step = math.pi / (self.grid - 1)
        worst = float(np.max(np.abs(omegas - truths)))
        if worst <= step:
            return metrics.JobOutcome(False, True)
        return metrics.JobOutcome(False, False, f"omega off by {worst / step:.3g} steps")


class NoisySweep:
    name = "noisy_sweep"
    pool_size = 4096
    ratio_gate = 1.5  # recover's nl2 over oracle_ls's on the same trial
    success_floor = 0.90
    seed_width = 1  # the sweep's --seed

    def __init__(self, api, scratch: str):
        self.api = api
        self.prefix = os.path.join(scratch, "sweep")
        self.ratios: list[float] = []

    def make(self, row):
        return int(row[0])

    def argv(self, job_seed: int) -> list[str]:
        return [
            "sweep", "--axis", "snr", "--values", "20", "--trials", "1",
            "--n", "256", "--k", "3", "--m", "64", "--matrix-kind", "subsampling",
            "--preset", "sinu", "--methods", "mds,oracle,bomp",
            "--seed", str(job_seed), "--out-prefix", self.prefix,
        ]

    def run(self, inp):
        return self.api.main(self.argv(inp))

    def check(self, inp, exit_code) -> metrics.JobOutcome:
        rows = []
        path = self.prefix + ".csv"
        if exit_code == 0:
            with open(path, newline="") as handle:
                for row in csv.DictReader(handle):
                    rows.append(
                        (row["method"], float(row["nl2_error"]), float(row["freq_err_total"]))
                    )
            os.unlink(path)
            os.unlink(self.prefix + ".json")
        outcome = metrics.sweep_outcome(exit_code, rows, self.ratio_gate)
        if not outcome.failed:
            nl2 = {method: err for method, err, _ in rows}
            self.ratios.append(nl2["mds"] / nl2["oracle"])
        return outcome
