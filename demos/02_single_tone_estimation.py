"""
Estimating one sinusoid from compressed measurements
====================================================

The core estimation step: given measurements r = Phi @ x of a single tone,
find (omega, a, phi) by one grid round over the full band with closed-form
amplitudes at each node, then polish the best node's frequency by Newton
steps on the fit error's derivative inside the node's grid bracket.  This
script shows the search trace and the final accuracy.
"""

import math

import numpy as np

from cstones import (
    SignalModel,
    SinusoidParams,
    estimate_sinusoid,
    gaussian_matrix,
    grid_oracle_batch,
    measure,
    synthesize,
)

# Ground truth: one off-grid tone, sampled at N = 128 points.
truth = SinusoidParams(omega=1.23456, amplitude=1.5, phase=-0.8)
x = synthesize(SignalModel((truth,), 128))

# Compress to M = 64 Gaussian measurements; the estimator only ever sees r.
phi = gaussian_matrix(64, 128, seed=3)
r = measure(phi, x).values

outcome = estimate_sinusoid(phi, r)
est = outcome.params

print(f"truth    omega={truth.omega:.8f}  a={truth.amplitude:.6f}  phase={truth.phase:.6f}")
print(f"estimate omega={est.omega:.8f}  a={est.amplitude:.6f}  phase={est.phase:.6f}")
print(f"residual energy: {outcome.residual_sq:.3e} (of ||r||^2 = {float(r @ r):.3f})")

# The grid round narrows [0, pi] to the two grid cells around its best node;
# the Newton steps then close a sign-change bracket of the error's derivative
# below the 1e-8 frequency tolerance.
print(f"\nsearch trace: 1 grid round + {outcome.refinements_used - 1} Newton steps")
labels = ("full band", "grid round", "Newton")
for label, (a, b) in zip(labels, outcome.bracket_history):
    print(f"  {label:>10}: bracket [{a:.8f}, {b:.8f}]  width {b - a:.3e}")
for i, s in enumerate(outcome.best_s_history):
    print(f"  {'grid round' if i == 0 else f'Newton {i}':>10}: best error {s:.3e}")

# Sanity: a brute-force scan over a dense uniform frequency grid lands on
# the same place (this is the anti-drift oracle used in the test suite).
# The scan takes residuals as columns, so one residual is an M x 1 batch.
w_grid, s_grid = grid_oracle_batch(phi, r[:, None], 100_000)
print(f"\ndense-grid argmin: {w_grid[0]:.8f} (polished estimate {est.omega:.8f})")
print(f"polished error {outcome.residual_sq:.3e} <= grid error {s_grid[0]:.3e}")
