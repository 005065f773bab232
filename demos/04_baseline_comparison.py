"""
Bracketing the recoverer with reference baselines
=================================================

Two baselines put the main recoverer in context on the same instances:

* ``oracle_ls`` is told the true frequencies and solves one joint least
  squares for the amplitudes: the error floor.
* ``bomp_recover`` is a band-excluded orthogonal matching pursuit locked to
  the 5x oversampled DFT grid, excluding pi/N around each pick: off-grid
  tones cost it a quantization floor.

On off-grid instances the expected ordering is oracle <= greedy <= grid
pursuit.
"""

import math

import numpy as np

from cstones import (
    RecoveryConfig,
    bomp_recover,
    draw_model,
    gaussian_matrix,
    measure,
    normalized_l2_error,
    oracle_ls,
    recover,
    synthesize,
)

errs = {"oracle": [], "mds": [], "bomp": []}
for trial in range(20):
    truth = draw_model(k=3, n=128, min_sep=math.pi / 128, preset="freq", seed=800 + trial)
    x = synthesize(truth)
    phi = gaussian_matrix(64, 128, seed=900 + trial)
    m = measure(phi, x)

    # genie-aided least squares: frequencies known, amplitudes solved jointly
    fitted = oracle_ls(phi, m, truth.frequencies)
    errs["oracle"].append(normalized_l2_error(x, synthesize(fitted)))

    # the greedy parametric recoverer: frequencies estimated off-grid
    rec = recover(phi, m, RecoveryConfig(k=3))
    errs["mds"].append(normalized_l2_error(x, rec.signal))

    # grid-locked pursuit over a 5x oversampled DFT frame
    fitted = bomp_recover(phi, m, 3)
    errs["bomp"].append(normalized_l2_error(x, synthesize(fitted)))

print(f"{'method':8s} {'mean':>10s} {'median':>10s} {'worst':>10s}")
for name, values in errs.items():
    print(
        f"{name:8s} {np.mean(values):10.3e} {np.median(values):10.3e} "
        f"{np.max(values):10.3e}"
    )

print(
    "\nordering holds:",
    np.mean(errs["oracle"]) <= np.mean(errs["mds"]) <= np.mean(errs["bomp"]),
)

# Why the pursuit plateaus: its frequencies live on a grid with spacing
# 2*pi/(5*128), so an off-grid tone is mismatched by up to half a step.
delta = 2 * math.pi / (5 * 128)
print(f"frame spacing {delta:.5f} rad; worst-case quantization {delta / 2:.5f} rad")
