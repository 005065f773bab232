"""
Recovering K sinusoids: cyclic warm-up, then a joint polish
===========================================================

The recoverer keeps K per-component estimates and sweeps over them in
order, at most four times: each component is re-estimated against the
measurement with the other components' contributions subtracted, and the
measurement-domain residual is non-increasing across sweeps.  One joint
polish then refines all K frequencies at once, with the amplitudes fitted
by least squares, and is kept only if it lowers the residual further.
"""

import math

import numpy as np

from cstones import (
    RecoveryConfig,
    draw_model,
    gaussian_matrix,
    match_frequencies,
    measure,
    normalized_l2_error,
    recover,
    synthesize,
)

# The flagship operating point: N = 128 samples, K = 3 tones separated by
# at least pi/N, compressed to M = 64 Gaussian measurements, noiseless.
truth = draw_model(k=3, n=128, min_sep=math.pi / 128, preset="freq", seed=11)
x = synthesize(truth)
phi = gaussian_matrix(64, 128, seed=5)
m = measure(phi, x)

result = recover(phi, m, RecoveryConfig(k=3))

print("true frequencies     :", np.round(np.sort(truth.frequencies), 6))
print("recovered frequencies:", np.round(np.sort(result.model.frequencies), 6))

pairs, errors = match_frequencies(truth.frequencies, result.model.frequencies)
print("per-tone frequency errors:", [f"{e:.2e}" for e in errors])
print(f"normalized l2 error: {normalized_l2_error(x, result.signal):.3e}")

print(f"\n{result.sweeps_used} warm-up sweeps, stop reason {result.stop_reason!r}; residuals:")
for i, norm in enumerate(result.sweep_residual_norms, start=1):
    step = f"sweep {i}" if i <= result.sweeps_used else "polish "
    print(f"  {step}: ||m - Phi s_hat|| = {norm:.3e}")

# The same pipeline degrades gracefully under noise; errors track the SNR.
from cstones import NoiseSpec, add_noise

for snr in (40.0, 20.0, 0.0):
    noisy = add_noise(x, NoiseSpec(snr_db=snr, seed=123))
    res = recover(phi, measure(phi, noisy), RecoveryConfig(k=3))
    err = normalized_l2_error(noisy, res.signal)
    print(f"SNR {snr:4.0f} dB -> normalized error {err:.4f}")
