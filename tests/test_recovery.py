"""Tests for the cyclic greedy recovery loop."""

import math

import numpy as np
import pytest

from cstones.estimator import estimate_sinusoid
from cstones.model import SignalModel, SinusoidParams, draw_model, synthesize
from cstones.recovery import RecoveryConfig, recover
from cstones.sensing import SUBSAMPLING, SensingMatrix, gaussian_matrix, measure


def identity_phi(n):
    return SensingMatrix(entries=np.eye(n), kind=SUBSAMPLING, seed=0)


class TestRecover:
    def test_k1_reduces_to_single_estimate(self):
        phi = gaussian_matrix(32, 64, seed=5)
        model = SignalModel((SinusoidParams(1.2, 1.0, 0.3),), 64)
        m = measure(phi, synthesize(model))
        result = recover(phi, m, RecoveryConfig(k=1))
        direct = estimate_sinusoid(phi, m.values)
        assert result.model.components[0] == direct.params

    def test_identity_matrix_two_tones(self):
        phi = identity_phi(128)
        model = SignalModel(
            (SinusoidParams(0.5, 1.0, 0.0), SinusoidParams(1.7, 1.0, 0.0)), 128
        )
        x = synthesize(model)
        m = measure(phi, x)
        result = recover(phi, m, RecoveryConfig(k=2))
        err = np.linalg.norm(x - result.signal) / np.linalg.norm(x)
        assert err < 1e-6

    def test_paper_operating_point_smoke(self):
        # the full 50-trial version lives in the acceptance suite
        ok = 0
        for trial in range(5):
            truth = draw_model(3, 128, math.pi / 128, "freq", seed=100 + trial)
            x = synthesize(truth)
            phi = gaussian_matrix(64, 128, seed=200 + trial)
            m = measure(phi, x)
            result = recover(phi, m, RecoveryConfig(k=3))
            if np.linalg.norm(x - result.signal) / np.linalg.norm(x) < 1e-3:
                ok += 1
        assert ok >= 4

    def test_sweep_residuals_non_increasing(self):
        for seed in range(8):
            truth = draw_model(3, 128, math.pi / 128, "freq", seed=seed)
            x = synthesize(truth)
            phi = gaussian_matrix(48, 128, seed=seed + 50)
            m = measure(phi, x)
            result = recover(phi, m, RecoveryConfig(k=3))
            norms = result.sweep_residual_norms
            assert all(b <= a + 1e-9 for a, b in zip(norms, norms[1:]))

    def test_signal_equals_synthesized_model(self):
        truth = draw_model(2, 64, math.pi / 64, "sinu", seed=6)
        phi = gaussian_matrix(32, 64, seed=7)
        m = measure(phi, synthesize(truth))
        result = recover(phi, m, RecoveryConfig(k=2))
        np.testing.assert_array_equal(result.signal, synthesize(result.model))

    def test_deterministic(self):
        truth = draw_model(3, 128, math.pi / 128, "freq", seed=8)
        phi = gaussian_matrix(64, 128, seed=9)
        m = measure(phi, synthesize(truth))
        a = recover(phi, m, RecoveryConfig(k=3))
        b = recover(phi, m, RecoveryConfig(k=3))
        assert a.model == b.model
        np.testing.assert_array_equal(a.signal, b.signal)
        assert a.sweep_residual_norms == b.sweep_residual_norms

    def test_zero_measurement_returns_zero_model(self):
        phi = gaussian_matrix(16, 32, seed=10)
        m = measure(phi, np.zeros(32))
        result = recover(phi, m, RecoveryConfig(k=3))
        assert all(c.amplitude == 0.0 for c in result.model.components)
        np.testing.assert_array_equal(result.signal, np.zeros(32))
        assert result.final_residual_norm == 0.0

    def test_underdetermined_warns_but_runs(self):
        phi = gaussian_matrix(8, 32, seed=11)
        truth = draw_model(3, 32, math.pi / 32, "freq", seed=12)
        m = measure(phi, synthesize(truth))
        with pytest.warns(UserWarning, match="underdetermined"):
            result = recover(phi, m, RecoveryConfig(k=3))
        assert result.model.k == 3

    def test_update_never_worse_than_estimator_optimum(self):
        # post-update residual is at most the estimator's own attained error
        truth = draw_model(2, 64, math.pi / 64, "freq", seed=13)
        phi = gaussian_matrix(32, 64, seed=14)
        m = measure(phi, synthesize(truth))
        result = recover(phi, m, RecoveryConfig(k=2))
        # re-derive the final component update by hand for slot 1
        estimates = [synthesize(SignalModel((c,), 64)) for c in result.model.components]
        r = m.values - phi.entries @ estimates[0]
        out = estimate_sinusoid(phi, r)
        post = np.linalg.norm(r - phi.entries @ estimates[1]) ** 2
        assert post <= out.residual_sq + 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RecoveryConfig(k=0)
        with pytest.raises(ValueError):
            RecoveryConfig(k=1, max_sweeps=0)
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="freq_tol"):
                RecoveryConfig(k=1, freq_tol=tol)
