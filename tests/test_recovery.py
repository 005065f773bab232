"""Tests for the recoverer: cyclic warm-up sweeps, then the joint polish."""

import math

import numpy as np
import pytest

from cstones.estimator import estimate_sinusoid
from cstones.model import (
    NoiseSpec,
    SignalModel,
    SinusoidParams,
    add_noise,
    draw_model,
    synthesize,
)
import cstones.estimator as estimator
import cstones.recovery as recovery
from cstones.recovery import RecoveryConfig, _admissible, _assemble_model, _polish, recover
from cstones.sensing import (
    SUBSAMPLING,
    Measurement,
    SensingMatrix,
    gaussian_matrix,
    measure,
    subsampling_matrix,
)


def identity_phi(n):
    return SensingMatrix(entries=np.eye(n), kind=SUBSAMPLING, seed=0)


class TestRecover:
    def test_k1_reduces_to_single_estimate(self):
        # the budgeted warm-up estimate plus the polish matches the
        # estimator's full-precision fit
        phi = gaussian_matrix(32, 64, seed=5)
        model = SignalModel((SinusoidParams(1.2, 1.0, 0.3),), 64)
        m = measure(phi, synthesize(model))
        result = recover(phi, m, RecoveryConfig(k=1))
        direct = estimate_sinusoid(phi, m.values)
        got, want = result.model.components[0], direct.params
        assert abs(got.omega - want.omega) <= 1e-12
        assert abs(got.amplitude - want.amplitude) <= 1e-12
        assert abs(got.phase - want.phase) <= 1e-12
        m_norm = float(np.linalg.norm(m.values))
        assert result.final_residual_norm <= math.sqrt(direct.residual_sq) + 1e-12 * m_norm

    @pytest.mark.parametrize("k", [1, 3])
    def test_warm_up_step_budget(self, monkeypatch, k):
        # every warm-up visit stops after the step budget, whatever k
        truth = draw_model(k, 128, math.pi / 128, "freq", seed=17)
        phi = gaussian_matrix(64, 128, seed=18)
        m = measure(phi, synthesize(truth))
        budgets = []

        def traced(*args, **kwargs):
            budgets.append(kwargs.get("newton_steps"))
            return estimate_sinusoid(*args, **kwargs)

        monkeypatch.setattr(recovery, "estimate_sinusoid", traced)
        result = recover(phi, m, RecoveryConfig(k=k))
        assert budgets == [recovery._WARMUP_NEWTON_STEPS] * (k * result.sweeps_used)

    def test_too_many_tones_rejected_before_the_warm_up(self, monkeypatch):
        # 2k > N admits no model: refused before any estimate runs
        phi = gaussian_matrix(16, 16, seed=19)
        m = Measurement(values=np.random.default_rng(20).normal(size=16))
        calls = []

        def traced(*args, **kwargs):
            calls.append(args)
            return estimate_sinusoid(*args, **kwargs)

        monkeypatch.setattr(recovery, "estimate_sinusoid", traced)
        with pytest.raises(ValueError, match="2k <= n"):
            recover(phi, m, RecoveryConfig(9))
        assert calls == []
        with pytest.warns(UserWarning, match="underdetermined"):
            recover(phi, m, RecoveryConfig(8))  # the largest k that fits runs
        assert calls

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
        # (n, m, true tones, k, snr_db, seeds).  Besides the plain K=3 cases,
        # an over-specified k and M=16 inputs on which the accept rule
        # rejects updates, the only thing that keeps the sweeps monotone.
        cases = [
            (128, 48, 3, 3, None, range(8)),
            (64, 32, 1, 4, 20.0, (19,)),
            (128, 48, 1, 4, 20.0, (32, 64)),
            (128, 16, 3, 3, None, (11, 35, 55, 71)),
        ]
        for n, m_rows, tones, k, snr_db, seeds in cases:
            for seed in seeds:
                x = synthesize(draw_model(tones, n, math.pi / n, "freq", seed=seed))
                if snr_db is not None:
                    x = add_noise(x, NoiseSpec(snr_db=snr_db, seed=seed + 1))
                phi = gaussian_matrix(m_rows, n, seed=seed + 50)
                result = recover(phi, measure(phi, x), RecoveryConfig(k=k))
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
        assert (result.stop_reason, result.sweeps_used) == ("zero_input", 0)

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

    def test_polish_kept_adds_one_norm_and_no_sweep(self):
        # the second input's third sweep changes no slot, a fixed point that
        # ends its warm-up before the sweep cap
        cases = [
            (draw_model(3, 128, math.pi / 128, "freq", seed=8), gaussian_matrix(64, 128, seed=9)),
            (draw_model(2, 64, math.pi / 64, "sinu", seed=106), subsampling_matrix(64, 64, seed=106)),
        ]
        for truth, phi in cases:
            result = recover(phi, measure(phi, synthesize(truth)), RecoveryConfig(k=truth.k))
            assert result.stop_reason == "polished"
            assert result.sweeps_used <= RecoveryConfig.max_sweeps
            assert len(result.sweep_residual_norms) == result.sweeps_used + 1
            assert result.sweep_residual_norms[-1] < result.sweep_residual_norms[-2]
        assert result.sweeps_used == 3
        assert result.sweep_residual_norms[1] == result.sweep_residual_norms[2]

    def test_converged_warm_up_with_refused_polish(self, monkeypatch):
        # one tone: the second sweep repeats the first, a fixed point, and
        # a polish that fits nothing is refused
        phi = gaussian_matrix(32, 64, seed=5)
        model = SignalModel((SinusoidParams(1.2, 1.0, 0.3),), 64)
        monkeypatch.setattr(recovery, "_polish", lambda _, mv, w: (w, np.zeros(2 * w.size)))
        result = recover(phi, measure(phi, synthesize(model)), RecoveryConfig(k=1))
        assert (result.stop_reason, result.sweeps_used) == ("converged", 2)
        assert len(result.sweep_residual_norms) == 2

    def test_refused_polish_after_full_warm_up_reports_sweep_cap(self, monkeypatch):
        # a polish that fits nothing raises the residual, so it is refused
        # and the result is the warm-up's own
        truth = draw_model(3, 128, math.pi / 128, "freq", seed=8)
        phi = gaussian_matrix(64, 128, seed=9)
        m = measure(phi, synthesize(truth))
        monkeypatch.setattr(recovery, "_polish", lambda _, mv, w: (w, np.zeros(2 * w.size)))
        result = recover(phi, m, RecoveryConfig(k=3))
        assert result.stop_reason == "sweep_cap"
        assert result.sweeps_used == RecoveryConfig.max_sweeps
        assert len(result.sweep_residual_norms) == RecoveryConfig.max_sweeps

    @pytest.mark.parametrize(
        "model_seed, matrix_seed",
        [
            (662602001, 1668840584),  # tones 0.045 rad apart near pi
            (1308732530, 1800107733),  # tones 0.032 rad apart near 0
        ],
    )
    def test_close_pairs_near_band_ends_recovered(self, model_seed, matrix_seed):
        # flagship inputs on which 60 cyclic sweeps zigzag to nl2 1.4e-3 and 6.4e-3
        truth = draw_model(3, 128, math.pi / 128, "freq", seed=model_seed)
        x = synthesize(truth)
        phi = gaussian_matrix(64, 128, seed=matrix_seed)
        result = recover(phi, measure(phi, x), RecoveryConfig(k=3))
        assert np.linalg.norm(x - result.signal) / np.linalg.norm(x) < 1e-3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RecoveryConfig(k=0)
        with pytest.raises(TypeError):  # the warm-up length is a constant, not a field
            RecoveryConfig(k=1, max_sweeps=0)


class TestPolish:
    @pytest.mark.parametrize(
        "omegas, ok",
        [
            ([0.5, 1.0, 2.0], True),
            ([0.5, 1.0, 0.5], False),  # two frequencies equal
            ([0.0, 1.0], False),
            ([-0.1, 1.0], False),
            ([1.0, math.pi], False),
            ([1.0, 3.2], False),
            ([1.0, math.nan], False),
        ],
    )
    def test_admissible_frequencies(self, omegas, ok):
        assert _admissible(np.array(omegas)) is ok

    def test_jacobian_columns_from_cached_operator(self):
        # D_k = dA/dw_k c from the operator's t-weighted rows equals Phi
        # times the t-weighted derivative samples, at random w and c
        phi = gaussian_matrix(64, 128, seed=51)
        weighted = estimator._full_band(phi)[2][: 2 * phi.m_rows]
        t = np.arange(1.0, 129.0)
        rng = np.random.default_rng(52)
        for _ in range(20):
            omegas = np.sort(rng.uniform(0.01, math.pi - 0.01, size=3))
            _, coef, d, _ = recovery._projected_fit(weighted, rng.normal(size=64), omegas)
            c, s = coef[0::2], coef[1::2]
            wt = np.multiply.outer(t, omegas)
            ref = phi.entries @ (t[:, None] * (s * np.cos(wt) - c * np.sin(wt)))
            err = np.linalg.norm(d - ref, axis=0) / np.linalg.norm(ref, axis=0)
            assert np.all(err <= 1e-12), err

    def test_refuses_steps_out_of_band(self, monkeypatch):
        # from 0.0775 the first Gauss-Newton step for a tone at 0.002 lands
        # at -0.073; it must be refused, never fitted, and the damped steps
        # must still reach the tone
        phi = gaussian_matrix(32, 64, seed=3)
        mv = phi.entries @ np.sin(0.002 * np.arange(1, 65) + 0.3)
        proposed, fitted = [], []
        admissible, fit = recovery._admissible, recovery._projected_fit
        monkeypatch.setattr(
            recovery, "_admissible", lambda w: proposed.append(w.copy()) or admissible(w)
        )
        monkeypatch.setattr(
            recovery, "_projected_fit", lambda p, m, w: fitted.append(w.copy()) or fit(p, m, w)
        )
        omegas, _ = _polish(estimator._full_band(phi)[2], mv, np.array([0.0775]))
        assert any(w[0] <= 0.0 for w in proposed)
        assert all(0.0 < w[0] < math.pi for w in fitted)
        assert abs(omegas[0] - 0.002) < 1e-9


_P = SinusoidParams


@pytest.mark.parametrize(
    "params, expected",
    [
        # empty slots: zero-amplitude placeholders at pi (i + 1) / (k + 1)
        ([None, None, None], [(math.pi / 4, 0.0), (math.pi / 2, 0.0), (3 * math.pi / 4, 0.0)]),
        # two slots at the exact same omega: the later one moves up one ulp
        ([_P(1.0, 2.0, 0.5), _P(1.0, 3.0, 0.5)], [(1.0, 2.0), (math.nextafter(1.0, 4), 3.0)]),
        # a fitted omega on an earlier empty slot's placeholder is moved too
        (
            [None, _P(math.pi / 3, 2.0, 0.5)],
            [(math.pi / 3, 0.0), (math.nextafter(math.pi / 3, 4), 2.0)],
        ),
    ],
)
def test_assemble_model_keeps_frequencies_distinct(params, expected):
    model = _assemble_model(params, 16)
    assert [(c.omega, c.amplitude) for c in model.components] == expected
    for p, c in zip(params, model.components):
        assert c.phase == (0.0 if p is None else p.phase)


class TestScaleEquivariance:
    """Scaling m scales the recovered amplitudes, signal and norms, nothing else."""

    @staticmethod
    def noisy_instance():
        # noisy, so every residual norm stays a normal float at 2^-990 scale
        truth = draw_model(2, 32, math.pi / 32, "sinu", seed=15)
        x = add_noise(synthesize(truth), NoiseSpec(snr_db=10.0, seed=16))
        phi = gaussian_matrix(16, 32, seed=17)
        return phi, measure(phi, x)

    @pytest.mark.parametrize("k", [-990, -3, 5, 600])
    def test_power_of_two_scaling_is_exact(self, k):
        phi, m = self.noisy_instance()
        base = recover(phi, m, RecoveryConfig(k=2))
        scaled = recover(phi, Measurement(np.ldexp(m.values, k)), RecoveryConfig(k=2))
        assert scaled.sweeps_used == base.sweeps_used
        assert scaled.stop_reason == base.stop_reason
        for a, b in zip(base.model.components, scaled.model.components):
            assert (b.omega, b.amplitude, b.phase) == (a.omega, math.ldexp(a.amplitude, k), a.phase)
        assert scaled.signal.tobytes() == np.ldexp(base.signal, k).tobytes()
        assert scaled.final_residual_norm == math.ldexp(base.final_residual_norm, k)
        assert scaled.sweep_residual_norms == tuple(
            math.ldexp(v, k) for v in base.sweep_residual_norms
        )

    @pytest.mark.parametrize("c", [1e200, 1e-300, -1.0])
    def test_any_scale_keeps_frequencies(self, c):
        phi, m = self.noisy_instance()
        base = recover(phi, m, RecoveryConfig(k=2))
        scaled = recover(phi, Measurement(m.values * c), RecoveryConfig(k=2))
        np.testing.assert_allclose(
            scaled.model.frequencies, base.model.frequencies, rtol=0.0, atol=1e-12
        )
        np.testing.assert_allclose(
            [p.amplitude for p in scaled.model.components],
            [abs(c) * p.amplitude for p in base.model.components],
            rtol=1e-9,
        )
        assert math.isfinite(scaled.final_residual_norm)


_EDGE_N = 128
_EDGE_CELL = math.pi / _EDGE_N


@pytest.mark.parametrize("phase", [0.0, 1.0])
@pytest.mark.parametrize(
    "omega",
    [
        1e-3,
        0.2 * _EDGE_CELL,
        0.5 * _EDGE_CELL,
        math.pi - 0.5 * _EDGE_CELL,
        math.pi - 0.2 * _EDGE_CELL,
        math.pi - 1e-3,
    ],
)
def test_band_edge_tone_recovered(omega, phase):
    # a tone inside the first or last grid cell: the grid round picks the
    # endpoint node and the Newton step has to walk off it
    truth = SignalModel((SinusoidParams(omega, 1.0, phase),), _EDGE_N)
    x = synthesize(truth)
    phi = gaussian_matrix(64, _EDGE_N, seed=0)
    result = recover(phi, measure(phi, x), RecoveryConfig(k=1))
    assert abs(result.model.frequencies[0] - omega) < 1e-9
    assert np.linalg.norm(x - result.signal) / np.linalg.norm(x) < 1e-9
