"""Tests for the sinusoid signal model: synthesis, noise, random draws."""

import math

import numpy as np
import pytest

from cstones.model import (
    FREQ_PRESET,
    SINU_PRESET,
    SINU_AMP_RANGE,
    NoiseSpec,
    SignalModel,
    SinusoidParams,
    add_noise,
    canonical_phase,
    component_samples,
    draw_model,
    sinusoid_samples,
    synthesize,
)


class TestSinusoidSamples:
    def test_quarter_period_exact(self):
        sin_w, cos_w = sinusoid_samples(math.pi / 2, 4)
        np.testing.assert_allclose(sin_w, [1.0, 0.0, -1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(cos_w, [0.0, -1.0, 0.0, 1.0], atol=1e-15)

    def test_zero_frequency_degenerate(self):
        sin_w, cos_w = sinusoid_samples(0.0, 3)
        np.testing.assert_array_equal(sin_w, np.zeros(3))
        np.testing.assert_array_equal(cos_w, np.ones(3))

    def test_matches_per_entry_evaluation(self):
        # oracle: direct scalar evaluation at each 1-based time index
        sin_w, cos_w = sinusoid_samples(0.7, 128)
        for t in range(1, 129):
            assert sin_w[t - 1] == pytest.approx(math.sin(0.7 * t), abs=1e-15)
            assert cos_w[t - 1] == pytest.approx(math.cos(0.7 * t), abs=1e-15)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sinusoid_samples(0.5, 0)


class TestSynthesize:
    def test_single_tone_quarter_period(self):
        model = SignalModel((SinusoidParams(math.pi / 2, 1.0, 0.0),), 4)
        np.testing.assert_allclose(synthesize(model), [1.0, 0.0, -1.0, 0.0], atol=1e-15)

    def test_phase_shift_gives_cosine(self):
        # sin(x + pi/2) = cos(x), so amplitude 2 yields twice the cos samples
        model = SignalModel((SinusoidParams(math.pi / 2, 2.0, math.pi / 2),), 4)
        np.testing.assert_allclose(synthesize(model), [0.0, -2.0, 0.0, 2.0], atol=1e-14)

    def test_superposition_of_components(self):
        model = draw_model(3, 128, math.pi / 128, preset=FREQ_PRESET, seed=11)
        total = synthesize(model)
        parts = sum(
            synthesize(SignalModel((c,), 128)) for c in model.components
        )
        np.testing.assert_allclose(total, parts, rtol=1e-12, atol=1e-12)

    def test_component_samples_bit_identical_to_synthesize(self):
        comp = SinusoidParams(1.234, 0.7, -2.1)
        np.testing.assert_array_equal(
            component_samples(comp, 97), synthesize(SignalModel((comp,), 97))
        )

    def test_linear_form_agreement(self):
        # a*sin(wt + p) == a1*sin(wt) + a2*cos(wt) with a1 = a cos p, a2 = a sin p
        comp = SinusoidParams(1.234, 1.7, -2.1)
        model = SignalModel((comp,), 64)
        direct = synthesize(model)
        a1, a2 = comp.linear_amplitudes
        sin_w, cos_w = sinusoid_samples(comp.omega, 64)
        linear = a1 * sin_w + a2 * cos_w
        np.testing.assert_allclose(direct, linear, rtol=1e-12, atol=1e-12)


class TestAddNoise:
    def setup_method(self):
        model = draw_model(3, 128, math.pi / 128, preset=FREQ_PRESET, seed=3)
        self.s = synthesize(model)

    def test_noiseless_is_exact(self):
        x = add_noise(self.s, NoiseSpec(snr_db=None))
        np.testing.assert_array_equal(x, self.s)

    def test_deterministic_per_seed(self):
        spec = NoiseSpec(snr_db=20.0, seed=99)
        x1 = add_noise(self.s, spec)
        x2 = add_noise(self.s, spec)
        np.testing.assert_array_equal(x1, x2)

    def test_empirical_snr_near_60db(self):
        # sample-statistics oracle: realized SNR averaged over 100 seeds
        ratios = []
        for seed in range(100):
            x = add_noise(self.s, NoiseSpec(snr_db=60.0, seed=seed))
            xi = x - self.s
            ratios.append(10.0 * math.log10((self.s @ self.s) / (xi @ xi)))
        assert abs(np.mean(ratios) - 60.0) < 1.0

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            add_noise(np.zeros(16), NoiseSpec(snr_db=10.0))


class TestSinusoidParams:
    def test_phase_canonicalized_on_construction(self):
        assert SinusoidParams(1.0, 1.0, 3 * math.pi).phase == pytest.approx(math.pi)
        assert SinusoidParams(1.0, 1.0, -math.pi).phase == pytest.approx(math.pi)
        assert SinusoidParams(1.0, 1.0, 0.5).phase == 0.5

    def test_canonical_phase_interval(self):
        for p in np.linspace(-20.0, 20.0, 201):
            c = canonical_phase(p)
            assert -math.pi < c <= math.pi
            # same angle modulo 2*pi
            assert math.isclose(math.sin(c), math.sin(p), abs_tol=1e-12)
            assert math.isclose(math.cos(c), math.cos(p), abs_tol=1e-12)

    @pytest.mark.parametrize("omega", [0.0, math.pi, -0.1, 4.0])
    def test_omega_outside_open_interval_rejected(self, omega):
        with pytest.raises(ValueError):
            SinusoidParams(omega, 1.0, 0.0)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            SinusoidParams(1.0, -0.5, 0.0)

    def test_linear_round_trip(self):
        # (a, phi) -> (a1, a2) -> (a, phi) over a grid of the parameter space
        for a in (0.25, 1.0, 3.5):
            for phi in np.linspace(-math.pi + 1e-9, math.pi, 25):
                original = SinusoidParams(1.0, a, float(phi))
                a1, a2 = original.linear_amplitudes
                back = SinusoidParams.from_linear(1.0, a1, a2)
                assert back.amplitude == pytest.approx(a, rel=1e-12)
                assert back.phase == pytest.approx(original.phase, abs=1e-12)


class TestSignalModel:
    def test_duplicate_frequencies_rejected(self):
        comp = SinusoidParams(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            SignalModel((comp, comp), 32)

    def test_identifiability_floor(self):
        comps = tuple(SinusoidParams(0.1 * (i + 1), 1.0, 0.0) for i in range(3))
        with pytest.raises(ValueError):
            SignalModel(comps, 5)

    def test_empty_model_synthesizes_to_zero(self):
        model = SignalModel((), 16)
        np.testing.assert_array_equal(synthesize(model), np.zeros(16))

    def test_json_round_trip(self):
        model = draw_model(3, 128, math.pi / 128, preset=SINU_PRESET, seed=5)
        back = SignalModel.from_json(model.to_json())
        assert back == model


class TestDrawModel:
    def test_freq_preset_unit_amplitudes_zero_phases(self):
        model = draw_model(3, 128, math.pi / 128, preset=FREQ_PRESET, seed=1)
        assert all(c.amplitude == 1.0 for c in model.components)
        assert all(c.phase == 0.0 for c in model.components)

    def test_single_component_always_admissible(self):
        model = draw_model(1, 32, math.pi / 4, preset=FREQ_PRESET, seed=2)
        assert model.k == 1

    def test_separation_holds_over_many_draws(self):
        min_sep = math.pi / 128
        for seed in range(1000):
            model = draw_model(3, 128, min_sep, preset=FREQ_PRESET, seed=seed)
            gaps = np.diff(np.sort(model.frequencies))
            assert np.min(gaps) >= min_sep

    def test_frequencies_inside_margin(self):
        min_sep = math.pi / 16
        for seed in range(50):
            model = draw_model(2, 64, min_sep, preset=FREQ_PRESET, seed=seed)
            assert np.all(model.frequencies > min_sep)
            assert np.all(model.frequencies < math.pi - min_sep)

    def test_sinu_preset_ranges(self):
        for seed in range(100):
            model = draw_model(3, 128, math.pi / 128, preset=SINU_PRESET, seed=seed)
            for c in model.components:
                assert SINU_AMP_RANGE[0] <= c.amplitude <= SINU_AMP_RANGE[1]
                assert -math.pi < c.phase <= math.pi

    def test_deterministic_per_seed(self):
        a = draw_model(3, 128, math.pi / 128, preset=SINU_PRESET, seed=77)
        b = draw_model(3, 128, math.pi / 128, preset=SINU_PRESET, seed=77)
        assert a == b

    def test_infeasible_separation_rejected(self):
        # k tones in (min_sep, pi - min_sep) with gaps >= min_sep need
        # (k + 1) * min_sep < pi; pi / 3.05 at k = 3 meets k * min_sep < pi
        for k, min_sep in [(4, math.pi / 4), (3, math.pi / 3.05), (1, math.pi / 2),
                           (3, -1.0), (3, math.nan)]:
            with pytest.raises(ValueError, match="infeasible separation"):
                draw_model(k, 128, min_sep, preset=FREQ_PRESET, seed=0)

    def test_one_pass_draw_matches_rejection_law(self):
        # reference: uniform draws on (min_sep, pi - min_sep), sorted, kept
        # when every gap is at least min_sep (acceptance rate 0.2^3 here)
        k, min_sep = 3, math.pi / 4.5
        rng = np.random.default_rng(2024)
        kept = []
        for _ in range(4):
            cand = np.sort(rng.uniform(min_sep, math.pi - min_sep, size=(500_000, k)), axis=1)
            kept.append(cand[np.all(np.diff(cand, axis=1) >= min_sep, axis=1)])
        reference = np.concatenate(kept)
        assert len(reference) > 15_000
        drawn = np.array([draw_model(k, 128, min_sep, seed=s).frequencies for s in range(5000)])
        q = np.linspace(0.05, 0.95, 19)
        # these seeds read 4.5e-3; a range 0.01 rad too short reads 1.1e-2
        gap = np.abs(np.quantile(drawn, q, axis=0) - np.quantile(reference, q, axis=0))
        assert np.max(gap) < 8e-3

    def test_single_tone_draw_is_one_uniform_number(self):
        min_sep = math.pi / 32
        for seed in range(20):
            expected = np.random.default_rng(seed).uniform(min_sep, math.pi - min_sep)
            model = draw_model(1, 32, min_sep, preset=FREQ_PRESET, seed=seed)
            assert model.frequencies[0] == expected

    def test_tight_separation_draws_at_once(self):
        # rejection sampling would accept one draw in ~7e4 here
        min_sep = math.pi / 4.05
        for seed in range(128):
            omegas = draw_model(3, 128, min_sep, preset=FREQ_PRESET, seed=seed).frequencies
            assert np.min(np.diff(omegas)) >= min_sep
            assert min_sep <= omegas[0] and omegas[-1] < math.pi - min_sep


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: SinusoidParams(1.0, 1.0, math.nan), "phase must be finite"),
        (lambda: SignalModel((), 0), "n_samples must be positive"),
        (lambda: sinusoid_samples(math.inf, 4), "omega must be finite"),
        (lambda: draw_model(0, 16, 0.1, preset=FREQ_PRESET, seed=0), "k must be >= 1"),
    ],
    ids=["phase_nan", "n_samples_zero", "omega_inf", "k_zero"],
)
def test_malformed_input_rejected(build, match):
    with pytest.raises(ValueError, match=match):
        build()
