"""Tests for the single-sinusoid estimator: closed-form amplitudes and the
bracket-refined frequency search."""

import dataclasses
import math

import numpy as np
import pytest

from cstones import estimator, recovery
from cstones.estimator import (
    EstimateOutcome,
    amplitude_ls,
    build_atoms,
    estimate_sinusoid,
)
from cstones.model import SignalModel, SinusoidParams, draw_model, sinusoid_samples, synthesize
from cstones.recovery import RecoveryConfig, RecoveryResult, recover
from cstones.sensing import SUBSAMPLING, SensingMatrix, gaussian_matrix, measure


def identity_phi(n):
    return SensingMatrix(entries=np.eye(n), kind=SUBSAMPLING, seed=0)


class TestBuildAtoms:
    def test_identity_matrix_quarter_period(self):
        atoms = build_atoms(identity_phi(4), math.pi / 2)
        np.testing.assert_allclose(atoms[:, 0], [1.0, 0.0, -1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(atoms[:, 1], [0.0, -1.0, 0.0, 1.0], atol=1e-15)

    def test_zero_frequency_sine_column_vanishes(self):
        atoms = build_atoms(gaussian_matrix(8, 16, seed=1), 0.0)
        np.testing.assert_array_equal(atoms[:, 0], np.zeros(8))

    def test_composition_with_measure(self):
        # columns must equal measuring the raw sample vectors
        phi = gaussian_matrix(12, 24, seed=2)
        omega = 1.37
        atoms = build_atoms(phi, omega)
        sin_w, cos_w = sinusoid_samples(omega, 24)
        np.testing.assert_array_equal(atoms[:, 0], measure(phi, sin_w).values)
        np.testing.assert_array_equal(atoms[:, 1], measure(phi, cos_w).values)


class TestMeasuredAtomsKernel:
    """The factored grid kernel against the direct per-frequency reference."""

    @pytest.mark.parametrize("n", [1, 2, 7, 128, 256])
    @pytest.mark.parametrize(
        "bracket", [(0.0, math.pi), (1.3, 1.3 + 1e-6), (0.0, 1e-3), (math.pi - 1e-3, math.pi)]
    )
    def test_matches_direct_sinusoid_samples(self, n, bracket):
        phi = gaussian_matrix(max(1, n // 2), n, seed=n)
        omegas = np.linspace(bracket[0], bracket[1], n + 1)
        atoms = estimator._measured_atoms(phi.entries, omegas)
        assert atoms.shape == (phi.m_rows, omegas.size, 2)
        for k, w in enumerate(omegas):
            sin_w, cos_w = sinusoid_samples(float(w), n)
            ref = np.stack((phi.entries @ cos_w, phi.entries @ sin_w), axis=-1)
            scale = np.max(np.abs(phi.entries)) * n
            err = np.max(np.abs(atoms[:, k, :] - ref))
            assert err <= 1e-12 * scale, (n, bracket, k, err)


class TestRoundTableCache:
    """The per-matrix LRU of round tables keyed on the bracket."""

    def test_warm_call_equals_cold_call(self):
        phi = gaussian_matrix(32, 64, seed=31)
        rng = np.random.default_rng(32)
        r_warmup, r = rng.normal(size=(2, 32))
        estimator._cache.clear()
        cold = estimate_sinusoid(phi, r)
        estimator._cache.clear()
        estimate_sinusoid(phi, r_warmup)
        assert estimator._cache_phi is phi
        assert (0.0, math.pi) in estimator._cache
        warm = estimate_sinusoid(phi, r)  # full band cached, later rounds built
        hot = estimate_sinusoid(phi, r)  # every round cached
        for f in dataclasses.fields(EstimateOutcome):
            assert getattr(warm, f.name) == getattr(cold, f.name), f.name
            assert getattr(hot, f.name) == getattr(cold, f.name), f.name

    def test_keyed_on_matrix_identity_and_grid(self):
        phi = gaussian_matrix(16, 32, seed=33)
        twin = gaussian_matrix(16, 32, seed=33)  # equal entries, other object
        r = np.random.default_rng(34).normal(size=16)
        estimate_sinusoid(phi, r)
        first = estimator._cache[(0.0, math.pi)]
        estimate_sinusoid(phi, r, freq_tol=1e-6)
        assert estimator._cache[(0.0, math.pi)] is first
        assert first[0].size == 33
        estimate_sinusoid(twin, r)
        assert estimator._cache_phi is twin
        assert estimator._cache[(0.0, math.pi)] is not first

    def test_flagship_recover_cold_equals_warm(self, monkeypatch):
        truth = draw_model(3, 128, math.pi / 128, preset="freq", seed=35)
        phi = gaussian_matrix(64, 128, seed=36)
        m = measure(phi, synthesize(truth))
        estimator._cache.clear()
        warm = recover(phi, m, RecoveryConfig(k=3))

        def cold_estimate(*args, **kwargs):
            estimator._cache.clear()
            return estimate_sinusoid(*args, **kwargs)

        monkeypatch.setattr(recovery, "estimate_sinusoid", cold_estimate)
        cold = recover(phi, m, RecoveryConfig(k=3))
        for f in dataclasses.fields(RecoveryResult):
            if f.name != "signal":
                assert getattr(warm, f.name) == getattr(cold, f.name), f.name
        assert warm.signal.tobytes() == cold.signal.tobytes()

    def test_capacity_bounded(self):
        phi = gaussian_matrix(16, 32, seed=37)
        rng = np.random.default_rng(38)
        estimator._cache.clear()
        brackets = set()
        for r in rng.normal(size=(10, 16)):
            brackets.update(estimate_sinusoid(phi, r).bracket_history[:-1])
            assert len(estimator._cache) <= estimator._CACHE_SIZE
        assert estimator._CACHE_SIZE == 16
        assert len(brackets) > estimator._CACHE_SIZE
        assert len(estimator._cache) == estimator._CACHE_SIZE

    def test_full_band_kept_through_k3_recover(self):
        truth = draw_model(3, 128, math.pi / 128, preset="freq", seed=39)
        phi = gaussian_matrix(64, 128, seed=40)
        m = measure(phi, synthesize(truth))
        estimator._cache.clear()
        estimate_sinusoid(phi, m.values)
        full_band = estimator._cache[(0.0, math.pi)]
        # the recover visits far more than 16 brackets; the entry every call
        # touches must never be evicted and rebuilt
        recover(phi, m, RecoveryConfig(k=3))
        assert estimator._cache_phi is phi
        assert estimator._cache[(0.0, math.pi)] is full_band

    def test_cached_arrays_read_only(self):
        phi = gaussian_matrix(16, 32, seed=41)
        estimate_sinusoid(phi, np.random.default_rng(42).normal(size=16))
        for omegas, tables in estimator._cache.values():
            for a in (omegas, *tables):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 0.0


class TestAmplitudeLs:
    def test_exact_representation(self):
        atoms = build_atoms(identity_phi(4), math.pi / 2)  # orthogonal columns
        r = 2.0 * atoms[:, 0] + 3.0 * atoms[:, 1]
        a1, a2, s = amplitude_ls(atoms, r)
        assert a1 == pytest.approx(2.0, abs=1e-12)
        assert a2 == pytest.approx(3.0, abs=1e-12)
        assert s < 1e-24

    def test_orthogonal_residual(self):
        # exact quarter-period atoms, hand-written so orthogonality is exact
        atoms = np.array([[1.0, 0.0], [0.0, -1.0], [-1.0, 0.0], [0.0, 1.0]])
        r = np.array([1.0, 0.0, 1.0, 0.0])  # orthogonal to both columns
        a1, a2, s = amplitude_ls(atoms, r)
        assert a1 == 0.0 and a2 == 0.0
        assert s == float(r @ r)

    def test_matches_lstsq_oracle(self):
        # factorization oracle: generic least squares via np.linalg.lstsq
        rng = np.random.default_rng(3)
        phi = gaussian_matrix(20, 40, seed=4)
        for omega in (0.3, 1.1, 2.9):
            atoms = build_atoms(phi, omega)
            r = rng.normal(size=20)
            a1, a2, s = amplitude_ls(atoms, r)
            ref, _, _, _ = np.linalg.lstsq(atoms, r, rcond=None)
            assert a1 == pytest.approx(ref[0], rel=1e-9)
            assert a2 == pytest.approx(ref[1], rel=1e-9)
            ref_resid = r - atoms @ ref
            assert s == pytest.approx(float(ref_resid @ ref_resid), rel=1e-9)

    def test_degenerate_pair_falls_back_to_rank_one(self):
        # omega = 0 kills the sine column; solution must live on the cosine
        phi = gaussian_matrix(10, 16, seed=5)
        atoms = build_atoms(phi, 0.0)
        r = 1.5 * atoms[:, 1]
        a1, a2, s = amplitude_ls(atoms, r)
        assert a1 == 0.0
        assert a2 == pytest.approx(1.5, rel=1e-12)
        assert s < 1e-20

    def test_residual_never_exceeds_input_energy(self):
        rng = np.random.default_rng(6)
        phi = gaussian_matrix(12, 30, seed=7)
        for _ in range(50):
            atoms = build_atoms(phi, rng.uniform(0.0, math.pi))
            r = rng.normal(size=12)
            _, _, s = amplitude_ls(atoms, r)
            assert s <= float(r @ r) * (1.0 + 1e-12)


class TestEstimateSinusoid:
    def test_identity_matrix_single_tone(self):
        phi = identity_phi(128)
        sin_w, _ = sinusoid_samples(0.7, 128)
        out = estimate_sinusoid(phi, sin_w)
        assert out.params.omega == pytest.approx(0.7, abs=1e-6)
        assert out.params.amplitude == pytest.approx(1.0, abs=1e-6)
        assert out.params.phase == pytest.approx(0.0, abs=1e-6)

    def test_gaussian_matrix_reaches_machine_floor(self):
        phi = gaussian_matrix(64, 128, seed=8)
        model = SignalModel((SinusoidParams(1.9, 1.3, 0.4),), 128)
        r = measure(phi, synthesize(model)).values
        out = estimate_sinusoid(phi, r)
        assert out.residual_sq < 1e-12 * float(r @ r)
        assert out.params.omega == pytest.approx(1.9, abs=1e-6)
        assert out.params.amplitude == pytest.approx(1.3, abs=1e-6)
        assert out.params.phase == pytest.approx(0.4, abs=1e-6)

    def test_returned_s_is_amplitude_ls_at_returned_omega(self):
        phi = gaussian_matrix(32, 64, seed=9)
        r = np.random.default_rng(10).normal(size=32)
        out = estimate_sinusoid(phi, r)
        _, _, s = amplitude_ls(build_atoms(phi, out.params.omega), r)
        assert out.residual_sq == s

    def test_normal_equation_optimality(self):
        rng = np.random.default_rng(11)
        phi = gaussian_matrix(48, 96, seed=12)
        for _ in range(10):
            r = rng.normal(size=48)
            out = estimate_sinusoid(phi, r)
            atoms = build_atoms(phi, out.params.omega)
            a1 = out.params.amplitude * math.cos(out.params.phase)
            a2 = out.params.amplitude * math.sin(out.params.phase)
            grad = atoms.T @ (r - atoms @ np.array([a1, a2]))
            assert np.linalg.norm(grad) / np.linalg.norm(r) < 1e-9

    def test_best_s_history_non_increasing(self):
        phi = gaussian_matrix(40, 80, seed=13)
        r = np.random.default_rng(14).normal(size=40)
        out = estimate_sinusoid(phi, r)
        hist = out.best_s_history
        assert all(hist[i + 1] <= hist[i] for i in range(len(hist) - 1))

    def test_bracket_invariants(self):
        phi = gaussian_matrix(40, 80, seed=15)
        rng = np.random.default_rng(16)
        grid_points = 80
        for _ in range(10):
            r = rng.normal(size=40)
            out = estimate_sinusoid(phi, r)
            widths = [b - a for a, b in out.bracket_history]
            for w_prev, w_next in zip(widths, widths[1:]):
                assert w_next <= w_prev
                assert w_next <= 2.0 * w_prev / grid_points + 1e-15
            for a, b in out.bracket_history:
                assert a - 1e-15 <= out.params.omega <= b + 1e-15

    def test_final_bracket_meets_freq_tol(self):
        phi = gaussian_matrix(24, 48, seed=17)
        r = np.random.default_rng(18).normal(size=24)
        out = estimate_sinusoid(phi, r, freq_tol=1e-8)
        a, b = out.bracket_history[-1]
        assert b - a < 1e-8

    def test_refinement_round_bound(self):
        # ceil(log(pi/tol) / log(grid/2)) rounds suffice with the defaults
        phi = gaussian_matrix(24, 48, seed=19)
        r = np.random.default_rng(20).normal(size=24)
        out = estimate_sinusoid(phi, r, freq_tol=1e-8)
        bound = math.ceil(math.log(math.pi / 1e-8) / math.log(48 / 2)) + 1
        assert out.refinements_used <= bound

    def test_zero_residual_rejected(self):
        phi = gaussian_matrix(8, 16, seed=21)
        with pytest.raises(ValueError):
            estimate_sinusoid(phi, np.zeros(8))

    def test_low_index_tie_break(self):
        # a symmetric two-point grid cannot occur with real atoms, but equal
        # S values must keep the lowest grid index: on this residual the
        # round-1 nodes 0, pi/4, 3pi/4 and pi all attain S = 1
        phi = identity_phi(4)
        r = np.array([1.0, 0.0, 1.0, 0.0])
        out = estimate_sinusoid(phi, r)
        assert out.best_s_history[0] == pytest.approx(1.0, abs=1e-12)
        # node 0 won round 1: the bracket contracted to its neighbors [0, pi/4]
        assert out.bracket_history[1] == (0.0, math.pi / 4)
        assert out.params.omega <= math.pi / 4


class TestEstimatorConfigValidation:
    """Entry checks on the estimator's inputs: grid size, freq_tol, atom pair shape."""

    def test_bad_grid(self):
        # the refinement grid has N + 1 nodes and needs N >= 2
        with pytest.raises(ValueError, match="N >= 2"):
            estimate_sinusoid(identity_phi(1), np.ones(1))

    def test_bad_tol(self):
        phi = gaussian_matrix(8, 16, seed=24)
        r = np.random.default_rng(25).normal(size=8)
        for tol in (0.0, -1e-8, math.nan, math.inf):
            with pytest.raises(ValueError, match="freq_tol"):
                estimate_sinusoid(phi, r, freq_tol=tol)

    def test_atom_pair_shape_checked(self):
        with pytest.raises(ValueError):
            amplitude_ls(np.zeros((4, 3)), np.ones(4))
        with pytest.raises(ValueError):
            amplitude_ls(np.zeros((4, 2)), np.ones(5))
