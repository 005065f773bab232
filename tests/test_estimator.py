"""Tests for the single-sinusoid estimator: closed-form amplitudes and the
grid-plus-Newton frequency search."""

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
from cstones.sensing import (
    SUBSAMPLING,
    SensingMatrix,
    gaussian_matrix,
    measure,
    subsampling_matrix,
)


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
    """The directly evaluated atom table against the per-frequency reference."""

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
            assert err <= 1e-15 * scale, (n, bracket, k, err)


class TestDftAtoms:
    """The real-FFT table of a uniform DFT grid against the direct reference."""

    @pytest.mark.parametrize("n", [1, 2, 7, 128, 256])
    @pytest.mark.parametrize("factor", [2, 5])
    def test_matches_direct_sinusoid_samples(self, n, factor):
        phi = gaussian_matrix(max(1, n // 2), n, seed=n)
        length = factor * n
        omegas, atoms = estimator._dft_atoms(phi.entries, length)
        assert atoms.shape == (phi.m_rows, length // 2 + 1, 2)
        scale = np.max(np.abs(phi.entries)) * n
        for k in range(length // 2 + 1):
            sin_w, cos_w = sinusoid_samples(float(omegas[k]), n)
            ref = np.stack((phi.entries @ cos_w, phi.entries @ sin_w), axis=-1)
            err = np.max(np.abs(atoms[:, k, :] - ref))
            assert err <= 1e-12 * scale, (n, length, k, err)
        # the sine plane vanishes exactly at 0 and, for an even length, at pi
        assert np.all(atoms[:, 0, 1] == 0.0)
        if length % 2 == 0:
            assert np.all(atoms[:, -1, 1] == 0.0)

    @pytest.mark.parametrize("length", [2, 3, 35, 50, 100, 255, 640, 1280])
    def test_bins_stay_in_band(self, length):
        # 50 * (2 pi / 100) rounds past pi: the top even-length bin is pi itself
        omegas, _ = estimator._dft_atoms(np.zeros((1, 1)), length)
        bins = 2.0 * math.pi * np.arange(omegas.size) / length
        np.testing.assert_allclose(omegas, bins, rtol=1e-15)
        assert omegas[0] == 0.0 and np.all(np.diff(omegas) > 0.0) and omegas[-1] <= math.pi
        if length % 2 == 0:
            assert omegas[-1] == math.pi

    @pytest.mark.parametrize("n", [25, 75])
    def test_full_band_nodes_are_the_linspace(self, n):
        # k * (2 pi / 2N) misses pi at these N; the band's top node is pi itself
        omegas, _, _ = estimator._full_band(gaussian_matrix(8, n, seed=n))
        np.testing.assert_array_equal(omegas, np.linspace(0.0, math.pi, n + 1))

    def test_full_band_nodes_are_the_2n_point_bins(self):
        phi = gaussian_matrix(32, 64, seed=47)
        omegas, q0, q1 = estimator._full_band(phi)
        np.testing.assert_allclose(omegas, np.pi * np.arange(65) / 64, rtol=0.0, atol=1e-15)
        ref0, ref1 = estimator._orthonormal_pairs(estimator._measured_atoms(phi.entries, omegas))
        np.testing.assert_allclose(q0, ref0, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(q1, ref1, rtol=0.0, atol=1e-12)


def gram_ratio(w):
    """det / trace^2 of each pair's Gram in the M x C x 2 atoms ``w``, 0 for a
    zero pair."""
    v, u = w[..., 0], w[..., 1]
    gvv, guv, guu = (np.einsum("ij,ij->j", x, y) for x, y in ((v, v), (u, v), (u, u)))
    trace_sq = np.square(gvv + guu)
    det = gvv * guu - guv * guv
    return np.divide(det, trace_sq, out=np.zeros_like(det), where=trace_sq > 0)


class TestOrthonormalPairs:
    """The one pair basis the estimator rounds, the grid oracle's float64
    stage and BOMP score against."""

    @pytest.mark.parametrize(
        "phi", [gaussian_matrix(32, 64, seed=43), identity_phi(64)], ids=["gaussian", "identity"]
    )
    def test_grid_round_matches_per_node_reference(self, phi):
        r, _, bracket, errors = estimator._grid_round(
            phi, np.random.default_rng(44).normal(size=phi.m_rows)
        )
        omegas, _, _ = estimator._full_band(phi)
        ref = np.array([amplitude_ls(build_atoms(phi, float(w)), r)[2] for w in omegas])
        # the best node and both neighbours, each scored as the reference does
        j = int(np.argmin(ref))
        assert bracket == (omegas[max(j - 1, 0)], omegas[j], omegas[min(j + 1, phi.n_cols)])
        np.testing.assert_allclose(
            errors, ref[np.searchsorted(omegas, bracket)], rtol=1e-9, atol=1e-12 * float(r @ r)
        )

    @pytest.mark.parametrize(
        "phi",
        [gaussian_matrix(64, 128, seed=48), subsampling_matrix(64, 256, seed=49), identity_phi(32)],
        ids=["gaussian", "subsampling", "identity"],
    )
    def test_grid_round_picks_direct_form_argmin(self, phi):
        # the captured-energy round must pick the node a direct-form scan of
        # every node picks, on random residuals and on noiseless tones both
        # off the grid and on it, where s is near zero at the node
        omegas, q0, q1 = estimator._full_band(phi)
        rng = np.random.default_rng(50)
        residuals = list(rng.normal(size=(40, phi.m_rows)))
        tones = np.concatenate((rng.uniform(0.0, math.pi, 40), omegas[1:-1:5]))
        residuals += [build_atoms(phi, float(w)) @ rng.normal(size=2) for w in tones]
        for r in residuals:
            r, _, bracket, errors = estimator._grid_round(phi, r)
            full = r[:, None] - q0 * (q0.T @ r) - q1 * (q1.T @ r)
            direct = np.einsum("ij,ij->j", full, full)
            j = int(np.argmin(direct))
            assert bracket == (omegas[max(j - 1, 0)], omegas[j], omegas[min(j + 1, phi.n_cols)])
            for node, s in zip(np.searchsorted(omegas, bracket), errors):
                assert s == pytest.approx(direct[node], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "phi", [gaussian_matrix(32, 64, seed=45), identity_phi(64)], ids=["gaussian", "identity"]
    )
    def test_regular_nodes_orthonormal_endpoints_rank_one(self, phi):
        omegas = np.linspace(0.0, math.pi, phi.n_cols + 1)
        w = estimator._measured_atoms(phi.entries, omegas)
        q0, q1 = estimator._orthonormal_pairs(w)
        assert q0.shape == q1.shape == (phi.m_rows, omegas.size)
        for k in range(1, omegas.size - 1):
            q = np.column_stack((q0[:, k], q1[:, k]))
            np.testing.assert_allclose(q.T @ q, np.eye(2), rtol=0.0, atol=1e-12)
        # at 0 and pi the sine column vanishes: the basis is the unit cosine column
        for k in (0, omegas.size - 1):
            assert np.all(q1[:, k] == 0.0)
            cos_col = w[:, k, 0]
            np.testing.assert_allclose(q0[:, k], cos_col / np.linalg.norm(cos_col), atol=1e-12)
        # the Gram ratio det / trace^2 is what sorts the two kinds
        ratio = gram_ratio(w)
        assert np.all(ratio[1:-1] > estimator._GRAM_DET_TOL)
        assert ratio[0] <= estimator._GRAM_DET_TOL and ratio[-1] <= estimator._GRAM_DET_TOL

    @pytest.mark.parametrize("m", [1, 3])
    def test_degenerate_pairs_match_per_pair_loop(self, m):
        # the array pick of each degenerate pair's dominant column equals,
        # bit for bit, a loop over the pairs that divides by math.sqrt
        w = np.random.default_rng(53).normal(size=(m, 80, 2))
        w[:, 0::4, 1] = 0.0  # the sine column vanishes, as at 0 and pi
        w[:, 1::4, 1] = 3.0 * w[:, 1::4, 0]  # the sine column dominates
        w[:, 2::4, 0] = 0.5 * w[:, 2::4, 1]
        w[:, 3::8] = 0.0  # a zero pair gains nothing
        q0, q1 = estimator._orthonormal_pairs(w)
        v, u = np.ascontiguousarray(w[..., 0]), np.ascontiguousarray(w[..., 1])
        gvv, guu = np.einsum("ij,ij->j", v, v), np.einsum("ij,ij->j", u, u)
        degenerate = np.flatnonzero(gram_ratio(w) <= estimator._GRAM_DET_TOL)
        assert degenerate.size >= 40, degenerate.size
        for idx in degenerate:
            g, col = (guu[idx], u[:, idx]) if guu[idx] >= gvv[idx] else (gvv[idx], v[:, idx])
            want = col / math.sqrt(g) if g > 0 else np.zeros_like(col)
            assert q0[:, idx].tobytes() == want.tobytes(), idx
            assert not q1[:, idx].any()


# The two per-matrix tables: the full band, read by the grid round, and the
# derivative operator, read by the Newton step and the polish.
CACHES = (estimator._full_band, estimator._derivative_operator)


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


class TestRoundTableCache:
    """The cached per-matrix tables, each holding the most recent matrix."""

    def test_warm_call_equals_cold_call(self):
        phi = gaussian_matrix(32, 64, seed=31)
        rng = np.random.default_rng(32)
        r_warmup, r = rng.normal(size=(2, 32))
        clear_caches()
        cold = estimate_sinusoid(phi, r)
        clear_caches()
        estimate_sinusoid(phi, r_warmup)
        hits = [cache.cache_info().hits for cache in CACHES]
        entries = [cache(phi) for cache in CACHES]
        # the entries are phi's
        assert [cache.cache_info().hits for cache in CACHES] == [h + 1 for h in hits]
        warm = estimate_sinusoid(phi, r)
        for cache, entry in zip(CACHES, entries):
            assert cache(phi) is entry
        for f in dataclasses.fields(EstimateOutcome):
            assert getattr(warm, f.name) == getattr(cold, f.name), f.name

    def test_keyed_on_matrix_identity_and_grid(self):
        phi = gaussian_matrix(16, 32, seed=33)
        twin = gaussian_matrix(16, 32, seed=33)  # equal entries, other object
        r, r_other = np.random.default_rng(34).normal(size=(2, 16))
        clear_caches()
        estimate_sinusoid(phi, r)
        first = [cache(phi) for cache in CACHES]
        estimate_sinusoid(phi, r_other)
        for cache, entry in zip(CACHES, first):
            assert cache(phi) is entry
            assert cache.cache_info().misses == 1
        (omegas, _, _), stacked = first
        assert omegas.size == 33 and omegas[0] == 0.0 and omegas[-1] == math.pi
        t = np.arange(1.0, 33.0)
        np.testing.assert_array_equal(
            stacked, np.concatenate((phi.entries, phi.entries * t, phi.entries * (t * t)))
        )
        estimate_sinusoid(twin, r)
        for cache, entry in zip(CACHES, first):
            assert cache.cache_info().misses == 2
            assert cache(twin) is not entry
            assert cache.cache_info().currsize == 1

    def test_flagship_recover_cold_equals_warm(self, monkeypatch):
        truth = draw_model(3, 128, math.pi / 128, preset="freq", seed=35)
        phi = gaussian_matrix(64, 128, seed=36)
        m = measure(phi, synthesize(truth))
        clear_caches()
        warm = recover(phi, m, RecoveryConfig(k=3))

        budgets = []

        def cold_estimate(*args, **kwargs):
            clear_caches()
            budgets.append(kwargs.get("newton_steps"))
            return estimate_sinusoid(*args, **kwargs)

        monkeypatch.setattr(recovery, "estimate_sinusoid", cold_estimate)
        cold = recover(phi, m, RecoveryConfig(k=3))
        # every warm-up visit went through the wrapper, with its step budget
        assert budgets == [recovery._WARMUP_NEWTON_STEPS] * (3 * cold.sweeps_used)
        for f in dataclasses.fields(RecoveryResult):
            if f.name != "signal":
                assert getattr(warm, f.name) == getattr(cold, f.name), f.name
        assert warm.signal.tobytes() == cold.signal.tobytes()

    def test_full_band_kept_through_k3_recover(self):
        truth = draw_model(3, 128, math.pi / 128, preset="freq", seed=39)
        phi = gaussian_matrix(64, 128, seed=40)
        m = measure(phi, synthesize(truth))
        estimate_sinusoid(phi, m.values)
        entries = [cache(phi) for cache in CACHES]
        misses = [cache.cache_info().misses for cache in CACHES]
        # every estimate, confirming grid round and polish of the recover
        # reuses both entries, never rebuilding one
        result = recover(phi, m, RecoveryConfig(k=3))
        assert result.stop_reason == "polished"
        assert [cache.cache_info().misses for cache in CACHES] == misses
        for cache, entry in zip(CACHES, entries):
            assert cache(phi) is entry

    def test_cached_arrays_read_only(self):
        phi = gaussian_matrix(16, 32, seed=41)
        estimate_sinusoid(phi, np.random.default_rng(42).normal(size=16))
        omegas, q0, q1 = estimator._full_band(phi)
        stacked = estimator._derivative_operator(phi)
        assert stacked.shape == (3 * 16, 32)
        for a in (omegas, q0, q1, stacked):
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
        # rows at t = 1, 3, 5, 7 and omega = pi / 2: now the cosine column
        # is rounding noise, and the solution must live on the sine
        entries = np.zeros((4, 8))
        entries[np.arange(4), [0, 2, 4, 6]] = 1.0
        atoms = build_atoms(SensingMatrix(entries, SUBSAMPLING, 0), math.pi / 2)
        a1, a2, s = amplitude_ls(atoms, np.array([1.0, -2.0, 0.5, 3.0]))
        assert (a1, a2) == (0.125, 0.0)
        assert s == pytest.approx(14.1875, rel=1e-12)

    def test_residual_never_exceeds_input_energy(self):
        rng = np.random.default_rng(6)
        phi = gaussian_matrix(12, 30, seed=7)
        for _ in range(50):
            atoms = build_atoms(phi, rng.uniform(0.0, math.pi))
            r = rng.normal(size=12)
            _, _, s = amplitude_ls(atoms, r)
            assert s <= float(r @ r) * (1.0 + 1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, bad):
        # a non-finite residual or atom would otherwise fit to (nan, nan, nan)
        atoms = build_atoms(gaussian_matrix(8, 16, seed=8), 0.9)
        r = np.random.default_rng(9).normal(size=8)
        bad_r = r.copy()
        bad_r[2] = bad
        bad_atoms = atoms.copy()
        bad_atoms[4, 1] = bad
        for a, res in ((atoms, bad_r), (bad_atoms, r)):
            with pytest.raises(ValueError, match="finite"):
                amplitude_ls(a, res)


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
        out = estimate_sinusoid(phi, r)
        a, b = out.bracket_history[-1]
        assert b - a < estimator._FREQ_TOL

    def test_refinement_round_bound(self):
        # ceil(log(pi/tol) / log(grid/2)) rounds suffice with the defaults
        phi = gaussian_matrix(24, 48, seed=19)
        r = np.random.default_rng(20).normal(size=24)
        out = estimate_sinusoid(phi, r)
        bound = math.ceil(math.log(math.pi / estimator._FREQ_TOL) / math.log(48 / 2)) + 1
        assert out.refinements_used <= bound

    @pytest.mark.parametrize(
        "omega",
        [0.2 * math.pi / 128, 0.5 * math.pi / 128, math.pi - 0.2 * math.pi / 128,
         math.pi - 0.5 * math.pi / 128],
        ids=["0.2-above-0", "0.5-above-0", "0.2-below-pi", "0.5-below-pi"],
    )
    def test_band_edge_tone_polished(self, omega):
        # round 1 picks a node at or next to a band end; from an end node,
        # whose pair is degenerate, the Newton polish must still run
        phi = gaussian_matrix(64, 128, seed=46)
        r = measure(phi, synthesize(SignalModel((SinusoidParams(omega, 1.0, 0.3),), 128))).values
        out = estimate_sinusoid(phi, r)
        assert abs(out.params.omega - omega) < 1e-9
        assert out.residual_sq < 1e-12 * float(r @ r)

    def test_degenerate_point_ends_the_search(self):
        # this pure-noise residual's fit keeps improving toward omega = 0;
        # the Newton steps reach the degenerate zone there and must stop at
        # once rather than bisect against its edge (17 extra steps)
        phi = gaussian_matrix(64, 128, seed=202)
        r = np.random.default_rng(303).normal(size=(200, 64))[160]
        out = estimate_sinusoid(phi, r)
        assert out.refinements_used <= 9
        stacked = estimator._derivative_operator(phi)
        assert math.isfinite(estimator._s_derivatives(stacked, r, out.params.omega)[0])
        assert out.residual_sq <= out.best_s_history[0]
        a, b = out.bracket_history[-1]
        assert a <= out.params.omega <= b

    def test_newton_point_left_behind_resets_to_a_bracket_end(self):
        # the last Newton point in the bracket falls outside it once later
        # steps shrink the bracket past it (just below pi here), so the
        # polished frequency moves to the bracket end of lower s
        phi = gaussian_matrix(8, 64, seed=206)
        out = estimate_sinusoid(phi, np.random.default_rng(206).normal(size=8))
        a, b = out.bracket_history[-1]
        assert a <= out.params.omega <= b

    @pytest.mark.parametrize("jitter_seed", [1, 2, 3, 4, 5])
    def test_newton_point_past_band_end_is_mirrored(self, jitter_seed):
        # s is even about omega = 0, so on the residual above the Newton
        # point from 9e-7 targets 0 and lands on either side of it by
        # rounding; mirrored into the band it ends the search the same way
        # for residuals that differ only in the last digits
        phi = gaussian_matrix(64, 128, seed=202)
        r = np.random.default_rng(303).normal(size=(200, 64))[160]
        r = r * (1.0 + 1e-15 * np.random.default_rng(jitter_seed).normal(size=64))
        assert estimate_sinusoid(phi, r).refinements_used <= 9

    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_newton_step_budget(self, steps):
        phi = gaussian_matrix(48, 96, seed=22)
        rng = np.random.default_rng(23)
        tone = SignalModel((SinusoidParams(1.234567, 1.0, 0.3),), 96)
        residuals = [measure(phi, synthesize(tone)).values] + list(rng.normal(size=(10, 48)))
        cut_short = 0
        for r in residuals:
            out = estimate_sinusoid(phi, r, newton_steps=steps)
            assert out.refinements_used <= 1 + steps
            a, b = out.bracket_history[-1]
            assert a <= out.params.omega <= b
            _, _, s = amplitude_ls(build_atoms(phi, out.params.omega), r)
            assert out.residual_sq == s
            assert out.residual_sq <= out.best_s_history[0]
            full = estimate_sinusoid(phi, r)
            if full.refinements_used > 1 + steps:
                cut_short += 1
                assert out.refinements_used == 1 + steps
                assert out.best_s_history == full.best_s_history[: 1 + steps]
        assert cut_short >= 5  # the budget, not the bracket width, ended most searches

    @pytest.mark.parametrize("steps", [0, -1, 2.5, True, False])
    def test_bad_newton_step_budget_rejected(self, steps):
        phi = gaussian_matrix(8, 16, seed=24)
        with pytest.raises(ValueError, match="newton_steps"):
            estimate_sinusoid(phi, np.ones(8), newton_steps=steps)

    def test_explicit_none_is_the_default(self):
        phi = gaussian_matrix(40, 80, seed=25)
        for r in np.random.default_rng(26).normal(size=(5, 40)):
            assert estimate_sinusoid(phi, r, newton_steps=None) == estimate_sinusoid(phi, r)

    def test_zero_residual_rejected(self):
        phi = gaussian_matrix(8, 16, seed=21)
        with pytest.raises(ValueError):
            estimate_sinusoid(phi, np.zeros(8))

    @pytest.mark.parametrize("shape", [(7,), (8, 1)])
    def test_residual_not_of_length_m_rejected(self, shape):
        phi = gaussian_matrix(8, 16, seed=21)
        with pytest.raises(ValueError, match="residual length"):
            estimate_sinusoid(phi, np.ones(shape))

    @pytest.mark.filterwarnings("error")  # rejected before any arithmetic warns
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_residual_rejected(self, bad):
        phi = gaussian_matrix(8, 16, seed=21)
        r = np.random.default_rng(22).normal(size=8)
        r[3] = bad
        with pytest.raises(ValueError, match="finite"):
            estimate_sinusoid(phi, r)

    @pytest.mark.filterwarnings("ignore:overflow encountered in ldexp:RuntimeWarning")
    @pytest.mark.parametrize(
        "scale", [1e200, 1e-200, 2.0**664, 2.0**-664], ids=["1e200", "1e-200", "2^664", "2^-664"]
    )
    def test_extreme_scale_same_frequency(self, scale):
        # unscaled, 1e200 overflowed the grid round's energies (omega 5e-324)
        # and 1e-200 underflowed r . r and was refused as zero
        phi = gaussian_matrix(16, 32, seed=23)
        r = build_atoms(phi, 1.0) @ np.array([0.8, -0.3])
        base = estimate_sinusoid(phi, r)
        out = estimate_sinusoid(phi, scale * r)
        if math.frexp(scale)[0] == 0.5:  # a power of two: the same search exactly
            assert out.params.omega == base.params.omega
        else:
            assert out.params.omega == pytest.approx(base.params.omega, abs=1e-12)
        assert out.params.amplitude == pytest.approx(scale * base.params.amplitude, rel=1e-12)
        assert out.params.phase == pytest.approx(base.params.phase, abs=1e-12)

    def test_strided_view_same_outcome_as_contiguous_copy(self):
        # criterion 1's fixture passes the columns of an M x 100 array; BLAS
        # sums a strided view in another order than a contiguous vector
        phi = gaussian_matrix(64, 128, seed=101)
        residuals = np.empty((64, 100))
        for i in range(100):
            model = draw_model(1, 128, math.pi / 128, "sinu", seed=7000 + i)
            residuals[:, i] = measure(phi, synthesize(model)).values
        for i in range(100):
            view = residuals[:, i]
            assert estimate_sinusoid(phi, view) == estimate_sinusoid(phi, view.copy()), i

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


class TestSDerivatives:
    """The Newton step's s, s', s'' against amplitude_ls and central differences."""

    @pytest.mark.parametrize(
        "phi", [gaussian_matrix(32, 64, seed=47), identity_phi(64)], ids=["gaussian", "identity"]
    )
    @pytest.mark.parametrize("noise", [0.0, 0.3], ids=["noiseless", "noisy"])
    def test_matches_central_differences(self, phi, noise):
        truth = 1.234
        x = synthesize(SignalModel((SinusoidParams(truth, 1.0, 0.7),), 64))
        rng = np.random.default_rng(48)
        r = measure(phi, x).values + noise * rng.normal(size=phi.m_rows)

        def s_ref(w):
            return amplitude_ls(build_atoms(phi, w), r)[2]

        scale = float(r @ r)
        h = 1e-5
        stacked = estimator._derivative_operator(phi)
        for w in (0.3, truth - 0.02, truth + 0.003, 2.9):
            s, d1, d2 = estimator._s_derivatives(stacked, r, w)
            lo, mid, hi = s_ref(w - h), s_ref(w), s_ref(w + h)
            assert s == pytest.approx(mid, rel=1e-10, abs=1e-14 * scale)
            assert d1 == pytest.approx((hi - lo) / (2 * h), rel=1e-5, abs=1e-6 * scale * 64)
            assert d2 == pytest.approx((hi - 2 * mid + lo) / h**2, rel=1e-5, abs=1e-5 * scale * 64**2)


def six_column_s_derivatives(phi_entries, r, omega):
    """s, s', s'' from Phi times the six t-weighted sin/cos columns and 2x2
    arrays, and the size of the terms each sums: |s|, 2 ||e|| ||A'x|| and
    2 (||A'x||^2 + ||e|| ||A''x|| + |c^T G^-1 c|)."""
    t = np.arange(1, phi_entries.shape[1] + 1, dtype=float)
    sin_w, cos_w = sinusoid_samples(omega, t.size)
    cols = np.column_stack((sin_w, cos_w, t * cos_w, -t * sin_w, -t * t * sin_w, -t * t * cos_w))
    a, da, d2a = np.hsplit(phi_entries @ cols, 3)
    (g00, g01), (_, g11) = a.T @ a
    g_inv = np.array([[g11, -g01], [-g01, g00]]) / (g00 * g11 - g01 * g01)
    x = g_inv @ (a.T @ r)
    e = r - a @ x
    v = da @ x
    w = d2a @ x
    c = da.T @ e - a.T @ v
    c_g_c = c @ g_inv @ c
    norm_e, norm_v, norm_w = (np.linalg.norm(z) for z in (e, v, w))
    values = (e @ e, -2.0 * (e @ v), 2.0 * (v @ v - e @ w - c_g_c))
    sizes = (e @ e, 2.0 * norm_e * norm_v, 2.0 * (norm_v**2 + norm_e * norm_w + abs(c_g_c)))
    return np.array(values), np.array(sizes)


@pytest.mark.parametrize(
    "phi", [gaussian_matrix(64, 128, seed=49), identity_phi(128)], ids=["gaussian", "identity"]
)
def test_stacked_s_derivatives_match_six_column_reference(phi):
    # the cached operator's row slices give the same s, s', s'' as the
    # six-column product at random residuals and frequencies.  s' and s''
    # are sums of terms that cancel, so each is compared relative to the
    # size of its terms: a near-zero s' differs by rounding in any order
    rng = np.random.default_rng(50)
    stacked = estimator._derivative_operator(phi)
    for _ in range(200):
        r = rng.normal(size=phi.m_rows)
        w = float(rng.uniform(0.01, math.pi - 0.01))
        got = np.array(estimator._s_derivatives(stacked, r, w))
        ref, sizes = six_column_s_derivatives(phi.entries, r, w)
        assert np.all(np.abs(got - ref) <= 1e-12 * sizes), (w, got, ref)


class TestEstimatorConfigValidation:
    """Entry checks on the estimator's inputs: grid size and atom pair shape."""

    def test_bad_grid(self):
        # the refinement grid has N + 1 nodes and needs N >= 2
        with pytest.raises(ValueError, match="N >= 2"):
            estimate_sinusoid(identity_phi(1), np.ones(1))

    def test_atom_pair_shape_checked(self):
        with pytest.raises(ValueError):
            amplitude_ls(np.zeros((4, 3)), np.ones(4))
        with pytest.raises(ValueError):
            amplitude_ls(np.zeros((4, 2)), np.ones(5))
