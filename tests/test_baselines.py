"""Tests for the reference recoverers and the dense grid oracle."""

import math

import numpy as np
import pytest

from cstones import baselines, estimator
from cstones.baselines import bomp_recover, grid_oracle_batch, oracle_ls
from cstones.estimator import amplitude_ls, build_atoms, estimate_sinusoid
from cstones.model import SignalModel, SinusoidParams, draw_model, sinusoid_samples, synthesize
from cstones.recovery import RecoveryConfig, recover
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


def bomp_nodes(c, n):
    """The bins of the c*N-point DFT in [0, pi], as ``_dft_atoms`` returns them."""
    return estimator._dft_atoms(np.zeros((1, n)), c * n)[0]


def record_calls(monkeypatch, name):
    """Wrap ``baselines.<name>`` so that every call's (args, result) is kept."""
    calls, fn = [], getattr(baselines, name)

    def wrapper(*args):
        out = fn(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(baselines, name, wrapper)
    return calls


def assert_series_within_remainder(n, step, table, powers):
    # in float64, each centre's series table_c @ powers is exp(i w t) at its
    # group of nodes j * step within 2^-26, the bound its order is chosen by
    order, width = powers.shape
    groups = table.reshape(n, -1, order) @ powers
    direct = estimator._cis(step * np.arange(groups.shape[1] * width), n)
    assert np.max(np.abs(groups.reshape(n, -1) - direct)) <= 2.0**-26


class TestBompCandidateGrid:
    @pytest.mark.parametrize("c, n", [(5, 128), (3, 32), (5, 7)])
    def test_count_spacing_and_endpoint(self, c, n):
        cand = bomp_nodes(c, n)
        assert cand.size == c * n // 2 + 1
        assert cand[0] == 0.0
        np.testing.assert_allclose(np.diff(cand), 2.0 * math.pi / (c * n), rtol=1e-12)
        assert cand[-1] <= math.pi
        assert cand[-1] + 2.0 * math.pi / (c * n) > math.pi

    @pytest.mark.parametrize("n", [1, 7, 32, 128, 256])
    def test_fft_table_rows_are_the_candidates(self, n):
        # BOMP reads its table off one real FFT of length 5N: atom i must sit
        # at cand[i], to the kernel test's bound
        phi = gaussian_matrix(max(1, n // 2), n, seed=n)
        cand, w = estimator._dft_atoms(phi.entries, 5 * n)
        assert w.shape == (phi.m_rows, cand.size, 2)
        ref = estimator._measured_atoms(phi.entries, cand)
        scale = np.max(np.abs(phi.entries)) * n
        assert np.max(np.abs(w - ref)) <= 1e-12 * scale


class TestRedundantDftFrame:
    """The c-times redundant DFT frame BOMP searches, as its real [0, pi] half."""

    def test_atom_count_and_spacing(self):
        cand = bomp_nodes(5, 128)
        # The full frame has cN = 640 atoms; the real half keeps cN/2 + 1 of them.
        assert 2 * (cand.size - 1) == 640
        np.testing.assert_allclose(np.diff(cand), 2.0 * math.pi / 640, rtol=1e-12)

    def test_real_candidates_cover_half_circle(self):
        cand = bomp_nodes(5, 128)
        assert cand[0] == 0.0
        assert cand[-1] == pytest.approx(math.pi)
        assert cand.size == 321  # cN/2 + 1


class TestGridOracle:
    def test_on_grid_tone_identity_matrix(self):
        phi = identity_phi(64)
        grid_size = 1001
        omegas = np.linspace(0.0, math.pi, grid_size)
        target = float(omegas[400])
        sin_w, _ = sinusoid_samples(target, 64)
        omega, s = grid_oracle_batch(phi, sin_w[:, None], grid_size)
        assert omega[0] == target
        assert s[0] < 1e-18

    def test_exhaustive_full_scan(self):
        # invariant: no grid index attains a smaller error than the returned one
        phi = gaussian_matrix(16, 32, seed=1)
        r = np.random.default_rng(2).normal(size=16)
        grid_size = 257
        _, s = grid_oracle_batch(phi, r[:, None], grid_size)
        scan = []
        for w in np.linspace(0.0, math.pi, grid_size):
            _, _, s_w = amplitude_ls(build_atoms(phi, float(w)), r)
            scan.append(s_w)
        assert s[0] <= min(scan) + 1e-12 * float(r @ r)

    def test_million_point_resolution(self):
        phi = gaussian_matrix(64, 128, seed=3)
        model = SignalModel((SinusoidParams(1.23456789, 1.0, 0.2),), 128)
        r = measure(phi, synthesize(model)).values
        omega, _ = grid_oracle_batch(phi, r[:, None], 1_000_000)
        assert abs(omega[0] - 1.23456789) <= math.pi / 1_000_000

    def test_zero_residual_rejected(self):
        with pytest.raises(ValueError):
            grid_oracle_batch(gaussian_matrix(4, 8, seed=0), np.zeros((4, 1)), 100)

    @pytest.mark.parametrize(
        "shape, grid_size, match",
        [((4, 1), 1, "grid_size"), ((4,), 100, "M x B"), ((3, 2), 100, "M x B")],
        ids=["grid_size_1", "residuals_1d", "wrong_m"],
    )
    def test_malformed_call_rejected(self, shape, grid_size, match):
        with pytest.raises(ValueError, match=match):
            grid_oracle_batch(gaussian_matrix(4, 8, seed=0), np.ones(shape), grid_size)

    @pytest.mark.filterwarnings("error")  # rejected before any arithmetic warns
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_residual_rejected(self, bad):
        residuals = np.ones((4, 2))
        residuals[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            grid_oracle_batch(gaussian_matrix(4, 8, seed=0), residuals, 100)

    def test_batch_matches_single(self):
        # each column of a batch scans exactly as it would on its own
        phi = gaussian_matrix(24, 48, seed=4)
        rng = np.random.default_rng(5)
        residuals = rng.normal(size=(24, 3))
        omegas, s_vals = grid_oracle_batch(phi, residuals, 2001)
        for col in range(3):
            w, s = grid_oracle_batch(phi, residuals[:, [col]], 2001)
            assert omegas[col] == w[0]
            assert s_vals[col] == s[0]

    def test_batch_matches_direct_trig_brute_force(self):
        phi = gaussian_matrix(12, 20, seed=6)
        residuals = np.random.default_rng(7).normal(size=(12, 4))
        t = np.arange(1, 21, dtype=float)
        # the larger grid adds a full and a partial rotated chunk past the first
        for grid_size in (301, 2 * baselines._SCAN_CHUNK + 301):
            grid = np.linspace(0.0, math.pi, grid_size)
            sin_t = phi.entries @ np.sin(np.outer(t, grid))
            cos_t = phi.entries @ np.cos(np.outer(t, grid))
            omegas, s_vals = grid_oracle_batch(phi, residuals, grid_size)
            for col in range(residuals.shape[1]):
                r = residuals[:, col]
                scan = []
                for i in range(grid_size):
                    a = np.column_stack((sin_t[:, i], cos_t[:, i]))
                    coef = np.linalg.lstsq(a, r, rcond=None)[0]
                    scan.append(float(np.sum((r - a @ coef) ** 2)))
                best = int(np.argmin(scan))
                assert omegas[col] == grid[best], (grid_size, col)
                assert s_vals[col] == pytest.approx(scan[best], rel=1e-9)

    @pytest.mark.parametrize("omega", [0.0, math.pi])
    def test_degenerate_endpoint_rank_one_identity(self, omega):
        # at omega in {0, pi} the sine column vanishes: only the rank-1
        # branch can score the endpoint, and it must win for cos(omega t)
        phi = identity_phi(8)
        _, cos_w = sinusoid_samples(omega, 8)
        noise = 0.01 * np.random.default_rng(8).normal(size=8)
        omegas, s_vals = grid_oracle_batch(phi, (1.5 * cos_w + noise)[:, None], 65)
        assert omegas[0] == omega
        expected = float(noise @ noise) - float(noise @ cos_w) ** 2 / float(cos_w @ cos_w)
        assert s_vals[0] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("omega", [0.0, math.pi])
    @pytest.mark.parametrize(
        "phi", [identity_phi(8), gaussian_matrix(16, 32, seed=1)], ids=["eye8", "gauss16x32"]
    )
    def test_band_end_tone_one_node_last_chunk(self, phi, omega):
        # 2 * _SCAN_CHUNK + 1 nodes leave node pi alone in the last chunk
        _, cos_w = sinusoid_samples(omega, phi.n_cols)
        r = phi.entries @ (1.5 * cos_w)
        omegas, s_vals = grid_oracle_batch(phi, r[:, None], 2 * baselines._SCAN_CHUNK + 1)
        assert omegas[0] == omega
        assert s_vals[0] <= 1e-24 * float(r @ r)

    @pytest.mark.filterwarnings("ignore:overflow encountered in ldexp:RuntimeWarning")
    @pytest.mark.parametrize(
        "scale", [1e200, 1e-200, 2.0**300, 2.0**-300], ids=["1e200", "1e-200", "2^300", "2^-300"]
    )
    def test_extreme_scale_same_node(self, scale):
        # unscaled, 1e200 overflowed the gain squares (omega 0, s inf)
        phi = gaussian_matrix(16, 32, seed=1)
        noise = 1e-3 * np.random.default_rng(9).normal(size=16)
        r = build_atoms(phi, 1.0) @ np.array([0.8, -0.3]) + noise
        base_omega, base_s = grid_oracle_batch(phi, r[:, None], 1001)
        omega, s = grid_oracle_batch(phi, scale * r[:, None], 1001)
        assert omega[0] == base_omega[0]
        expected = float(base_s[0]) * scale * scale  # inf at 1e200 and 0 at 1e-200, as floats round
        if math.frexp(scale)[0] == 0.5:  # a power of two: exactly scaled
            assert s[0] == expected
        else:
            assert s[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "phi, grid_size",
        [
            (gaussian_matrix(12, 20, seed=6), 1325),
            (gaussian_matrix(16, 32, seed=1), 1325),
            (gaussian_matrix(64, 128, seed=3), 1325),
            (gaussian_matrix(64, 256, seed=14), 1325),
            (subsampling_matrix(32, 64, seed=15), 1325),
            (subsampling_matrix(64, 256, seed=16), 1325),
            # fine grids: 32 nodes per centre at h N = 0.06, and 128 at h N = 1
            (gaussian_matrix(12, 16, seed=24), 13_001),
            (gaussian_matrix(16, 128, seed=25), 25_536),
        ],
        ids=[
            "gauss12x20", "gauss16x32", "gauss64x128", "gauss64x256", "sub32x64", "sub64x256",
            "gauss12x16_fine", "gauss16x128_fine",
        ],
    )
    def test_float32_stage_error_and_kept_set(self, phi, grid_size, monkeypatch):
        # the float32 energies the scan scores against: within a hundredth of
        # the slack of float64 wherever the pair is well conditioned, and the
        # nodes rescored in float64 always hold each column's float64 argmax
        rng = np.random.default_rng(17)
        tones = [build_atoms(phi, w) @ rng.normal(size=2) for w in rng.uniform(0.0, math.pi, 12)]
        residuals = np.column_stack([*rng.normal(size=(12, phi.m_rows)), *tones])
        plans = record_calls(monkeypatch, "_scan_series")
        pair_calls = record_calls(monkeypatch, "_orthonormal_pairs")
        atom_calls = record_calls(monkeypatch, "_measured_atoms")
        omegas, _ = grid_oracle_batch(phi, residuals, grid_size)
        (args, (table, powers)), = plans
        assert_series_within_remainder(*args[:2], table, powers)
        bases32 = [out for (w,), out in pair_calls if w.dtype == np.float32]
        kept = [nodes for (_, nodes), _ in atom_calls]

        scaled = np.ldexp(residuals, -np.frexp(np.max(np.abs(residuals), axis=0))[1])
        grid = np.linspace(0.0, math.pi, grid_size)
        q0, q1, _ = estimator._orthonormal_pairs(estimator._measured_atoms(phi.entries, grid))
        gain64 = np.square(scaled.T @ q0) + np.square(scaled.T @ q1)
        r32 = np.ascontiguousarray(scaled.T, dtype=np.float32)
        bound = baselines._F32_GAIN_SLACK / 100 * np.einsum("ij,ij->j", scaled, scaled)
        # the first float32 call scores the spread nodes that seed each best,
        # the others the chunks of the grid
        spread = slice(None, None, -(-grid_size // baselines._SCAN_CHUNK))
        for bases, ref in (([bases32[0]], gain64[:, spread]), (bases32[1:], gain64)):
            gain32 = np.hstack([np.square(r32 @ p0) + np.square(r32 @ p1) for p0, p1, _ in bases])
            well = np.concatenate([ratio for _, _, ratio in bases]) > baselines._F32_GRAM_RATIO
            assert gain32.shape == ref.shape
            assert np.all(np.abs(gain32 - ref)[:, well] <= bound[:, None])
        best = np.argmax(gain64, axis=1)
        assert max(nodes.size for nodes in kept) <= 2 * baselines._SCAN_CHUNK - 1
        kept = np.concatenate(kept)  # frequencies, not indices
        assert np.all(np.isin(grid[best], kept))
        assert np.all(np.isin(grid[~well], kept))  # ill-conditioned: always rescored
        np.testing.assert_array_equal(omegas, grid[best])

    @pytest.mark.parametrize(
        "phi, grid_size, width, order",
        [
            # h N = 1 - 5e-6: twelve terms
            (gaussian_matrix(8, 128, seed=20), 25_536, 128, 12),
            # one node per centre: the series is direct evaluation
            (gaussian_matrix(16, 64, seed=21), 129, 1, 1),
            # h N = 1 - 2e-5; 0 opens the first chunk and pi ends the last
            # one, 5 nodes into its last group
            (subsampling_matrix(16, 64, seed=22), 1509, 16, 12),
        ],
        ids=["fine", "coarse", "band_ends"],
    )
    def test_series_atoms_within_float32_rounding(self, phi, grid_size, width, order, monkeypatch):
        # the float32 atoms every chunk scores, against float64 direct
        # evaluation at the same nodes: within a few float32 roundings of
        # each row's sum |Phi|, after the scan's power-of-two scaling of Phi
        plans = record_calls(monkeypatch, "_scan_series")
        pair_calls = record_calls(monkeypatch, "_orthonormal_pairs")
        residuals = np.random.default_rng(23).normal(size=(phi.m_rows, 3))
        grid_oracle_batch(phi, residuals, grid_size)
        (args, (table, powers)), = plans
        assert powers.shape == (order, width)
        assert_series_within_remainder(*args[:2], table, powers)
        scored = [w for (w,), _ in pair_calls if w.dtype == np.float32][1:]  # [0]: the seed
        scored = np.concatenate(scored, axis=1).astype(float)
        entries = np.ldexp(phi.entries, -np.frexp(np.max(np.abs(phi.entries)))[1])
        direct = estimator._measured_atoms(entries, np.linspace(0.0, math.pi, grid_size))
        assert scored.shape == direct.shape
        err = np.max(np.abs(scored - direct), axis=(1, 2))
        assert np.all(err <= 16 * 2.0**-24 * np.sum(np.abs(entries), axis=1))

    @pytest.mark.filterwarnings("error")
    def test_single_row_every_pair_rank_one(self, monkeypatch):
        # with M = 1 every pair is rank-1, so every node captures all of r
        # and the lowest index wins; float32 rounding may call such a pair
        # regular and normalize 0 / 0, which must stay masked and silent.
        # Every node is rescored, still in batches of fewer than two chunks.
        batches, atoms = [], baselines._measured_atoms
        monkeypatch.setattr(
            baselines, "_measured_atoms", lambda e, w: batches.append(w.size) or atoms(e, w)
        )
        residuals = np.random.default_rng(19).normal(size=(1, 3))
        omegas, s_vals = grid_oracle_batch(gaussian_matrix(1, 8, seed=5), residuals, 2001)
        assert np.all(omegas == 0.0)
        assert np.all(s_vals <= 1e-30)
        assert sum(batches) == 2001
        assert max(batches) <= 2 * baselines._SCAN_CHUNK - 1

    def test_hundred_thousand_nodes_match_float64_reference(self):
        # tones inside the band and next to both ends, whose nearest nodes
        # are ill-conditioned float32 pairs, against a float64 scan of every node
        phi = gaussian_matrix(64, 128, seed=3)
        rng = np.random.default_rng(18)
        tones = (2e-5, 0.7, 1.9, 2.8, math.pi - 2e-5)
        residuals = np.column_stack([build_atoms(phi, w) @ rng.normal(size=2) for w in tones])
        grid = np.linspace(0.0, math.pi, 100_000)
        gain = np.empty((len(tones), grid.size))
        for start in range(0, grid.size, 4096):
            nodes = grid[start:start + 4096]
            q0, q1, _ = estimator._orthonormal_pairs(estimator._measured_atoms(phi.entries, nodes))
            gain[:, start:start + nodes.size] = np.square(residuals.T @ q0)
            gain[:, start:start + nodes.size] += np.square(residuals.T @ q1)
        omegas, _ = grid_oracle_batch(phi, residuals, grid.size)
        np.testing.assert_array_equal(omegas, grid[np.argmax(gain, axis=1)])

    def test_estimator_never_beaten_by_dense_grid(self):
        # anti-drift check on well-separated single-tone residuals
        for seed in range(5):
            phi = gaussian_matrix(32, 64, seed=seed)
            model = draw_model(1, 64, 0.1, "sinu", seed=seed + 10)
            r = measure(phi, synthesize(model)).values
            out = estimate_sinusoid(phi, r)
            _, s_grid = grid_oracle_batch(phi, r[:, None], 10 * 64)
            assert out.residual_sq <= s_grid[0] + 1e-12


class TestOracleLs:
    def test_noiseless_exact_recovery(self):
        truth = draw_model(3, 128, math.pi / 128, "sinu", seed=6)
        x = synthesize(truth)
        phi = gaussian_matrix(64, 128, seed=7)
        m = measure(phi, x)
        fitted = oracle_ls(phi, m, truth.frequencies)
        err = np.linalg.norm(x - synthesize(fitted)) / np.linalg.norm(x)
        assert err < 1e-8

    def test_k1_identity_reduces_to_amplitude_ls(self):
        phi = identity_phi(64)
        model = SignalModel((SinusoidParams(0.8, 1.4, 1.1),), 64)
        m = measure(phi, synthesize(model))
        fitted = oracle_ls(phi, m, [0.8])
        a1, a2, _ = amplitude_ls(build_atoms(phi, 0.8), m.values)
        comp = fitted.components[0]
        assert comp.amplitude == pytest.approx(math.hypot(a1, a2), rel=1e-9)
        assert comp.phase == pytest.approx(math.atan2(a2, a1), abs=1e-9)

    def test_residual_orthogonal_to_atoms(self):
        truth = draw_model(3, 128, math.pi / 128, "freq", seed=8)
        x = synthesize(truth)
        phi = gaussian_matrix(64, 128, seed=9)
        m = measure(phi, x)
        fitted = oracle_ls(phi, m, truth.frequencies)
        resid = m.values - phi.entries @ synthesize(fitted)
        for w in truth.frequencies:
            atoms = build_atoms(phi, w)
            proj = atoms.T @ resid
            assert np.linalg.norm(proj) / np.linalg.norm(m.values) < 1e-9

    def test_duplicate_frequencies_rejected(self):
        phi = gaussian_matrix(16, 32, seed=10)
        m = measure(phi, np.ones(32))
        with pytest.raises(ValueError):
            oracle_ls(phi, m, [0.5, 0.5])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, math.pi, 4.0, -0.5])
    def test_frequency_outside_band_rejected(self, bad):
        # SinusoidParams admits only (0, pi); a fit elsewhere cannot be reported
        phi = gaussian_matrix(16, 32, seed=10)
        m = measure(phi, np.ones(32))
        with pytest.raises(ValueError, match=r"\(0, pi\)"):
            oracle_ls(phi, m, [0.5, bad])

    def test_too_many_components_rejected(self):
        phi = gaussian_matrix(4, 32, seed=11)
        m = measure(phi, np.ones(32))
        with pytest.raises(ValueError):
            oracle_ls(phi, m, [0.5, 1.0, 1.5])

    def test_measurement_length_mismatch_rejected(self):
        phi = gaussian_matrix(16, 32, seed=10)
        with pytest.raises(ValueError, match="measurement length"):
            oracle_ls(phi, Measurement(values=np.ones(15)), [0.5])

    def test_no_frequencies_fit_the_empty_model(self):
        phi = gaussian_matrix(16, 32, seed=10)
        fitted = oracle_ls(phi, measure(phi, np.ones(32)), [])
        assert (fitted.components, fitted.n_samples) == ((), 32)

    def test_rank_deficient_stack_rejected(self):
        # at even t, cos((pi - w) t) = cos(w t) and sin((pi - w) t) =
        # -sin(w t): rows at t = 2, 4, 6, 8 cannot tell w from pi - w
        entries = np.zeros((4, 8))
        entries[np.arange(4), [1, 3, 5, 7]] = 1.0
        phi = SensingMatrix(entries=entries, kind=SUBSAMPLING, seed=0)
        with pytest.raises(ValueError, match="rank 2 < 4"):
            oracle_ls(phi, Measurement(values=np.ones(4)), [0.7, math.pi - 0.7])

    def test_dominates_greedy_recovery_under_noise(self):
        # genie-aided fit must beat the frequency-estimating recoverer on
        # average over paired noisy trials
        from cstones.model import NoiseSpec, add_noise

        oracle_errs, mds_errs = [], []
        for trial in range(30):
            truth = draw_model(3, 128, math.pi / 128, "freq", seed=300 + trial)
            s = synthesize(truth)
            x = add_noise(s, NoiseSpec(snr_db=20.0, seed=trial))
            phi = gaussian_matrix(64, 128, seed=400 + trial)
            m = measure(phi, x)
            fitted = oracle_ls(phi, m, truth.frequencies)
            oracle_errs.append(np.linalg.norm(x - synthesize(fitted)) / np.linalg.norm(x))
            rec = recover(phi, m, RecoveryConfig(k=3))
            mds_errs.append(np.linalg.norm(x - rec.signal) / np.linalg.norm(x))
        assert np.mean(oracle_errs) <= np.mean(mds_errs)


class TestBompRecover:
    def test_on_grid_tones_recovered_exactly(self):
        n = 128
        cand = bomp_nodes(5, n)
        idx = (40, 120, 200)  # distinct candidate grid points, well separated
        comps = tuple(SinusoidParams(float(cand[i]), 1.0, 0.0) for i in idx)
        truth = SignalModel(comps, n)
        x = synthesize(truth)
        phi = gaussian_matrix(64, n, seed=12)
        m = measure(phi, x)
        fitted = bomp_recover(phi, m, 3)
        err = np.linalg.norm(x - synthesize(fitted)) / np.linalg.norm(x)
        assert err < 1e-6

    def test_band_exclusion_enforced(self):
        truth = draw_model(3, 128, math.pi / 128, "freq", seed=13)
        phi = gaussian_matrix(64, 128, seed=14)
        m = measure(phi, synthesize(truth))
        fitted = bomp_recover(phi, m, 3)
        freqs = np.sort(fitted.frequencies)
        assert np.all(np.diff(freqs) >= math.pi / 128 - 1e-12)

    def test_off_grid_worse_than_greedy_recovery(self):
        bomp_errs, mds_errs = [], []
        for trial in range(20):
            truth = draw_model(3, 128, math.pi / 128, "freq", seed=500 + trial)
            x = synthesize(truth)
            phi = gaussian_matrix(64, 128, seed=600 + trial)
            m = measure(phi, x)
            fitted = bomp_recover(phi, m, 3)
            bomp_errs.append(np.linalg.norm(x - synthesize(fitted)) / np.linalg.norm(x))
            rec = recover(phi, m, RecoveryConfig(k=3))
            mds_errs.append(np.linalg.norm(x - rec.signal) / np.linalg.norm(x))
        assert np.mean(mds_errs) < np.mean(bomp_errs)
        # grid quantization floors the pursuit's error
        assert np.mean(bomp_errs) > 1e-4

    def test_zero_sparsity_empty_model(self):
        phi = gaussian_matrix(16, 32, seed=15)
        m = measure(phi, np.ones(32))
        fitted = bomp_recover(phi, m, 0)
        assert fitted.k == 0
        np.testing.assert_array_equal(synthesize(fitted), np.zeros(32))

    def test_config_validation(self):
        phi = gaussian_matrix(16, 32, seed=16)
        m = measure(phi, np.ones(32))
        with pytest.raises(ValueError, match="k must be >= 0"):
            bomp_recover(phi, m, -1)
        with pytest.raises(ValueError, match="length"):
            bomp_recover(phi, measure(gaussian_matrix(8, 32, seed=16), np.ones(32)), 1)

    @pytest.mark.parametrize("n", [8, 9, 32])
    def test_more_than_half_n_components_rejected_up_front(self, n):
        # the exclusion bands never exhaust the grid within N/2 picks, and a
        # model admits no more, so 2k > N is refused before any search
        phi = gaussian_matrix(n // 2, n, seed=17)
        m = measure(phi, np.random.default_rng(18).normal(size=n))
        assert bomp_recover(phi, m, n // 2).k == n // 2
        with pytest.raises(ValueError, match="2k <= n"):
            bomp_recover(phi, m, n // 2 + 1)
