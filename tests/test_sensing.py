"""Tests for sensing matrix construction and the measurement operation."""

import numpy as np
import pytest

from cstones.sensing import (
    GAUSSIAN,
    SUBSAMPLING,
    Measurement,
    SensingMatrix,
    gaussian_matrix,
    matrix_from_kind,
    measure,
    subsampling_matrix,
)


class TestGaussianMatrix:
    def test_deterministic_per_seed(self):
        a = gaussian_matrix(64, 128, seed=1)
        b = gaussian_matrix(64, 128, seed=1)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_entry_moments(self):
        # moment-statistics oracle over the 64*128 entries of one draw
        phi = gaussian_matrix(64, 128, seed=7)
        entries = phi.entries.ravel()
        sigma_mean = (1.0 / 8.0) / np.sqrt(entries.size)
        assert abs(entries.mean()) < 3.0 * sigma_mean
        assert abs(entries.var() - 1.0 / 64.0) < 0.1 / 64.0

    def test_scalar_case_matches_direct_draw(self):
        # variance parameter is 1/m = 1: identical to a unit normal draw
        phi = gaussian_matrix(1, 1, seed=5)
        expected = np.random.default_rng(5).normal(0.0, 1.0, size=(1, 1))
        np.testing.assert_array_equal(phi.entries, expected)

    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            gaussian_matrix(10, 5, seed=0)


class TestSubsamplingMatrix:
    def test_square_is_permutation(self):
        phi = subsampling_matrix(8, 8, seed=3)
        x = np.arange(1.0, 9.0)
        y = measure(phi, x).values
        assert sorted(y) == sorted(x)
        # each row and column exactly one unit entry
        assert np.all(phi.entries.sum(axis=0) == 1)
        assert np.all(phi.entries.sum(axis=1) == 1)

    def test_picks_distinct_samples(self):
        phi = subsampling_matrix(3, 8, seed=11)
        x = np.arange(1.0, 9.0)
        y = measure(phi, x).values
        assert len(set(y)) == 3
        assert set(y) <= set(x)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 5), (5, 5), (7, 20)])
    def test_columns_have_at_most_one_nonzero(self, m, n):
        phi = subsampling_matrix(m, n, seed=m * 31 + n)
        nonzeros_per_col = np.count_nonzero(phi.entries, axis=0)
        assert np.all(nonzeros_per_col <= 1)

    def test_deterministic_per_seed(self):
        a = subsampling_matrix(5, 12, seed=4)
        b = subsampling_matrix(5, 12, seed=4)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_structure_validated_on_construction(self):
        bad = np.zeros((2, 4))
        bad[0, 0] = 1.0
        bad[1, 0] = 1.0  # duplicate selection
        with pytest.raises(ValueError, match="^subsampling rows must select distinct samples$"):
            SensingMatrix(entries=bad, kind=SUBSAMPLING, seed=0)

    @pytest.mark.parametrize(
        "row,value",
        [(2, [1.0, 0.0, 0.0, 1.0, 0.0]), (1, [0.0, 2.0, 0.0, 0.0, 0.0]), (3, [0.0] * 5)],
        ids=["two-nonzeros", "holds-2.0", "all-zero"],
    )
    def test_first_bad_row_named(self, row, value):
        entries = subsampling_matrix(4, 5, seed=6).entries.copy()
        entries[row] = value
        if row < 3:  # a later bad row must not be the one named
            entries[3] = 0.0
        message = rf"^subsampling row {row} is not a standard basis vector$"
        with pytest.raises(ValueError, match=message):
            SensingMatrix(entries=entries, kind=SUBSAMPLING, seed=0)

    def test_check_matches_row_loop_reference(self):
        rng = np.random.default_rng(8)
        verdicts = set()
        for trial in range(300):
            entries = subsampling_matrix(6, 9, seed=trial).entries.copy()
            for _ in range(rng.integers(0, 3)):
                entries[rng.integers(6), rng.integers(9)] = rng.choice([0.0, 1.0, 2.0, -1.0])
            if rng.random() < 0.3:
                entries[rng.integers(6)] = entries[rng.integers(6)]
            expected = _row_loop_verdict(entries)
            verdicts.add(expected)
            if expected is None:
                SensingMatrix(entries=entries, kind=SUBSAMPLING, seed=0)
            else:
                with pytest.raises(ValueError) as info:
                    SensingMatrix(entries=entries, kind=SUBSAMPLING, seed=0)
                assert str(info.value) == expected
        assert len(verdicts) >= 5  # valid, distinctness and several named rows


def _row_loop_verdict(entries):
    """The error the row-by-row subsampling check raises, or None."""
    selected = []
    for i, row in enumerate(entries):
        nz = np.nonzero(row)[0]
        if nz.size != 1 or row[nz[0]] != 1.0:
            return f"subsampling row {i} is not a standard basis vector"
        selected.append(int(nz[0]))
    if len(set(selected)) != len(selected):
        return "subsampling rows must select distinct samples"
    return None


class TestMeasure:
    def test_identity_returns_signal(self):
        phi = SensingMatrix(entries=np.eye(6), kind=SUBSAMPLING, seed=0)
        x = np.linspace(-1.0, 1.0, 6)
        np.testing.assert_array_equal(measure(phi, x).values, x)

    def test_hand_worked_2x2(self):
        phi = SensingMatrix(entries=np.array([[1.0, 1.0], [1.0, -1.0]]), kind=GAUSSIAN, seed=0)
        np.testing.assert_array_equal(measure(phi, np.array([3.0, 1.0])).values, [4.0, 2.0])

    def test_matches_naive_triple_loop(self):
        phi = gaussian_matrix(16, 32, seed=9)
        rng = np.random.default_rng(10)
        x = rng.normal(size=32)
        naive = np.zeros(16)
        for i in range(16):
            acc = 0.0
            for j in range(32):
                acc += phi.entries[i, j] * x[j]
            naive[i] = acc
        np.testing.assert_allclose(measure(phi, x).values, naive, rtol=1e-12)

    def test_linearity(self):
        phi = gaussian_matrix(16, 32, seed=13)
        rng = np.random.default_rng(14)
        x, y = rng.normal(size=32), rng.normal(size=32)
        a, b = 2.5, -0.75
        combined = measure(phi, a * x + b * y).values
        separate = a * measure(phi, x).values + b * measure(phi, y).values
        np.testing.assert_allclose(combined, separate, rtol=1e-12, atol=1e-12)

    def test_subsampling_preserves_values_exactly(self):
        phi = subsampling_matrix(10, 64, seed=21)
        x = np.random.default_rng(22).normal(size=64)
        y = measure(phi, x).values
        selected = phi.entries.argmax(axis=1)
        np.testing.assert_array_equal(y, x[selected])

    def test_dimension_mismatch_rejected(self):
        phi = gaussian_matrix(4, 8, seed=0)
        with pytest.raises(ValueError):
            measure(phi, np.ones(7))


class TestImmutability:
    def test_entries_are_read_only(self):
        phi = gaussian_matrix(4, 8, seed=0)
        with pytest.raises(ValueError):
            phi.entries[0, 0] = 1.0

    def test_measurement_values_read_only(self):
        meas = Measurement(values=np.ones(3))
        with pytest.raises(ValueError):
            meas.values[0] = 2.0


class TestIdentity:
    def test_distinct_matrices_compare_unequal(self):
        # equal entries, two objects: identity decides, and nothing raises
        phi, twin = gaussian_matrix(4, 8, seed=3), gaussian_matrix(4, 8, seed=3)
        assert phi == phi and phi != twin
        assert len({phi, twin, phi}) == 2

    def test_distinct_measurements_compare_unequal(self):
        meas, twin = Measurement(values=np.ones(3)), Measurement(values=np.ones(3))
        assert meas == meas and meas != twin
        assert len({meas, twin, meas}) == 2


class TestProvenance:
    def test_regenerable_from_tuple(self):
        phi = gaussian_matrix(12, 24, seed=42)
        again = matrix_from_kind(**phi.provenance())
        np.testing.assert_array_equal(phi.entries, again.entries)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_kind("fourier", 4, 8, 0)


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_measurement(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Measurement(values=np.array([1.0, bad, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_sensing_matrix(self, bad):
        entries = np.random.default_rng(0).normal(size=(3, 6))
        entries[1, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            SensingMatrix(entries=entries, kind=GAUSSIAN, seed=0)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: SensingMatrix(entries=np.ones(4), kind=GAUSSIAN, seed=0), "2-D"),
        (lambda: SensingMatrix(entries=np.ones((3, 2)), kind=GAUSSIAN, seed=0), "m <= n"),
        (lambda: SensingMatrix(entries=np.ones((2, 3)), kind="fourier", seed=0), "unknown"),
        (lambda: Measurement(values=np.ones((2, 2))), "1-D"),
    ],
    ids=["entries_1d", "tall", "unknown_kind", "values_2d"],
)
def test_malformed_construction_rejected(build, match):
    with pytest.raises(ValueError, match=match):
        build()
