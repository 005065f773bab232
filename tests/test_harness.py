"""Tests for the Monte Carlo harness: metrics, matching, sweeps, serialization."""

import dataclasses
import itertools
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cstones.harness import (
    CSV_HEADER,
    METHOD_BOMP,
    METHOD_MDS,
    METHOD_ORACLE,
    ExperimentSpec,
    match_frequencies,
    normalized_l2_error,
    run_experiment,
    write_csv,
    write_summary_json,
    write_svg,
)


class TestNormalizedL2Error:
    def test_exact_estimate(self):
        x = np.array([1.0, 2.0, 3.0])
        assert normalized_l2_error(x, x) == 0.0

    def test_zero_estimate(self):
        x = np.array([1.0, 2.0, 3.0])
        assert normalized_l2_error(x, np.zeros(3)) == 1.0

    def test_doubled_estimate(self):
        x = np.array([1.0, -2.0, 0.5])
        assert normalized_l2_error(x, 2.0 * x) == pytest.approx(1.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            normalized_l2_error(np.zeros(3), np.ones(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            normalized_l2_error(np.ones(3), np.ones(4))


class TestMatchFrequencies:
    def test_permuted_identical_sets(self):
        truth = [0.3, 1.1, 2.0]
        estimate = [2.0, 0.3, 1.1]
        _, errors = match_frequencies(truth, estimate)
        assert sum(errors) == 0.0

    def test_hand_worked_pairing(self):
        pairs, errors = match_frequencies([0.5, 1.0], [1.01, 0.49])
        assert pairs == ((0, 1), (1, 0))
        assert sum(errors) == pytest.approx(0.02)

    def test_matches_brute_force_over_permutations(self):
        rng = np.random.default_rng(1)
        cases = [rng.uniform(0.1, 3.0, size=(2, 3)) for _ in range(20)]
        # ties: every estimate on one side of every truth (each pairing then
        # costs the same), and repeated values on either side
        cases += [
            ([2.0, 2.5, 3.0], [0.1, 0.7, 0.4]),
            ([0.1, 0.2, 0.3], [2.9, 1.5, 2.2]),
            ([1.0, 1.0, 2.0], [1.5, 0.5, 1.0]),
            ([0.5, 2.5, 1.5], [1.2, 1.2, 1.2]),
            ([0.9, 0.9, 0.9], [0.9, 0.3, 0.9]),
        ]
        for truth, estimate in cases:
            truth, estimate = np.asarray(truth), np.asarray(estimate)
            pairs, errors = match_frequencies(truth, estimate)
            assert [i for i, _ in pairs] == [0, 1, 2]
            assert sorted(j for _, j in pairs) == [0, 1, 2]
            assert errors == tuple(abs(truth[i] - estimate[j]) for i, j in pairs)
            brute = min(
                sum(abs(t - estimate[j]) for t, j in zip(truth, perm))
                for perm in itertools.permutations(range(3))
            )
            assert sum(errors) == pytest.approx(brute, rel=1e-12)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            match_frequencies([0.5], [0.5, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            match_frequencies([0.5, 1.0], [bad, 1.0])


def small_spec(**overrides):
    base = dict(
        sweep_axis="m",
        sweep_values=(16.0, 24.0),
        n=32,
        k=2,
        trials=3,
        base_seed=17,
        methods=(METHOD_MDS, METHOD_ORACLE),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_unsorted_values_rejected(self):
        with pytest.raises(ValueError):
            small_spec(sweep_values=(24.0, 16.0))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            small_spec(methods=("mds", "sdp"))

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            small_spec(sweep_axis="epsilon")

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(k=17),  # 2k > n = 32
            dict(sweep_values=(0.0, 16.0)),
            dict(sweep_values=(16.0, 33.0)),
            dict(sweep_axis="snr", sweep_values=(10.0,), fixed_m=0),
            dict(sweep_axis="snr", sweep_values=(10.0,), fixed_m=33),
            dict(sweep_values=(16.0, 16.0)),
            dict(sweep_values=(16.5,)),
            dict(sweep_axis="snr", sweep_values=(math.nan,), fixed_m=16),
            dict(fixed_snr_db=math.nan),
            dict(min_sep=math.nan),
            dict(min_sep=-1.0),
            dict(min_sep=2.0),
            dict(preset="chirp"),
            dict(sweep_values=()),
            dict(trials=0),
            dict(matrix_kind="fourier"),
        ],
        ids=[
            "2k_over_n", "m_zero", "m_over_n", "snr_fixed_m_zero", "snr_fixed_m_over_n",
            "repeated_values", "m_not_integral", "snr_nan", "fixed_snr_nan",
            "min_sep_nan", "min_sep_negative", "min_sep_infeasible", "unknown_preset",
            "no_values", "trials_zero", "unknown_matrix_kind",
        ],
    )
    def test_spec_no_trial_can_run_rejected(self, overrides):
        with pytest.raises(ValueError):
            small_spec(**overrides)

    def test_spec_edges_accepted(self):
        small_spec(k=16, sweep_values=(1.0, 32.0))
        # fixed_m is unused on the m axis, the sweep values on the snr axis
        small_spec(fixed_m=64)
        small_spec(sweep_axis="snr", sweep_values=(-10.0, 100.0), fixed_m=32)

    def test_spec_round_trips_to_dict(self):
        d = small_spec().to_dict()
        assert d["sweep_values"] == [16.0, 24.0]
        assert "recovery" not in d

    def test_to_dict_lists_every_field_and_the_resolved_gap(self):
        spec = small_spec()
        d = spec.to_dict()
        assert list(d) == [f.name for f in dataclasses.fields(ExperimentSpec)]
        assert d["methods"] == list(spec.methods)
        assert d["min_sep"] == math.pi / spec.n
        assert small_spec(min_sep=0.25).to_dict()["min_sep"] == 0.25

    @pytest.mark.parametrize("min_sep", [None, 0.25])
    def test_to_dict_rebuilds_the_same_spec(self, min_sep):
        # a summary JSON's "spec" block reruns the identical experiment
        spec = small_spec(min_sep=min_sep, fixed_snr_db=20.0)
        assert ExperimentSpec(**spec.to_dict()) == spec
        assert ExperimentSpec(**json.loads(json.dumps(spec.to_dict()))) == spec


class TestRunExperiment:
    def test_single_trial_mean_equals_row(self):
        # identity-like settings: square (m = n) subsampling matrix, one trial
        spec = small_spec(
            sweep_values=(32.0,),
            matrix_kind="subsampling",
            trials=1,
        )
        result = run_experiment(spec)
        for meth in spec.methods:
            rows = [r for r in result.rows if r.method == meth]
            assert len(rows) == 1
            assert result.summary["32"][meth]["mean_error"] == rows[0].nl2_error

    def test_row_count_and_order(self):
        spec = small_spec()
        result = run_experiment(spec)
        assert len(result.rows) == 2 * 2 * 3
        keys = [(r.sweep_value, r.method, r.trial) for r in result.rows]
        expected = [
            (v, meth, t)
            for v in spec.sweep_values
            for meth in spec.methods
            for t in range(spec.trials)
        ]
        assert keys == expected

    def test_first_trials_unchanged_when_extending(self):
        result3 = run_experiment(small_spec(trials=3))
        result4 = run_experiment(small_spec(trials=4))
        rows3 = {(r.sweep_value, r.method, r.trial): r for r in result3.rows}
        for key, row in rows3.items():
            other = next(
                r
                for r in result4.rows
                if (r.sweep_value, r.method, r.trial) == key
            )
            assert other.nl2_error == row.nl2_error
            assert other.seed == row.seed

    def test_mean_matches_stored_rows(self):
        spec = small_spec()
        result = run_experiment(spec)
        for v in spec.sweep_values:
            for meth in spec.methods:
                errs = [
                    r.nl2_error
                    for r in result.rows
                    if r.sweep_value == v and r.method == meth
                ]
                times = [
                    r.time_s
                    for r in result.rows
                    if r.sweep_value == v and r.method == meth
                ]
                key = repr(int(v))
                assert result.summary[key][meth]["mean_error"] == pytest.approx(
                    float(np.mean(errs))
                )
                assert result.summary[key][meth]["median_time_s"] == float(np.median(times))

    def test_failed_trials_score_one_and_never_abort(self):
        # oracle needs 2k <= M; M = 2 makes it fail on every trial
        spec = small_spec(sweep_values=(2.0, 24.0), methods=(METHOD_ORACLE,), k=2)
        result = run_experiment(spec)
        failed = [r for r in result.rows if r.sweep_value == 2.0]
        assert len(failed) == spec.trials
        assert all(r.nl2_error == 1.0 for r in failed)
        assert all(math.isnan(r.freq_err_total) for r in failed)
        assert all(r.error == "ValueError" for r in failed)
        healthy = [r for r in result.rows if r.sweep_value == 24.0]
        assert all(r.nl2_error < 1.0 for r in healthy)
        assert all(r.error == "" for r in healthy)
        assert result.summary["2"][METHOD_ORACLE]["failures"] == spec.trials
        assert result.summary["24"][METHOD_ORACLE]["failures"] == 0

    def test_snr_axis(self):
        spec = small_spec(
            sweep_axis="snr",
            sweep_values=(10.0, 40.0),
            fixed_m=24,
            methods=(METHOD_MDS,),
        )
        result = run_experiment(spec)
        assert len(result.rows) == 2 * 3
        mean10 = result.summary["10"][METHOD_MDS]["mean_error"]
        mean40 = result.summary["40"][METHOD_MDS]["mean_error"]
        assert mean40 < mean10

    def test_parallel_matches_serial(self):
        spec = small_spec()
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=2)
        for a, b in zip(serial.rows, parallel.rows):
            assert (a.sweep_value, a.method, a.trial) == (b.sweep_value, b.method, b.trial)
            assert a.nl2_error == b.nl2_error
            assert a.freq_errors == b.freq_errors


class TestSerialization:
    def setup_method(self):
        self.spec = small_spec(methods=(METHOD_MDS, METHOD_ORACLE, METHOD_BOMP))
        self.result = run_experiment(self.spec)

    def test_csv_header_and_shape(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(self.result, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert CSV_HEADER == "sweep_value,method,trial,seed,nl2_error,freq_err_total,error,time_s"
        assert len(lines) == 1 + len(self.result.rows)
        # a successful row leaves the error column empty
        assert all(line.split(",")[-2] == "" for line in lines[1:])

    def test_csv_identical_across_reruns_excluding_time(self, tmp_path):
        write_csv(self.result, str(tmp_path / "a.csv"))
        write_csv(run_experiment(self.spec), str(tmp_path / "b.csv"))

        def strip_time(path):
            return [
                ",".join(line.split(",")[:-1])
                for line in path.read_text().splitlines()
            ]

        assert strip_time(tmp_path / "a.csv") == strip_time(tmp_path / "b.csv")

    def test_summary_json_echoes_spec(self, tmp_path):
        path = tmp_path / "out.json"
        write_summary_json(self.result, str(path))
        payload = json.loads(path.read_text())
        assert payload["spec"]["trials"] == self.spec.trials
        assert payload["spec"]["methods"] == list(self.spec.methods)
        assert "metadata" in payload

    def test_svg_is_wellformed_with_one_polyline_per_method(self, tmp_path):
        path = tmp_path / "out.svg"
        write_svg(self.result, str(path))
        root = ET.fromstring(path.read_text())
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == len(self.spec.methods)

    def test_svg_of_a_flat_series_gets_a_unit_y_range(self, tmp_path):
        # every mean error 1.0 puts every point at log10 = 0
        summary = {
            key: {meth: {**cell, "mean_error": 1.0} for meth, cell in cells.items()}
            for key, cells in self.result.summary.items()
        }
        path = tmp_path / "flat.svg"
        write_svg(dataclasses.replace(self.result, summary=summary), str(path))
        root = ET.fromstring(path.read_text())
        ys = {
            float(point.split(",")[1])
            for e in root.iter() if e.tag.endswith("polyline")
            for point in e.get("points").split()
        }
        assert len(ys) == 1 and math.isfinite(ys.pop())

    def test_failed_rename_removes_its_temp_file(self, tmp_path):
        target = tmp_path / "out.csv"
        target.mkdir()  # the rename onto a directory fails
        with pytest.raises(OSError):
            write_csv(self.result, str(target))
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert target.is_dir()
