"""End-to-end tests of the command-line interface and its exit codes."""

import json
import stat
import time

import numpy as np
import pytest

from cstones.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, _build_parser, main
from cstones.model import SignalModel


def run_cli(*argv):
    return main(list(argv))


class TestSynth:
    def test_writes_signal_and_model(self, tmp_path):
        sig = tmp_path / "signal.csv"
        mod = tmp_path / "model.json"
        code = run_cli(
            "synth", "--k", "3", "--n", "128", "--preset", "freq", "--seed", "7",
            "--out-signal", str(sig), "--out-model", str(mod),
        )
        assert code == EXIT_OK
        lines = sig.read_text().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 129
        record = json.loads(mod.read_text())
        model = SignalModel.from_dict(record)
        assert model.k == 3
        assert all(c.amplitude == 1.0 for c in model.components)

    def test_same_seed_byte_identical(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            sig = tmp_path / f"signal_{tag}.csv"
            mod = tmp_path / f"model_{tag}.json"
            run_cli(
                "synth", "--k", "2", "--n", "64", "--seed", "5",
                "--out-signal", str(sig), "--out-model", str(mod),
            )
            paths.append((sig, mod))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_zero_k_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(
                "synth", "--k", "0",
                "--out-signal", str(tmp_path / "s.csv"),
                "--out-model", str(tmp_path / "m.json"),
            )
        assert excinfo.value.code != 0

    @pytest.mark.parametrize("min_sep", ["nan", "0.9"])
    def test_unmeetable_separation_exits_2(self, tmp_path, capsys, min_sep):
        # 4 * 0.9 > pi: three tones cannot keep 0.9 from each other and the band ends
        code = run_cli(
            "synth", "--k", "3", "--n", "16", "--min-sep", min_sep,
            "--out-signal", str(tmp_path / "s.csv"),
            "--out-model", str(tmp_path / "m.json"),
        )
        assert code == EXIT_VALIDATION
        assert "error: infeasible separation" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.filterwarnings("ignore:underdetermined recovery")
    def test_tight_but_meetable_separation_runs_at_once(self, tmp_path):
        # 4 * 0.785 < pi: rejection sampling would accept one draw in ~1e9
        start = time.perf_counter()
        code = run_cli(
            "synth", "--k", "3", "--n", "16", "--min-sep", "0.785",
            "--out-signal", str(tmp_path / "s.csv"),
            "--out-model", str(tmp_path / "m.json"),
        )
        assert code == EXIT_OK
        model = SignalModel.from_json((tmp_path / "m.json").read_text())
        assert np.min(np.diff(model.frequencies)) >= 0.785
        code = run_cli(
            "sweep", "--k", "3", "--n", "16", "--values", "8", "--trials", "1",
            "--min-sep", "0.785", "--out-prefix", str(tmp_path / "sweep"),
        )
        assert code == EXIT_OK
        assert time.perf_counter() - start < 2.0

    def test_optional_measurement_output(self, tmp_path):
        meas = tmp_path / "meas.csv"
        code = run_cli(
            "synth", "--k", "3", "--n", "128", "--seed", "7",
            "--out-signal", str(tmp_path / "s.csv"),
            "--out-model", str(tmp_path / "m.json"),
            "--out-measurement", str(meas), "--m", "64", "--matrix-seed", "3",
        )
        assert code == EXIT_OK
        lines = meas.read_text().splitlines()
        assert lines[0] == "index,value"
        assert len(lines) == 65


class TestRecover:
    def make_fixture(self, tmp_path, m=64, k=3, seed=7):
        sig = tmp_path / "signal.csv"
        mod = tmp_path / "model.json"
        meas = tmp_path / "meas.csv"
        run_cli(
            "synth", "--k", str(k), "--n", "128", "--seed", str(seed),
            "--out-signal", str(sig), "--out-model", str(mod),
            "--out-measurement", str(meas), "--m", str(m), "--matrix-seed", "3",
        )
        return sig, mod, meas

    def test_pipeline_roundtrip(self, tmp_path):
        sig, _, meas = self.make_fixture(tmp_path)
        out = tmp_path / "rec.json"
        code = run_cli(
            "recover", "--measurement", str(meas), "--k", "3", "--n", "128",
            "--m", "64", "--matrix-seed", "3",
            "--truth", str(sig), "--out", str(out),
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert set(payload) == {
            "model", "sweeps_used", "stop_reason", "final_residual_norm",
            "sweep_residual_norms", "config", "nl2_error",
        }
        assert payload["stop_reason"] == "polished"
        assert payload["nl2_error"] < 1e-3
        assert payload["config"]["matrix"]["kind"] == "gaussian"
        assert len(payload["model"]["components"]) == 3

    def test_optional_signal_dump(self, tmp_path):
        _, _, meas = self.make_fixture(tmp_path)
        out_sig = tmp_path / "reconstruction.csv"
        code = run_cli(
            "recover", "--measurement", str(meas), "--k", "3", "--n", "128",
            "--m", "64", "--matrix-seed", "3",
            "--out", str(tmp_path / "rec.json"), "--out-signal", str(out_sig),
        )
        assert code == EXIT_OK
        lines = out_sig.read_text().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 129

    def test_out_into_new_directory(self, tmp_path):
        _, _, meas = self.make_fixture(tmp_path)
        out = tmp_path / "new" / "r.json"
        code = run_cli(
            "recover", "--measurement", str(meas), "--k", "3", "--n", "128",
            "--m", "64", "--matrix-seed", "3", "--out", str(out),
        )
        assert code == EXIT_OK
        assert len(json.loads(out.read_text())["model"]["components"]) == 3

    def test_outputs_get_umask_permissions(self, tmp_path):
        # every output file gets the permissions of a plainly opened file
        _, _, meas = self.make_fixture(tmp_path)
        run_cli(
            "recover", "--measurement", str(meas), "--k", "3", "--n", "128",
            "--m", "64", "--matrix-seed", "3", "--out", str(tmp_path / "rec.json"),
        )
        run_cli(
            "sweep", "--values", "16", "--trials", "1", "--k", "1", "--n", "32",
            "--out-prefix", str(tmp_path / "sweep"),
        )
        plain = tmp_path / "plain.txt"
        plain.write_text("")
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "meas.csv", "model.json", "plain.txt", "rec.json", "signal.csv",
            "sweep.csv", "sweep.json",
        ]
        for name in names:
            mode = (tmp_path / name).stat().st_mode
            assert stat.S_IMODE(mode) == stat.S_IMODE(plain.stat().st_mode), name

    def test_missing_file_exits_1(self, tmp_path):
        code = run_cli(
            "recover", "--measurement", str(tmp_path / "nope.csv"),
            "--k", "3", "--m", "64", "--out", str(tmp_path / "rec.json"),
        )
        assert code == EXIT_IO

    def test_dimension_mismatch_exits_2(self, tmp_path):
        _, _, meas = self.make_fixture(tmp_path, m=64)
        code = run_cli(
            "recover", "--measurement", str(meas), "--k", "3", "--n", "128",
            "--m", "32", "--matrix-seed", "3", "--out", str(tmp_path / "rec.json"),
        )
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_measurement_exits_2(self, tmp_path, capsys, bad):
        _, _, meas = self.make_fixture(tmp_path)
        lines = meas.read_text().splitlines()
        lines[5] = lines[5].split(",")[0] + "," + bad
        meas.write_text("\n".join(lines) + "\n")
        code = run_cli(
            "recover", "--measurement", str(meas), "--k", "3", "--n", "128",
            "--m", "64", "--matrix-seed", "3", "--out", str(tmp_path / "rec.json"),
        )
        assert code == EXIT_VALIDATION
        assert "finite" in capsys.readouterr().err

    def test_underdetermined_warns_but_succeeds(self, tmp_path, capsys, recwarn):
        _, _, meas = self.make_fixture(tmp_path, m=8, k=3)
        code = run_cli(
            "recover", "--measurement", str(meas), "--k", "3", "--n", "128",
            "--m", "8", "--matrix-seed", "3", "--out", str(tmp_path / "rec.json"),
        )
        assert code == EXIT_OK
        assert any("underdetermined" in str(w.message) for w in recwarn.list)


class TestSweep:
    def test_cardinality_and_outputs(self, tmp_path):
        prefix = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--axis", "m", "--values", "16,24", "--trials", "2",
            "--k", "2", "--n", "32", "--methods", "mds,bomp",
            "--seed", "3", "--out-prefix", str(prefix), "--svg",
        )
        assert code == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "sweep_value,method,trial,seed,nl2_error,freq_err_total,error,time_s"
        assert len(lines) == 1 + 2 * 2 * 2  # header + values x methods x trials
        assert (tmp_path / "sweep.json").exists()
        assert (tmp_path / "sweep.svg").exists()

    def test_snr_axis_table(self, tmp_path):
        prefix = tmp_path / "snr_sweep"
        code = run_cli(
            "sweep", "--axis", "snr", "--values", "0,20", "--m", "24",
            "--trials", "2", "--k", "2", "--n", "32",
            "--seed", "4", "--out-prefix", str(prefix),
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "snr_sweep.json").read_text())
        assert payload["spec"]["sweep_axis"] == "snr"
        assert payload["spec"]["fixed_m"] == 24

    def test_paper_scale_resolves_full_protocol(self, tmp_path, capsys):
        code = run_cli("sweep", "--paper-scale", "--dry-run", "--out-prefix", str(tmp_path / "x"))
        assert code == EXIT_OK
        spec = json.loads(capsys.readouterr().out)
        assert spec["sweep_values"] == [float(v) for v in range(15, 66, 5)]
        assert spec["trials"] == 600
        assert spec["n"] == 128 and spec["k"] == 3

    def test_missing_values_is_spec_error(self, tmp_path):
        code = run_cli("sweep", "--out-prefix", str(tmp_path / "x"))
        assert code == EXIT_IO

    @pytest.mark.parametrize(
        "flags",
        [
            ("--k", "9", "--n", "16", "--values", "8"),
            ("--k", "1", "--n", "16", "--values", "8,17"),
            ("--axis", "snr", "--k", "1", "--n", "16", "--values", "20", "--m", "17"),
            ("--values", "16.5"),
            ("--axis", "snr", "--k", "3", "--n", "16", "--m", "8", "--values", "nan"),
            ("--k", "3", "--n", "16", "--values", "8", "--snr", "nan"),
            ("--k", "3", "--n", "16", "--values", "8", "--min-sep", "nan"),
            ("--k", "3", "--n", "16", "--values", "8", "--min-sep", "-1"),
            ("--k", "3", "--n", "16", "--values", "8", "--min-sep", "2.0"),
        ],
        ids=[
            "2k_over_n", "m_over_n", "snr_fixed_m_over_n", "m_not_integral", "snr_nan",
            "fixed_snr_nan", "min_sep_nan", "min_sep_negative", "min_sep_infeasible",
        ],
    )
    @pytest.mark.parametrize("dry_run", [True, False], ids=["dry_run", "run"])
    def test_spec_no_trial_can_run_is_spec_error(self, tmp_path, capsys, flags, dry_run):
        argv = ["sweep", *flags, "--trials", "1", "--out-prefix", str(tmp_path / "x")]
        code = run_cli(*argv, *(["--dry-run"] if dry_run else []))
        assert code == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err
        assert not list(tmp_path.glob("x.*"))

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "axis": "m", "values": "16,24", "trials": 2, "k": 2, "n": 32, "seed": 5,
        }))
        # --trials on the command line overrides the config's 2
        code = run_cli(
            "sweep", "--config", str(cfg), "--trials", "3",
            "--out-prefix", str(tmp_path / "cfg_sweep"),
        )
        assert code == EXIT_OK
        lines = (tmp_path / "cfg_sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 3  # values x trials, one method

    def test_config_file_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"axis": "m", "values": "16", "bogus": 1}))
        code = run_cli("sweep", "--config", str(cfg), "--out-prefix", str(tmp_path / "x"))
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "entry",
        [{"trials": 2.5}, {"values": [16, 32]}, {"k": 2.5}, {"svg": "false"}],
        ids=["float_trials", "list_values", "float_k", "string_switch"],
    )
    def test_config_file_wrong_type_exits_2(self, tmp_path, capsys, entry):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"axis": "m", "values": "16", "n": 32, "k": 2, **entry}))
        try:
            code = run_cli("sweep", "--config", str(cfg), "--out-prefix", str(tmp_path / "x"))
        except SystemExit as exc:  # argparse rejected the converted value
            code = exc.code
        assert code == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.glob("x.*"))

    def test_rerun_byte_identical_excluding_time(self, tmp_path):
        # the parser is built once per process; a --config run in between
        # must leave the second plain run's defaults untouched
        assert _build_parser() is _build_parser()
        args = (
            "sweep", "--axis", "m", "--values", "16,24", "--trials", "2",
            "--k", "2", "--n", "32", "--seed", "9",
        )
        cfg = tmp_path / "other.json"
        cfg.write_text(json.dumps({"snr": 10, "preset": "sinu", "svg": True, "seed": 4}))
        run_cli(*args, "--out-prefix", str(tmp_path / "one"))
        cfg_args = ("sweep", "--config", str(cfg), "--values", "16", "--trials", "1")
        assert run_cli(*cfg_args, "--out-prefix", str(tmp_path / "cfg")) == EXIT_OK
        assert (tmp_path / "cfg.svg").exists()
        run_cli(*args, "--out-prefix", str(tmp_path / "two"))
        assert not (tmp_path / "two.svg").exists()

        def strip_time(path):
            return [",".join(l.split(",")[:-1]) for l in path.read_text().splitlines()]

        assert strip_time(tmp_path / "one.csv") == strip_time(tmp_path / "two.csv")


class TestBench:
    def test_reports_mean_times(self, capsys):
        code = run_cli(
            "bench", "--k", "2", "--n", "32", "--m", "24", "--trials", "2",
            "--methods", "mds,oracle",
        )
        assert code == EXIT_OK
        table = json.loads(capsys.readouterr().out)
        assert set(table) == {"mds", "oracle"}
        assert all(row["mean_time_s"] >= 0.0 for row in table.values())
        assert all(row["median_time_s"] >= 0.0 for row in table.values())

    def test_prints_the_sweep_summary_cell(self, tmp_path, capsys):
        # bench prints, per method, exactly the record a sweep's summary
        # JSON holds for the same operating point
        common = ("--k", "2", "--n", "32", "--m", "24", "--trials", "2", "--seed", "9",
                  "--methods", "mds,oracle,bomp")
        assert run_cli("bench", *common) == EXIT_OK
        table = json.loads(capsys.readouterr().out)
        prefix = tmp_path / "one"
        assert run_cli("sweep", "--values", "24", *common, "--out-prefix", str(prefix)) == EXIT_OK
        cell = json.loads((tmp_path / "one.json").read_text())["summary"]["24"]
        assert set(table) == set(cell) == {"mds", "oracle", "bomp"}
        for meth, row in table.items():
            assert set(row) == set(cell[meth])
            assert {"median_error", "failures"} <= set(row)
            for key in ("mean_error", "median_error", "trials", "failures"):
                assert row[key] == cell[meth][key], (meth, key)


@pytest.mark.parametrize(
    "extra, config",
    [
        (("recover", "--freq-tol", "1e-8"), None),
        (("recover", "--max-sweeps", "60"), None),
        (("sweep", "--freq-tol", "1e-8"), None),
        (("sweep", "--max-sweeps", "60"), None),
        (("sweep", "--matrix-seed", "3"), None),
        (("bench", "--matrix-seed", "3"), None),
        (("sweep",), {"freq_tol": 1e-8}),
        (("sweep",), {"matrix_seed": 3}),
    ],
    ids=[
        "recover-freq-tol", "recover-max-sweeps", "sweep-freq-tol", "sweep-max-sweeps",
        "sweep-matrix-seed", "bench-matrix-seed", "config-freq_tol", "config-matrix_seed",
    ],
)
def test_removed_settings_refused(tmp_path, capsys, extra, config):
    # k is the recoverer's only setting, and sweep/bench draw each trial's
    # matrix seed from --seed, so these flags and config keys must not parse
    command, flags = extra[0], list(extra[1:])
    base = {
        "recover": ["--measurement", str(tmp_path / "meas.csv"), "--k", "1", "--m", "8",
                    "--out", str(tmp_path / "rec.json")],
        "sweep": ["--values", "8", "--trials", "1", "--k", "1", "--n", "16", "--dry-run",
                  "--out-prefix", str(tmp_path / "x")],
        "bench": ["--k", "1", "--n", "16", "--m", "8", "--trials", "1", "--methods", "oracle"],
    }[command]
    if config is None:
        with pytest.raises(SystemExit) as excinfo:
            run_cli(command, *base, *flags)
        assert excinfo.value.code == EXIT_VALIDATION
        assert "unrecognized arguments: " + " ".join(flags) in capsys.readouterr().err
    else:
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(config))
        assert run_cli(command, *base, "--config", str(cfg)) == EXIT_VALIDATION
        assert "unknown config keys" in capsys.readouterr().err
