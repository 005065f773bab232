"""End-to-end tests of the command-line interface and its exit codes."""

import json

import pytest

from cstones.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
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

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_freq_tol_exits_2(self, tmp_path, capsys, bad):
        _, _, meas = self.make_fixture(tmp_path)
        code = run_cli(
            "recover", "--measurement", str(meas), "--k", "3", "--n", "128",
            "--m", "64", "--matrix-seed", "3", "--freq-tol", bad,
            "--out", str(tmp_path / "rec.json"),
        )
        assert code == EXIT_VALIDATION
        assert "freq_tol" in capsys.readouterr().err

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

    def test_rerun_byte_identical_excluding_time(self, tmp_path):
        args = (
            "sweep", "--axis", "m", "--values", "16,24", "--trials", "2",
            "--k", "2", "--n", "32", "--seed", "9",
        )
        run_cli(*args, "--out-prefix", str(tmp_path / "one"))
        run_cli(*args, "--out-prefix", str(tmp_path / "two"))

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
