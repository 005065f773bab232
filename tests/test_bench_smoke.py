"""Smoke test of the benchmark's traced runs on a copy of the checkout.

``bench/run.py --trace 1`` wraps names the package must keep:
``recovery.estimate_sinusoid``, ``cli.run_experiment``, ``harness.recover``,
``RecoveryConfig.max_sweeps``, ``EstimateOutcome.refinements_used`` and
``RecoveryResult.sweeps_used``.  A rename shows up here as a failed run or
as a layer that was never reached.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "workload, reached",
    [
        ("flagship", ("estimator.calls",)),
        ("noisy_sweep", ("estimator.calls", "cli.self_s", "harness.self_s")),
    ],
)
def test_traced_run_reaches_every_layer(tmp_path, workload, reached):
    # the run writes .bench_out/ next to bench/, so it runs on a copy
    for name in ("src", "bench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--trace", "1", "--seconds", "0.5"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["correct"] is True
    for name in reached:
        assert record["metrics"][name]["value"] > 0, name
