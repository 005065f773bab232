"""Package-level checks: the public surface resolves, each kind of frequency
sample has one source, and the demos run."""

import ast
import csv
import importlib
import json
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cstones
from cstones import ExperimentSpec

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["cstones"] + [f"cstones.{m.name}" for m in pkgutil.iter_modules(cstones.__path__)]
# 05 writes its sweeps into demos/output/, so it is left out here.
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))
SUMMARIES = sorted((ROOT / "demos" / "output").glob("*.json"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # Python checks __all__ only on `import *`, so a deleted name would
    # otherwise stay listed unnoticed.
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


# The one place each kind of frequency node or sample is made: trig samples,
# DFT tables and uniform grids.  Every other layer reads them from these.
NUMPY_SOURCES = {
    "np.sin": {"estimator._cis", "model.sinusoid_samples", "model.component_samples"},
    "np.cos": {"estimator._cis", "model.sinusoid_samples"},
    "np.fft": {"estimator._dft_atoms"},
    "np.linspace": {"estimator._dft_atoms", "baselines.grid_oracle_batch"},
}


def _numpy_uses(path):
    """(np.<attr>, module.function) for every ``np.<attr>`` in the file."""
    uses = set()

    def visit(node, scope):
        if isinstance(node, ast.FunctionDef):
            scope = node.name
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "np":
            uses.add((f"np.{node.attr}", f"{path.stem}.{scope}"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "<module>")
    return uses


def test_trig_fft_and_grids_have_one_source_each():
    uses = set()
    for path in (ROOT / "src" / "cstones").glob("*.py"):
        uses |= {(name, where) for name, where in _numpy_uses(path) if name in NUMPY_SOURCES}
    allowed = {(name, where) for name, places in NUMPY_SOURCES.items() for where in places}
    assert uses == allowed, {"outside their source": uses - allowed, "unused": allowed - uses}


def _full_band_calls(path):
    """(module.function, index) for every ``_full_band(...)`` call in the
    file, index the constant it is subscripted by, else None."""
    calls = []

    def visit(node, scope, parent):
        if isinstance(node, ast.FunctionDef):
            scope = node.name
        if isinstance(node, ast.Call) and "_full_band" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            indexed = isinstance(parent, ast.Subscript) and parent.value is node
            indexed = indexed and isinstance(parent.slice, ast.Constant)
            calls.append((f"{path.stem}.{scope}", parent.slice.value if indexed else None))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, node)

    visit(ast.parse(path.read_text()), "<module>", None)
    return calls


def test_grid_round_has_one_source():
    # the grid round hands the estimator and recovery's confirming visits
    # its bracket, so it alone reads the full band's nodes and pair tables;
    # every other caller takes only the derivative operator
    calls = []
    for path in (ROOT / "src" / "cstones").glob("*.py"):
        calls += _full_band_calls(path)
    assert {place for place, index in calls if index != 2} == {"estimator._grid_round"}, calls


# Reduced precision stays inside the grid oracle's float32 scoring: criteria 5
# and 7 compare errors near 1e-15, so a float32 step in recover or the
# estimator would decide them by its rounding.
REDUCED_PRECISION = {
    "float16", "float32", "complex64", "half", "single", "csingle", "f2", "f4", "c8"
}
REDUCED_PRECISION_PLACES = {"baselines.grid_oracle_batch"}


def _reduced_precision_uses(path):
    """module.function (the outermost one) for every ``np.<dtype>`` or dtype
    string naming a reduced-precision type in the file."""
    places = set()

    def visit(node, scope):
        if isinstance(node, ast.FunctionDef) and scope == "<module>":
            scope = node.name
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "np":
            name = node.attr
        else:  # a dtype string such as astype("float32")
            name = getattr(node, "value", None) if isinstance(node, ast.Constant) else None
        if name in REDUCED_PRECISION:
            places.add(f"{path.stem}.{scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "<module>")
    return places


def test_reduced_precision_only_in_the_oracle_scan():
    places = set()
    for path in (ROOT / "src" / "cstones").glob("*.py"):
        places |= _reduced_precision_uses(path)
    assert places == REDUCED_PRECISION_PLACES, places


def test_cli_import_leaves_scipy_unloaded():
    # scipy costs ~0.6 s and ~47 MB per process; no module needs it
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    code = (
        "import sys, cstones.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = _run_demo(demo)
    assert proc.returncode == 0, proc.stderr[-2000:]


def _run_demo(path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, str(path)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


def test_committed_demo_csvs_match_a_rerun(tmp_path):
    # demo 05 writes next to itself, so a copy of it writes into tmp_path
    demo = shutil.copy(ROOT / "demos" / "05_experiment_sweep.py", tmp_path)
    proc = _run_demo(demo)
    assert proc.returncode == 0, proc.stderr[-2000:]
    committed_files = sorted((ROOT / "demos" / "output").glob("*.csv"))
    assert [p.name for p in committed_files] == ["error_vs_m.csv", "error_vs_snr.csv"]
    for committed_path in committed_files:
        with open(committed_path, newline="") as f:
            committed = list(csv.DictReader(f))
        with open(tmp_path / "output" / committed_path.name, newline="") as f:
            rerun = list(csv.DictReader(f))
        assert len(rerun) == len(committed), committed_path.name
        assert list(rerun[0]) == list(committed[0]), committed_path.name
        for column in committed[0]:
            if column == "time_s":
                continue
            old = [row[column] for row in committed]
            new = [row[column] for row in rerun]
            if column in ("method", "error"):
                assert new == old, (committed_path.name, column)
            else:
                np.testing.assert_allclose(
                    np.array(new, dtype=float), np.array(old, dtype=float),
                    rtol=1e-9, atol=1e-12, err_msg=f"{committed_path.name} {column}",
                )


def test_two_committed_summaries_found():
    assert len(SUMMARIES) == 2


@pytest.mark.parametrize("path", SUMMARIES, ids=lambda p: p.name)
def test_committed_summary_echoes_current_spec(path):
    # demo 05's committed outputs go stale silently when the spec changes;
    # rerunning the demo rewrites them
    written = ExperimentSpec(sweep_axis="m", sweep_values=(16.0,)).to_dict()
    committed = json.loads(path.read_text())["spec"]
    assert set(committed) == set(written)
    for key, value in written.items():
        if isinstance(value, dict):
            assert set(committed[key]) == set(value), key
