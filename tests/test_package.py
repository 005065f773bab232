"""Package-level checks: the public surface resolves and the demos run."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_two_committed_summaries_found():
    assert len(SUMMARIES) == 2


@pytest.mark.parametrize("path", SUMMARIES, ids=lambda p: p.name)
def test_committed_summary_echoes_current_spec(path):
    # demo 05's committed outputs go stale silently when the spec changes;
    # rerunning the demo rewrites them
    written = ExperimentSpec(sweep_axis="m", sweep_values=(16.0,)).to_dict()["recovery"]
    committed = json.loads(path.read_text())["spec"]["recovery"]
    assert set(committed) == set(written)
