"""Smoke checks of the demo scripts: every name they import from the
package still resolves, and the fast demos run to completion."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("[0-9][0-9]_*.py"))
# Demos 02 and 04 run long rollouts and training; only their imports are checked.
FAST_DEMOS = ["01_composing_behaviors.py", "03_diffeomorphisms_and_features.py"]


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module.split(".")[0] == "treemotion"
                for alias in node.names]
    assert imported
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_fast_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(REPO / "demos" / name)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
