"""The root solve's LAPACK routines come from scipy's compiled ``_flapack``
extension, loaded from its file: a cold CLI call never imports
``scipy.linalg``, and the routines are the objects ``get_lapack_funcs``
returns whichever package is imported first."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

from treemotion import tree

ROOT = Path(__file__).resolve().parent.parent
ARM_SPEC = ROOT / "demos" / "arm_fixture.json"


def run_python(code):
    """Run ``code`` in a fresh interpreter that imports treemotion from ``src``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cold_cli_eval_does_not_import_scipy_linalg():
    out = run_python(f"""
import sys
from treemotion import cli
assert "scipy.linalg" not in sys.modules, "import"
assert cli.main(["eval", {str(ARM_SPEC)!r}, "--q=0.1,0.2,0.3"]) == 0
assert "scipy.linalg" not in sys.modules, "eval"
""")
    assert out.startswith('{"q": [0.1, 0.2, 0.3], "pi": [')


COMPARE = """
import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import get_lapack_funcs
from treemotion import tree

funcs = get_lapack_funcs(("potrf", "potrs"), (np.zeros((1, 1)),))
assert funcs[0] is tree._POTRF and funcs[1] is tree._POTRS
rng = np.random.default_rng(3)
cases = 0
for n in (2, 3, 6):
    for reg in (0.0, 0.05, 1.7):
        for _ in range(20):
            B = rng.normal(0.0, 1.0, (n, n))
            M = B @ B.T + 0.1 * np.eye(n)
            p = rng.normal(0.0, 1.0, n)
            u, factor = tree.solve_root(M, p, reg)
            ref = cho_factor(M + reg * np.eye(n) if reg else M, lower=True)
            assert np.array_equal(factor, ref[0])
            assert np.array_equal(u, cho_solve(ref, p))
            g = rng.normal(0.0, 1.0, n)
            assert np.array_equal(tree.factor_solve(factor, g), cho_solve(ref, g))
            cases += 1
print(cases)
"""


@pytest.mark.parametrize("first", ["treemotion", "scipy.linalg"])
def test_solve_root_matches_scipy_in_either_import_order(first):
    # Each order needs a fresh interpreter: this module's imports already
    # ran one of them.
    prelude = {"treemotion": "import sys\nimport treemotion\n"
                             "assert 'scipy.linalg' not in sys.modules\n",
               "scipy.linalg": "import scipy.linalg\n"}[first]
    assert run_python(prelude + COMPARE).strip() == "180"


def test_missing_extension_names_the_folder_searched(tmp_path, monkeypatch):
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    folder = str(tmp_path / "linalg")
    with pytest.raises(ImportError, match=re.escape(folder)):
        tree._load_flapack()
