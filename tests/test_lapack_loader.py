"""The root solve's LAPACK routines come from scipy's compiled ``_flapack``
extension, loaded from its file: a cold CLI ``eval`` or ``rollout``
imports neither scipy nor the training and verification stack (nor
``csv``, which only the CSV readers and writers load), and the
routines are the objects ``get_lapack_funcs`` returns whichever package
is imported first. The package's lazily loaded names resolve as
eagerly imported ones did."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


NOT_LOADED = ["scipy", "scipy.linalg", "treemotion.fixtures", "treemotion.learning",
              "treemotion.gradients", "treemotion.verify", "csv"]


def cold_cli_call(argv):
    """The standard output of ``cli.main(argv)`` in a fresh interpreter, and
    the modules of ``NOT_LOADED`` that are loaded after it."""
    out = run_python(f"""
import json, sys
from treemotion import cli
assert cli.main({argv!r}) == 0
print(json.dumps([m for m in {NOT_LOADED!r} if m in sys.modules]))
""")
    *printed, last = out.splitlines()
    return printed, json.loads(last)


def test_cold_cli_eval_does_not_import_scipy_linalg():
    # Nor scipy's package init, nor the training and verification stack.
    printed, loaded = cold_cli_call(["eval", str(ARM_SPEC), "--q=0.1,0.2,0.3"])
    assert loaded == []
    assert printed[0].startswith('{"q": [0.1, 0.2, 0.3], "pi": [')


def test_cold_cli_rollout_loads_neither_scipy_nor_the_training_stack():
    printed, loaded = cold_cli_call(["rollout", str(ARM_SPEC), "--q0=0.1,0.2,0.3",
                                     "--max-steps", "200"])
    assert loaded == []
    assert json.loads("\n".join(printed))["steps"] == 200


def test_every_public_name_resolves_and_lazy_names_are_not_cached():
    out = run_python("""
import json, sys
import treemotion as tm
lazy = sorted(tm._LAZY)
report = {"lazy_outside_all": sorted(set(lazy) - set(tm.__all__)),
          "missing_from_dir": sorted(set(tm.__all__) - set(dir(tm))),
          "learning_loaded_at_import": "treemotion.learning" in sys.modules}
train = tm.train
report["train_cached"] = "train" in vars(tm)
report["train_is_learning_train"] = train is sys.modules["treemotion.learning"].train
star = {}
exec("from treemotion import *", star)
report["missing_from_star"] = sorted(set(tm.__all__) - set(star))
report["getattr_differs_from_star"] = [n for n in tm.__all__ if getattr(tm, n) is not star[n]]
report["lazy_cached"] = [n for n in lazy if n in vars(tm)]
print(json.dumps(report))
""")
    assert json.loads(out) == {
        "lazy_outside_all": [], "missing_from_dir": [],
        "learning_loaded_at_import": False, "train_cached": False,
        "train_is_learning_train": True, "missing_from_star": [],
        "getattr_differs_from_star": [], "lazy_cached": []}


def test_an_unknown_package_name_raises_attribute_error():
    import treemotion

    with pytest.raises(AttributeError, match="no_such_name"):
        treemotion.no_such_name  # noqa: B018


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
    # The loader locates scipy with ``find_spec``; point it at an empty folder.
    spec = importlib.util.spec_from_loader("scipy", loader=None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name: spec if name == "scipy" else None)
    folder = str(tmp_path / "linalg")
    with pytest.raises(ImportError, match=re.escape(folder)):
        tree._load_flapack()


def test_missing_scipy_is_an_import_error(monkeypatch):
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="no scipy package"):
        tree._load_flapack()
