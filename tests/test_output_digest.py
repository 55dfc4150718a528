"""Bit identity as a check: every section of ``tools/output_digest.py``,
run in process on this checkout, equals its digest recorded in
``tests/output_digest.json``. The digests hold for the versions they were
recorded with; on other versions the test fails and names both sets.

A section that changes by design is re-recorded with
``python tools/output_digest.py src --write tests/output_digest.json``."""

import importlib.util
import json
from pathlib import Path

import treemotion

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "tests" / "output_digest.json"


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "output_digest", ROOT / "tools" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_output_section_matches_its_recorded_digest():
    tool = _load_tool()
    recorded = json.loads(RECORD.read_text())
    here = tool.versions()
    assert here == recorded["versions"], (
        f"digests recorded with {recorded['versions']}, running with {here}")
    src_dir = ROOT / "src"
    assert Path(treemotion.__file__).resolve().parent == src_dir / "treemotion"

    dig = tool.run(treemotion, src_dir)
    differ = [name for name in recorded["sections"] | dig.sections
              if dig.sections.get(name) != recorded["sections"].get(name)]
    assert differ == [], f"sections that differ from {RECORD.name}: {differ}"
    assert dig.total.hexdigest() == recorded["total"]
