"""Smoke test: every quick demo runs to completion as a script, the
README's library example imports only names the package has, its config
example loads, and its manifest example parses and is written back as is."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mipclass
from mipclass import PipelineConfig, load_config
from mipclass.evalkit import read_manifest, write_manifest

ROOT = Path(__file__).resolve().parents[1]
# 07 drives the whole CLI on a phantom cohort; the end-to-end tests cover it
DEMOS = sorted(p for p in (ROOT / "demos").glob("0[1-6]_*.py"))


def test_six_quick_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # the demos print their own checks as "<what>: True"
    assert not [line for line in proc.stdout.splitlines() if line.endswith(": False")]


def test_readme_library_use_imports_exist():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    names = [
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "mipclass"
        for alias in node.names
    ]
    assert names
    assert [name for name in names if not hasattr(mipclass, name)] == []


def test_readme_config_example_loads(tmp_path):
    """A key the README still lists after the config dropped it fails the load."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration", 1)[1]
    config = tmp_path / "config.json"
    config.write_text(section.split("```json\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    assert isinstance(load_config(config), PipelineConfig)


def test_readme_manifest_example_round_trips(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Manifest format", 1)[1]
    example = section.split("```csv\n", 1)[1].split("```", 1)[0]
    given = tmp_path / "given.csv"
    given.write_text(example, encoding="utf-8")
    rows = read_manifest(given)
    assert [row.patient_id for row in rows] == ["p000"]
    written = tmp_path / "written.csv"
    write_manifest(rows, written)
    assert written.read_bytes() == given.read_bytes()
