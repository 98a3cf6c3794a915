"""The package root holds only the version; every module-level import is used."""
import ast
from pathlib import Path

import pytest

import dpe_multipath

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]


def test_version_matches_pyproject():
    pyproject = ROOT / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert dpe_multipath.__version__ == tomllib.load(f)["project"]["version"]


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_found():
    assert unused_imports("import os\nimport a.b\nfrom x import y as z\nos.sep\n") == ["a", "z"]
    assert unused_imports("from __future__ import annotations\nfrom m import T\nv: T\n") == []


def test_no_unused_module_imports():
    files = sorted(p for d in ("src", "scripts", "tests") for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 10
    unused = {str(p.relative_to(ROOT)): names
              for p in files if (names := unused_imports(p.read_text()))}
    assert unused == {}
