"""The package root: it holds only the version."""
from pathlib import Path

import pytest

import dpe_multipath

tomllib = pytest.importorskip("tomllib")  # Python 3.11+


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert dpe_multipath.__version__ == tomllib.load(f)["project"]["version"]
