"""The package imports only numpy and the standard library (pyproject.toml declares numpy alone)."""
import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ssdual").glob("*.py"))
ALLOWED = sys.stdlib_module_names | {"numpy"}


def absolute_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports anywhere in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.split(".")[0] for name in names}


def test_sources_found():
    assert "chain.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_numpy_and_the_standard_library(path):
    assert absolute_imports(path.read_text(encoding="utf-8")) <= ALLOWED


def test_a_stray_import_is_caught():
    source = "import numpy as np\nfrom . import chain\ndef f():\n    from scipy import sparse\n"
    assert absolute_imports(source) == {"numpy", "scipy"}
    assert not absolute_imports(source) <= ALLOWED
