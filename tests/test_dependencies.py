"""The package imports only numpy and the standard library (pyproject.toml declares numpy alone),
and its modules import one another without a cycle."""
import ast
import graphlib
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


def relative_imports(source: str) -> set[str]:
    """Package modules named by the relative imports anywhere in ``source``, function bodies too."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:  # from . import a, b
                names.update(alias.name for alias in node.names)
            else:
                names.add(node.module.split(".")[0])
    return names


def find_cycle(graph: dict[str, set[str]]) -> list[str]:
    """A cycle of ``graph``, its first module repeated at the end, or [] if there is none."""
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        return exc.args[1]
    return []


def test_sources_found():
    assert "chain.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_numpy_and_the_standard_library(path):
    assert absolute_imports(path.read_text(encoding="utf-8")) <= ALLOWED


def test_a_stray_import_is_caught():
    source = "import numpy as np\nfrom . import chain\ndef f():\n    from scipy import sparse\n"
    assert absolute_imports(source) == {"numpy", "scipy"}
    assert not absolute_imports(source) <= ALLOWED


def test_package_import_graph_is_acyclic():
    graph = {path.stem: relative_imports(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert graph["cli"] >= {"absorption", "duality", "models"}
    assert find_cycle(graph) == []


def test_a_cycle_through_a_function_body_is_caught():
    a = "from .b import f\n"
    b = "def f():\n    from .a import g\n    from . import c\n"
    graph = {"a": relative_imports(a), "b": relative_imports(b), "c": set()}
    assert graph["b"] == {"a", "c"}
    assert sorted(find_cycle(graph)) == ["a", "a", "b"]
