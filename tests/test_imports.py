"""Static checks: every name the package or its tests import is used, and the
package imports nothing beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in (ROOT / "src" / "spikeclm").glob("*.py") if p.name != "__init__.py")
FILES += sorted((ROOT / "tests").glob("*.py"))
FILES += sorted((ROOT / "tools").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by import statements that no expression refers to."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_scanner_finds_an_unused_name():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "line 1: os", "line 2: b"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def absolute_imports(source: str) -> set:
    """Top-level names of the modules a source imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_needs_only_numpy():
    """The package imports the standard library and numpy, nothing else."""
    assert absolute_imports("import os.path\nfrom numpy import linalg\nfrom . import x\n") == {
        "os", "numpy"}
    found = set()
    for path in (ROOT / "src" / "spikeclm").glob("*.py"):
        found |= absolute_imports(path.read_text(encoding="utf-8"))
    assert "numpy" in found
    assert sorted(found - set(sys.stdlib_module_names) - {"numpy"}) == []
