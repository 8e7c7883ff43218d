"""Every name a crystalpop module imports is used in that module. The
package's __init__.py is skipped: its imports are re-exports."""

import ast
from pathlib import Path

import pytest

import crystalpop

MODULES = sorted(
    p for p in Path(crystalpop.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_unused_names():
    source = "from __future__ import annotations\nimport os.path\nfrom x import y as z, w\nos.sep\nw()\n"
    assert unused_imports(source) == ["z"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
