"""Every name a crystalpop module imports is used in that module, every
top-level def or class has a user outside itself, and so has every method
or property of a class. The package's __init__.py is skipped: its imports
are re-exports. Every module attribute the benchmark's tracer wraps
exists. Importing the CLI loads no process-pool module and neither
dataclasses nor inspect. Every module parses as the oldest Python that
pyproject.toml allows."""

import ast
import importlib
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import crystalpop

MODULES = sorted(
    p for p in Path(crystalpop.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
OLDEST_PYTHON = tuple(map(int, re.search(
    r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()
).groups()))


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


def _referenced(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def unreferenced_definitions(sources: dict[str, str], external: set[str]) -> list[str]:
    """module.name for each top-level def or class in sources that no other
    top-level statement of sources references and that is not in external."""
    defined, used = [], set(external)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            refs = _referenced(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, stmt.name))
                refs.discard(stmt.name)
            used |= refs
    return sorted(f"{module}.{name}" for module, name in defined if name not in used)


def perfbench_names() -> set[str]:
    """The crystalpop names perfbench imports or wraps as a Boundary."""
    names = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.startswith("crystalpop")):
                names.update(a.name for a in node.names)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "Boundary" and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)):
                names.add(node.args[1].value)
    return names


def test_the_check_finds_unreferenced_definitions():
    sources = {
        "a": "def used():\n    pass\n\ndef dead():\n    dead()\n\nclass Kept:\n    pass\n",
        "b": "from a import used\n\ndef runner():\n    used()\n",
    }
    assert unreferenced_definitions(sources, {"Kept"}) == ["a.dead", "b.runner"]


def test_perfbench_names_cover_imports_and_boundaries():
    names = perfbench_names()
    assert {"generate_crystal", "to_json", "build_demazure_family", "_sweep_one"} <= names


def boundary_targets(source: str) -> list[tuple[str, str]]:
    """(module, attr) of every Boundary(module, attr, ...) call in source."""
    return [
        (node.args[0].value, node.args[1].value) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "Boundary" and len(node.args) >= 2
        and all(isinstance(a, ast.Constant) for a in node.args[:2])
    ]


def missing_attributes(targets) -> list[str]:
    return [f"{module}.{attr}" for module, attr in targets
            if not hasattr(importlib.import_module(module), attr)]


def test_the_check_finds_missing_boundaries():
    source = ('B = (Boundary("crystalpop.poset", "is_lattice", "poset.x"),\n'
              '     Boundary("crystalpop.classifier", "gone", count="c"))\n')
    assert boundary_targets(source) == [("crystalpop.poset", "is_lattice"),
                                        ("crystalpop.classifier", "gone")]
    assert missing_attributes(boundary_targets(source)) == ["crystalpop.classifier.gone"]


def test_every_traced_boundary_resolves():
    # A missing name otherwise fails only inside a traced benchmark run.
    targets = boundary_targets((PERFBENCH / "tracing.py").read_text())
    assert ("crystalpop.classifier", "is_lattice") in targets
    assert missing_attributes(targets) == []


def test_every_definition_has_a_user():
    sources = {p.stem: p.read_text() for p in MODULES}
    external = set(crystalpop.__all__) | perfbench_names()
    assert unreferenced_definitions(sources, external) == []


def _attributes(node) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def unreferenced_members(sources: dict[str, str], external: list[str]) -> list[str]:
    """module.Class.name for each non-dunder method or property of a class in
    sources whose name no attribute reference (x.name) reads, in sources or
    in the external sources, outside the member's own body."""
    members, used = [], Counter()
    for source in external:
        used += _attributes(ast.parse(source))
    for module, source in sources.items():
        tree = ast.parse(source)
        used += _attributes(tree)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                members += [
                    (f"{module}.{cls.name}.{stmt.name}", stmt.name, _attributes(stmt)[stmt.name])
                    for stmt in cls.body
                    if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("__")
                ]
    return sorted(label for label, name, own in members if used[name] == own)


def test_the_check_finds_unreferenced_members():
    sources = {
        "a": (
            "class Shape:\n"
            "    def __len__(self):\n        return 0\n"
            "    def used(self):\n        return self.helper()\n"
            "    def helper(self):\n        return 1\n"
            "    @property\n    def area(self):\n        return 0\n"
            "    def dead(self):\n        return self.dead()\n"
        ),
        "b": "from a import Shape\n\ndef run(s):\n    return s.used()\n",
    }
    assert unreferenced_members(sources, []) == ["a.Shape.area", "a.Shape.dead"]
    assert unreferenced_members(sources, ["print(s.area)\n"]) == ["a.Shape.dead"]


def test_every_member_has_a_user():
    sources = {p.stem: p.read_text() for p in MODULES}
    perfbench = [p.read_text() for p in PERFBENCH.glob("*.py")]
    assert unreferenced_members(sources, perfbench) == []


def modules_loaded_by_cli_import(packages: tuple[str, ...]) -> str:
    """The modules of the given top-level packages that a fresh interpreter's
    `import crystalpop.cli` adds; sys.modules is compared before and after
    so that the interpreter's own start-up imports do not count."""
    probe = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import crystalpop.cli\n"
        "print(sorted(m for m in set(sys.modules) - before\n"
        f"             if m.split('.')[0] in {packages!r}))\n"
    )
    src = str(Path(crystalpop.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-c", probe, src], check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_loads_no_process_pool():
    """A run without --jobs above 1 never forks, so importing the CLI must
    not load the pool's modules."""
    assert modules_loaded_by_cli_import(("concurrent", "multiprocessing")) == "[]\n"


def test_cli_import_loads_no_dataclasses_or_inspect():
    """Every process imports the CLI: the record classes are plain classes,
    since `dataclasses` loads inspect, ast and dis and execs the methods it
    generates."""
    assert modules_loaded_by_cli_import(("dataclasses", "inspect", "ast", "dis")) == "[]\n"


def test_the_version_check_rejects_newer_syntax():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # Python 3.11 syntax
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


@pytest.mark.parametrize("path", sorted(Path(crystalpop.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_modules_parse_as_the_oldest_python(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=OLDEST_PYTHON)
