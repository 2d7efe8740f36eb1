"""Every name a tgeo module imports must be used in that module, and every
module-level constant or private function must be read by some module, so a
deletion cannot leave a stale import, constant or helper behind."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tgeo"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# Module-level constants by naming convention, private ones included.
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def unused_imports(source: str) -> list:
    """Names bound by import statements that no other node of the module
    reads (``from __future__`` imports are directives, not names)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def unread_definitions(sources: dict) -> list:
    """UPPER_CASE constants and ``_private`` functions defined at the top
    level of the modules in ``sources`` (module name -> source) whose name no
    module reads, as a bare name or as an attribute. A read of the name
    anywhere counts for every definition of that name."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                defined.append((module, node.name, node.lineno))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                defined += [(module, t.id, node.lineno) for t in targets
                            if isinstance(t, ast.Name)
                            and CONSTANT.fullmatch(t.id)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}.{name} (line {line})"
                  for module, name, line in defined if name not in read)


def test_detects_stray_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == \
        ["os (line 1)"]
    assert unused_imports("from math import pi, tau\nx = tau.real\n") == \
        ["pi (line 1)"]


def test_detects_unread_constant_and_private_function():
    sources = {
        "a": "STEP_TOL = 1e-6\nLIMIT = 3\n_SCALE = 2.0\nlower = 1\n"
             "def _helper():\n    return _SCALE\n"
             "def _dead():\n    return 0\n"
             "def public():\n    return 1\n",
        "b": "import a\nprint(a.LIMIT + a._helper())\n",
    }
    assert unread_definitions(sources) == ["a.STEP_TOL (line 1)",
                                           "a._dead (line 7)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_no_unread_constants_or_private_functions():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert unread_definitions(sources) == []
