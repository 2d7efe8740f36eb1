"""Every name a tgeo module or a test module imports must be used in that
module, every module-level constant or private function must be read by
some module (in the tests, every helper and fixture), and every method or
property of a tgeo class must be read by some module or named by the
benchmark's tracer, so a deletion cannot leave a stale import, constant,
helper or method behind. Every entry of the tolerance table must be read
by some module of the library. The library's defaulted options and public names
are counted, so a new one is a visible change, and every name the
benchmark's tracer wraps must exist."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import tgeo

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tgeo"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))

# Module-level constants by naming convention, private ones included.
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")

# Module hooks such as PEP 562's ``__getattr__``: the interpreter calls them.
DUNDER = re.compile(r"__\w+__")

# The library's defaulted parameters and dataclass fields, as ROADMAP.md
# states the figure under quality of design.
LIBRARY_OPTIONS = 6

# The names ``tgeo`` exports, as ROADMAP.md states the figure under quality
# of design. CI's installed-package check reads the figure from here.
PUBLIC_NAMES = 56

# The table of verdict tolerances in tgeo.fields.
TABLE = "TOLERANCES"


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


def unread_definitions(sources: dict, *, tests=False) -> list:
    """UPPER_CASE constants and ``_private`` functions defined at the top
    level of the modules in ``sources`` (module name -> source) whose name no
    module reads, as a bare name or as an attribute. A read of the name
    anywhere counts for every definition of that name. A ``__dunder__``
    function is a module hook that the interpreter reads, so it counts as
    read. With ``tests``, every top-level function but a ``test_`` one is a
    definition, and a parameter name is a read: a fixture is read by the
    tests that take it."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef)
                    and (node.name.startswith("_")
                         or tests and not node.name.startswith("test_"))
                    and not DUNDER.fullmatch(node.name)):
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
            elif tests and isinstance(node, ast.arg):
                read.add(node.arg)
    return sorted(f"{module}.{name} (line {line})"
                  for module, name, line in defined if name not in read)


def unread_members(sources: dict, tests: dict, tracer: str) -> list:
    """Methods and properties of the top-level classes of ``sources``
    (module name -> source) whose name no module of ``sources`` or of
    ``tests`` reads as an attribute and whose name the source ``tracer``
    does not hold. A ``__dunder__`` method is the interpreter's to call, so
    it counts as read."""
    read = {node.attr for source in [*sources.values(), *tests.values()]
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)}
    read |= set(re.findall(r"\w+", tracer))
    return sorted(f"{module}.{cls.name}.{fn.name} (line {fn.lineno})"
                  for module, source in sources.items()
                  for cls in ast.parse(source).body if isinstance(cls, ast.ClassDef)
                  for fn in cls.body if isinstance(fn, ast.FunctionDef)
                  and not DUNDER.fullmatch(fn.name) and fn.name not in read)


def unread_table_entries(sources: dict) -> list:
    """The keyword entries of the call bound to TABLE at the top level of a
    module of ``sources`` (module name -> source) that no module reads as
    ``TABLE.<entry>`` (or ``<module>.TABLE.<entry>``)."""
    entries, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and any(getattr(t, "id", None) == TABLE for t in node.targets)):
                entries += [(module, kw.arg, kw.value.lineno)
                            for kw in node.value.keywords]
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and TABLE in (getattr(node.value, "id", None),
                               getattr(node.value, "attr", None))}
    return sorted(f"{module}.{TABLE}.{name} (line {line})"
                  for module, name, line in entries if name not in read)


def defaulted_options(source: str) -> list:
    """Defaulted parameters of top-level functions and of the methods of
    top-level classes, and dataclass fields with a default, as
    ``owner.name(param)`` and ``Class.field``. Nested functions, lambdas,
    and ``_private`` functions and parameters are skipped."""
    out = []

    def params(fn, owner):
        if fn.name.startswith("_"):
            return
        args = fn.args
        positional = args.posonlyargs + args.args
        named = positional[len(positional) - len(args.defaults):] + [
            a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        out.extend(f"{owner}{fn.name}({a.arg})" for a in named
                   if not a.arg.startswith("_"))

    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            params(node, "")
        elif isinstance(node, ast.ClassDef):
            dataclass = any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
                == "dataclass" for d in node.decorator_list)
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    params(item, f"{node.name}.")
                elif (dataclass and isinstance(item, ast.AnnAssign)
                      and item.value is not None
                      and not item.target.id.startswith("_")):
                    out.append(f"{node.name}.{item.target.id}")
    return out


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
    hook = {"c": "def __getattr__(name):\n    raise AttributeError(name)\n"
                 "def _dead():\n    return 0\n"}
    assert unread_definitions(hook) == ["c._dead (line 3)"]
    tests = {"t": "import pytest\n@pytest.fixture\ndef field():\n    return 1\n"
                  "@pytest.fixture\ndef unused():\n    return 2\n"
                  "def ref_value(x):\n    return x\n"
                  "def test_a(field):\n    assert field == 1\n"}
    assert unread_definitions(tests, tests=True) == ["t.ref_value (line 8)",
                                                     "t.unused (line 6)"]


def test_detects_unread_method_or_property():
    sources = {"a": "class Spec:\n"
                    "    def used(self):\n        return self._helper()\n"
                    "    def _helper(self):\n        return 1\n"
                    "    @property\n    def dead(self):\n        return 0\n"
                    "    def traced(self):\n        return 2\n"
                    "    def __repr__(self):\n        return 'Spec'\n"
                    "def tested(spec):\n    return spec.used()\n"}
    tracer = 'TARGETS = [("a", "Spec", "traced")]\n'
    assert unread_members(sources, {}, tracer) == ["a.Spec.dead (line 7)"]
    tests = {"t": "def test_dead(spec):\n    assert spec.dead == 0\n"}
    assert unread_members(sources, tests, tracer) == []
    assert unread_members(sources, tests, "") == ["a.Spec.traced (line 9)"]


def test_detects_unread_table_entry():
    sources = {
        "a": "from types import SimpleNamespace\n"
             "TOLERANCES = SimpleNamespace(\n"
             "    used=1e-6,\n    dead=1e-4,\n    far=1.0,\n)\n",
        "b": "import a\nfrom a import TOLERANCES\n"
             "ok = 0.0 <= TOLERANCES.used\nx = a.TOLERANCES.far\n"
             "y = config.dead\n",
    }
    assert unread_table_entries(sources) == ["a.TOLERANCES.dead (line 4)"]


def test_counts_defaulted_options():
    source = (
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c=2, d, _e=3):\n"
        "    def inner(x=1):\n"
        "        return lambda y=2: y\n"
        "def _private(a=1):\n"
        "    pass\n"
        "@dataclass(frozen=True)\n"
        "class Spec:\n"
        "    n: int\n"
        "    radius: float = 1.0\n"
        "    _cache: dict = None\n"
        "    def scaled(self, k=2.0):\n"
        "        pass\n"
        "    def _helper(self, k=2.0):\n"
        "        pass\n"
        "class Plain:\n"
        "    limit: int = 3\n")
    assert defaulted_options(source) == ["f(b)", "f(c)", "Spec.radius",
                                         "Spec.scaled(k)"]


def test_library_option_count():
    found = [f"{p.stem}.{name}" for p in MODULES if p.name != "cli.py"
             for name in defaulted_options(p.read_text(encoding="utf-8"))]
    assert len(found) == LIBRARY_OPTIONS, (
        f"{len(found)} defaulted options, expected {LIBRARY_OPTIONS}: {found}. "
        "If the count changed on purpose, update LIBRARY_OPTIONS and the "
        "figure under quality of design in ROADMAP.md.")


def test_public_name_count():
    assert len(tgeo.__all__) == PUBLIC_NAMES, (
        f"{len(tgeo.__all__)} names in tgeo.__all__, expected {PUBLIC_NAMES}. "
        "If the count changed on purpose, update PUBLIC_NAMES and the "
        "figure under quality of design in ROADMAP.md.")
    assert all(hasattr(tgeo, name) for name in tgeo.__all__)


def test_tracer_targets_resolve(monkeypatch):
    """Every (module, class, attribute) that perfbench/tracer.py wraps
    exists, so deleting a traced name fails here and not only in the
    benchmark. The tracer module is loaded from its file without writing
    bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _, module, cls, attr in tracer.TARGETS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if not hasattr(owner, attr):
            missing.append((module, cls, attr))
    assert missing == []


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_no_unread_constants_or_private_functions():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert unread_definitions(sources) == []


def test_no_unread_table_entries():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert unread_table_entries(sources) == []


def test_no_unread_methods_or_properties():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    tests = {p.stem: p.read_text(encoding="utf-8") for p in TESTS}
    tracer = (ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8")
    assert unread_members(sources, tests, tracer) == []


def test_no_unread_test_helpers_or_fixtures():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in TESTS}
    assert unread_definitions(sources, tests=True) == []
