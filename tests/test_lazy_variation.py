"""Only the ``variation`` command loads the variation layer.

``tgeo`` resolves the public names of ``tgeo.variation`` through a module
``__getattr__`` on each access, so ``import tgeo.cli`` and the commands that
do not run the layer never load it, while ``tgeo.<name>`` stays the object
``tgeo.variation`` holds, monkeypatched or traced ones included.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tgeo
import tgeo.variation as variation

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tgeo"

# Run in a fresh interpreter: after each command, whether tgeo.variation and
# csv are loaded.
PROBE = """
import contextlib, io, json, sys
import tgeo.cli as cli
seen = []
for argv in (["verify", "totally-geodesic", "--samples", "2"],
             ["scan-curvature", "--planes", "20"],
             ["svd"],
             ["variation", "--dim", "3", "--samples", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen.append([argv[0], code, "tgeo.variation" in sys.modules,
                 "csv" in sys.modules])
print(json.dumps(seen))
"""


def test_only_the_variation_command_loads_the_layer():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("TGEO_SEED", None)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == [["verify", 0, False, False],
                               ["scan-curvature", 0, False, False],
                               ["svd", 0, False, False],
                               ["variation", 0, True, False]]


def defining_modules() -> dict:
    """Name -> the tgeo modules that bind it at top level by a def, a class
    or an assignment (imports excluded)."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                out.setdefault(name, []).append(f"tgeo.{path.stem}")
    return out


def test_public_names_are_their_defining_modules_objects():
    owners = defining_modules()
    for name in tgeo.__all__:
        assert len(owners[name]) == 1, (name, owners[name])
        module = importlib.import_module(owners[name][0])
        assert getattr(tgeo, name) is getattr(module, name), name
    star = {}
    exec("from tgeo import *", star)
    assert set(tgeo.__all__) <= star.keys()


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tgeo.no_such_name
    assert not hasattr(tgeo, "no_such_name")


def test_package_name_follows_a_patch_and_its_undo(monkeypatch):
    real = variation.reduced_integrand

    def patched(*args, **kwargs):
        return real(*args, **kwargs)

    monkeypatch.setattr(variation, "reduced_integrand", patched)
    assert tgeo.reduced_integrand is patched
    monkeypatch.undo()
    assert tgeo.reduced_integrand is real
    assert "reduced_integrand" not in vars(tgeo)
