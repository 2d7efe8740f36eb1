"""The two second-form routes are the evidence only while they stay
independent past the singular frames: apart from a few sphere and field
primitives, no function of tgeo may be reachable from both."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tgeo"

# What both routes may call: tangential projection, the geodesic through a
# point, and the field's Jacobian.
SHARED_PRIMITIVES = {"project_array", "_geodesic_coords", "jacobian_array"}


def call_graph(sources) -> dict:
    """Function name -> names it calls, over the top-level functions and
    class methods of the given module sources.

    A call inside a nested function counts for the function around it. A
    method call ``obj.name(...)`` counts as a call of every method called
    ``name``, unless ``obj`` is rooted at an imported module (``np.sqrt``).
    Only calls of functions defined in the sources are kept, so building a
    class instance (``TangentVector(p, v)``) is not followed.
    """
    calls = {}
    for source in sources:
        tree = ast.parse(source)
        modules = {alias.asname or alias.name.split(".")[0]
                   for node in tree.body if isinstance(node, ast.Import)
                   for alias in node.names}
        defs = []
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append(node)
            elif isinstance(node, ast.ClassDef):
                defs += [n for n in node.body if isinstance(n, ast.FunctionDef)]
        for fn in defs:
            called = calls.setdefault(fn.name, set())
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name):
                    called.add(func.id)
                elif isinstance(func, ast.Attribute):
                    root = func.value
                    while isinstance(root, ast.Attribute):
                        root = root.value
                    if not (isinstance(root, ast.Name) and root.id in modules):
                        called.add(func.attr)
    return {name: called & calls.keys() for name, called in calls.items()}


def reachable(graph: dict, start: str, stop: set) -> set:
    """``start`` and every function it reaches, not entering ``stop``."""
    seen = {start}
    todo = [start]
    while todo:
        for callee in graph[todo.pop()] - stop - seen:
            seen.add(callee)
            todo.append(callee)
    return seen


def test_call_graph_detector():
    source = (
        "import numpy as np\n"
        "def frames(x):\n    return np.sqrt(x)\n"
        "def shared(x):\n    return x\n"
        "def route_a(x):\n"
        "    def inner(q):\n        return shared(q)\n"
        "    return inner(frames(x))\n"
        "class Box:\n"
        "    def norm(self):\n        return 1.0\n"
        "def route_b(x):\n    return Box().norm() + np.linalg.norm(x)\n"
    )
    graph = call_graph([source])
    assert graph["route_a"] == {"shared", "frames"}
    assert graph["route_b"] == {"norm"}  # np.linalg.norm is numpy's
    assert reachable(graph, "route_a", {"frames"}) == {"route_a", "shared"}


def test_second_form_routes_share_only_primitives():
    graph = call_graph(p.read_text(encoding="utf-8")
                       for p in sorted(SRC.glob("*.py")))
    # the singular frames and their one reader, which only stacks the
    # frames' arrays and calls no function of tgeo
    stop = {"singular_decomposition", "_singular_stack"}
    assert graph["_singular_stack"] == set()
    lemma = reachable(graph, "second_form_lemma", stop)
    direct = reachable(graph, "second_form_direct", stop)
    assert "half_curvature" in lemma and "fd_derivative_array" in lemma
    assert (lemma & direct) - SHARED_PRIMITIVES == set()
    # every allowed name is in use, so the list cannot go stale
    assert SHARED_PRIMITIVES <= lemma & direct
