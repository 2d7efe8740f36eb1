"""Span tracing of tgeo's public kernels, installed from outside at runtime.

``install`` wraps each target in TARGETS so that every call records a span
(name, parent span, start, end) in a Tracer, and rebinds every name under
which tgeo's modules imported the original. ``restore`` puts each original
back. Nothing under src/ knows about tracing.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import time
from collections import defaultdict

# (span name, module, class or None, attribute). Several targets may share
# one span name; their calls and self time add up.
TARGETS = (
    ("cli.main", "tgeo.cli", None, "main"),
    ("cli.sample_point", "tgeo.cli", None, "_sample_point"),
    ("cli.rng_streams", "numpy.random", None, "default_rng"),
    ("manifold.random_point", "tgeo.manifold", "SphereSpec", "random_point"),
    ("manifold.fd_derivative_array", "tgeo.manifold", "SphereSpec",
     "fd_derivative_array"),
    ("manifold.gram_schmidt_rows", "tgeo.manifold", None, "gram_schmidt_rows"),
    ("manifold.TangentVector", "tgeo.manifold", "TangentVector",
     "__post_init__"),
    ("manifold.Frame", "tgeo.manifold", "Frame", "__post_init__"),
    ("fields.half_curvature", "tgeo.fields", None, "half_curvature"),
    ("fields.singular_decomposition", "tgeo.fields", None,
     "singular_decomposition"),
    ("fields.killing_canonical_frames", "tgeo.fields", None,
     "killing_canonical_frames"),
    ("fields.jacobian_evals", "tgeo.fields", "UnitVectorField",
     "jacobian_array"),
    ("fields.jacobian_evals", "tgeo.variation", "VariationField",
     "covariant_derivative_array"),
    ("fields.is_normal", "tgeo.fields", None, "is_normal"),
    ("fields.is_strongly_normal", "tgeo.fields", None, "is_strongly_normal"),
    ("fields.sasakian_identity_residual", "tgeo.fields", None,
     "sasakian_identity_residual"),
    ("sasaki.second_form_lemma", "tgeo.sasaki", None, "second_form_lemma"),
    ("sasaki.second_form_direct", "tgeo.sasaki", None, "second_form_direct"),
    ("sasaki.geodesic_field_obstruction", "tgeo.sasaki", None,
     "geodesic_field_obstruction"),
    ("sasaki.BundleVector", "tgeo.sasaki", "BundleVector", "__post_init__"),
    ("sasaki.horizontal_lift", "tgeo.sasaki", None, "horizontal_lift"),
    ("sasaki.tangential_lift", "tgeo.sasaki", None, "tangential_lift"),
    ("sasaki.xi_tangential_lift", "tgeo.sasaki", None, "xi_tangential_lift"),
    ("sasaki.bundle_sectional_curvature", "tgeo.sasaki", None,
     "bundle_sectional_curvature"),
    ("sasaki.submanifold_plane_curvature", "tgeo.sasaki", None,
     "submanifold_plane_curvature"),
    ("variation.reduced_integrand", "tgeo.variation", None,
     "reduced_integrand"),
    ("variation.s3_stable_form", "tgeo.variation", None, "s3_stable_form"),
    ("variation.propagate_fiber_frame", "tgeo.variation", None,
     "propagate_fiber_frame"),
    ("variation.integrate_over_sphere", "tgeo.variation", None,
     "integrate_over_sphere"),
    ("report.reports_to_json", "tgeo.report", None, "reports_to_json"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in TARGETS))


class Tracer:
    """Spans kept in memory as [name, parent index or -1, start, end]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, self.clock(), None])
        self._open.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][3] = self.clock()
        self._open.pop()

    def take(self) -> list:
        """The finished spans so far; the tracer starts empty again."""
        if self._open:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans


def summarize(spans: list) -> dict:
    """Per span name: calls, self seconds (duration minus the time its
    direct children cover), and calls per parent name."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                               "parents": defaultdict(int)})
    for i, (name, parent, start, end) in enumerate(spans):
        rec = out[name]
        rec["calls"] += 1
        rec["self_s"] += (end - start) - child_time[i]
        rec["parents"][spans[parent][0] if parent >= 0 else None] += 1
    return out


def write_spans(path, spans: list) -> None:
    """One CSV row per span: index, name, parent index, start, end."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["span", "name", "parent", "start", "end"])
        for i, (name, parent, start, end) in enumerate(spans):
            writer.writerow([i, name, parent, repr(start), repr(end)])


def _traced(fn, name: str, tracer: Tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
    return wrapper


def install(tracer: Tracer) -> list:
    """Wrap every target and rebind the names tgeo's modules import it
    under. Returns the undo list for ``restore``."""
    undo = []
    try:
        for name, module, cls, attr in TARGETS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
                original = owner.__dict__[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr, _traced(original, name, tracer))
                continue
            original = getattr(owner, attr)
            wrapped = _traced(original, name, tracer)
            importers = [m for key, m in list(sys.modules.items())
                         if m is owner or key == "tgeo" or key.startswith("tgeo.")]
            for mod in importers:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, alias, original))
                        setattr(mod, alias, wrapped)
    except BaseException:
        restore(undo)
        raise
    return undo


def restore(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
