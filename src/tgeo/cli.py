"""Command-line front end: verification suites, curvature scans, SVD reports,
and second-variation runs, with deterministic seeded sampling and JSON/CSV
report output.

Exit codes: 0 all checks passed, 1 verification failure, 2 usage or
configuration error or an unwritable report, 3 numerical failure (frame
assembly, fiber propagation, a non-finite integrand, singular locus,
degenerate curvature plane, a failing check on a sampled vector or plane).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .manifold import (
    _STREAM_CHUNK,
    DegenerateInputError,
    DegeneratePlaneError,
    SpherePoint,
    _row_norms,
    gram_schmidt_rows,
    stream_chunks,
    unit_rows,
)
from .fields import (
    MIN_FIBER_STEPS,
    TOL_ANALYTIC,
    DecompositionFailure,
    PreconditionError,
    PropagationFailure,
    SingularLocusError,
    UnitVectorField,
    _killing_tol,
    covariant_normality_residual,
    half_curvature,
    hopf_field,
    is_geodesic,
    is_killing,
    is_normal,
    is_strongly_normal,
    jacobi_relation_residual,
    killing_canonical_frames,
    meridian_field,
    sasakian_identity_residual,
    shape_apply_array,
    singular_decomposition,
)
from .sasaki import (
    bundle_sectional_curvature_array,
    geodesic_field_obstruction,
    hopf_pattern_peak,
    hopf_pattern_split,
    meridian_obstruction,
    second_form_direct,
    second_form_lemma,
    submanifold_plane_curvature_array,
    tangential_lift_array,
    xi_tangential_lift_array,
)
from .report import VerificationReport, reports_to_csv, reports_to_json


class UsageError(ValueError):
    """Bad flags, bad config file, or an invalid parameter combination."""


# FloatingPointError: a residual, curvature or integrand came out NaN or infinite
_NUMERICAL_FAILURES = (DecompositionFailure, DegeneratePlaneError,
                       FloatingPointError, PropagationFailure, SingularLocusError)


# Every option, as the argparse keywords of its flag; a config-file value goes
# through the same type and choices. Defaults live in RunConfig.
_OPTIONS = {
    "field": {"choices": ("hopf", "meridian")},
    "dim": {"type": int},
    "radius": {"type": float},
    "samples": {"type": int},
    "planes": {"type": int},
    "mode": {"choices": ("submanifold", "bundle", "both")},
    "fiber_steps": {"type": int},
    "tol": {"type": float, "help": "verdict tolerance of every suite but jacobi"},
    "theta": {"type": float,
              "help": "polar angle of the sample point (meridian field only)"},
    "seed": {"type": int},
    "out": {},
    "format": {"choices": ("json", "csv")},
}

# The options each command reads: it takes no other flag or config key.
_READS = {
    "verify": ("field", "dim", "radius", "samples", "tol", "seed", "out", "format"),
    "scan-curvature": ("dim", "planes", "mode", "seed", "out", "format"),
    "variation": ("dim", "samples", "fiber_steps", "seed", "out", "format"),
    "svd": ("field", "dim", "radius", "theta", "seed", "out", "format"),
}


@dataclass
class RunConfig:
    command: str
    suite: str | None = None
    field: str = "hopf"
    dim: int = 3
    radius: float = 1.0
    samples: int = 100
    planes: int = 10000
    fiber_steps: int = 64
    tol: float = 1e-4
    seed: int = 0
    out: str | None = None
    format: str = "json"
    mode: str = "submanifold"
    theta: float | None = None

    def validate(self) -> None:
        if self.dim < 2:
            raise UsageError("dim must be >= 2")
        if self.field == "hopf" and (self.dim % 2 == 0 or self.dim < 3):
            raise UsageError("the hopf field needs an odd sphere dimension >= 3")
        # the radii over which both routes were measured to agree; far
        # outside, runs overflow or fail a point check on every draw
        if not 1e-3 <= self.radius <= 1e4:
            raise UsageError("radius must lie in [0.001, 10000]")
        if self.samples < 1:
            raise UsageError("samples must be >= 1")
        if self.planes < 1:
            raise UsageError("planes must be >= 1")
        if self.fiber_steps < MIN_FIBER_STEPS:
            raise UsageError(f"fiber-steps must be >= {MIN_FIBER_STEPS}")
        if not 0 < self.tol < math.inf:
            raise UsageError("tolerances must be positive and finite")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")


def build_field(config: RunConfig) -> UnitVectorField:
    if config.field == "hopf":
        return hopf_field((config.dim - 1) // 2, config.radius)
    axis = np.zeros(config.dim + 1)
    axis[0] = 1.0
    return meridian_field(axis, config.radius)


def _in_cap(xi: UnitVectorField, coords: np.ndarray):
    """The points (rows of ``coords``) in a meridian field's polar caps."""
    return xi.name == "meridian" and ~(
        np.abs(coords[..., 0]) / xi.sphere.radius < 0.95)


def _sample_point(xi: UnitVectorField, rng: np.random.Generator) -> SpherePoint:
    """Seeded point, redrawn away from the polar caps for meridian fields."""
    while True:
        p = xi.sphere.random_point(rng)
        if not _in_cap(xi, p.coords):
            return p


# -- verify suites ---------------------------------------------------------


# Samples per stacked frame and route call: enough to spread numpy's
# per-call overhead thin, few enough that a chunk's arrays stay small (S^15
# direct route's displaced frames: 64 * 32 * 16 * 16 floats, 4 MB; the
# frame stack's shape matrices and SVD factors are n1 times smaller).
_SAMPLE_CHUNK = 64


def _sample_maxima(xi: UnitVectorField, config: RunConfig, measure,
                   extra: int = 0) -> dict:
    """Maximum of each residual that ``measure(coords, rows)`` names, over
    the sample points. Sample idx draws from its own stream (seed, idx) its
    point, then ``extra`` rows of ambient normals. The samples are drawn
    _SAMPLE_CHUNK at a time through ``stream_chunks``, which names a failing
    or non-finite sample by its seed tuple; a point drawn in a polar cap is
    replayed on its own generator through _sample_point, and each run is
    measured in one stacked call, one array entry per sample.
    """
    def run(start, draws):
        coords = xi.sphere.stacked_points(draws[:, 0])
        for k in np.flatnonzero(_in_cap(xi, coords)).tolist():
            rng = np.random.default_rng((config.seed, start + k))
            try:
                coords[k] = _sample_point(xi, rng).coords
            except DegenerateInputError as exc:
                exc.row = k
                raise
            rng.standard_normal(out=draws[k, 1:])
        return {f"{k} residual": v for k, v in measure(coords, draws[:, 1:]).items()}

    columns = stream_chunks(config.seed, 0, config.samples, _SAMPLE_CHUNK,
                            (1 + extra, xi.sphere.ambient_dim), "sample", run)
    return {k.removesuffix(" residual"): float(np.max(v)) for k, v in columns.items()}


def _suite_report(config: RunConfig, residual: float, notes: list,
                  tol: float | None = None,
                  passed: bool = True) -> VerificationReport:
    """The suite's report; it passes when the residual is within ``tol``
    (``config.tol`` by default) and ``passed`` holds."""
    tol = config.tol if tol is None else tol
    return VerificationReport(
        name=config.suite, parameters=_params(config), samples=config.samples,
        max_residual=residual, tolerance=tol,
        verdict="pass" if passed and residual <= tol else "fail", notes=notes)


def _run_totally_geodesic(config: RunConfig) -> VerificationReport:
    xi = build_field(config)

    def measure(coords, rows):
        sds = singular_decomposition(xi, coords)
        om_l = second_form_lemma(xi, coords, sds)
        om_d = second_form_direct(xi, coords, sds)
        axes = (1, 2, 3)
        return {"lemma": np.max(np.abs(om_l), axis=axes),
                "direct": np.max(np.abs(om_d), axis=axes),
                "asym": np.max(np.abs(om_d - np.swapaxes(om_d, 2, 3)), axis=axes)}

    worst = _sample_maxima(xi, config, measure)
    residual = max(worst["lemma"], worst["direct"])
    notes = [
        f"max |Omega| half-curvature route: {worst['lemma']:.6e}",
        f"max |Omega| connection route:     {worst['direct']:.6e}",
        f"max |Omega_ij - Omega_ji| (connection route): {worst['asym']:.3e}",
    ]
    # the closed form is nonzero at every radius but 1, so the hopf field
    # fails there even when the tolerance cannot resolve its residual
    off_unit_hopf = config.field == "hopf" and not xi.sphere.is_unit
    if off_unit_hopf:
        notes += _hopf_pattern_notes(xi, config)
        if residual <= config.tol:
            notes.append(
                "hopf field off unit radius is not totally geodesic: closed-form "
                f"peak {hopf_pattern_peak(xi.sphere.curvature_constant):.3e} is "
                f"nonzero but below the tolerance {config.tol:.1e}")
    return _suite_report(config, residual, notes, passed=not off_unit_hopf)


def _hopf_pattern_notes(xi: UnitVectorField, config: RunConfig) -> list:
    """Which closed form the nonzero second-form pattern matches, at one
    canonically framed sample point."""
    K = xi.sphere.curvature_constant
    cand_a = hopf_pattern_peak(K)
    cand_b = K * (1.0 - K) / (2.0 * (1.0 + K) ** 1.5)
    p = _sample_point(xi, np.random.default_rng((config.seed, 0)))
    kd = killing_canonical_frames(xi, p)
    omega = second_form_direct(xi, p.coords[None], (kd,))[0]
    peak, off = hopf_pattern_split(omega)
    names = {cand_a: "(1/2) K (1-K) / (1+K)",
             cand_b: "K (1-K) / (2 (1+K)^(3/2))"}
    matches = [label for val, label in names.items()
               if abs(peak - abs(val)) <= 1e-4]
    which = matches[0] if len(matches) == 1 else "ambiguous"
    return [
        f"pattern peak |Omega_(s|m+s,0)| = {peak:.6f}, off-pattern max {off:.2e}",
        f"closed-form candidates: {cand_a:.6f} and {cand_b:.6f}",
        f"connection-route value matches: {which}",
    ]


def _run_predicates(config: RunConfig) -> VerificationReport:
    xi = build_field(config)
    expected_fail = set()
    informational = set()
    if config.field == "meridian":
        expected_fail = {"killing", "sasakian"}
        informational = {"strongly-normal"}
    elif not xi.sphere.is_unit:
        expected_fail = {"sasakian"}

    worst = _sample_maxima(xi, config, lambda coords, rows: {
        "geodesic": is_geodesic(xi, coords),
        "killing": is_killing(xi, coords),
        "normal": is_normal(xi, coords),
        "strongly-normal": is_strongly_normal(xi, coords),
        "sasakian": sasakian_identity_residual(xi, coords),
    })

    tol = config.tol
    notes = []
    all_matched = True
    strict_max = 0.0
    for name, resid in worst.items():
        failed = resid > tol
        if name in informational:
            notes.append(f"{name}: residual {resid:.3e} (informational)")
            continue
        expected = name in expected_fail
        matched = failed == expected
        all_matched = all_matched and matched
        if not expected:
            strict_max = max(strict_max, resid)
        tag = "expected nonzero" if expected else f"tolerance {tol:.1e}"
        status = "ok" if matched else "UNEXPECTED"
        notes.append(f"{name}: residual {resid:.3e} ({tag}) {status}")
    return _suite_report(config, strict_max, notes, passed=all_matched)


def _run_codazzi(config: RunConfig) -> VerificationReport:
    xi = build_field(config)
    sphere = xi.sphere

    def measure(coords, rows):
        # the first two vectors of a random frame at each sample point
        frames = sphere.frames_at(coords, rows)
        r = half_curvature(xi, coords, frames[:, :2], frames[:, 1::-1])
        rhs = sphere.curvature_array(frames[:, 0], frames[:, 1],
                                     xi.value_array(coords))
        return {"codazzi": _row_norms(r[:, 0] - r[:, 1] - rhs)}

    worst = _sample_maxima(xi, config, measure, extra=sphere.dim)
    return _suite_report(config, worst["codazzi"], [
        "antisymmetrized half curvature against R(X,Y)xi"])


def _run_jacobi(config: RunConfig) -> VerificationReport:
    xi = build_field(config)
    worst = _sample_maxima(xi, config, lambda coords, rows: {
        "jacobi": jacobi_relation_residual(xi, coords)})
    return _suite_report(config, worst["jacobi"], [
        "A*A X compared with R(X, xi) xi over a frame"], tol=TOL_ANALYTIC)


def _run_obstruction(config: RunConfig) -> VerificationReport:
    xi = build_field(config)
    meridian = config.field == "meridian"

    def measure(coords, rows):
        sds = singular_decomposition(xi, coords)
        obs = geodesic_field_obstruction(xi, coords, sds)
        out = {"magnitude": np.max(np.abs(obs), axis=(1, 2))}
        if meridian:  # cos(theta) from the field's axis, the first coordinate
            closed = meridian_obstruction(sds, coords[:, 0] / xi.sphere.radius)
            out["closed form"] = np.max(np.abs(obs - closed), axis=(1, 2))
        om = second_form_lemma(xi, coords, sds)
        out["consistency"] = np.max(np.abs(obs - om[:, :, 1:, 0]), axis=(1, 2))
        return out

    worst = _sample_maxima(xi, config, measure)
    notes = [
        f"max |obstruction - Omega_(s|a,0)|: {worst['consistency']:.3e}",
        f"max |obstruction| over samples: {worst['magnitude']:.6f}",
    ]
    if meridian:
        notes.append(f"closed-form (cot^2 + 1) gap: {worst['closed form']:.3e}")
        residual = max(worst["consistency"], worst["closed form"])
    else:  # hopf at unit radius: the obstruction must vanish
        residual = max(worst["consistency"], worst["magnitude"])
    return _suite_report(config, residual, notes)


_SUITE_RUNNERS = {
    "totally-geodesic": _run_totally_geodesic,
    "predicates": _run_predicates,
    "codazzi": _run_codazzi,
    "jacobi": _run_jacobi,
    "obstruction": _run_obstruction,
}


def cmd_verify(config: RunConfig) -> int:
    t0 = time.perf_counter()
    report = _SUITE_RUNNERS[config.suite](config)
    report.wall_time_s = time.perf_counter() - t0
    _emit([report], config)
    return 0 if report.ok else 1


# -- curvature scan ----------------------------------------------------------


def cmd_scan_curvature(config: RunConfig) -> int:
    xi = build_field(config)
    scans = []
    for kind, scan in (("submanifold", _scan_submanifold),
                       ("bundle", _scan_bundle)):
        if config.mode in (kind, "both"):
            t0 = time.perf_counter()
            report, ks, sections = scan(xi, config)
            report.wall_time_s = time.perf_counter() - t0
            scans.append((report, kind, ks, sections))

    reports = [report for report, *_ in scans]
    _write_text(_plane_rows_csv(scans) if config.format == "csv"
                else reports_to_json(reports), config)
    return 0 if all(r.ok for r in reports) else 1


def _scan_submanifold(xi, config) -> tuple:
    sphere = xi.sphere
    cross_planes = min(config.planes, 500)

    def curvatures(start, draws):
        p, frames = sphere.stacked_frames(draws)
        X, Y = frames[:, 0], frames[:, 1]
        K = submanifold_plane_curvature_array(xi, p, X, Y)
        gap = np.zeros(len(K))  # |K - bundle-route K| on the cross-checked planes
        m = cross_planes - start
        if m > 0:
            u, x1, x2 = xi_tangential_lift_array(xi, p[:m], X[:m])
            _, y1, y2 = xi_tangential_lift_array(xi, p[:m], Y[:m])
            gap[:m] = np.abs(K[:m] - bundle_sectional_curvature_array(
                sphere, p[:m], u, x1, x2, y1, y2))
        return {"curvature": K, "bundle-route curvature": gap}

    columns = stream_chunks(config.seed, 0, config.planes, _STREAM_CHUNK,
                            (1 + sphere.dim, sphere.ambient_dim),
                            "submanifold plane", curvatures)
    ks = columns["curvature"].tolist()
    cross_resid = float(np.max(columns["bundle-route curvature"]))
    lo, hi = min(ks), max(ks)

    # designated sections at a seeded point: the plane of xi and a unit w
    # orthogonal to it, and the plane of w and phi w
    rng = np.random.default_rng((config.seed, config.planes))
    p = sphere.random_point(rng).coords
    xiv = xi.value_array(p)
    candidates = np.vstack([xiv, sphere.project_array(p, np.eye(sphere.ambient_dim))])
    w = gram_schmidt_rows(candidates, pivot_tol=1e-6)[1]
    phi_w = unit_rows(-shape_apply_array(xi, p, w)[None])[0]
    k_xi, k_phi = submanifold_plane_curvature_array(
        xi, np.stack((p, p)), np.stack((xiv, w)), np.stack((w, phi_w))).tolist()

    designated = max(abs(k_xi - 0.25), abs(k_phi - 1.25))
    verdict = "pass" if (lo >= 0.25 - 1e-6 and hi <= 1.25 + 1e-6
                         and designated <= 1e-10
                         and cross_resid <= 1e-8) else "fail"
    notes = [
        f"observed range [{lo:.9f}, {hi:.9f}] over {config.planes} planes",
        f"designated sections: xi-plane {k_xi:.12f}, phi-plane {k_phi:.12f}",
        f"closed form vs bundle curvature route: max gap {cross_resid:.3e} "
        f"on {cross_planes} planes",
    ]
    report = VerificationReport(
        name="scan-submanifold", parameters=_params(config),
        samples=config.planes,
        max_residual=max(max(0.25 - lo, 0.0), max(hi - 1.25, 0.0),
                         designated, cross_resid),
        tolerance=1e-6, verdict=verdict, notes=notes)
    return report, ks, (("xi-section", k_xi), ("phi-section", k_phi))


def _scan_bundle(xi, config) -> tuple:
    sphere = xi.sphere

    def curvatures(start, draws):
        # five tangents per plane: the anchor u, then hx, vx, hy, vy
        p, t = sphere.stacked_tangents(draws)
        u = unit_rows(t[:, 0])
        vx, vy = (tangential_lift_array(v, u) for v in (t[:, 2], t[:, 4]))
        return {"curvature": bundle_sectional_curvature_array(
            sphere, p, u, t[:, 1], vx, t[:, 3], vy)}

    ks = stream_chunks(config.seed, 10 ** 9, config.planes, _STREAM_CHUNK,
                       (6, sphere.ambient_dim), "bundle plane",
                       curvatures)["curvature"].tolist()
    lo, hi = min(ks), max(ks)
    residual = max(max(-lo, 0.0), max(hi - 1.25, 0.0))
    verdict = "pass" if residual <= 1e-6 else "fail"
    notes = [f"observed bundle range [{lo:.9f}, {hi:.9f}] "
             f"over {config.planes} planes"]
    return VerificationReport(
        name="scan-bundle", parameters=_params(config), samples=config.planes,
        max_residual=residual, tolerance=1e-6, verdict=verdict,
        notes=notes), ks, ()


def _plane_rows_csv(scans) -> str:
    """Each scan's plane rows and designated sections, then each scan's
    observed range over its sampled planes; ``scans`` holds a
    (report, kind, curvatures, sections) tuple per scan."""
    import csv as _csv
    import io as _io
    buf = _io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["plane_id", "type", "curvature"])
    for _, kind, ks, sections in scans:
        writer.writerows([j, kind, format(K, ".17g")]
                         for j, K in (*enumerate(ks), *sections))
    for report, _, ks, _ in scans:
        writer.writerow([f"summary-{report.name}", "min", format(min(ks), ".17g")])
        writer.writerow([f"summary-{report.name}", "max", format(max(ks), ".17g")])
    return buf.getvalue()


# -- variation ----------------------------------------------------------------


def cmd_variation(config: RunConfig) -> int:
    # the only command that runs the variation layer; others never load it
    from .variation import stability_verdict
    report = stability_verdict(config.dim, samples=config.samples,
                               fiber_steps=config.fiber_steps, seed=config.seed)
    _emit([report], config)
    return 0 if report.ok else 1


# -- svd ----------------------------------------------------------------------


def cmd_svd(config: RunConfig) -> int:
    xi = build_field(config)
    sphere = xi.sphere
    if config.field == "meridian":
        theta = config.theta if config.theta is not None else math.pi / 3.0
        if not 0.001 < theta < math.pi - 0.001:
            raise UsageError("theta must avoid the poles")
        coords = np.zeros(sphere.ambient_dim)
        coords[0] = math.cos(theta)
        coords[1] = math.sin(theta)
        p = sphere.point(coords * sphere.radius)
    elif config.theta is not None:
        raise UsageError("theta is read for the meridian field only; the hopf "
                         "field's sample point is drawn from the seed")
    else:
        p = _sample_point(xi, np.random.default_rng((config.seed, 0)))

    t0 = time.perf_counter()
    sd = singular_decomposition(xi, p.coords[None])[0]
    e = sd.right_frame.matrix
    f = sd.left_frame.matrix
    applied = shape_apply_array(xi, p.coords, e)
    assembly = float(np.max(np.linalg.norm(
        applied - sd.lambdas[:, None] * f, axis=1)))
    normality = covariant_normality_residual(xi, p)
    spectrum = ", ".join(format(v, ".9g") for v in sd.lambdas)
    notes = [
        f"lambda spectrum: ({spectrum})",
        f"frame assembly residual: {assembly:.3e}",
        f"covariant normality |A A* - A* A|: {normality:.3e}",
    ]
    killing = is_killing(xi, p.coords[None])[0]
    if killing <= _killing_tol(sphere.radius):
        kd = killing_canonical_frames(xi, p)
        m = np.count_nonzero(kd.lambdas) // 2  # unpaired slots hold 0.0
        ke = kd.right_frame.matrix
        kf = kd.left_frame.matrix
        ka = shape_apply_array(xi, p.coords, ke)
        # A e_i = lambda_i f_i with f_a = e_(m+a) and f_(m+a) = -e_a, a = 1..m
        f_ref = np.concatenate([ke[m + 1:2 * m + 1], -ke[1:m + 1]])
        rel = float(np.max(_row_norms(np.concatenate([
            ka[1:2 * m + 1] - kd.lambdas[1:2 * m + 1, None] * f_ref,
            kf[1:2 * m + 1] - f_ref])), initial=0.0))
        notes.append(f"killing canonical pairing: {m} pairs, relation residual "
                     f"{rel:.3e}")
    else:
        notes.append(f"killing residual {killing:.3e}: "
                     "no canonical pairing")
    # scaled by the largest lambda as the spectrum note prints it, so a unit
    # spectrum that the SVD returns a few ulps above 1 keeps 1e-6
    tol = TOL_ANALYTIC * max(1.0, float(format(np.max(sd.lambdas), ".9g")))
    verdict = "pass" if assembly <= tol else "fail"
    rep = VerificationReport(
        name="svd", parameters=_params(config), samples=1,
        max_residual=assembly, tolerance=tol, verdict=verdict, notes=notes,
        wall_time_s=time.perf_counter() - t0)
    _emit([rep], config)
    return 0 if rep.ok else 1


# -- plumbing -------------------------------------------------------------------


def _params(config: RunConfig) -> dict:
    out = {"field": config.field, "dim": config.dim, "radius": config.radius,
           "seed": config.seed}
    if config.command == "verify":
        out["suite"] = config.suite
        out["samples"] = config.samples
    elif config.command == "scan-curvature":
        out["planes"] = config.planes
        out["mode"] = config.mode
    elif config.command == "svd" and config.theta is not None:
        out["theta"] = config.theta
    return out


def _write_text(text: str, config: RunConfig) -> None:
    if config.out:
        try:
            Path(config.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write report: {exc}")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit(reports: list, config: RunConfig) -> None:
    if config.format == "csv":
        _write_text(reports_to_csv(reports), config)
    else:
        _write_text(reports_to_json(reports), config)


def _parse_config_file(path: str, command: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise UsageError(f"config line {lineno} is not key=value: {raw!r}")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if key not in _OPTIONS:
            raise UsageError(f"unknown config key {key!r}")
        if key not in _READS[command]:
            raise UsageError(f"config key {key!r} is not read by {command}")
        option = _OPTIONS[key]
        try:
            out[key] = option.get("type", str)(val)
            if "choices" in option and out[key] not in option["choices"]:
                raise ValueError(val)
        except ValueError:
            raise UsageError(f"config line {lineno}: bad value for {key}: {val!r}")
    return out


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing keeps no state in it, so every
    ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="tgeo", allow_abbrev=False,
        description="Numerical verification for unit vector fields on round "
                    "spheres and the geometry of their tangent-bundle sections.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in (("verify", "run a verification suite"),
                             ("scan-curvature", "sample plane curvatures"),
                             ("variation", "second-variation stability run"),
                             ("svd", "singular frames at one point")):
        p = sub.add_parser(command, help=summary, allow_abbrev=False)
        if command == "verify":
            p.add_argument("suite", choices=_SUITE_RUNNERS)
        for name in _READS[command]:
            p.add_argument("--" + name.replace("_", "-"), **_OPTIONS[name])
        p.add_argument("--config", help="flat key=value config file; flags win")
    return parser


def _build_config(args: argparse.Namespace) -> RunConfig:
    merged = {}
    env_seed = os.environ.get("TGEO_SEED")
    if env_seed is not None:
        try:
            merged["seed"] = int(env_seed)
        except ValueError:
            raise UsageError(f"TGEO_SEED must be an integer, got {env_seed!r}")
    if args.config:
        merged.update(_parse_config_file(args.config, args.command))
    for key in _READS[args.command]:
        val = getattr(args, key)
        if val is not None:
            merged[key] = val
    suite = getattr(args, "suite", None)
    if suite == "jacobi" and "tol" in merged:
        raise UsageError("verify jacobi does not read tol: it judges against "
                         f"the fixed analytic tolerance {TOL_ANALYTIC:g}")
    config = RunConfig(command=args.command, suite=suite, **merged)
    config.validate()
    return config


_COMMANDS = {
    "verify": cmd_verify,
    "scan-curvature": cmd_scan_curvature,
    "variation": cmd_variation,
    "svd": cmd_svd,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return 0 if code == 0 else 2
    try:
        config = _build_config(args)
        return _COMMANDS[config.command](config)
    except _NUMERICAL_FAILURES as exc:
        failure = exc
    except (UsageError, PreconditionError, DegenerateInputError) as exc:
        # a row check (it sets ``row``; the wrappers' checks are row checks)
        # failed on sampled data, not on input
        if not hasattr(exc, "row"):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        failure = exc
    print(f"numerical failure: {failure}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
