"""Command-line front end: verification suites, curvature scans, SVD reports,
and second-variation runs, with deterministic seeded sampling and JSON/CSV
report output.

Exit codes: 0 all checks passed, 1 verification failure, 2 usage or
configuration error, 3 numerical failure (frame assembly, fiber propagation,
quadrature rejection, singular locus, degenerate curvature plane, a failing
check on a sampled plane).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .manifold import (
    DegenerateInputError,
    DegeneratePlaneError,
    SpherePoint,
    unit_rows,
)
from .fields import (
    TOL_ANALYTIC,
    DecompositionFailure,
    PreconditionError,
    SingularLocusError,
    UnitVectorField,
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
    second_form_direct,
    second_form_lemma,
    submanifold_plane_curvature,
    submanifold_plane_curvature_array,
    tangential_lift_array,
    xi_tangential_lift_array,
)
from .variation import (
    PropagationFailure,
    Quadrature,
    QuadratureFailure,
    destabilizing_integrand,
    integrate_over_sphere,
    random_hopf_combination,
    reduced_integrand,
    stability_verdict,
)
from .report import VerificationReport, reports_to_csv, reports_to_json


class UsageError(ValueError):
    """Bad flags, bad config file, or an invalid parameter combination."""


_VERIFY_SUITES = ("totally-geodesic", "predicates", "codazzi", "jacobi",
                  "obstruction")

# Every settable key with its value parser; defaults live in RunConfig. The
# config-file key ``tol`` is an alias of ``tol_fd``.
_CONFIG_KEYS = {"field": str, "dim": int, "radius": float, "samples": int,
                "planes": int, "fiber_steps": int, "tol_fd": float, "seed": int,
                "out": str, "format": str, "mode": str, "theta": float}


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
    tol_fd: float = 1e-4
    seed: int = 0
    out: str | None = None
    format: str = "json"
    mode: str | None = None
    theta: float | None = None

    def validate(self) -> None:
        if self.field not in ("hopf", "meridian"):
            raise UsageError(f"unknown field {self.field!r}")
        if self.dim < 2:
            raise UsageError("dim must be >= 2")
        if self.field == "hopf" and (self.dim % 2 == 0 or self.dim < 3):
            raise UsageError("the hopf field needs an odd sphere dimension >= 3")
        if not self.radius > 0:
            raise UsageError("radius must be positive")
        if self.samples < 1:
            raise UsageError("samples must be >= 1")
        if self.planes < 1:
            raise UsageError("planes must be >= 1")
        if self.fiber_steps < 64:
            raise UsageError("fiber-steps must be >= 64")
        if not self.tol_fd > 0:
            raise UsageError("tolerances must be positive")
        if self.format not in ("json", "csv"):
            raise UsageError(f"unknown format {self.format!r}")


def build_field(config: RunConfig) -> UnitVectorField:
    if config.field == "hopf":
        return hopf_field((config.dim - 1) // 2, config.radius)
    axis = np.zeros(config.dim + 1)
    axis[0] = 1.0
    return meridian_field(axis, config.radius)


def _sample_point(xi: UnitVectorField, rng: np.random.Generator) -> SpherePoint:
    """Seeded point, redrawn away from the polar caps for meridian fields."""
    sphere = xi.sphere
    while True:
        p = sphere.random_point(rng)
        if xi.name != "meridian":
            return p
        c = abs(float(p.coords[0])) / sphere.radius
        if c < 0.95:
            return p


def _sample_points(xi: UnitVectorField, config: RunConfig):
    """(rng, point) for each sample index, one seeded stream per index."""
    for idx in range(config.samples):
        rng = np.random.default_rng((config.seed, idx))
        yield rng, _sample_point(xi, rng)


# -- verify suites ---------------------------------------------------------


def _run_totally_geodesic(config: RunConfig) -> list:
    xi = build_field(config)
    max_lemma = 0.0
    max_direct = 0.0
    max_asym = 0.0
    for _, p in _sample_points(xi, config):
        sd = singular_decomposition(xi, p)
        om_l = second_form_lemma(xi, p, sd)
        om_d = second_form_direct(xi, p, sd)
        max_lemma = max(max_lemma, om_l.max_abs())
        max_direct = max(max_direct, om_d.max_abs())
        max_asym = max(max_asym, float(np.max(np.abs(
            om_d.omega - np.transpose(om_d.omega, (0, 2, 1))))))
    residual = max(max_lemma, max_direct)
    notes = [
        f"max |Omega| half-curvature route: {max_lemma:.6e}",
        f"max |Omega| connection route:     {max_direct:.6e}",
        f"max |Omega_ij - Omega_ji| (connection route): {max_asym:.3e}",
    ]
    verdict = "pass" if residual <= config.tol_fd else "fail"
    if config.field == "hopf" and abs(config.radius - 1.0) > 1e-12:
        notes += _nonunit_pattern_notes(xi, config)
        if verdict == "pass":
            # the closed form is nonzero at every radius but 1; a residual
            # inside the tolerance means the tolerance cannot resolve it
            verdict = "fail"
            notes.append(
                "hopf field off unit radius is not totally geodesic: closed-form "
                f"peak {_nonunit_peak(xi.sphere.curvature_constant):.3e} is "
                f"nonzero but below the tolerance {config.tol_fd:.1e}")
    rep = VerificationReport(
        name="totally-geodesic",
        parameters=_params(config), samples=config.samples,
        max_residual=residual, tolerance=config.tol_fd, verdict=verdict,
        notes=notes)
    return [rep]


def _nonunit_peak(K: float) -> float:
    """The closed form (1/2) K (1-K) / (1+K) of the Hopf field's pattern peak
    on a sphere of curvature K."""
    return 0.5 * K * (1.0 - K) / (1.0 + K)


def _nonunit_pattern_notes(xi: UnitVectorField, config: RunConfig) -> list:
    """Which closed form the nonzero second-form pattern matches, at one
    canonically framed sample point."""
    K = xi.sphere.curvature_constant
    cand_a = _nonunit_peak(K)
    cand_b = K * (1.0 - K) / (2.0 * (1.0 + K) ** 1.5)
    rng = np.random.default_rng((config.seed, 0))
    p = _sample_point(xi, rng)
    kd = killing_canonical_frames(xi, p)
    om = second_form_direct(xi, p, kd)
    m = (xi.sphere.dim - 1) // 2
    n1 = xi.sphere.dim
    mask = np.zeros_like(om.omega, dtype=bool)
    for a in range(1, m + 1):
        mask[a - 1, m + a, 0] = mask[a - 1, 0, m + a] = True
        mask[m + a - 1, a, 0] = mask[m + a - 1, 0, a] = True
    peak = float(np.max(np.abs(om.omega[mask]))) if n1 > 1 else 0.0
    off = float(np.max(np.abs(np.where(mask, 0.0, om.omega))))
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


def _run_predicates(config: RunConfig) -> list:
    xi = build_field(config)
    unit_radius = abs(config.radius - 1.0) <= 1e-12
    expected_fail = set()
    informational = set()
    if config.field == "meridian":
        expected_fail = {"killing", "sasakian"}
        informational = {"strongly-normal"}
    elif not unit_radius:
        expected_fail = {"sasakian"}

    worst: dict = {}
    for _, p in _sample_points(xi, config):
        vals = {
            "geodesic": is_geodesic(xi, p).residual,
            "killing": is_killing(xi, p).residual,
            "normal": is_normal(xi, p).residual,
            "strongly-normal": is_strongly_normal(xi, p).residual,
            "sasakian": sasakian_identity_residual(xi, p),
        }
        for k, v in vals.items():
            worst[k] = max(worst.get(k, 0.0), v)

    tol = config.tol_fd
    notes = []
    all_matched = True
    strict_max = 0.0
    for name in ("geodesic", "killing", "normal", "strongly-normal", "sasakian"):
        resid = worst[name]
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
    verdict = "pass" if (all_matched and strict_max <= tol) else "fail"
    rep = VerificationReport(
        name="predicates", parameters=_params(config), samples=config.samples,
        max_residual=strict_max, tolerance=tol, verdict=verdict, notes=notes)
    return [rep]


def _run_codazzi(config: RunConfig) -> list:
    xi = build_field(config)
    sphere = xi.sphere
    residual = 0.0
    for rng, p in _sample_points(xi, config):
        frame = sphere.random_orthonormal_frame(p, rng)
        X, Y = frame[0], frame[1]
        lhs = half_curvature(xi, X, Y).vec - half_curvature(xi, Y, X).vec
        rhs = sphere.curvature_array(X.vec, Y.vec, xi.value_array(p.coords))
        residual = max(residual, float(np.linalg.norm(lhs - rhs)))
    verdict = "pass" if residual <= config.tol_fd else "fail"
    return [VerificationReport(
        name="codazzi", parameters=_params(config), samples=config.samples,
        max_residual=residual, tolerance=config.tol_fd, verdict=verdict,
        notes=["antisymmetrized half curvature against R(X,Y)xi"])]


def _run_jacobi(config: RunConfig) -> list:
    xi = build_field(config)
    residual = 0.0
    for _, p in _sample_points(xi, config):
        residual = max(residual, jacobi_relation_residual(xi, p))
    tol = TOL_ANALYTIC
    verdict = "pass" if residual <= tol else "fail"
    return [VerificationReport(
        name="jacobi", parameters=_params(config), samples=config.samples,
        max_residual=residual, tolerance=tol, verdict=verdict,
        notes=["A*A X compared with R(X, xi) xi over a frame"])]


def _run_obstruction(config: RunConfig) -> list:
    xi = build_field(config)
    sphere = xi.sphere
    consistency = 0.0
    closed_form = 0.0
    magnitude = 0.0
    for _, p in _sample_points(xi, config):
        sd = singular_decomposition(xi, p)
        obs = geodesic_field_obstruction(xi, p, sd)
        om = second_form_lemma(xi, p, sd)
        consistency = max(consistency, float(np.max(np.abs(
            obs - om.omega[:, 1:, 0]))))
        magnitude = max(magnitude, float(np.max(np.abs(obs))))
        if config.field == "meridian":
            closed_form = max(closed_form, _meridian_obstruction_gap(xi, p, sd, obs))
    notes = [
        f"max |obstruction - Omega_(s|a,0)|: {consistency:.3e}",
        f"max |obstruction| over samples: {magnitude:.6f}",
    ]
    residual = consistency
    if config.field == "meridian":
        notes.append(f"closed-form (cot^2 + 1) gap: {closed_form:.3e}")
        residual = max(residual, closed_form)
    else:
        residual = max(residual, magnitude)  # hopf at unit radius: must vanish
    verdict = "pass" if residual <= config.tol_fd else "fail"
    return [VerificationReport(
        name="obstruction", parameters=_params(config), samples=config.samples,
        max_residual=residual, tolerance=config.tol_fd, verdict=verdict,
        notes=notes)]


def _meridian_obstruction_gap(xi, p, sd, obs) -> float:
    """Closed form -(1/2) Lambda (cot^2(theta) + 1) <e_a, f_s> off the equator."""
    ct = float(p.coords[0]) / xi.sphere.radius  # cos(theta)
    st_sq = max(1.0 - ct * ct, 1e-300)
    factor = ct * ct / st_sq + 1.0
    lam = sd.lambdas
    e = sd.right_frame.matrix
    f = sd.left_frame.matrix
    scale = 1.0 / np.sqrt(1.0 + lam[1:] ** 2)
    expected = -0.5 * np.outer(scale, scale) * factor * (f[1:] @ e[1:].T)
    return float(np.max(np.abs(obs - expected)))


_SUITE_RUNNERS = {
    "totally-geodesic": _run_totally_geodesic,
    "predicates": _run_predicates,
    "codazzi": _run_codazzi,
    "jacobi": _run_jacobi,
    "obstruction": _run_obstruction,
}


def cmd_verify(config: RunConfig) -> int:
    t0 = time.perf_counter()
    reports = _SUITE_RUNNERS[config.suite](config)
    for rep in reports:
        rep.wall_time_s = time.perf_counter() - t0
    _emit(reports, config)
    return 0 if all(r.ok for r in reports) else 1


# -- curvature scan ----------------------------------------------------------


def cmd_scan_curvature(config: RunConfig) -> int:
    mode = config.mode or "submanifold"
    if mode not in ("submanifold", "bundle", "both"):
        raise UsageError(f"unknown scan mode {mode!r}")
    if config.field != "hopf":
        raise UsageError("curvature scans are defined for the hopf field")
    if mode != "bundle" and abs(config.radius - 1.0) > 1e-12:
        raise UsageError("submanifold curvature scans need unit radius")
    xi = build_field(config)

    rows = []
    reports = []
    for kind, scan in (("submanifold", _scan_submanifold),
                       ("bundle", _scan_bundle)):
        if mode in (kind, "both"):
            t0 = time.perf_counter()
            reports.append(scan(xi, config, rows))
            reports[-1].wall_time_s = time.perf_counter() - t0

    if config.format == "csv":
        _write_text(_plane_rows_csv(rows, reports), config)
    else:
        _write_text(reports_to_json(reports), config)
    return 0 if all(r.ok for r in reports) else 1


# Planes per stacked batch: enough to spread numpy's per-call overhead thin,
# few enough that a batch's arrays stay small (S^15 frames: 0.5 MB).
_SCAN_CHUNK = 256


def _scan_chunks(config, stream0: int, shape: tuple, kind: str, rows: list,
                 curvatures) -> tuple:
    """Run a scan in batches of planes; return its observed (min, max).

    Plane idx draws ``shape`` standard normals from its own stream
    (seed, stream0 + idx), the numbers the one-plane code drew call by call.
    ``curvatures(start, draws)`` maps a batch to its curvatures; a row-level
    failure is re-raised naming the plane and the seed tuple that replays it.
    """
    lo, hi = math.inf, -math.inf
    buf = np.empty((_SCAN_CHUNK,) + shape)
    for start in range(0, config.planes, _SCAN_CHUNK):
        draws = buf[:min(_SCAN_CHUNK, config.planes - start)]
        for j, out in enumerate(draws):
            rng = np.random.default_rng((config.seed, stream0 + start + j))
            rng.standard_normal(out=out)
        try:
            ks = curvatures(start, draws).tolist()
        except (DegenerateInputError, DegeneratePlaneError) as exc:
            if not hasattr(exc, "row"):
                raise
            exc.row += start
            exc.args = (f"{exc}: {kind} plane {exc.row}, seed tuple "
                        f"({config.seed}, {stream0 + exc.row})",)
            raise
        rows.extend((start + j, kind, K) for j, K in enumerate(ks))
        lo, hi = min(lo, *ks), max(hi, *ks)
    return lo, hi


def _scan_submanifold(xi, config, rows) -> VerificationReport:
    sphere = xi.sphere
    cross_resid = 0.0
    cross_planes = min(config.planes, 500)

    def curvatures(start, draws):
        nonlocal cross_resid
        p, frames = sphere.stacked_frames(draws)
        X, Y = frames[:, 0], frames[:, 1]
        K = submanifold_plane_curvature_array(xi, p, X, Y)
        m = cross_planes - start
        if m > 0:  # cross-check the closed form against the bundle route
            u, x1, x2 = xi_tangential_lift_array(xi, p[:m], X[:m])
            _, y1, y2 = xi_tangential_lift_array(xi, p[:m], Y[:m])
            Kq = bundle_sectional_curvature_array(sphere, p[:m], u, x1, x2, y1, y2)
            cross_resid = max(cross_resid, *np.abs(K[:m] - Kq).tolist())
        return K

    lo, hi = _scan_chunks(config, 0, (1 + sphere.dim, sphere.ambient_dim),
                          "submanifold", rows, curvatures)

    # designated sections at a seeded point
    rng = np.random.default_rng((config.seed, config.planes))
    p = sphere.random_point(rng)
    xiv = xi.value(p)
    W = sphere.complete_frame([xiv])[1]
    k_xi = submanifold_plane_curvature(xi, xiv, W)
    phi_w = (-1.0 * sphere.tangent(p, shape_apply_array(xi, p.coords, W.vec))).unit()
    k_phi = submanifold_plane_curvature(xi, W, phi_w)
    rows.append(("xi-section", "submanifold", k_xi))
    rows.append(("phi-section", "submanifold", k_phi))

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
    return VerificationReport(
        name="scan-submanifold", parameters=_params(config),
        samples=config.planes,
        max_residual=max(max(0.25 - lo, 0.0), max(hi - 1.25, 0.0),
                         designated, cross_resid),
        tolerance=1e-6, verdict=verdict, notes=notes)


def _scan_bundle(xi, config, rows) -> VerificationReport:
    sphere = xi.sphere

    def curvatures(start, draws):
        # five tangents per plane: the anchor u, then hx, vx, hy, vy
        p, t = sphere.stacked_tangents(draws)
        u = unit_rows(t[:, 0])
        vx, vy = (tangential_lift_array(v, u) for v in (t[:, 2], t[:, 4]))
        return bundle_sectional_curvature_array(sphere, p, u, t[:, 1], vx,
                                                t[:, 3], vy)

    lo, hi = _scan_chunks(config, 10 ** 9, (6, sphere.ambient_dim), "bundle",
                          rows, curvatures)
    residual = max(max(-lo, 0.0), max(hi - 1.25, 0.0))
    verdict = "pass" if residual <= 1e-6 else "fail"
    notes = [f"observed bundle range [{lo:.9f}, {hi:.9f}] "
             f"over {config.planes} planes"]
    return VerificationReport(
        name="scan-bundle", parameters=_params(config), samples=config.planes,
        max_residual=residual, tolerance=1e-6, verdict=verdict, notes=notes)


def _plane_rows_csv(rows, reports) -> str:
    import csv as _csv
    import io as _io
    buf = _io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["plane_id", "type", "curvature"])
    for pid, kind, K in rows:
        writer.writerow([pid, kind, format(K, ".17g")])
    for rep in reports:
        summary_lo = min(K for _, kind, K in rows if kind == rep.name.split("-")[1])
        summary_hi = max(K for _, kind, K in rows if kind == rep.name.split("-")[1])
        writer.writerow([f"summary-{rep.name}", "min", format(summary_lo, ".17g")])
        writer.writerow([f"summary-{rep.name}", "max", format(summary_hi, ".17g")])
    return buf.getvalue()


# -- variation ----------------------------------------------------------------


def cmd_variation(config: RunConfig) -> int:
    if config.field != "hopf":
        raise UsageError("variation analysis is defined for the hopf field")
    if abs(config.radius - 1.0) > 1e-12:
        raise UsageError("variation analysis needs unit radius")
    xi = build_field(config)
    mode = config.mode or "auto"
    report = stability_verdict(config.dim, mode, samples=config.samples,
                               fiber_steps=config.fiber_steps,
                               seed=config.seed)
    # magnitude estimate for the second variation of the run's witness family
    sphere = xi.sphere
    if report.parameters["mode"] == "instability":
        fn = destabilizing_integrand(xi)
    else:
        eta0 = random_hopf_combination(np.random.default_rng((config.seed, 0)))
        fn = lambda q: reduced_integrand(xi, eta0, sphere.point(q))
    quad = integrate_over_sphere(fn, sphere, Quadrature(config.samples, config.seed))
    report.notes.append(
        f"Monte Carlo second-variation magnitude: {quad.value:.6f} "
        f"+/- {quad.std_error:.3e} over volume {quad.volume:.6f}")
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
    else:
        p = _sample_point(xi, np.random.default_rng((config.seed, 0)))

    t0 = time.perf_counter()
    sd = singular_decomposition(xi, p)
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
    killing = is_killing(xi, p)
    if killing.passed:
        kd = killing_canonical_frames(xi, p)
        m = int(np.count_nonzero(kd.lambdas > 1e-7)) // 2
        ke = kd.right_frame.matrix
        kf = kd.left_frame.matrix
        ka = shape_apply_array(xi, p.coords, ke)
        rel = 0.0
        for a in range(1, m + 1):
            rel = max(rel,
                      float(np.linalg.norm(ka[a] - kd.lambdas[a] * ke[m + a])),
                      float(np.linalg.norm(ka[m + a] + kd.lambdas[a] * ke[a])),
                      float(np.linalg.norm(kf[a] - ke[m + a])),
                      float(np.linalg.norm(kf[m + a] + ke[a])))
        notes.append(f"killing canonical pairing: {m} pairs, relation residual "
                     f"{rel:.3e}")
    else:
        notes.append(f"killing residual {killing.residual:.3e}: "
                     "no canonical pairing")
    tol = TOL_ANALYTIC
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
        out["mode"] = config.mode or "submanifold"
    elif config.command == "variation":
        out["samples"] = config.samples
        out["mode"] = config.mode or "auto"
    elif config.command == "svd" and config.theta is not None:
        out["theta"] = config.theta
    return out


def _write_text(text: str, config: RunConfig) -> None:
    if config.out:
        Path(config.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit(reports: list, config: RunConfig) -> None:
    if config.format == "csv":
        _write_text(reports_to_csv(reports), config)
    else:
        _write_text(reports_to_json(reports), config)


def _parse_config_file(path: str) -> dict:
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
        if key == "tol":
            key = "tol_fd"
        if key not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r}")
        try:
            out[key] = _CONFIG_KEYS[key](val)
        except ValueError:
            raise UsageError(f"config line {lineno}: bad value for {key}: {val!r}")
    return out


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--field", choices=("hopf", "meridian"))
    p.add_argument("--dim", type=int)
    p.add_argument("--radius", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--fiber-steps", dest="fiber_steps", type=int)
    p.add_argument("--tol", dest="tol_fd", type=float, metavar="TOL",
                   help="finite-difference tolerance")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"))
    p.add_argument("--config", help="flat key=value config file; flags win")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tgeo",
        description="Numerical verification for unit vector fields on round "
                    "spheres and the geometry of their tangent-bundle sections.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=_VERIFY_SUITES)
    _add_common(verify)

    scan = sub.add_parser("scan-curvature", help="sample plane curvatures")
    scan.add_argument("--planes", type=int)
    scan.add_argument("--mode", choices=("submanifold", "bundle", "both"))
    _add_common(scan)

    var = sub.add_parser("variation", help="second-variation stability run")
    var.add_argument("--mode", choices=("auto", "stable-S3", "instability"))
    _add_common(var)

    svd = sub.add_parser("svd", help="singular frames at one point")
    svd.add_argument("--theta", type=float,
                     help="polar angle of the sample point (meridian field)")
    _add_common(svd)
    return parser


def _build_config(args: argparse.Namespace) -> RunConfig:
    merged = {}
    env_seed = os.environ.get("TGEO_SEED")
    if env_seed is not None:
        try:
            merged["seed"] = int(env_seed)
        except ValueError:
            raise UsageError(f"TGEO_SEED must be an integer, got {env_seed!r}")
    if getattr(args, "config", None):
        merged.update(_parse_config_file(args.config))
    for key in _CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    config = RunConfig(command=args.command,
                       suite=getattr(args, "suite", None), **merged)
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
    except (DecompositionFailure, DegeneratePlaneError, PropagationFailure,
            QuadratureFailure, SingularLocusError) as exc:
        failure = exc
    except (UsageError, PreconditionError, DegenerateInputError) as exc:
        # a row check (it sets ``row``) failed on sampled data, not on input
        if not hasattr(exc, "row"):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        failure = exc
    print(f"numerical failure: {failure}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
