"""The stack table: each kernel that takes a stack of rows, with the builder
of its stack, its one-row call and its one-row reference.

Row k of a stacked call must have the bits of the one-row stack of row k and
of a reference that works one row at a time (``assert_identical``: bits
under the interpreter and numpy the benchmark digests were recorded with, a
last-bit margin elsewhere). The references are the one-row formulas the
kernels replaced, written with ``@``, ``np.outer``, ``np.linalg.norm`` and
the one-matrix ``ref_gram_schmidt``. The builders are cached, so rows that
share a stack build it once. Each row is printed under the test that names
its case, in test_point_stacks.py, test_direction_stacks.py,
test_scan_batches.py, test_variation_batches.py and test_sasaki.py; a new
case is one row.
"""

import math
from functools import lru_cache, partial
from types import SimpleNamespace as ns

import numpy as np
import pytest

import tgeo.cli as cli
import tgeo.manifold as manifold
import tgeo.variation as variation
from tgeo import (
    SphereSpec,
    complex_structure,
    destabilizing_field,
    destabilizing_integrand,
    geodesic_field_obstruction,
    half_curvature,
    hopf_field,
    horizontal_extension_field,
    is_geodesic,
    is_killing,
    is_normal,
    is_strongly_normal,
    jacobi_relation_residual,
    meridian_field,
    propagate_fiber_frame,
    random_hopf_combination,
    reduced_integrand,
    s3_stable_form,
    sasakian_identity_residual,
    second_form_direct,
    second_form_lemma,
    shape_apply_array,
    shape_matrix,
    singular_decomposition,
)
from tgeo.fields import PREDICATE_SAMPLES
from tgeo.sasaki import (bundle_sectional_curvature_array, meridian_obstruction,
                         submanifold_plane_curvature_array,
                         xi_tangential_lift_array)
from tgeo.variation import (_LI, _LJ, _LK, _family_stack, _fiber_residual_rows,
                            _fiber_residuals, _horizontal_seed)

from conftest import (Check, assert_same, frame_rows, on_triples, point_stack,
                      random_frame, random_tangent, record_row, ref_gram_schmidt,
                      ref_half_curvature, ref_second_form_direct,
                      ref_second_form_lemma, seeded_points)

cache = lru_cache(maxsize=None)
ROWS = []


class Stack:
    """A stack-table row: ``stack()`` builds the inputs once (the builders
    cache them), with ``n`` rows; ``kernel(s)`` gives one output per row, and
    output k must equal ``one_row(s, k)`` and ``reference(s, k)``. Either may
    be None, or return None for a row it does not cover. ``patch(mp)`` sets
    up a monkeypatch for the kernel and the one-row calls."""

    def __init__(self, test, stack, kernel, one_row=None, reference=None,
                 patch=None):
        self.test, self.stack, self.kernel = test, stack, kernel
        self.one_row, self.reference, self.patch = one_row, reference, patch

    def check(self):
        s = self.stack()
        with pytest.MonkeyPatch.context() as mp:
            if self.patch:
                self.patch(mp)
            got = self.kernel(s)
            assert len(got) == s.n
            for k in range(s.n):
                for fn in (self.one_row, self.reference):
                    want = None if fn is None else fn(s, k)
                    if want is not None:
                        assert_same(got[k], want)


def stacked(fn):
    """``fn(xi, coords)`` on the whole stack."""
    return lambda s: fn(s.xi, s.coords)


def one_point(fn):
    """``fn(xi, coords)`` on the one-row stack of row k."""
    return lambda s, k: fn(s.xi, s.coords[k:k + 1])[0]


def per_point(ref):
    """The one-point reference ``ref(xi, point)`` of row k."""
    return lambda s, k: ref(s.xi, s.points[k])


def value_jacobian(field, pts):
    """(value, Jacobian) of ``field`` at each row of ``pts``."""
    return list(zip(field.value_array(pts), field.jacobian_array(pts)))


# -- sample points through the singular frames and both routes -------------------


ROUTE_FIELDS = {f"{xi.name}-s{xi.sphere.dim}-r{xi.sphere.radius:g}": xi for xi in (
    [hopf_field(m, r) for m in (1, 2, 3, 7) for r in (1.0, 2.0, 0.01, 1e3, 1e4)]
    + [hopf_field(15)]
    + [meridian_field(d, r) for d in (3, 5, 7, 15)
       for r in (1.0, 0.01, 1e3, 1e4)])}


def with_singular_data(s):
    """``s`` with the ``SingularData`` ``sd`` of its points and ``sds``, the
    one-row record of each point."""
    s.sd = singular_decomposition(s.xi, s.coords)
    s.sds = [record_row(s.sd, k) for k in range(len(s.coords))]
    return s


@cache
def route_stack(key, count, seed):
    """Seeded points with their singular data."""
    xi = ROUTE_FIELDS[key]
    points = seeded_points(xi, count, seed=seed)
    return with_singular_data(ns(n=count, xi=xi, points=points,
                                 coords=point_stack(points)))


@cache
def decomposition_stack(key):
    xi = ROUTE_FIELDS[key]
    points = seeded_points(xi, 4, seed=44)
    if xi.name == "meridian":
        # an equator point in the middle: lambda = 0, every left slot pending
        coords = np.zeros(xi.sphere.ambient_dim)
        coords[1] = xi.sphere.radius
        points.insert(2, xi.sphere.point(coords))
    return ns(n=len(points), xi=xi, coords=point_stack(points))


def frames_of(sd):
    return [frame_rows(sd, k) for k in range(len(sd.lambdas))]


def read_only(omega):
    assert not omega.flags.writeable
    return omega


def route_row(test, build, route, ref=None):
    return Stack(test, build, lambda s: read_only(route(s.xi, s.coords, s.sd)),
                 lambda s, k: route(s.xi, s.coords[k:k + 1], s.sds[k])[0],
                 ref and (lambda s, k: ref(s.xi, s.points[k], s.sds[k])))


for key, xi in ROUTE_FIELDS.items():
    build = partial(route_stack, key, 2 if xi.sphere.dim > 7 else 4, 40)
    test = f"test_point_stacks::test_stacked_routes_match_per_point_references[{key}]"
    ROWS += [route_row(test, build, second_form_lemma, ref_second_form_lemma),
             route_row(test, build, second_form_direct, ref_second_form_direct),
             Stack(f"test_point_stacks::test_stacked_decomposition_matches_per_"
                   f"point_calls[{key}]", partial(decomposition_stack, key),
                   lambda s: frames_of(singular_decomposition(s.xi, s.coords)),
                   lambda s, k: frames_of(singular_decomposition(
                       s.xi, s.coords[k:k + 1]))[0])]

# a full verify run on S^7, as many points as the run budget holds there,
# through the one pass over every direction
S7_RUN = manifold.run_rows(cli._sample_row_bytes("totally-geodesic",
                                                  ROUTE_FIELDS["hopf-s7-r1"].sphere))
ROWS.append(route_row("test_point_stacks::test_direct_route_full_chunk_matches_"
                      "one_row_calls",
                      partial(route_stack, "hopf-s7-r1", S7_RUN, 48),
                      second_form_direct))


# -- stacks of directions at one point, and the predicates ------------------------


FIELDS = {
    "hopf-s3": hopf_field(1, 1.0),
    "hopf-s7": hopf_field(3, 1.0),
    "hopf-s15": hopf_field(7, 1.0),
    "hopf-s5-r3": hopf_field(2, 3.0),
    "hopf-s7-r0.37": hopf_field(3, 0.37),
    "meridian-s2": meridian_field(2, 1.0),
    "meridian-s3": meridian_field(3, 1.0),
    "meridian-s5-r3": meridian_field(5, 3.0),
}


def tangent_rows(xi, p, count, seed):
    """``count`` seeded tangent vectors at p, not unit."""
    sphere = xi.sphere
    raw = np.random.default_rng(seed).standard_normal((count, sphere.ambient_dim))
    return sphere.project_array(p.coords[None], raw)


def ref_meridian(axis, radius, p):
    """The meridian field's value and Jacobian at one point, with the scalar
    arithmetic of a one-point formula (``s ** 3`` on a float)."""
    r2 = radius ** 2
    ap = axis @ p
    c = ap / r2
    value = (axis - c * p) / np.sqrt(1.0 - c * ap)
    s = np.sqrt(1.0 - ap * ap / r2)
    u = axis - (ap / r2) * p
    jac = (-(np.outer(p, axis) + ap * np.eye(len(axis))) / (r2 * s)
           + (ap / (r2 * s ** 3)) * np.outer(u, u))
    return value, jac


def ref_unit_perp_samples(xi, p, rng, count):
    """One draw at a time, kept when not too close to the field."""
    sphere = xi.sphere
    xiv = xi.value_array(p.coords)
    out = []
    while len(out) < count:
        v = sphere.project_array(p.coords, rng.standard_normal(sphere.ambient_dim))
        v -= (v @ xiv) * xiv
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            out.append(v / norm)
    return np.array(out)


def ref_is_normal(xi, p):
    sphere = xi.sphere
    xiv = xi.value_array(p.coords)
    vecs = ref_unit_perp_samples(xi, p, np.random.default_rng(0),
                                 3 * PREDICATE_SAMPLES)
    resid = 0.0
    for k in range(PREDICATE_SAMPLES):
        x, y, z = vecs[3 * k], vecs[3 * k + 1], vecs[3 * k + 2]
        resid = max(resid, abs(float(sphere.curvature_array(x, y, z) @ xiv)))
    return resid


def ref_is_strongly_normal(xi, p):
    vecs = ref_unit_perp_samples(xi, p, np.random.default_rng(0),
                                 3 * PREDICATE_SAMPLES)
    resid = 0.0
    for k in range(PREDICATE_SAMPLES):
        x, y, z = vecs[3 * k], vecs[3 * k + 1], vecs[3 * k + 2]
        r_val = half_curvature(xi, p.coords, x, y)
        resid = max(resid, abs(float(r_val @ z)))
    return resid


def ref_sasakian_identity_residual(xi, p):
    sphere = xi.sphere
    rng = np.random.default_rng(0)
    xiv = xi.value_array(p.coords)
    resid = 0.0
    for _ in range(PREDICATE_SAMPLES):
        raw = sphere.project_array(p.coords,
                                   rng.standard_normal((2, sphere.ambient_dim)))
        norms = np.linalg.norm(raw, axis=1)
        if np.min(norms) < 1e-6:
            continue
        x, y = raw / norms[:, None]
        fd = sphere.fd_derivative_array(xi.value_array, p.coords, x)
        resid = max(resid, float(np.linalg.norm(
            fd - xi.covariant_derivative_array(p.coords, x))))
        r_val = half_curvature(xi, p.coords, x, y)
        target = (xiv @ y) * x - (x @ y) * xiv
        resid = max(resid, float(np.linalg.norm(r_val - target)))
    return resid


def ref_is_geodesic(xi, p):
    return np.linalg.norm(shape_apply_array(xi, p.coords, xi.value_array(p.coords)))


def ref_is_killing(xi, p):
    M = shape_matrix(xi, p.coords, xi.sphere.standard_frame_rows(p.coords[None])[0])
    return np.linalg.norm(M + M.T, 2)


def ref_jacobi_relation_residual(xi, p):
    """One frame vector at a time."""
    rows = xi.sphere.standard_frame_rows(p.coords[None])[0]
    M = shape_matrix(xi, p.coords, rows)
    xic = rows @ xi.value_array(p.coords)
    k = xi.sphere.curvature_constant
    gram = M.T @ M
    resid = 0.0
    for x in np.eye(len(rows)):
        rhs = k * (x - (x @ xic) * xic)
        resid = max(resid, float(np.linalg.norm(gram @ x - rhs)))
    return resid


def ref_obstruction(xi, p, sd):
    lam, e, f = frame_rows(sd)
    ae = shape_apply_array(xi, p.coords, e[1:])
    a2e = shape_apply_array(xi, p.coords, ae)
    scale = 1.0 / np.sqrt(1.0 + lam[1:] ** 2)
    return -0.5 * np.outer(scale, scale) * (f[1:] @ (a2e + e[1:]).T)


def ref_meridian_obstruction(sd, ct):
    lam, e, f = frame_rows(sd)
    factor = ct * ct / max(1.0 - ct * ct, 1e-300) + 1.0
    scale = 1.0 / np.sqrt(1.0 + lam[1:] ** 2)
    return -0.5 * np.outer(scale, scale) * factor * (f[1:] @ e[1:].T)


@cache
def field_points(key, count, seed):
    xi = FIELDS[key]
    points = seeded_points(xi, count, seed=seed)
    return ns(n=count, xi=xi, points=points, coords=point_stack(points))


@cache
def predicate_stack(key, seed):
    """The CLI's first three sample points at seed 0, then three seeded
    points. Sample 0's stream (0, 0) is ``default_rng(0)``, the predicates'
    own stream, so its point is their first draw, which they must reject."""
    xi = FIELDS[key]
    points = [cli._sample_point(xi, np.random.default_rng((0, idx)))
              for idx in range(3)] + seeded_points(xi, 3, seed=seed)
    coords = point_stack(points)
    return with_singular_data(ns(n=6, xi=xi, points=points, coords=coords,
                                 cts=coords[:, 0] / xi.sphere.radius))


@cache
def fd_stack(key):
    """Three seeded points with five tangent directions each, the fourth
    zero."""
    s = field_points(key, 3, 32)
    dirs = np.array([tangent_rows(s.xi, p, 5, (32, idx))
                     for idx, p in enumerate(s.points)])
    dirs[:, 3] = 0.0
    return ns(n=15, xi=s.xi, coords=s.coords, dirs=dirs)


def fd_row(attr, factor, key):
    """Row i of a stacked ``fd_derivative_array`` of ``value_array`` or
    ``jacobian_array`` is the one-direction call along row i; a zero row
    gives zero."""
    fn = lambda s: getattr(s.xi, attr)
    return Stack(
        f"test_direction_stacks::test_fd_derivative_rows_match_one_direction_"
        f"calls[{factor}-{key}]", partial(fd_stack, key),
        lambda s: [row for c, d in zip(s.coords, s.dirs)
                   for row in s.xi.sphere.fd_derivative_array(fn(s), c, d)],
        lambda s, k: s.xi.sphere.fd_derivative_array(
            fn(s), s.coords[k // 5], s.dirs[k // 5, k % 5]),
        lambda s, k: np.zeros_like(fn(s)(s.coords[0])) if k % 5 == 3 else None,
        factor and (lambda mp: mp.setattr(manifold, "FD_STEP_FACTOR", factor)))


@cache
def pair_stack(key):
    """Three seeded points, each with four x, four paired y and a 4 x 3 grid
    of y."""
    s = field_points(key, 3, 33)
    rows = [[tangent_rows(s.xi, p, count, (33, idx, j))
             for j, count in enumerate((4, 4, 12))]
            for idx, p in enumerate(s.points)]
    x, y, grid = (np.array(col) for col in zip(*rows))
    return ns(n=12, xi=s.xi, coords=s.coords, x=x, y=y,
              grid=grid.reshape(3, 4, 3, -1))


def pair_rows(s, ys):
    return [row for c, x, y in zip(s.coords, s.x, ys)
            for row in half_curvature(s.xi, c, x, y)]


for key in FIELDS:
    test = "test_direction_stacks::test_{}[" + key + "]"
    if key.startswith("meridian"):
        ROWS.append(Stack(
            test.format("meridian_rows_match_one_point_calls"),
            partial(field_points, key, 24, 30),
            lambda s: value_jacobian(s.xi, s.coords),
            lambda s, k: (s.xi.value_array(s.coords[k]),
                          s.xi.jacobian_array(s.coords[k])),
            lambda s, k: ref_meridian(np.eye(len(s.coords[k]))[0],
                                      s.xi.sphere.radius, s.coords[k])))
    ROWS += [fd_row(attr, factor, key) for factor in (None, 3e-4)
             for attr in ("value_array", "jacobian_array")]
    # paired rows: row i is r(x_i, y_i)xi; grid: [i, j] is r(x_i, y_ij)xi
    test_pairs = test.format("half_curvature_pairs_and_grids_match_one_vector_calls")
    ROWS += [Stack(test_pairs, partial(pair_stack, key),
                   lambda s: pair_rows(s, s.y),
                   lambda s, k: half_curvature(s.xi, s.coords[k // 4],
                                               s.x[k // 4, k % 4],
                                               s.y[k // 4, k % 4])),
             Stack(test_pairs, partial(pair_stack, key),
                   lambda s: pair_rows(s, s.grid),
                   lambda s, k: np.array([
                       half_curvature(s.xi, s.coords[k // 4], s.x[k // 4, k % 4], y)
                       for y in s.grid[k // 4, k % 4]]))]
    predicates = [(on_triples(is_normal), ref_is_normal),
                  (on_triples(is_strongly_normal), ref_is_strongly_normal),
                  (sasakian_identity_residual, ref_sasakian_identity_residual)]
    ROWS += [Stack(test.format("predicates_match_per_direction_loops"),
                   partial(field_points, key, 20, 34), stacked(fn),
                   one_point(fn), per_point(ref)) for fn, ref in predicates]
    # at seed 0 and away from it
    predicates += [(is_geodesic, ref_is_geodesic), (is_killing, ref_is_killing)]
    if key.startswith("hopf"):
        predicates.append((jacobi_relation_residual, ref_jacobi_relation_residual))
    ROWS += [Stack(test.format("point_stacks_match_one_point_calls"),
                   partial(predicate_stack, key, 37), stacked(fn),
                   one_point(fn), per_point(ref)) for fn, ref in predicates]
    if FIELDS[key].sphere.is_unit:
        test_obs = test.format("obstruction_stacks_match_one_point_calls")
        ROWS += [Stack(test_obs, partial(predicate_stack, key, 38),
                       lambda s: geodesic_field_obstruction(s.xi, s.coords, s.sd),
                       lambda s, k: geodesic_field_obstruction(
                           s.xi, s.coords[k:k + 1], s.sds[k])[0],
                       lambda s, k: ref_obstruction(s.xi, s.points[k], s.sds[k])),
                 Stack(test_obs, partial(predicate_stack, key, 38),
                       lambda s: meridian_obstruction(s.sd, s.cts),
                       lambda s, k: meridian_obstruction(s.sds[k],
                                                         s.cts[k:k + 1])[0],
                       lambda s, k: ref_meridian_obstruction(s.sds[k],
                                                             float(s.cts[k])))]


@cache
def framed_stack(key, count, seed):
    """Seeded points with their stacked singular data."""
    s = field_points(key, count, seed)
    return with_singular_data(ns(n=count, xi=s.xi, points=s.points,
                                 coords=s.coords))


@cache
def direction_rows(key):
    """Four seeded points, each with a direction x and dim rows y."""
    s = field_points(key, 4, 16)
    raw = [s.xi.sphere.project_array(p.coords, np.random.default_rng((16, idx))
           .standard_normal((1 + s.xi.sphere.dim, s.xi.sphere.ambient_dim)))
           for idx, p in enumerate(s.points)]
    return ns(n=4 * s.xi.sphere.dim, xi=s.xi, coords=s.coords, dim=s.xi.sphere.dim,
              x=np.array([r[0] for r in raw]), ys=np.array([r[1:] for r in raw]))


# the displaced points' frames as one stack give the bits of the loop over
# displaced points; one finite difference per frame direction, applied to the
# whole frame, those of one per (e_i, e_j) pair; row j of half_curvature(x, Y)
# is half_curvature(x, Y[j]), and that the written-out 1-d reference
test = "test_sasaki::test_{}[{}]"
for key in ("hopf-s5-r3", "hopf-s7-r0.37", "meridian-s5-r3"):
    ROWS.append(Stack(test.format("second_form_direct_matches_per_point_reference",
                                  key),
                      partial(framed_stack, key, 6, 14),
                      lambda s: second_form_direct(s.xi, s.coords, s.sd),
                      reference=lambda s, k: ref_second_form_direct(s.xi, s.points[k],
                                                                    s.sds[k])))
for key in ("hopf-s3", "hopf-s7", "hopf-s15", "hopf-s5-r3", "hopf-s7-r0.37",
            "meridian-s3", "meridian-s5-r3"):
    ROWS.append(Stack(test.format("second_form_lemma_matches_per_pair_reference", key),
                      partial(framed_stack, key, 3 if key == "hopf-s15" else 6, 15),
                      lambda s: second_form_lemma(s.xi, s.coords, s.sd),
                      reference=lambda s, k: ref_second_form_lemma(s.xi, s.points[k],
                                                                   s.sds[k])))
    if key in ("hopf-s7", "hopf-s5-r3", "meridian-s3", "meridian-s5-r3"):
        ROWS += [Stack(
            test.format("half_curvature_rows_match_one_vector_calls",
                        f"{factor}-{key}"),
            partial(direction_rows, key),
            lambda s: [r for c, x, ys in zip(s.coords, s.x, s.ys)
                       for r in half_curvature(s.xi, c, x, ys)],
            lambda s, k: half_curvature(s.xi, s.coords[k // s.dim], s.x[k // s.dim],
                                        s.ys[k // s.dim, k % s.dim]),
            lambda s, k: ref_half_curvature(s.xi, s.coords[k // s.dim], s.x[k // s.dim],
                                            s.ys[k // s.dim, k % s.dim]),
            factor and (lambda mp, f=factor: mp.setattr(manifold, "FD_STEP_FACTOR", f)))
            for factor in (None, 3e-4)]


# -- batched curvature kernels against a one-plane reference ------------------------


def ref_curvature_tensor(k, x, y, z):
    return k * ((y @ z) * x - (x @ z) * y)


def ref_bundle_curvature(k, u, x1, x2, y1, y2):
    x2 = x2 - float(x2 @ u) * u
    y2 = y2 - float(y2 @ u) * u
    nx_sq = x1 @ x1 + x2 @ x2
    ny_sq = y1 @ y1 + y2 @ y2
    cross = x1 @ y1 + x2 @ y2
    assert nx_sq * ny_sq - cross ** 2 >= 1e-14 * max(nx_sq * ny_sq, 1e-300)
    nx = np.sqrt(nx_sq)
    x1, x2 = x1 / nx, x2 / nx
    c = x1 @ y1 + x2 @ y2
    y1, y2 = y1 - c * x1, y2 - c * x2
    ny = np.sqrt(y1 @ y1 + y2 @ y2)
    y1, y2 = y1 / ny, y2 / ny
    R = lambda a, b, z: ref_curvature_tensor(k, a, b, z)
    t1 = float(R(x1, y1, y1) @ x1)
    rxyu = R(x1, y1, u)
    t2 = -0.75 * float(rxyu @ rxyu)
    w = R(u, y2, x1) + R(u, x2, y1)
    t3 = 0.25 * float(w @ w)
    t4 = float((x2 @ x2) * (y2 @ y2) - (x2 @ y2) ** 2)
    t5 = 3.0 * float(R(x1, y1, y2) @ x2)
    t6 = -float(R(u, x2, x1) @ R(u, y2, y1))
    return t1 + t2 + t3 + t4 + t5 + t6


def ref_hopf_value_and_shape(J, p, x):
    """xi(p) and A x for the unit Hopf field (J p, -(x J^T projected))."""
    xiv = (J @ p) / 1.0
    w = x @ (J / 1.0).T
    return xiv, -(w - (w @ p) / 1.0 * p)


def ref_plane_curvature(J, p, x, y):
    xiv, ax = ref_hopf_value_and_shape(J, p, x)
    a = float(xiv @ x)
    b = float(xiv @ y)
    c = float(ax @ y)
    denom = 2.0 - (a * a + b * b)
    return (1.0 - 0.75 * (a * a + b * b) + 1.5 * c * c) / denom


def ref_lifted_curvature(J, p, x, y):
    """Bundle curvature of the plane of x^tau, y^tau (xi_tangential_lift)."""
    parts = []
    for v in (x, y):
        u, av = ref_hopf_value_and_shape(J, p, v)
        av = av - (av @ u) * u
        parts += [v, -av]
    return ref_bundle_curvature(1.0, u, *parts)


def frame_planes(xi, count, seed):
    """(p, X, Y) rows: orthonormal tangent pairs from the typed sampler."""
    sphere = xi.sphere
    rows = []
    for idx in range(count):
        rng = np.random.default_rng((seed, idx))
        p = sphere.random_point(rng)
        fr = random_frame(p, rng)
        rows.append((p.coords, fr[0].vec, fr[1].vec))
    return [np.array(col) for col in zip(*rows)]


def bundle_planes(sphere, count, seed):
    """(p, u, x1, x2, y1, y2) rows: random horizontal parts, vertical parts
    orthogonal to the unit anchor u, all tangent at p."""
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((6, count, sphere.ambient_dim))
    unit = lambda v: v / np.linalg.norm(v, axis=-1, keepdims=True)
    p = sphere.radius * unit(draws[0])
    t = (draws[1:]
         - np.sum(draws[1:] * p, axis=-1, keepdims=True) * p / sphere.radius ** 2)
    u = unit(t[0])
    vx, vy = (v - np.sum(v * u, axis=-1, keepdims=True) * u for v in (t[2], t[4]))
    return [p, u, t[1], vx, t[3], vy]


@cache
def plane_stack(m):
    xi = hopf_field(m)
    p, X, Y = frame_planes(xi, 300, seed=11 + m)
    return ns(n=300, xi=xi, J=xi.jacobian_array(np.zeros(2 * m + 2)), p=p, X=X, Y=Y)


def lifted_curvature(s):
    u, x1, x2 = xi_tangential_lift_array(s.xi, s.p, s.X)
    _, y1, y2 = xi_tangential_lift_array(s.xi, s.p, s.Y)
    return bundle_sectional_curvature_array(s.xi.sphere, s.p, u, x1, x2, y1, y2)


def routes_agree(s):
    K = submanifold_plane_curvature_array(s.xi, s.p, s.X, s.Y)
    assert np.max(np.abs(K - lifted_curvature(s))) < 1e-10


@cache
def bundle_stack(m, radius):
    sphere = hopf_field(m, radius).sphere
    return ns(n=4000, sphere=sphere, rows=bundle_planes(sphere, 4000, seed=7))


@cache
def sampler_stack():
    """Each sample's draws from its own generator, as the scans' sampler steps
    take them."""
    sphere = hopf_field(3, 2.0).sphere
    draws = np.empty((40, 1 + sphere.dim, sphere.ambient_dim))
    for idx, out in enumerate(draws):
        np.random.default_rng((2, idx)).standard_normal(out=out)
    return ns(n=40, sphere=sphere, draws=draws)


def sampled_rows(sphere, draws, rows_at):
    """The scans' sampler steps on each (1 + k, ambient) block of ``draws``:
    ``stacked_points`` of the first rows, then ``rows_at(p, further rows)``;
    one (point, rows) pair per sample."""
    p = sphere.stacked_points(draws[:, 0])
    return list(zip(p, rows_at(p, draws[:, 1:])))


def typed_samples(sphere, idx, frame):
    """Sample idx through the typed sampler: its point, then its frame
    (``frame``) or five tangent vectors."""
    rng = np.random.default_rng((2, idx))
    point = sphere.random_point(rng)
    if frame:
        raw = rng.standard_normal((sphere.dim, sphere.ambient_dim))
        return point.coords, ref_gram_schmidt(sphere.project_array(point.coords, raw))
    return point.coords, [random_tangent(point, rng).vec for _ in range(5)]


for m in (1, 3, 7):  # S^3, S^7, S^15
    test = f"test_scan_batches::test_plane_kernels_match_reference[{m}]"
    ROWS += [Stack(test, partial(plane_stack, m),
                   lambda s: submanifold_plane_curvature_array(s.xi, s.p, s.X, s.Y),
                   reference=lambda s, k: ref_plane_curvature(s.J, s.p[k], s.X[k],
                                                              s.Y[k])),
             Stack(test, partial(plane_stack, m), lifted_curvature,
                   reference=lambda s, k: ref_lifted_curvature(s.J, s.p[k], s.X[k],
                                                               s.Y[k])),
             Check(test, lambda m=m: routes_agree(plane_stack(m)))]
for m, radius in [(1, 1.0), (2, 0.01), (3, 300.0), (7, 1.0)]:
    ROWS.append(Stack(
        f"test_scan_batches::test_bundle_kernel_matches_reference[{m}-{radius}]",
        partial(bundle_stack, m, radius),
        lambda s: bundle_sectional_curvature_array(s.sphere, *s.rows),
        reference=lambda s, k: ref_bundle_curvature(
            s.sphere.curvature_constant, *(col[k] for col in s.rows[1:]))))
ROWS += [Stack("test_scan_batches::test_stacked_samplers_match_typed_sampler",
               sampler_stack,
               lambda s: sampled_rows(s.sphere, s.draws, s.sphere.frames_at),
               reference=lambda s, k: typed_samples(s.sphere, k, True)),
         Stack("test_scan_batches::test_stacked_samplers_match_typed_sampler",
               sampler_stack,
               lambda s: sampled_rows(s.sphere, s.draws[:, :6], lambda p, raw: (
                   s.sphere.project_array(p[:, None], raw))),
               reference=lambda s, k: typed_samples(s.sphere, k, False))]


# -- stacked variation kernels against a one-point reference ------------------------


def ref_combination(seed):
    """Value and Jacobian of ``random_hopf_combination(default_rng(seed))``,
    from the same coefficient draws."""
    rng = np.random.default_rng(seed)
    coeffs = [(float(rng.standard_normal()), rng.standard_normal(3),
               rng.standard_normal((3, 4)), rng.uniform(0.0, 2.0 * np.pi, 3))
              for _ in range(2)]

    def cval(q, c):
        a0, b, W, ph = c
        return a0 + float(b @ np.sin(W @ q + ph))

    def cgrad(q, c):
        a0, b, W, ph = c
        return (b * np.cos(W @ q + ph)) @ W

    def value(q):
        return cval(q, coeffs[0]) * (_LJ @ q) + cval(q, coeffs[1]) * (_LK @ q)

    def jacobian(q):
        return (np.outer(_LJ @ q, cgrad(q, coeffs[0])) + cval(q, coeffs[0]) * _LJ
                + np.outer(_LK @ q, cgrad(q, coeffs[1])) + cval(q, coeffs[1]) * _LK)

    return value, jacobian


def ref_horizontal(w):
    J = complex_structure(len(w))
    jw = J @ w

    def value(q):
        jq = J @ q
        return w - (w @ q) * q - (w @ jq) * jq

    def jacobian(q):
        jq = J @ q
        return (-np.outer(q, w) - (w @ q) * np.eye(len(q))
                + np.outer(jq, jw) - (w @ jq) * J)

    return value, jacobian


def ref_derivative(jacobian, p, x):
    d = jacobian(p) @ x
    return d - (d @ p) / 1.0 * p


def ref_reduced(value, jacobian, p):
    """The reduced integrand for the unit Hopf field at one point."""
    J = complex_structure(len(p))
    n = len(p) - 2
    xiv = (J @ p) / 1.0
    eta0 = value(p)
    assert abs(float(eta0 @ xiv)) <= 1e-8 * (np.linalg.norm(eta0) + 1.0)
    eye = np.eye(len(p))
    candidates = np.vstack([xiv, eye - np.outer(eye @ p, p) / 1.0])
    rows = ref_gram_schmidt(candidates, pivot_tol=1e-6, drop=True)
    d0 = ref_derivative(jacobian, p, rows[0])
    total = 4.0 * float(d0 @ d0)
    for row in rows[1:]:
        d = ref_derivative(jacobian, p, row)
        total += 2.0 * float(d @ d)
    return total - (2.0 * n - 1.0) / 2.0 * float(eta0 @ eta0)


def ref_s3_form(value, jacobian, p):
    e0, e1, e2 = _LI @ p, _LJ @ p, _LK @ p
    eta0 = value(p)
    d0 = ref_derivative(jacobian, p, e0)
    total = 4.0 * float(d0 @ d0)
    for ea in (e1, e2):
        da = ref_derivative(jacobian, p, ea)
        for esig, lsig in ((e1, _LJ), (e2, _LK)):
            g = float(da @ esig) + float(eta0 @ (lsig @ ea))
            total += 2.0 * g * g
    nsq = float(eta0 @ eta0)
    return total + 0.5 * nsq, nsq


def ref_seed(q):
    """The destabilizing seed from every ambient basis vector as a
    candidate."""
    J = complex_structure(len(q))
    return ref_gram_schmidt(np.vstack([q, J @ q, np.eye(len(q))]),
                            pivot_tol=1e-6, drop=True)[2]


def ref_point(q):
    """``SphereSpec.point`` on the unit sphere."""
    return q * (1.0 / np.linalg.norm(q))


def ref_fiber(p0, steps):
    """``propagate_fiber_frame``'s RK4 loop with the fiber point gamma(t)
    and J gamma(t) rebuilt in each right-hand-side call: frames, points and
    e0s."""
    J = complex_structure(p0.sphere.ambient_dim)
    p0c = p0.coords
    jp0 = J @ p0c
    v = _horizontal_seed(p0c[None], J)[0]
    Y = np.array([v, -J @ v])
    S = np.array([[0.0, -1.0],
                  [1.0, 0.0]])
    ts = np.linspace(0.0, 2.0 * np.pi, steps + 1)
    h = 2.0 * np.pi / (steps * variation.RK_SUBSTEPS)

    def gamma(t):
        return math.cos(t) * p0c + math.sin(t) * jp0

    def rhs(t, state):
        g = gamma(t)
        gp = J @ g
        return S @ state - np.outer(state @ gp, g)

    frames = [Y]
    for i in range(steps):
        for s in range(variation.RK_SUBSTEPS):
            t0 = ts[i] + s * h
            k1 = rhs(t0, Y)
            k2 = rhs(t0 + 0.5 * h, Y + 0.5 * h * k1)
            k3 = rhs(t0 + 0.5 * h, Y + 0.5 * h * k2)
            k4 = rhs(t0 + h, Y + h * k3)
            Y = Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        frames.append(Y)
    points = np.array([gamma(t) for t in ts])
    return np.array(frames), points, points @ J.T


def ref_fiber_residuals(J, ts, points, frames):
    """``_fiber_residuals`` with the orthonormality Gram matrix and the two
    5-point fiber rows taken one node at a time."""
    steps = len(ts) - 1
    closure = float(np.max(np.linalg.norm(frames[-1] - frames[0], axis=1)))
    ortho = []
    for i in range(steps + 1):
        stack = np.vstack([points[i], points[i] @ J.T, frames[i]])
        gram = stack @ stack.T
        ortho.append(np.max(np.abs(gram - np.eye(len(stack)))))
    E = frames[:steps]
    dt = 2.0 * np.pi / steps
    dE = (-np.roll(E, -2, axis=0) + 8.0 * np.roll(E, -1, axis=0)
          - 8.0 * np.roll(E, 1, axis=0) + np.roll(E, 2, axis=0)) / (12.0 * dt)
    fiber = []
    for i in range(steps):
        nab = dE[i] - np.outer(dE[i] @ points[i], points[i])
        fiber += [np.linalg.norm(nab[0] + E[i, 1]), np.linalg.norm(nab[1] - E[i, 0])]
    JA = frames @ J.T
    horiz = np.concatenate([np.linalg.norm(JA[:, 0] + frames[:, 1], axis=1),
                            np.linalg.norm(JA[:, 1] - frames[:, 0], axis=1)])
    return {"closure": closure, "orthonormality": float(np.max(ortho)),
            "fiber_rows": float(np.max(fiber)),
            "horizontal_rows": float(np.max(horiz))}


def ref_residual_row(xi, fiber, target, node):
    """The three residuals of the instability run at one fiber node, with
    each direction and each frame vector's field written out."""
    J = complex_structure(xi.sphere.ambient_dim)
    value, jacobian = ref_horizontal(fiber.frames[0, 0])
    q = fiber.points[node]
    nv = value(q)
    red = ref_reduced(value, jacobian, ref_point(q))
    d0 = ref_derivative(jacobian, q, fiber.e0s[node])
    Dq = jacobian(q)
    grad = 0.0
    dirs = np.vstack([fiber.e0s[node], fiber.frames[node]])
    for w in fiber.frames[node]:
        jq = J @ q
        jw = J @ w
        f_w = w - (w @ q) * q - (w @ jq) * jq
        for X in dirs:
            dfw_x = (-(w @ X) * q - (w @ q) * X
                     + (jw @ X) * jq - (w @ jq) * (J @ X))
            grad = max(grad, abs(float((Dq @ X) @ f_w + nv @ dfw_x)))
    return abs(red / float(nv @ nv) - target), float(np.linalg.norm(d0)), grad


def unit_points(ambient, count, seed):
    raw = np.random.default_rng(seed).standard_normal((count, ambient))
    return np.array([ref_point(q) for q in raw])


def variation_fields():
    w6 = np.random.default_rng(30).standard_normal(6)
    return {
        "hopf-s3": hopf_field(1),
        "hopf-s7-r2": hopf_field(3, 2.0),
        "hopf-s15": hopf_field(7),
        "hopf-combination": random_hopf_combination(np.random.default_rng(31)),
        "horizontal-s5": horizontal_extension_field(SphereSpec(6, 1.0), w6),
    }


@cache
def field_stack(name):
    field = variation_fields()[name]
    return ns(n=40, field=field, pts=field.sphere.radius
              * unit_points(field.sphere.ambient_dim, 40, 32))


@cache
def w_stack():
    """A horizontal extension with one w per row, and the one-w fields."""
    sphere = SphereSpec(8, 1.0)
    ws = np.random.default_rng(34).standard_normal((25, 8))
    return ns(n=25, pts=unit_points(8, 25, 33),
              field=horizontal_extension_field(sphere, ws),
              singles=[horizontal_extension_field(sphere, w) for w in ws])


@cache
def formula_stack(seed):
    w = np.random.default_rng(seed).standard_normal(4)
    return ns(n=30, pts=unit_points(4, 30, seed), fields=[
        (random_hopf_combination(np.random.default_rng(seed)), ref_combination(seed)),
        (horizontal_extension_field(SphereSpec(4, 1.0), w), ref_horizontal(w))])


def kernel_case(label):
    """(unit Hopf field, stacked eta, reference value and Jacobian) on S^3,
    S^5 and S^15."""
    if "combination" in label:
        seed = int(label.rsplit("-", 1)[1])
        return (hopf_field(1), random_hopf_combination(np.random.default_rng(seed)),
                ref_combination(seed))
    m = int(label[1:].split("-")[0]) // 2
    xi = hopf_field(m)
    w = np.random.default_rng((42, m)).standard_normal(xi.sphere.ambient_dim)
    return xi, horizontal_extension_field(xi.sphere, w), ref_horizontal(w)


@cache
def integrand_stack(label):
    xi, eta, ref = kernel_case(label)
    return ns(n=50, xi=xi, eta=eta, ref=ref,
              pts=unit_points(xi.sphere.ambient_dim, 50, 43))


@cache
def collapsing_stack():
    """At q = e_k one projected basis vector vanishes outright and another
    collapses later; their zero rows add nothing."""
    xi = hopf_field(2)
    w = np.random.default_rng(44).standard_normal(6)
    pts = np.vstack([np.eye(6), ref_point(np.array([1.0, 1.0, 0, 0, 0, 0])),
                     unit_points(6, 5, 45)])
    return ns(n=len(pts), xi=xi, eta=horizontal_extension_field(xi.sphere, w),
              ref=ref_horizontal(w), pts=pts)


@cache
def s3_stack(seed):
    return ns(n=60, pts=unit_points(4, 60, seed), ref=ref_combination(seed),
              eta=random_hopf_combination(np.random.default_rng(seed)))


@cache
def family_stack(seed, first, count, samples=6):
    """Rows fi*samples + k of the stacked family are field fi's own call at
    its own point k."""
    xi = hopf_field(1)
    eta, pts = _family_stack(xi.sphere, seed, range(first, first + count), samples)
    return ns(n=count * samples, xi=xi, eta=eta, pts=pts, seed=seed, first=first,
              samples=samples)


@cache
def family_rows(seed, fi, samples):
    """Field fi's points from its own stream, and at each its value,
    Jacobian, reduced integrand and stable form by the references."""
    rng = np.random.default_rng((seed, fi))
    random_hopf_combination(rng)
    p = hopf_field(1).sphere.stacked_points(rng.standard_normal((samples, 4)))
    value, jacobian = ref_combination((seed, fi))
    return [(q, value(q), jacobian(q), ref_reduced(value, jacobian, q),
             *ref_s3_form(value, jacobian, q)) for q in p]


@cache
def fiber_stack(m, steps):
    """130 steps run the fiber table in three blocks, the last one
    partial."""
    sphere = hopf_field(m).sphere
    p0 = sphere.random_point(np.random.default_rng((51, m)))
    return ns(n=steps + 1, fiber=propagate_fiber_frame(p0, steps=steps),
              ref=ref_fiber(p0, steps), J=complex_structure(sphere.ambient_dim))


def fiber_residuals_agree(s):
    frames, points, _ = s.ref
    want = ref_fiber_residuals(s.J, s.fiber.ts, points, frames)
    for got in (s.fiber.residuals, _fiber_residuals(s.J, s.fiber.ts, points, frames)):
        assert_same(got, want)


@cache
def destabilizing_stack(m):
    """Seeds come from the raw quadrature point q, the integrand is taken at
    q renormalized onto the sphere."""
    xi = hopf_field(m)
    return ns(n=40, xi=xi, qs=unit_points(xi.sphere.ambient_dim, 40, (48, m)))


def ref_destabilizing(q):
    value, jacobian = ref_horizontal(ref_seed(q))
    return ref_reduced(value, jacobian, ref_point(q))


@cache
def residual_row_stack(m):
    """The three per-node residuals of the instability run."""
    xi = hopf_field(m)
    fiber = propagate_fiber_frame(xi.sphere.random_point(np.random.default_rng(49)),
                                  steps=64)
    return ns(n=fiber.node_count, xi=xi, fiber=fiber,
              target=(5.0 - 2.0 * (2 * m)) / 2.0)


@cache
def seed_stack(m):
    """1,000 seeded points spread over S^3 to S^15, and on each sphere q =
    e_0 (e_0 and e_1 = J e_0 both collapse) and q = e_2."""
    ambient = 2 * m + 2
    qs = [ref_point(np.random.default_rng(seed).standard_normal(ambient))
          for seed in range(m - 1, 1000, 7)]
    qs = np.vstack(qs + [np.eye(ambient)[0], np.eye(ambient)[2]])
    return ns(n=len(qs), qs=qs, J=complex_structure(ambient))


def seed_at_e0_is_e2():
    for m in range(1, 8):
        s = seed_stack(m)
        assert np.array_equal(_horizontal_seed(s.qs, s.J)[-2], np.eye(2 * m + 2)[2])


for name in variation_fields():
    ROWS.append(Stack(
        f"test_variation_batches::test_stacked_field_rows_equal_one_point_calls"
        f"[{name}]",
        partial(field_stack, name), lambda s: value_jacobian(s.field, s.pts),
        lambda s, k: (s.field.value_array(s.pts[k]), s.field.jacobian_array(s.pts[k]))))
ROWS.append(Stack(
    "test_variation_batches::test_horizontal_extension_takes_one_w_per_row",
    w_stack, lambda s: value_jacobian(s.field, s.pts),
    lambda s, k: (s.singles[k].value_array(s.pts[k]),
                  s.singles[k].jacobian_array(s.pts[k]))))
for seed in (35, 36):
    ROWS += [Stack(f"test_variation_batches::test_fields_match_reference_formulas"
                   f"[{seed}]", partial(formula_stack, seed),
                   lambda s, i=i: value_jacobian(s.fields[i][0], s.pts),
                   reference=lambda s, k, i=i: tuple(f(s.pts[k])
                                                     for f in s.fields[i][1]))
             for i in (0, 1)]
for label in ("S3-combination-40", "S3-combination-41", "S3-horizontal",
              "S5-horizontal", "S15-horizontal"):
    ROWS.append(Stack(
        f"test_variation_batches::test_reduced_integrand_matches_reference[{label}]",
        partial(integrand_stack, label),
        lambda s: reduced_integrand(s.xi, s.eta, s.pts),
        # a one-row stack gives its row's bits
        lambda s, k: reduced_integrand(s.xi, s.eta, s.pts[k][None])[0]
        if k < 5 else None,
        lambda s, k: ref_reduced(*s.ref, s.pts[k])))
ROWS.append(Stack(
    "test_variation_batches::test_reduced_integrand_with_collapsing_basis_candidates",
    collapsing_stack, lambda s: reduced_integrand(s.xi, s.eta, s.pts),
    reference=lambda s, k: ref_reduced(*s.ref, s.pts[k])))
for seed in (46, 47):
    ROWS.append(Stack(
        f"test_variation_batches::test_s3_stable_form_matches_reference[{seed}]",
        partial(s3_stack, seed), lambda s: list(zip(*s3_stable_form(s.eta, s.pts))),
        lambda s, k: tuple(v[0] for v in s3_stable_form(s.eta, s.pts[:1])) if k == 0
        else None,
        lambda s, k: ref_s3_form(*s.ref, s.pts[k])))
for seed, first, count in [(0, 0, 4), (9, 5, 3)]:
    ROWS.append(Stack(
        f"test_variation_batches::test_stable_family_stack_rows_equal_each_field"
        f"[{seed}-{first}-{count}]", partial(family_stack, seed, first, count),
        lambda s: list(zip(s.pts, s.eta.value_array(s.pts), s.eta.jacobian_array(s.pts),
                           reduced_integrand(s.xi, s.eta, s.pts),
                           *s3_stable_form(s.eta, s.pts))),
        reference=lambda s, k: family_rows(s.seed, s.first + k // s.samples,
                                           s.samples)[k % s.samples]))
for steps in (64, 130):
    for m in (1, 2, 7, 15):
        test = (f"test_variation_batches::test_fiber_frame_matches_reference_loop"
                f"[{m}-{steps}]")
        ROWS += [Stack(test, partial(fiber_stack, m, steps),
                       lambda s: list(zip(s.fiber.frames, s.fiber.points, s.fiber.e0s)),
                       reference=lambda s, k: tuple(col[k] for col in s.ref)),
                 Check(test, lambda m=m, steps=steps: fiber_residuals_agree(
                     fiber_stack(m, steps)))]
for m in (1, 2, 7):
    ROWS.append(Stack(
        f"test_variation_batches::test_destabilizing_integrand_matches_reference[{m}]",
        partial(destabilizing_stack, m), lambda s: destabilizing_integrand(s.xi)(s.qs),
        reference=lambda s, k: ref_destabilizing(s.qs[k])))
for m in (2, 7):
    ROWS.append(Stack(
        f"test_variation_batches::test_fiber_residual_rows_match_reference[{m}]",
        partial(residual_row_stack, m),
        lambda s: list(zip(*_fiber_residual_rows(s.xi, destabilizing_field(s.fiber),
                                                 s.fiber, s.target))),
        reference=lambda s, k: ref_residual_row(s.xi, s.fiber, s.target, k)))
test = "test_variation_batches::test_horizontal_seed_reads_three_candidates"
ROWS += [Stack(test, partial(seed_stack, m), lambda s: _horizontal_seed(s.qs, s.J),
               reference=lambda s, k: ref_seed(s.qs[k])) for m in range(1, 8)]
ROWS.append(Check(test, seed_at_e0_is_e2))
