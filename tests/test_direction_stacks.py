"""Stacks of directions at one point against one-direction calls.

One finite difference serves a whole stack of directions. The stacked
meridian field, ``fd_derivative_array`` and ``half_curvature`` on rows, and
the sampled predicates built on them give, row by row, the bits of the
one-vector calls and of the per-direction loops they replace. The
predicates, the Jacobi relation and the obstruction pair take a stack of
points, row k the bits of the one-row stack of point k and of its one-point
reference.
"""

import numpy as np
import pytest

import tgeo.cli as cli
import tgeo.manifold as manifold
from tgeo import (
    SingularLocusError,
    SphereSpec,
    UnitVectorField,
    geodesic_field_obstruction,
    half_curvature,
    hopf_field,
    is_geodesic,
    is_killing,
    is_normal,
    is_strongly_normal,
    jacobi_relation_residual,
    meridian_field,
    sasakian_identity_residual,
    second_form_direct,
    shape_apply_array,
    shape_matrix,
    singular_decomposition,
)
from tgeo.fields import PREDICATE_SAMPLES
from tgeo.sasaki import meridian_obstruction
from conftest import assert_identical, seeded_points

FIELDS = [
    hopf_field(1, 1.0),
    hopf_field(3, 1.0),
    hopf_field(7, 1.0),
    hopf_field(2, 3.0),
    hopf_field(3, 0.37),
    meridian_field(np.eye(3)[0], 1.0),
    meridian_field(np.eye(4)[0], 1.0),
    meridian_field(np.eye(6)[0], 3.0),
]
FIELD_IDS = ["hopf-s3", "hopf-s7", "hopf-s15", "hopf-s5-r3", "hopf-s7-r0.37",
             "meridian-s2", "meridian-s3", "meridian-s5-r3"]
MERIDIANS = [xi for xi in FIELDS if xi.name == "meridian"]
MERIDIAN_IDS = [i for i, xi in zip(FIELD_IDS, FIELDS) if xi.name == "meridian"]


def tangent_rows(xi, p, count, seed):
    """``count`` seeded tangent vectors at p, not unit."""
    sphere = xi.sphere
    raw = np.random.default_rng(seed).standard_normal((count, sphere.ambient_dim))
    return sphere.project_array(p.coords[None], raw)


# -- the stacked meridian field ------------------------------------------------


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


@pytest.mark.parametrize("xi", MERIDIANS, ids=MERIDIAN_IDS)
def test_meridian_rows_match_one_point_calls(xi):
    sphere = xi.sphere
    axis = np.eye(sphere.ambient_dim)[0]
    pts = np.array([p.coords for p in seeded_points(xi, 24, seed=30)])
    values = xi.value_array(pts)
    jacs = xi.jacobian_array(pts)
    assert values.shape == pts.shape
    assert jacs.shape == pts.shape + pts.shape[-1:]
    for q, value, jac in zip(pts, values, jacs):
        ref_value, ref_jac = ref_meridian(axis, sphere.radius, q)
        assert_identical(value, xi.value_array(q))
        assert_identical(jac, xi.jacobian_array(q))
        assert_identical(value, ref_value)
        assert_identical(jac, ref_jac)


@pytest.mark.parametrize("xi", MERIDIANS, ids=MERIDIAN_IDS)
def test_meridian_stack_names_the_cap_row(xi):
    sphere = xi.sphere
    pts = np.array([p.coords for p in seeded_points(xi, 4, seed=31)])
    pts[2] = -sphere.radius * np.eye(sphere.ambient_dim)[0]
    for evaluate in (xi.value_array, xi.jacobian_array):
        with pytest.raises(SingularLocusError, match=r"polar cap \(row 2\)") as info:
            evaluate(pts)
        assert info.value.row == 2


# -- fd_derivative_array on rows of directions --------------------------------


@pytest.mark.parametrize("xi", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("factor", [None, 3e-4])
def test_fd_derivative_rows_match_one_direction_calls(xi, factor, monkeypatch):
    """Row i of a stacked call is the one-direction call along row i, for a
    vector-valued and a matrix-valued map; a zero row gives zero. At the
    default step and at a step factor of 3e-4."""
    if factor is not None:
        monkeypatch.setattr(manifold, "FD_STEP_FACTOR", factor)
    sphere = xi.sphere
    for idx, p in enumerate(seeded_points(xi, 3, seed=32)):
        dirs = tangent_rows(xi, p, 5, (32, idx))
        dirs[3] = 0.0
        for fn in (xi.value_array, xi.jacobian_array):
            stacked = sphere.fd_derivative_array(fn, p.coords, dirs)
            assert stacked.shape == (5,) + np.shape(fn(p.coords))
            for d, row in zip(dirs, stacked):
                assert_identical(row, sphere.fd_derivative_array(fn, p.coords, d))
            assert not np.any(stacked[3])


# -- paired and grid half_curvature -------------------------------------------


@pytest.mark.parametrize("xi", FIELDS, ids=FIELD_IDS)
def test_half_curvature_pairs_and_grids_match_one_vector_calls(xi):
    """Paired rows: row i is r(x_i, y_i)xi. Grid: [i, j] is r(x_i, y_ij)xi."""
    for idx, p in enumerate(seeded_points(xi, 3, seed=33)):
        x = tangent_rows(xi, p, 4, (33, idx, 0))
        y = tangent_rows(xi, p, 4, (33, idx, 1))
        grid = tangent_rows(xi, p, 12, (33, idx, 2)).reshape(4, 3, -1)
        paired = half_curvature(xi, p.coords, x, y)
        assert paired.shape == y.shape
        stacked = half_curvature(xi, p.coords, x, grid)
        assert stacked.shape == grid.shape
        for i in range(len(x)):
            assert_identical(paired[i], half_curvature(xi, p.coords, x[i], y[i]))
            for j in range(grid.shape[1]):
                assert_identical(stacked[i, j],
                                 half_curvature(xi, p.coords, x[i], grid[i, j]))


# -- the sampled predicates against their per-direction loops ------------------


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


@pytest.mark.parametrize("xi", FIELDS, ids=FIELD_IDS)
def test_predicates_match_per_direction_loops(xi):
    for p in seeded_points(xi, 20, seed=34):
        P = p.coords[None]
        assert_identical(is_normal(xi, P)[0], ref_is_normal(xi, p))
        assert_identical(is_strongly_normal(xi, P)[0], ref_is_strongly_normal(xi, p))
        assert_identical(sasakian_identity_residual(xi, P)[0],
                         ref_sasakian_identity_residual(xi, p))


# -- stacks of points against one-point references ----------------------------


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
    e = sd.right_frame.matrix
    f = sd.left_frame.matrix
    ae = shape_apply_array(xi, p.coords, e[1:])
    a2e = shape_apply_array(xi, p.coords, ae)
    scale = 1.0 / np.sqrt(1.0 + sd.lambdas[1:] ** 2)
    return -0.5 * np.outer(scale, scale) * (f[1:] @ (a2e + e[1:]).T)


def ref_meridian_obstruction(sd, ct):
    e = sd.right_frame.matrix
    f = sd.left_frame.matrix
    factor = ct * ct / max(1.0 - ct * ct, 1e-300) + 1.0
    scale = 1.0 / np.sqrt(1.0 + sd.lambdas[1:] ** 2)
    return -0.5 * np.outer(scale, scale) * factor * (f[1:] @ e[1:].T)


def sample_stack(xi, count):
    """The CLI's first ``count`` sample points at seed 0. Sample 0's stream
    (0, 0) is ``default_rng(0)``, the predicates' own stream, so its point is
    their first draw, which they must reject."""
    return [cli._sample_point(xi, np.random.default_rng((0, idx)))
            for idx in range(count)]


def test_seed_zero_sample_is_the_predicates_first_draw():
    xi = FIELDS[0]
    p = sample_stack(xi, 1)[0]
    first = np.random.default_rng(0).standard_normal(xi.sphere.ambient_dim)
    assert np.linalg.norm(xi.sphere.project_array(p.coords, first)) < 1e-6


@pytest.mark.parametrize("xi", FIELDS, ids=FIELD_IDS)
def test_point_stacks_match_one_point_calls(xi):
    """Row k of each stacked predicate is the one-row stack of point k and
    its one-point reference, at seed 0 and away from it."""
    points = sample_stack(xi, 3) + seeded_points(xi, 3, seed=37)
    coords = np.array([p.coords for p in points])
    cases = [(is_geodesic, ref_is_geodesic), (is_killing, ref_is_killing),
             (is_normal, ref_is_normal),
             (is_strongly_normal, ref_is_strongly_normal),
             (sasakian_identity_residual, ref_sasakian_identity_residual)]
    if xi.name == "hopf":
        cases.append((jacobi_relation_residual, ref_jacobi_relation_residual))
    for fn, ref in cases:
        stacked = fn(xi, coords)
        assert stacked.shape == (len(points),)
        for row, p in zip(stacked, points):
            one = fn(xi, p.coords[None])
            assert one.shape == (1,)
            assert_identical(row, one[0])
            assert_identical(row, ref(xi, p))


@pytest.mark.parametrize("xi", [xi for xi in FIELDS if xi.sphere.is_unit],
                         ids=[i for i, xi in zip(FIELD_IDS, FIELDS)
                              if xi.sphere.is_unit])
def test_obstruction_stacks_match_one_point_calls(xi):
    points = sample_stack(xi, 3) + seeded_points(xi, 3, seed=38)
    coords = np.array([p.coords for p in points])
    sds = singular_decomposition(xi, coords)
    obs = geodesic_field_obstruction(xi, coords, sds)
    cts = coords[:, 0] / xi.sphere.radius
    closed = meridian_obstruction(sds, cts)
    n = xi.sphere.dim - 1
    assert obs.shape == closed.shape == (len(points), n, n)
    for k, (p, sd) in enumerate(zip(points, sds)):
        assert_identical(obs[k],
                         geodesic_field_obstruction(xi, p.coords[None], (sd,))[0])
        assert_identical(obs[k], ref_obstruction(xi, p, sd))
        assert_identical(closed[k], meridian_obstruction((sd,), cts[k:k + 1])[0])
        assert_identical(closed[k], ref_meridian_obstruction(sd, float(cts[k])))


# -- one finite difference per point -------------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """A meridian S^3 field whose Jacobian evaluations are counted, and the
    counts, which also take ``fd_derivative_array`` calls."""
    xi = meridian_field(np.eye(4)[0], 1.0)
    counts = {"fd": 0, "jacobian": 0}

    def jacobian(q, _jac=xi.jacobian_fn):
        counts["jacobian"] += 1
        return _jac(q)

    def fd(self, *args, _fd=SphereSpec.fd_derivative_array, **kwargs):
        counts["fd"] += 1
        return _fd(self, *args, **kwargs)

    monkeypatch.setattr(SphereSpec, "fd_derivative_array", fd)
    return UnitVectorField(xi.sphere, xi.value_fn, jacobian, xi.name), counts


def test_predicates_differentiate_once_per_point(counted):
    xi, counts = counted
    P = seeded_points(xi, 1, seed=35)[0].coords[None]
    is_strongly_normal(xi, P)
    assert counts == {"fd": 1, "jacobian": 2}
    counts.update(fd=0, jacobian=0)
    sasakian_identity_residual(xi, P)
    assert counts == {"fd": 2, "jacobian": 3}


def test_direct_route_evaluates_the_jacobian_once_per_side(counted):
    """One evaluation at p and one for the stack of displaced points."""
    xi, counts = counted
    P = seeded_points(xi, 1, seed=36)[0].coords[None]
    sds = singular_decomposition(xi, P)
    counts.update(fd=0, jacobian=0)
    second_form_direct(xi, P, sds)
    assert counts == {"fd": 0, "jacobian": 2}


def test_codazzi_suite_differentiates_once_per_sample(counted, capsys):
    """One finite difference for each chunk of samples."""
    _, counts = counted
    samples = cli._SAMPLE_CHUNK + 1
    assert cli.main(["verify", "codazzi", "--dim", "3", "--samples",
                     str(samples)]) == 0
    capsys.readouterr()
    assert counts["fd"] == 2
