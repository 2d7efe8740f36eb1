import numpy as np
import pytest

import tgeo.fields as fields
from tgeo import (
    DecompositionFailure,
    DegenerateInputError,
    PreconditionError,
    SingularLocusError,
    SphereSpec,
    TangentVector,
    UnitVectorField,
    complex_structure,
    covariant_normality_residual,
    half_curvature,
    hopf_field,
    horizontal_extension_field,
    is_geodesic,
    is_killing,
    is_normal,
    is_strongly_normal,
    jacobi_relation_residual,
    killing_canonical_frames,
    meridian_field,
    random_hopf_combination,
    sasakian_identity_residual,
    shape_apply_array,
    shape_matrix,
    singular_decomposition,
)
from tgeo.sasaki import second_form_direct, second_form_lemma, xi_normal_lift_array
from conftest import frame_rows, on_triples, random_tangent, seeded_points


def test_complex_structure_squares_to_minus_identity():
    for N in (4, 6, 8):
        J = complex_structure(N)
        assert np.allclose(J @ J, -np.eye(N))
        assert np.allclose(J.T, -J)


def test_complex_structure_rejects_odd_dim():
    with pytest.raises(DegenerateInputError):
        complex_structure(5)


def test_hopf_field_is_unit_and_tangent(hopf5):
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = hopf5.sphere.random_point(rng)
        v = TangentVector(p, hopf5.value_array(p.coords))
        assert np.isclose(np.linalg.norm(v.vec), 1.0, atol=1e-13)
        assert abs(float(v.vec @ p.coords)) < 1e-13


def test_hopf_jacobian_matches_fd(hopf3):
    sphere = hopf3.sphere
    rng = np.random.default_rng(1)
    p = sphere.random_point(rng)
    X = random_tangent(p, rng)
    fd = sphere.fd_derivative_array(hopf3.value_array, p.coords, X.vec)
    analytic = sphere.project_array(p.coords, hopf3.jacobian_array(p.coords) @ X.vec)
    assert np.linalg.norm(fd - analytic) < 1e-8


def test_meridian_unit_tangent_and_jacobian(meridian3):
    sphere = meridian3.sphere
    worst = 0.0
    for p in seeded_points(meridian3, 15, seed=2):
        v = TangentVector(p, meridian3.value_array(p.coords))
        assert np.isclose(np.linalg.norm(v.vec), 1.0, atol=1e-12)
        X = random_tangent(p, np.random.default_rng(3))
        fd = sphere.fd_derivative_array(meridian3.value_array, p.coords, X.vec)
        analytic = sphere.project_array(
            p.coords, meridian3.jacobian_array(p.coords) @ X.vec)
        worst = max(worst, float(np.linalg.norm(fd - analytic)))
    # FD truncation floor, not the analytic tolerance
    assert worst < 1e-8


def test_meridian_singular_at_poles(meridian2):
    pole = meridian2.sphere.point([1.0, 0.0, 0.0])
    with pytest.raises(SingularLocusError):
        meridian2.value_array(pole.coords)


def test_shape_operator_of_hopf_is_minus_J_on_perp(hopf3):
    """For the unit Hopf field A X = -J X on vectors orthogonal to xi."""
    sphere = hopf3.sphere
    J = complex_structure(4)
    p = sphere.random_point(np.random.default_rng(4))
    xiv = hopf3.value_array(p.coords)
    X = random_tangent(p, np.random.default_rng(5))
    Xp = X.vec - (X.vec @ xiv) * xiv
    out = shape_apply_array(hopf3, p.coords, Xp)
    assert np.allclose(out, -J @ Xp, atol=1e-12)


_FIELD_BUILDERS = {
    "hopf-r1": lambda: hopf_field(2, 1.0),
    "hopf-r2": lambda: hopf_field(2, 2.0),
    "meridian": lambda: meridian_field(3, 1.0),
    "hopf-combination": lambda: random_hopf_combination(
        np.random.default_rng(20)),
    "horizontal": lambda: horizontal_extension_field(
        SphereSpec(6, 1.0), np.random.default_rng(17).standard_normal(6)),
}


@pytest.mark.parametrize("name", list(_FIELD_BUILDERS))
def test_jacobian_matches_central_difference(name):
    """Every derivative of a field comes from its Jacobian, so each
    constructor's Jacobian must match an ambient central difference of its
    values along unit tangent directions (the Jacobians are specified
    there)."""
    xi = _FIELD_BUILDERS[name]()
    sphere = xi.sphere
    h = 1e-5 * sphere.radius
    rng = np.random.default_rng(21)
    for p in seeded_points(xi, 5, seed=22):
        X = random_tangent(p, rng, unit=True).vec
        fd = (xi.value_array(p.coords + h * X)
              - xi.value_array(p.coords - h * X)) / (2.0 * h)
        assert np.linalg.norm(fd - xi.jacobian_array(p.coords) @ X) < 1e-8


def test_shape_operator_annihilates_hopf_direction(hopf5):
    p = hopf5.sphere.random_point(np.random.default_rng(6))
    out = shape_apply_array(hopf5, p.coords, hopf5.value_array(p.coords))
    assert np.linalg.norm(out) < 1e-12


def test_conjugate_shape_operator_adjoint_property(hopf3_r2):
    sphere = hopf3_r2.sphere
    rng = np.random.default_rng(7)
    p = sphere.random_point(rng)
    X = random_tangent(p, rng)
    Y = random_tangent(p, rng)
    # A* is the horizontal part of the normal lift
    astar_y = xi_normal_lift_array(hopf3_r2, p.coords, Y.vec[None])[1][0]
    lhs = float(astar_y @ X.vec)
    rhs = float(shape_apply_array(hopf3_r2, p.coords, X.vec) @ Y.vec)
    assert abs(lhs - rhs) < 1e-12


def test_meridian_principal_curvature(meridian2):
    """Eigenvalue cot(theta)/r on the orthogonal complement of the field."""
    theta = np.pi / 3.0
    p = meridian2.sphere.point([np.cos(theta), np.sin(theta), 0.0])
    sd = singular_decomposition(meridian2, p.coords[None])
    assert np.isclose(sd.lambdas[0, 1], 1.0 / np.tan(theta), atol=1e-12)


# -- singular decomposition suite -------------------------------------------


@pytest.mark.parametrize("fixture_name", ["hopf3", "hopf5", "hopf3_r2", "meridian3"])
def test_singular_frame_relations(fixture_name, request):
    """A e_i = lambda_i f_i and A* f_i = lambda_i e_i, residuals < 1e-8."""
    xi = request.getfixturevalue(fixture_name)
    for p in seeded_points(xi, 10, seed=8):
        lam, e, f = frame_rows(singular_decomposition(xi, p.coords[None]))
        ae = shape_apply_array(xi, p.coords, e)
        assert np.max(np.abs(ae - lam[:, None] * f)) < 1e-8
        astar_f = xi_normal_lift_array(xi, p.coords, f)[1]
        for i in range(len(lam)):
            assert np.linalg.norm(astar_f[i] - lam[i] * e[i]) < 1e-8


def test_singular_zero_slot_and_ordering(hopf5):
    for p in seeded_points(hopf5, 5, seed=9):
        lam, _, f = frame_rows(singular_decomposition(hopf5, p.coords[None]))
        assert lam[0] == 0.0
        # f_0 is the field vector itself
        assert np.allclose(f[0], hopf5.value_array(p.coords))
        # remaining values are sorted descending
        rest = lam[1:]
        assert np.all(rest[:-1] >= rest[1:] - 1e-14)


def test_singular_frames_are_orthonormal(hopf3_r2):
    p = hopf3_r2.sphere.random_point(np.random.default_rng(10))
    _, e, f = frame_rows(singular_decomposition(hopf3_r2, p.coords[None]))
    for mat in (e, f):
        assert np.allclose(mat @ mat.T, np.eye(len(mat)), atol=1e-10)


def test_killing_canonical_pairing_hopf(hopf5):
    """Canonical frames: A e_a = lambda e_{m+a}, A e_{m+a} = -lambda e_a,
    f_a = e_{m+a}, f_{m+a} = -e_a."""
    p = hopf5.sphere.random_point(np.random.default_rng(11))
    lam, e, f = frame_rows(killing_canonical_frames(hopf5, p))
    m = 2
    assert np.allclose(lam[1:], 1.0, atol=1e-10)
    ae = shape_apply_array(hopf5, p.coords, e)
    for a in range(1, m + 1):
        assert np.linalg.norm(ae[a] - lam[a] * e[m + a]) < 1e-8
        assert np.linalg.norm(ae[m + a] + lam[m + a] * e[a]) < 1e-8
        assert np.linalg.norm(f[a] - e[m + a]) < 1e-8
        assert np.linalg.norm(f[m + a] + e[a]) < 1e-8


def test_killing_canonical_lambda_layout(hopf3_r2):
    p = hopf3_r2.sphere.random_point(np.random.default_rng(12))
    kd = killing_canonical_frames(hopf3_r2, p)
    assert np.allclose(kd.lambdas[0], [0.0, 0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("decompose, prefix", [
    (singular_decomposition, "singular frame assembly"),
    (killing_canonical_frames, "canonical frame"),
])
def test_frame_assembly_refuses_tolerance_below_residual(decompose, prefix,
                                                          hopf5, hopf3_r2,
                                                          monkeypatch):
    monkeypatch.setattr(fields.TOLERANCES, "assembly", 0.0)
    for xi in (hopf5, hopf3_r2):
        for p in seeded_points(xi, 3, seed=13):
            at = p.coords[None] if decompose is singular_decomposition else p
            with pytest.raises(DecompositionFailure,
                               match=rf"^{prefix} residual \S+ exceeds 0\.0e\+00$"):
                decompose(xi, at)


def test_killing_canonical_rejects_non_killing(meridian2):
    # away from the equator, where A is symmetric and nonzero
    theta = np.pi / 4.0
    p = meridian2.sphere.point([np.cos(theta), np.sin(theta), 0.0])
    with pytest.raises(PreconditionError):
        killing_canonical_frames(meridian2, p)


def test_covariant_normality_hopf(hopf7):
    for p in seeded_points(hopf7, 5, seed=13):
        assert covariant_normality_residual(hopf7, p) < 1e-8


# -- predicates and identities ------------------------------------------------


def test_hopf_predicate_profile(hopf3):
    P = hopf3.sphere.random_point(np.random.default_rng(14)).coords[None]
    assert is_geodesic(hopf3, P)[0] <= fields.TOLERANCES.analytic
    assert is_killing(hopf3, P)[0] <= fields.TOLERANCES.analytic
    assert on_triples(is_normal)(hopf3, P)[0] <= 1e-10
    assert on_triples(is_strongly_normal)(hopf3, P)[0] <= fields.TOLERANCES.analytic


def test_meridian_predicate_profile(meridian2):
    theta = np.pi / 3.0
    P = meridian2.sphere.point([np.cos(theta), np.sin(theta), 0.0]).coords[None]
    assert is_geodesic(meridian2, P)[0] <= fields.TOLERANCES.analytic
    killing = is_killing(meridian2, P)[0]
    assert not killing <= fields.TOLERANCES.analytic
    # spectral norm of A + A* at polar angle theta: 2 cot(theta) / r
    assert np.isclose(killing, 2.0 / np.tan(theta), atol=1e-10)


def test_half_curvature_vanishes_for_unit_hopf_on_perp(hopf3):
    """r(X,Y)xi = <xi,Y> X - <X,Y> xi at r = 1 (Sasakian identity)."""
    sphere = hopf3.sphere
    rng = np.random.default_rng(15)
    p = sphere.random_point(rng)
    xiv = hopf3.value_array(p.coords)
    X = random_tangent(p, rng)
    Y = random_tangent(p, rng)
    r_val = half_curvature(hopf3, p.coords, X.vec, Y.vec)
    target = (xiv @ Y.vec) * X.vec - (X.vec @ Y.vec) * xiv
    assert np.linalg.norm(r_val - target) < 1e-6


def test_codazzi_identity(hopf3_r2):
    """r(X,Y)xi - r(Y,X)xi = R(X,Y)xi, finite-difference route."""
    sphere = hopf3_r2.sphere
    rng = np.random.default_rng(16)
    p = sphere.random_point(rng)
    X = random_tangent(p, rng)
    Y = random_tangent(p, rng)
    lhs = (half_curvature(hopf3_r2, p.coords, X.vec, Y.vec)
           - half_curvature(hopf3_r2, p.coords, Y.vec, X.vec))
    rhs = sphere.curvature_array(X.vec, Y.vec, hopf3_r2.value_array(p.coords))
    assert np.linalg.norm(lhs - rhs) < 1e-4


def test_jacobi_relation(hopf5):
    P = hopf5.sphere.random_point(np.random.default_rng(17)).coords[None]
    assert jacobi_relation_residual(hopf5, P)[0] < 1e-10


def test_jacobi_relation_needs_killing(meridian2):
    theta = np.pi / 4.0
    P = meridian2.sphere.point([np.cos(theta), np.sin(theta), 0.0]).coords[None]
    with pytest.raises(PreconditionError):
        jacobi_relation_residual(meridian2, P)


def test_killing_precondition_refuses_a_far_meridian_field():
    """A + A* of the meridian field is 2 cot(theta) / r: 2e-7 at radius
    1e7, below an absolute 1e-6, but never skew at any radius."""
    xi = meridian_field(3, 1e7)
    p = xi.sphere.point([np.cos(np.pi / 4.0), np.sin(np.pi / 4.0), 0.0, 0.0])
    with pytest.raises(PreconditionError, match="needs a Killing field"):
        jacobi_relation_residual(xi, p.coords[None])
    with pytest.raises(PreconditionError, match="needs a Killing field"):
        killing_canonical_frames(xi, p)


def test_killing_precondition_accepts_a_small_hopf_field():
    """At radius 1e-12 the rounding of A = J / r alone leaves a skewness
    far above an absolute 1e-6; the Hopf field is Killing all the same."""
    xi = hopf_field(1, 1e-12)
    P = xi.sphere.random_point(np.random.default_rng(17)).coords[None]
    assert is_killing(xi, P)[0] > fields.TOLERANCES.analytic
    resid = jacobi_relation_residual(xi, P)
    assert resid.shape == (1,) and np.isfinite(resid[0])


@pytest.mark.parametrize("radius", [1e-12, 1e-3, 1e4, 1e8])
def test_killing_canonical_frames_pair_the_hopf_field_at_any_radius(radius):
    """lambda = 1/r is paired at every radius, and the kernel's rounding is
    not: the pairing takes as zero what the Killing bound takes as zero."""
    xi = hopf_field(1, radius)
    p = xi.sphere.random_point(np.random.default_rng(18))
    kd = killing_canonical_frames(xi, p)
    assert np.allclose(kd.lambdas[0] * radius, [0.0, 1.0, 1.0], atol=1e-9)


def constant_jacobian_field(sphere, K, name):
    """The field x -> K x / r with constant Jacobian K / r, on points and
    stacks."""
    jac = K / sphere.radius
    return UnitVectorField(
        sphere, lambda p: np.matmul(p, jac.T),
        lambda p: np.broadcast_to(jac, np.shape(p)[:-1] + jac.shape), name=name)


@pytest.mark.parametrize("ambient", [6, 8, 16])
def test_killing_canonical_frames_pair_a_rotated_complex_structure(ambient):
    """K = R J R^T, R a seeded orthogonal matrix, gives a unit Killing field
    that is not the Hopf field's J: one block, every nonzero lambda 1 to
    1e-12 (2-4e-16 measured), and both second-form routes read it as
    totally geodesic (max |Omega| 2-4e-11 measured)."""
    R = np.linalg.qr(np.random.default_rng(ambient).standard_normal((ambient, ambient)))[0]
    xi = constant_jacobian_field(SphereSpec(ambient),
                                 R @ complex_structure(ambient) @ R.T, "rotated")
    for p in seeded_points(xi, 3, seed=29):
        kd = killing_canonical_frames(xi, p)
        assert kd.lambdas[0, 0] == 0.0
        assert np.max(np.abs(kd.lambdas[0, 1:] - 1.0)) <= 1e-12
        for route in (second_form_lemma, second_form_direct):
            assert np.max(np.abs(route(xi, p.coords[None], kd))) <= 1e-9


def test_killing_canonical_frames_refuse_a_non_unit_killing_field():
    """K = diag(J, J, 2J) is skew but not orthogonal: its field is Killing,
    unit only where the last block vanishes, and its nonzero singular values
    are 1 and 2 there. One block cannot pair them, and the frames are
    refused, not paired as (0, 2, 1, 2, 1)."""
    J = complex_structure(2)
    K = np.zeros((6, 6))
    for k, c in enumerate((1.0, 1.0, 2.0)):
        K[2 * k:2 * k + 2, 2 * k:2 * k + 2] = c * J
    xi = constant_jacobian_field(SphereSpec(6), K, "non-unit")
    p = xi.sphere.point([0.6, 0.8, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises((DecompositionFailure, DegenerateInputError)):
        killing_canonical_frames(xi, p)


def test_near_killing_field_fails_one_killing_threshold(hopf5):
    """A skewness of order 1e-5 sits between the analytic 1e-6 and the
    finite-difference 1e-4: every Killing check must refuse it alike."""
    B = np.random.default_rng(23).standard_normal((6, 6))
    S = (B + B.T) / np.linalg.norm(B + B.T, 2)
    bent = UnitVectorField(hopf5.sphere, hopf5.value_fn,
                           lambda q: complex_structure(6) + 1e-5 * S)
    p = hopf5.sphere.random_point(np.random.default_rng(24))
    skew = is_killing(bent, p.coords[None])[0]
    assert not skew <= fields.TOLERANCES.analytic and 1e-6 < skew < 1e-4
    with pytest.raises(PreconditionError):
        jacobi_relation_residual(bent, p.coords[None])
    with pytest.raises(PreconditionError):
        killing_canonical_frames(bent, p)


def test_jacobi_relation_keeps_a_nan(hopf5):
    """A field whose value is NaN everywhere has a NaN residual, not the
    0.0 a running Python max would leave."""
    nan_valued = UnitVectorField(hopf5.sphere, lambda q: np.full(q.shape, np.nan),
                                 hopf5.jacobian_fn)
    P = hopf5.sphere.random_point(np.random.default_rng(17)).coords[None]
    assert np.isnan(jacobi_relation_residual(nan_valued, P)[0])


def test_sasakian_residual_keeps_a_nan_in_its_second_part(hopf3, monkeypatch):
    """A NaN in one half-curvature row reaches the residual, though the
    finite-difference part stays finite."""
    real = fields.half_curvature

    def poisoned(*args, **kwargs):
        r = real(*args, **kwargs).copy()
        r[..., 3, :] = np.nan
        return r

    monkeypatch.setattr(fields, "half_curvature", poisoned)
    P = hopf3.sphere.random_point(np.random.default_rng(18)).coords[None]
    assert np.isnan(sasakian_identity_residual(hopf3, P)[0])


def test_sasakian_residual_unit_vs_nonunit(hopf3, hopf3_r2):
    p1 = hopf3.sphere.random_point(np.random.default_rng(18))
    assert sasakian_identity_residual(hopf3, p1.coords[None])[0] < 1e-4
    p2 = hopf3_r2.sphere.random_point(np.random.default_rng(18))
    # fails off unit radius: the identity forces r = 1
    assert sasakian_identity_residual(hopf3_r2, p2.coords[None])[0] > 0.1


def test_shape_matrix_skew_for_killing(hopf5):
    p = hopf5.sphere.random_point(np.random.default_rng(19))
    rows = hopf5.sphere.standard_frame_rows(p.coords[None])
    M = shape_matrix(hopf5, p.coords[None], rows)[0]
    assert np.linalg.norm(M + M.T, 2) < 1e-12
