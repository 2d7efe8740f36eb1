import dataclasses

import numpy as np
import pytest

from tgeo import (
    BundleVector,
    DegenerateInputError,
    DegeneratePlaneError,
    Frame,
    PreconditionError,
    SpherePoint,
    TangentVector,
    UnitVectorField,
    bundle_sectional_curvature,
    geodesic_field_obstruction,
    gram_schmidt_rows,
    half_curvature,
    horizontal_lift,
    is_strongly_normal,
    killing_canonical_frames,
    sasakian_identity_residual,
    second_form_direct,
    second_form_lemma,
    shape_apply_array,
    singular_decomposition,
    submanifold_plane_curvature,
    tangential_lift,
    xi_tangential_lift,
)
from tgeo import hopf_field, meridian_field
import tgeo.manifold as manifold
from tgeo.manifold import unit_rows
from tgeo.sasaki import (_xi_frame_rows, hopf_pattern_peak, hopf_pattern_split,
                         meridian_obstruction, xi_normal_lift_array)
import stack_table
from conftest import (assert_identical, frame_rows, point_stack, printed_tests,
                      random_frame, random_tangent, seeded_points)

globals().update(printed_tests(__name__, stack_table.ROWS))


def sasaki_pairing(X: BundleVector, h, v):
    """<<X, (h, v)>> for a typed bundle vector and the parts of one row."""
    return float(X.horiz.vec @ h + X.vert.vec @ v)


def test_tangential_lift_removes_anchor_component(hopf3):
    sphere = hopf3.sphere
    rng = np.random.default_rng(1)
    p = sphere.random_point(rng)
    u = TangentVector(p, hopf3.value_array(p.coords))
    X = random_tangent(p, rng)
    lift = tangential_lift(X, u)
    assert abs(float(lift.vert.vec @ u.vec)) < 1e-13


def test_lift_duality_and_tau_norm(hopf5):
    """<<X^tau, Y^nu>> = 0 and |X^tau|^2 = 1 + |A X|^2."""
    sphere = hopf5.sphere
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        p = sphere.random_point(rng)
        X = random_tangent(p, rng)
        Y = random_tangent(p, rng)
        _, h, v = xi_normal_lift_array(hopf5, p.coords, Y.vec[None])
        worst = max(worst, abs(sasaki_pairing(xi_tangential_lift(hopf5, X),
                                              h[0], v[0])))
    assert worst < 1e-10
    p = sphere.random_point(rng)
    X = random_tangent(p, rng, unit=True)
    xiv = hopf5.value_array(p.coords)
    tau = xi_tangential_lift(hopf5, X)
    # unit Killing: |A X|^2 = 1 - <xi, X>^2, so |X^tau|^2 = 2 - <xi, X>^2
    expected = 2.0 - float(X.vec @ xiv) ** 2
    assert abs(sasaki_pairing(tau, tau.horiz.vec, tau.vert.vec) - expected) < 1e-10


def test_normal_lift_sees_only_perp_part(hopf3):
    """(W)^nu = (W^perp)^nu: the field-parallel part of W drops out."""
    sphere = hopf3.sphere
    rng = np.random.default_rng(3)
    p = sphere.random_point(rng)
    xiv = hopf3.value_array(p.coords)
    W = random_tangent(p, rng).vec
    Wperp = W - xiv * float(W @ xiv)
    _, ah, av = xi_normal_lift_array(hopf3, p.coords, W[None])
    _, bh, bv = xi_normal_lift_array(hopf3, p.coords, Wperp[None])
    assert np.allclose(ah, bh, atol=1e-13)
    assert np.allclose(av, bv, atol=1e-13)


def test_submanifold_frame_rows_orthonormal_and_dual(hopf5):
    p = hopf5.sphere.random_point(np.random.default_rng(4))
    sd = singular_decomposition(hopf5, p.coords[None])
    (th, tv), (nh, nv) = _xi_frame_rows(sd)
    h, v = np.vstack([th, nh]), np.vstack([tv, nv])
    gram = h @ h.T + v @ v.T
    assert np.max(np.abs(gram - np.eye(len(h)))) < 1e-10
    assert len(th) == hopf5.sphere.dim and len(nh) == hopf5.sphere.dim - 1


def test_bundle_vector_anchor_guard(hopf3):
    sphere = hopf3.sphere
    p = sphere.random_point(np.random.default_rng(6))
    q = sphere.random_point(np.random.default_rng(7))
    u = TangentVector(p, hopf3.value_array(p.coords))
    w = TangentVector(q, hopf3.value_array(q.coords))
    a = horizontal_lift(random_tangent(p, np.random.default_rng(8)), u)
    b = horizontal_lift(random_tangent(q, np.random.default_rng(9)), w)
    from tgeo import BasePointMismatchError
    with pytest.raises(BasePointMismatchError):
        bundle_sectional_curvature(a, b)
    with pytest.raises(BasePointMismatchError):
        BundleVector(u, b.horiz, a.vert)


# -- second fundamental form --------------------------------------------------


@pytest.mark.parametrize("fixture_name", ["hopf3", "hopf5"])
def test_second_form_vanishes_unit_hopf(fixture_name, request):
    xi = request.getfixturevalue(fixture_name)
    P = point_stack(seeded_points(xi, 10, seed=10))
    sd = singular_decomposition(xi, P)
    assert np.max(np.abs(second_form_lemma(xi, P, sd))) < 1e-5
    assert np.max(np.abs(second_form_direct(xi, P, sd))) < 1e-5


def test_second_form_routes_agree_off_unit_radius(hopf3_r2):
    """The two assemblies are independent; they must match where nonzero."""
    P = point_stack(seeded_points(hopf3_r2, 5, seed=11))
    sd = singular_decomposition(hopf3_r2, P)
    om_l = second_form_lemma(hopf3_r2, P, sd)
    om_d = second_form_direct(hopf3_r2, P, sd)
    assert np.max(np.abs(om_l - om_d)) < 1e-6
    # genuinely nonzero at r=2, at every point
    assert np.all(np.max(np.abs(om_l), axis=(1, 2, 3)) > 0.07)


def test_second_form_routes_sit_at_their_rounding_floor(hopf3_r2):
    """At 40 seeded points each route's max |Omega| for the unit Hopf field
    on S^3, S^7 and S^15 stays below 1.5e-10 (3.3-3.6e-11 for the direct
    route, half that for the lemma route), and at radius 2 on S^3 the routes
    differ by less than 1e-10 (7.6e-12): a difference quotient off by a
    relative 1e-9 reads 5.3e-10 and 2.1e-10. Criterion 1's 1e-4 would not
    see it."""
    for m in (1, 3, 7):
        xi = hopf_field(m, 1.0)
        P = point_stack(seeded_points(xi, 40, seed=0))
        sd = singular_decomposition(xi, P)
        assert np.max(np.abs(second_form_lemma(xi, P, sd))) < 1.5e-10
        assert np.max(np.abs(second_form_direct(xi, P, sd))) < 1.5e-10
    P = point_stack(seeded_points(hopf3_r2, 40, seed=0))
    sd = singular_decomposition(hopf3_r2, P)
    gap = second_form_lemma(hopf3_r2, P, sd) - second_form_direct(hopf3_r2, P, sd)
    assert np.max(np.abs(gap)) < 1e-10


def test_second_form_direct_is_symmetric(hopf3_r2):
    """Symmetry in (i, j) is not built into the direct route; it is evidence."""
    P = hopf3_r2.sphere.random_point(np.random.default_rng(12)).coords[None]
    om = second_form_direct(hopf3_r2, P, singular_decomposition(hopf3_r2, P))[0]
    assert np.max(np.abs(om - np.transpose(om, (0, 2, 1)))) < 1e-6


def test_fd_kernels_follow_the_step_factor(monkeypatch):
    """The one step of every finite difference is FD_STEP_FACTOR * r: the
    displaced points at which fd_derivative_array, half_curvature and both
    second-form routes evaluate the Jacobian lie at chord 2 r sin(factor/2)
    from the base point, at the default factor and at a patched one."""
    base = hopf_field(2, 2.0)
    sphere = base.sphere
    p = seeded_points(base, 1, seed=19)[0]
    sd = singular_decomposition(base, p.coords[None])
    x, y = sd.right_frame.matrix[0, :2]
    seen = []

    def recording(q):
        seen.append(np.reshape(q, (-1, sphere.ambient_dim)))
        return base.jacobian_fn(q)

    xi = dataclasses.replace(base, jacobian_fn=recording)
    kernels = [lambda: sphere.fd_derivative_array(recording, p.coords, x),
               lambda: half_curvature(xi, p.coords, x, y),
               lambda: second_form_lemma(xi, p.coords[None], sd),
               lambda: second_form_direct(xi, p.coords[None], sd)]
    for factor in (manifold.FD_STEP_FACTOR, 2e-3):
        monkeypatch.setattr(manifold, "FD_STEP_FACTOR", factor)
        want = 2.0 * sphere.radius * np.sin(factor / 2.0)
        for run in kernels:
            seen.clear()
            run()
            chords = np.linalg.norm(np.concatenate(seen) - p.coords, axis=1)
            displaced = chords > 1e-12
            assert displaced.any()
            assert np.allclose(chords[displaced], want, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("m", [3, 7], ids=["s7", "s15"])
def test_lemma_route_differentiates_once_per_frame_direction(m, monkeypatch):
    """One second_form_lemma call makes one half-curvature call, along the
    whole frame at once, and 2 Jacobian evaluations (not the 2 n1^2 = 450 of
    one finite difference per frame pair on S^15)."""
    xi = hopf_field(m, 1.0)
    P = seeded_points(xi, 1, seed=17)[0].coords[None]
    sd = singular_decomposition(xi, P)
    counts = {"half_curvature": 0, "jacobian": 0}

    def counted_jacobian(q, _jac=xi.jacobian_fn):
        counts["jacobian"] += 1
        return _jac(q)

    def counted_half_curvature(*args, **kwargs):
        counts["half_curvature"] += 1
        return half_curvature(*args, **kwargs)

    monkeypatch.setattr("tgeo.sasaki.half_curvature", counted_half_curvature)
    counted = UnitVectorField(xi.sphere, xi.value_fn, counted_jacobian, xi.name)
    omega = second_form_lemma(counted, P, sd)
    assert counts == {"half_curvature": 1, "jacobian": 2}
    assert_identical(omega, second_form_lemma(xi, P, sd))


def test_second_form_nonunit_pattern(hopf3_r2):
    """At r=2 the only nonzero components sit in the (s | m+s, 0) slots and
    carry the value (1/2) K (1-K) / (1+K) = 0.075 at K = 1/4."""
    p = hopf3_r2.sphere.random_point(np.random.default_rng(13))
    kd = killing_canonical_frames(hopf3_r2, p)
    om = second_form_direct(hopf3_r2, p.coords[None], kd)[0]
    expected = np.zeros_like(om)
    expected[0, 2, 0] = expected[0, 0, 2] = 0.075
    expected[1, 1, 0] = expected[1, 0, 1] = -0.075
    assert np.max(np.abs(np.abs(om) - np.abs(expected))) < 1e-4
    assert abs(om[0, 2, 0] - 0.075) < 1e-4
    assert abs(om[0, 2, 0] + om[1, 1, 0]) < 1e-6  # opposite signs across rows


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("radius", [0.5, 2.0, 3.0])
def test_hopf_pattern_closed_form(m, radius):
    """The library's pattern value is (1/2) K (1-K) / (1+K), 0.075 at K = 1/4,
    and the direct route puts that magnitude in the (s | m+s, 0) slots only."""
    assert abs(hopf_pattern_peak(0.25) - 0.075) < 1e-15
    K = 1.0 / radius ** 2
    inline = 0.5 * K * (1.0 - K) / (1.0 + K)
    assert abs(hopf_pattern_peak(K) - inline) < 1e-15
    xi = hopf_field(m, radius)
    p = xi.sphere.random_point(np.random.default_rng((18, m)))
    kd = killing_canonical_frames(xi, p)
    omega = second_form_direct(xi, p.coords[None], kd)[0]
    peak, off = hopf_pattern_split(omega)
    assert abs(peak - abs(inline)) < 1e-4
    assert off < 1e-6


def test_kernels_check_each_vector_where_it_is_made(hopf7, monkeypatch):
    """On unit S^7 one singular decomposition of a stack of 1, 2 or 64
    points builds its two frames once for the whole stack (1 SpherePoint,
    2 Frames, each checking its rows through one TangentVector, whatever
    the stack's size); the second-form routes given its record and the
    sampled predicates build no SpherePoint, TangentVector or Frame."""
    counts = {SpherePoint: 0, TangentVector: 0, Frame: 0}
    for cls in counts:
        def counted(self, _cls=cls, _check=cls.__post_init__):
            counts[_cls] += 1
            _check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    for count in (1, 2, 64):
        P = point_stack(seeded_points(hopf7, count, seed=30))
        before = dict(counts)
        sd = singular_decomposition(hopf7, P)
        assert {cls: counts[cls] - before[cls] for cls in counts} == {
            SpherePoint: 1, TangentVector: 2, Frame: 2}
        before = dict(counts)
        second_form_lemma(hopf7, P, sd)
        second_form_direct(hopf7, P, sd)
        is_strongly_normal(hopf7, P)
        sasakian_identity_residual(hopf7, P)
        assert counts == before


def test_meridian_second_form_is_large(meridian2):
    theta = np.pi / 3.0
    P = meridian2.sphere.point([np.cos(theta), np.sin(theta), 0.0]).coords[None]
    om = second_form_lemma(meridian2, P, singular_decomposition(meridian2, P))
    assert np.max(np.abs(om)) > 0.1


def test_obstruction_consistency_and_meridian_closed_form(meridian3):
    """Obstruction M_(s,a) = Omega_(s|a,0); for the meridian field it equals
    -(1/2) Lambda (cot^2 + 1) <e_a, f_s>."""
    P = point_stack(seeded_points(meridian3, 8, seed=14))
    sd = singular_decomposition(meridian3, P)
    stacked = geodesic_field_obstruction(meridian3, P, sd)
    om = second_form_lemma(meridian3, P, sd)
    assert np.max(np.abs(stacked - om[:, :, 1:, 0])) < 1e-4
    for k, obs in enumerate(stacked):
        ct = float(P[k, 0])
        factor = ct * ct / (1.0 - ct * ct) + 1.0
        lam, e, f = frame_rows(sd, k)
        scale = 1.0 / np.sqrt(1.0 + lam[1:] ** 2)
        expected = -0.5 * np.outer(scale, scale) * factor * (f[1:] @ e[1:].T)
        assert np.max(np.abs(obs - expected)) < 1e-4


@pytest.mark.parametrize("dim", [3, 5])
def test_meridian_obstruction_closed_form(dim):
    """The library's meridian closed form matches geodesic_field_obstruction,
    and the inline -(1/2) Lambda (cot^2 + 1) <e_a, f_s>, on S^3 and S^5."""
    axis = np.eye(dim + 1)[0]
    xi = meridian_field(axis)
    P = point_stack(seeded_points(xi, 8, seed=17))
    sd = singular_decomposition(xi, P)
    cts = P @ axis
    stacked = meridian_obstruction(sd, cts)
    assert np.max(np.abs(geodesic_field_obstruction(xi, P, sd) - stacked)) < 1e-4
    for k, (ct, closed) in enumerate(zip(cts, stacked)):
        factor = ct * ct / (1.0 - ct * ct) + 1.0
        lam, e, f = frame_rows(sd, k)
        scale = 1.0 / np.sqrt(1.0 + lam[1:] ** 2)
        inline = -0.5 * np.outer(scale, scale) * factor * (f[1:] @ e[1:].T)
        assert np.max(np.abs(closed - inline)) < 1e-12


def test_obstruction_zero_for_unit_hopf(hopf3):
    P = hopf3.sphere.random_point(np.random.default_rng(15)).coords[None]
    obs = geodesic_field_obstruction(hopf3, P, singular_decomposition(hopf3, P))
    assert np.max(np.abs(obs)) < 1e-10


def test_obstruction_preconditions(hopf3_r2):
    P = hopf3_r2.sphere.random_point(np.random.default_rng(16)).coords[None]
    with pytest.raises(PreconditionError):
        # needs unit radius
        geodesic_field_obstruction(hopf3_r2, P, singular_decomposition(hopf3_r2, P))


# -- sectional curvature ----------------------------------------------------------


def test_designated_sections(hopf3):
    """xi-sections give 1/4, phi-sections 5/4, by the closed form."""
    sphere = hopf3.sphere
    p = sphere.random_point(np.random.default_rng(18))
    xiv = TangentVector(p, hopf3.value_array(p.coords))
    candidates = np.vstack([xiv.vec, sphere.project_array(p.coords, np.eye(4))])
    W = TangentVector(p, gram_schmidt_rows(candidates, pivot_tol=1e-6)[1])
    k_xi = submanifold_plane_curvature(hopf3, xiv, W)
    assert abs(k_xi - 0.25) < 1e-10
    phi_w = TangentVector(
        p, unit_rows(-shape_apply_array(hopf3, p.coords, W.vec)[None])[0])
    k_phi = submanifold_plane_curvature(hopf3, W, phi_w)
    assert abs(k_phi - 1.25) < 1e-10


def test_plane_curvature_closed_form_vs_bundle_route(hopf5):
    worst = 0.0
    for idx in range(100):
        rng = np.random.default_rng((19, idx))
        p = hopf5.sphere.random_point(rng)
        fr = random_frame(p, rng)
        K = submanifold_plane_curvature(hopf5, fr[0], fr[1])
        Kq = bundle_sectional_curvature(xi_tangential_lift(hopf5, fr[0]),
                                        xi_tangential_lift(hopf5, fr[1]))
        worst = max(worst, abs(K - Kq))
        assert 0.25 - 1e-9 <= K <= 1.25 + 1e-9
    assert worst < 1e-10


def test_bundle_curvature_handles_non_orthonormal_pairs(hopf3):
    sphere = hopf3.sphere
    rng = np.random.default_rng(20)
    p = sphere.random_point(rng)
    u = random_tangent(p, rng, unit=True)
    h = random_tangent(p, rng)
    t = tangential_lift(random_tangent(p, rng), u).vert
    X = horizontal_lift(h, u)
    Y = BundleVector(u, h, t)  # X + t^v
    K1 = bundle_sectional_curvature(X, Y)
    # scaling either vector leaves the plane, and the curvature, unchanged
    scaled = BundleVector(u, TangentVector(p, 2.5 * h.vec), sphere.zero_tangent(p))
    sheared = BundleVector(u, TangentVector(p, 1.3 * h.vec), t)  # Y + 0.3 X
    K2 = bundle_sectional_curvature(scaled, sheared)
    assert abs(K1 - K2) < 1e-10


def test_bundle_curvature_degenerate_plane(hopf3):
    sphere = hopf3.sphere
    rng = np.random.default_rng(21)
    p = sphere.random_point(rng)
    u = random_tangent(p, rng, unit=True)
    h = random_tangent(p, rng)
    X = horizontal_lift(h, u)
    with pytest.raises(DegeneratePlaneError):
        bundle_sectional_curvature(X, horizontal_lift(TangentVector(p, 3.0 * h.vec), u))


def test_plane_curvature_requires_orthonormal_input(hopf3):
    sphere = hopf3.sphere
    rng = np.random.default_rng(22)
    p = sphere.random_point(rng)
    fr = random_frame(p, rng)
    with pytest.raises(DegenerateInputError):
        submanifold_plane_curvature(hopf3, TangentVector(p, 2.0 * fr[0].vec), fr[1])

