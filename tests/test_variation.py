import numpy as np
import pytest

from tgeo import (
    DegenerateInputError,
    PreconditionError,
    PropagationFailure,
    Quadrature,
    QuadratureFailure,
    SphereSpec,
    VariationField,
    complex_structure,
    destabilizing_field,
    destabilizing_integrand,
    duschek_integrand_general,
    hopf_field,
    hopf_frame_s3,
    horizontal_extension_field,
    integrate_over_sphere,
    propagate_fiber_frame,
    random_hopf_combination,
    reduced_integrand,
    s3_stable_form,
    sphere_volume,
    stability_verdict,
)
from tgeo.variation import _LJ, _LK


def test_sphere_volume_closed_values():
    assert np.isclose(sphere_volume(SphereSpec(4, 1.0)), 2.0 * np.pi ** 2)
    assert np.isclose(sphere_volume(SphereSpec(6, 1.0)), np.pi ** 3)
    assert np.isclose(sphere_volume(SphereSpec(3, 2.0)), 16.0 * np.pi)


def test_integrate_constant_function():
    sphere = SphereSpec(4, 1.0)
    res = integrate_over_sphere(lambda q: 3.0, sphere, Quadrature(500, seed=1))
    assert np.isclose(res.value, 3.0 * 2.0 * np.pi ** 2)
    assert res.std_error < 1e-12
    assert res.rejected == 0


def test_integrate_coordinate_square():
    """int x_0^2 over S^3 = vol / 4 by symmetry; Monte Carlo within 4 sigma."""
    sphere = SphereSpec(4, 1.0)
    res = integrate_over_sphere(lambda q: q[0] ** 2, sphere, Quadrature(4000, seed=2))
    target = 2.0 * np.pi ** 2 / 4.0
    assert abs(res.value - target) < 4.0 * res.std_error + 1e-12


def test_integrate_is_deterministic():
    sphere = SphereSpec(4, 1.0)
    a = integrate_over_sphere(lambda q: q[1] ** 4, sphere, Quadrature(256, seed=7))
    b = integrate_over_sphere(lambda q: q[1] ** 4, sphere, Quadrature(256, seed=7))
    assert a.value == b.value and a.std_error == b.std_error


def test_integrate_rejects_nan_budget():
    sphere = SphereSpec(4, 1.0)
    with pytest.raises(QuadratureFailure):
        integrate_over_sphere(lambda q: np.nan, sphere, Quadrature(100, seed=0))


def test_quadrature_validates_samples():
    with pytest.raises(DegenerateInputError):
        Quadrature(0)


# -- integrands -----------------------------------------------------------------


def test_constant_coefficient_integrand_value(hopf3):
    """Constant f1, f2 on S^3: every route gives 4.5 |eta|^2 exactly."""
    c1, c2 = 0.8, -0.3
    eta = VariationField(SphereSpec(4, 1.0),
                         lambda q: c1 * (_LJ @ q) + c2 * (_LK @ q),
                         lambda q: c1 * _LJ + c2 * _LK,
                         name="const")
    nsq = c1 * c1 + c2 * c2
    p = hopf3.sphere.random_point(np.random.default_rng(0))
    red = reduced_integrand(hopf3, eta, p)
    assert abs(red - 4.5 * nsq) < 1e-10
    db = duschek_integrand_general(hopf3, eta, p)
    assert abs(db.value - 4.5 * nsq) < 1e-10
    form, n2 = s3_stable_form(eta, p.coords)
    assert abs(form - 4.5 * nsq) < 1e-10 and abs(n2 - nsq) < 1e-12


def test_duschek_equals_reduced_s3(hopf3):
    worst = 0.0
    for fi in range(3):
        eta = random_hopf_combination(np.random.default_rng((1, fi)))
        rng = np.random.default_rng((2, fi))
        for _ in range(4):
            p = hopf3.sphere.random_point(rng)
            worst = max(worst, abs(duschek_integrand_general(hopf3, eta, p).value
                                   - reduced_integrand(hopf3, eta, p)))
    assert worst < 1e-3


def test_duschek_equals_reduced_s5(hopf5):
    worst = 0.0
    for fi in range(3):
        v = np.random.default_rng((3, fi)).standard_normal(6)
        eta = horizontal_extension_field(hopf5.sphere, v)
        rng = np.random.default_rng((4, fi))
        for _ in range(4):
            p = hopf5.sphere.random_point(rng)
            worst = max(worst, abs(duschek_integrand_general(hopf5, eta, p).value
                                   - reduced_integrand(hopf5, eta, p)))
    assert worst < 1e-3


def test_duschek_degenerate_zero_field(hopf3):
    eta = VariationField(SphereSpec(4, 1.0), lambda q: np.zeros(4),
                         lambda q: np.zeros((4, 4)), name="zero")
    p = hopf3.sphere.random_point(np.random.default_rng(5))
    db = duschek_integrand_general(hopf3, eta, p)
    assert db.degenerate and db.value == 0.0


def test_integrand_requires_orthogonal_variation(hopf3):
    # eta with a component along the field direction is rejected
    eta = VariationField(SphereSpec(4, 1.0),
                         lambda q: complex_structure(4) @ q,
                         lambda q: complex_structure(4), name="parallel")
    p = hopf3.sphere.random_point(np.random.default_rng(6))
    with pytest.raises(PreconditionError):
        reduced_integrand(hopf3, eta, p)


def test_hopf_frame_s3_orthonormal():
    q = SphereSpec(4, 1.0).random_point(np.random.default_rng(7)).coords
    e0, e1, e2 = hopf_frame_s3(q)
    mat = np.vstack([q, e0, e1, e2])
    assert np.allclose(mat @ mat.T, np.eye(4), atol=1e-13)


def test_s3_stable_family_margin(hopf3):
    """Spot check of the stability bound integrand >= |eta|^2 / 2."""
    for fi in range(5):
        eta = random_hopf_combination(np.random.default_rng((8, fi)))
        rng = np.random.default_rng((9, fi))
        for _ in range(10):
            p = hopf3.sphere.random_point(rng)
            red = reduced_integrand(hopf3, eta, p)
            nsq = float(eta.value_array(p.coords) @ eta.value_array(p.coords))
            assert red >= 0.5 * nsq - 1e-3


# -- fiber frames ------------------------------------------------------------


def test_fiber_propagation_matches_exponential():
    """Both propagated pair rows against the exact rotation e^(Jt) v."""
    sphere = SphereSpec(6, 1.0)
    p0 = sphere.random_point(np.random.default_rng(10))
    fiber = propagate_fiber_frame(p0)
    J = complex_structure(6)
    worst = 0.0
    for k in (0, 1):
        v0 = fiber.frames[0, k]
        for i, t in enumerate(fiber.ts[:-1]):
            exact = np.cos(t) * v0 + np.sin(t) * (J @ v0)
            worst = max(worst, float(np.linalg.norm(fiber.frames[i, k] - exact)))
    assert worst < 1e-6


def test_fiber_residual_report():
    sphere = SphereSpec(8, 1.0)
    p0 = sphere.random_point(np.random.default_rng(11))
    fiber = propagate_fiber_frame(p0)
    r = fiber.residuals
    assert r["closure"] < 1e-6
    assert r["orthonormality"] < 1e-8
    assert r["fiber_rows"] < 1e-4
    assert r["horizontal_rows"] < 1e-10


def test_fiber_frame_validation():
    sphere = SphereSpec(6, 1.0)
    p0 = sphere.random_point(np.random.default_rng(12))
    with pytest.raises(DegenerateInputError):
        propagate_fiber_frame(p0, steps=7)
    odd = SphereSpec(3, 1.0).random_point(np.random.default_rng(12))
    with pytest.raises(DegenerateInputError):
        propagate_fiber_frame(odd)  # S^2 has no complex structure
    big = SphereSpec(6, 2.0).random_point(np.random.default_rng(13))
    with pytest.raises(PreconditionError):
        propagate_fiber_frame(big)


def test_destabilizing_field_constant_on_fiber():
    """eta restricted to its seed fiber has constant norm and no fiber
    derivative; this is what makes the sign argument pointwise."""
    sphere = SphereSpec(6, 1.0)
    p0 = sphere.random_point(np.random.default_rng(14))
    fiber = propagate_fiber_frame(p0)
    eta = destabilizing_field(fiber)
    norms = [float(np.linalg.norm(eta.value_array(q))) for q in fiber.points]
    assert np.max(np.abs(np.array(norms) - 1.0)) < 1e-8
    for node in range(0, fiber.node_count, 8):
        d0 = eta.covariant_derivative_array(fiber.points[node], fiber.e0s[node])
        assert np.linalg.norm(d0) < 1e-8


@pytest.mark.parametrize("m,target", [(2, -1.5), (3, -3.5)])
def test_destabilizing_ratio(m, target):
    xi = hopf_field(m, 1.0)
    fn = destabilizing_integrand(xi)
    rng = np.random.default_rng(15)
    for _ in range(16):
        q = xi.sphere.random_point(rng).coords
        assert abs(fn(q) - target) < 1e-10


def test_destabilizing_ratio_positive_on_s3():
    # (5 - 2n)/2 = +0.5 at n = 2: no instability witness on S^3
    xi = hopf_field(1, 1.0)
    fn = destabilizing_integrand(xi)
    q = xi.sphere.random_point(np.random.default_rng(16)).coords
    assert abs(fn(q) - 0.5) < 1e-10


# -- verdicts ---------------------------------------------------------------------


def test_stability_verdict_s3():
    rep = stability_verdict(dim=3, field_count=5, samples=20)
    assert rep.verdict == "stable"
    assert rep.ok


def test_stability_verdict_s5_s7():
    for dim in (5, 7):
        rep = stability_verdict(dim=dim)
        assert rep.verdict == "unstable"
        assert rep.max_residual < 1e-3


def test_stability_verdict_validation():
    with pytest.raises(DegenerateInputError):
        stability_verdict(dim=4)
    with pytest.raises(DegenerateInputError):
        stability_verdict(dim=5, mode="stable-S3")
