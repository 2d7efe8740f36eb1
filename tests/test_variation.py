import json

import numpy as np
import pytest

from tgeo import (
    DegenerateInputError,
    PreconditionError,
    PropagationFailure,
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
    second_form_lemma,
    singular_decomposition,
    sphere_volume,
    stability_verdict,
)
import tgeo.variation as variation
from tgeo.cli import main
from tgeo.fields import MIN_FIBER_STEPS, TOLERANCES
from tgeo.sasaki import submanifold_plane_curvature_array
from tgeo.variation import _LJ, _LK

from conftest import random_frame, seeded_points


def test_sphere_volume_closed_values():
    assert np.isclose(sphere_volume(SphereSpec(4, 1.0)), 2.0 * np.pi ** 2)
    assert np.isclose(sphere_volume(SphereSpec(6, 1.0)), np.pi ** 3)
    assert np.isclose(sphere_volume(SphereSpec(3, 2.0)), 16.0 * np.pi)


def test_integrate_constant_function():
    sphere = SphereSpec(4, 1.0)
    res = integrate_over_sphere(lambda q: np.full(len(q), 3.0), sphere, 500, 1)
    assert np.isclose(res.value, 3.0 * 2.0 * np.pi ** 2)
    assert res.std_error < 1e-12
    assert res.samples == 500


def test_integrate_coordinate_square():
    """int x_0^2 over S^3 = vol / 4 by symmetry; Monte Carlo within 4 sigma."""
    sphere = SphereSpec(4, 1.0)
    res = integrate_over_sphere(lambda q: q[:, 0] ** 2, sphere, 4000, 2)
    target = 2.0 * np.pi ** 2 / 4.0
    assert abs(res.value - target) < 4.0 * res.std_error + 1e-12


def test_integrate_is_deterministic():
    sphere = SphereSpec(4, 1.0)
    a = integrate_over_sphere(lambda q: q[:, 1] ** 4, sphere, 256, 7)
    b = integrate_over_sphere(lambda q: q[:, 1] ** 4, sphere, 256, 7)
    assert a.value == b.value and a.std_error == b.std_error


def test_integrate_refuses_a_nan_sample():
    """There is no rejection budget: one NaN value is a FloatingPointError
    naming its sample, here the first of all."""
    sphere = SphereSpec(4, 1.0)
    with pytest.raises(FloatingPointError,
                       match="non-finite integrand: quadrature sample 0, "
                             r"seed tuple \(0, 0\)") as err:
        integrate_over_sphere(lambda q: np.full(len(q), np.nan), sphere, 100, 0)
    assert err.value.row == 0


def test_quadrature_validates_samples():
    with pytest.raises(DegenerateInputError):
        integrate_over_sphere(lambda q: np.ones(len(q)), SphereSpec(4, 1.0), 0, 0)
    with pytest.raises(DegenerateInputError, match="shape"):
        integrate_over_sphere(lambda q: 1.0, SphereSpec(4, 1.0), 10, 0)


# -- integrands -----------------------------------------------------------------


def reduced_at(xi, eta, p):
    """``reduced_integrand`` at the one point ``p``: its one-row stack."""
    return float(reduced_integrand(xi, eta, p.coords[None])[0])


def test_constant_coefficient_integrand_value(hopf3):
    """Constant f1, f2 on S^3: every route gives 4.5 |eta|^2 exactly."""
    c1, c2 = 0.8, -0.3
    eta = VariationField(SphereSpec(4, 1.0),
                         lambda q: q @ (c1 * _LJ + c2 * _LK).T,
                         lambda q: np.broadcast_to(c1 * _LJ + c2 * _LK,
                                                   q.shape + (4,)),
                         name="const")
    nsq = c1 * c1 + c2 * c2
    p = hopf3.sphere.random_point(np.random.default_rng(0))
    red = reduced_at(hopf3, eta, p)
    assert abs(red - 4.5 * nsq) < 1e-10
    db = duschek_integrand_general(hopf3, eta, p)
    assert abs(db.value - 4.5 * nsq) < 1e-10
    (form,), (n2,) = s3_stable_form(eta, p.coords[None])
    assert abs(form - 4.5 * nsq) < 1e-10 and abs(n2 - nsq) < 1e-12


def test_duschek_equals_reduced_s3(hopf3):
    worst = 0.0
    for fi in range(3):
        eta = random_hopf_combination(np.random.default_rng((1, fi)))
        rng = np.random.default_rng((2, fi))
        for _ in range(4):
            p = hopf3.sphere.random_point(rng)
            worst = max(worst, abs(duschek_integrand_general(hopf3, eta, p).value
                                   - reduced_at(hopf3, eta, p)))
    assert worst < 1e-3


def worst_horizontal_gap(xi):
    """max |general - reduced| over three horizontal-extension fields at
    four points each."""
    worst = 0.0
    for fi in range(3):
        v = np.random.default_rng((3, fi)).standard_normal(xi.sphere.ambient_dim)
        eta = horizontal_extension_field(xi.sphere, v)
        rng = np.random.default_rng((4, fi))
        for _ in range(4):
            p = xi.sphere.random_point(rng)
            worst = max(worst, abs(duschek_integrand_general(xi, eta, p).value
                                   - reduced_at(xi, eta, p)))
    return worst


def test_duschek_equals_reduced_s5(hopf5):
    assert worst_horizontal_gap(hopf5) < 1e-3


def test_duschek_equals_reduced_s7(hopf7):
    assert worst_horizontal_gap(hopf7) < 1e-3


@pytest.mark.parametrize("name", ["hopf3_r2", "meridian3"])
def test_principal_term_along_one_normal_direction(name, request):
    """eta(p) = f_s makes eta~ = (A* f_s)^h + f_s^t = sqrt(1 + l_s^2) nu_s,
    so the principal term reads row s of the second form alone:
    -(tr(S)^2 - |S|^2), S its symmetric part. The Hopf field off unit
    radius and the meridian field are not totally geodesic, so the rows
    are not zero."""
    xi = request.getfixturevalue(name)
    sphere = xi.sphere
    zero = np.zeros((sphere.ambient_dim, sphere.ambient_dim))
    worst = peak = 0.0
    for p in seeded_points(xi, 3, seed=31):
        sd = singular_decomposition(xi, p.coords[None])
        form = second_form_lemma(xi, p.coords[None], sd)[0]
        for s in range(1, sphere.dim):
            w = sd.left_frame.matrix[0, s]
            eta = VariationField(sphere, lambda q, w=w: w, lambda q: zero)
            S = 0.5 * (form[s - 1] + form[s - 1].T)
            expect = -(np.trace(S) ** 2 - np.sum(S * S))
            got = duschek_integrand_general(xi, eta, p).principal_term
            worst = max(worst, abs(got - expect))
            peak = max(peak, abs(expect))
    assert peak > 1e-2
    assert worst < 1e-10


def test_duschek_degenerate_zero_field(hopf3):
    eta = VariationField(SphereSpec(4, 1.0), lambda q: np.zeros(4),
                         lambda q: np.zeros((4, 4)), name="zero")
    p = hopf3.sphere.random_point(np.random.default_rng(5))
    db = duschek_integrand_general(hopf3, eta, p)
    assert db.degenerate and db.value == 0.0


def test_integrand_requires_orthogonal_variation(hopf3):
    # eta with a component along the field direction is rejected
    eta = VariationField(SphereSpec(4, 1.0),
                         lambda q: q @ complex_structure(4).T,
                         lambda q: np.broadcast_to(complex_structure(4),
                                                   q.shape + (4,)),
                         name="parallel")
    p = hopf3.sphere.random_point(np.random.default_rng(6))
    with pytest.raises(PreconditionError):
        reduced_integrand(hopf3, eta, p.coords[None])


@pytest.mark.parametrize("name", ["meridian3", "hopf3_r2"])
def test_unit_hopf_kernels_refuse_other_fields(name, request):
    xi = request.getfixturevalue(name)
    rng = np.random.default_rng(31)
    p = xi.sphere.random_point(rng)
    x, y = random_frame(p, rng).matrix[:2]
    with pytest.raises(PreconditionError, match="submanifold_plane_curvature"):
        submanifold_plane_curvature_array(xi, p.coords[None], x[None], y[None])
    eta = random_hopf_combination(rng)
    with pytest.raises(PreconditionError, match="reduced_integrand"):
        reduced_integrand(xi, eta, p.coords[None])
    with pytest.raises(PreconditionError, match="destabilizing_integrand"):
        destabilizing_integrand(xi)


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
            red = reduced_at(hopf3, eta, p)
            nsq = float(eta.value_array(p.coords) @ eta.value_array(p.coords))
            assert red >= 0.5 * nsq - 1e-3


# -- fiber frames ------------------------------------------------------------


def test_fiber_propagation_matches_exponential():
    """Both propagated pair rows against the exact rotation e^(Jt) v."""
    sphere = SphereSpec(6, 1.0)
    p0 = sphere.random_point(np.random.default_rng(10))
    fiber = propagate_fiber_frame(p0, steps=64)
    J = complex_structure(6)
    worst = 0.0
    for k in (0, 1):
        v0 = fiber.frames[0, k]
        for i, t in enumerate(fiber.ts[:-1]):
            exact = np.cos(t) * v0 + np.sin(t) * (J @ v0)
            worst = max(worst, float(np.linalg.norm(fiber.frames[i, k] - exact)))
    assert worst < 1e-6


def _closed_form_pair(v, jv, ts, c, partner):
    """a(t) = cos(ct) v + sin(ct) J v, b(t) = partner cos(ct) J v + sin(ct) v
    at each node time: the true pair is c = 1, partner = -1."""
    cos, sin = np.cos(c * ts)[:, None], np.sin(c * ts)[:, None]
    return np.stack([cos * v + sin * jv, partner * cos * jv + sin * v], axis=1)


@pytest.mark.parametrize("m", [1, 7])
def test_fiber_table_check_on_closed_form_frames(m):
    """The table check passes the closed-form pair (its fiber rows are the
    5-point differencing error) and fails a pair turning 1 % too fast or
    started at J v instead of -J v; the RK4 frames lie within 2e-9 of the
    closed form."""
    ambient = 2 * m + 2
    J = complex_structure(ambient)
    p0 = SphereSpec(ambient, 1.0).random_point(np.random.default_rng((17, m)))
    fiber = propagate_fiber_frame(p0, steps=64)
    v = fiber.frames[0, 0]
    jv = J @ v

    def table(c, partner):
        frames = _closed_form_pair(v, jv, fiber.ts, c, partner)
        return variation._fiber_residuals(J, fiber.ts, fiber.points, frames)

    true = table(1.0, -1.0)
    assert 3.0e-6 < true["fiber_rows"] < 3.2e-6
    assert true["horizontal_rows"] == 0.0
    fast = table(1.01, -1.0)["fiber_rows"]
    assert fast > TOLERANCES.fiber and abs(fast - 0.364) < 1e-3
    flipped = table(1.0, 1.0)["horizontal_rows"]
    assert flipped > TOLERANCES.fiber and abs(flipped - 2.0) < 1e-12
    gap = np.linalg.norm(fiber.frames - _closed_form_pair(v, jv, fiber.ts, 1.0, -1.0),
                         axis=2)
    assert np.max(gap) < 2e-9


def test_fiber_residual_report():
    sphere = SphereSpec(8, 1.0)
    p0 = sphere.random_point(np.random.default_rng(11))
    fiber = propagate_fiber_frame(p0, steps=64)
    r = fiber.residuals
    assert r["closure"] < 1e-6
    assert r["orthonormality"] < 1e-8
    assert r["fiber_rows"] < 1e-4
    assert r["horizontal_rows"] < 1e-10


def test_fiber_frame_validation():
    sphere = SphereSpec(6, 1.0)
    p0 = sphere.random_point(np.random.default_rng(12))
    for steps in (7, 63):
        with pytest.raises(DegenerateInputError):
            propagate_fiber_frame(p0, steps=steps)
    odd = SphereSpec(3, 1.0).random_point(np.random.default_rng(12))
    with pytest.raises(DegenerateInputError):
        propagate_fiber_frame(odd, steps=64)  # S^2 has no complex structure
    big = SphereSpec(6, 2.0).random_point(np.random.default_rng(13))
    with pytest.raises(PreconditionError):
        propagate_fiber_frame(big, steps=64)


def test_fiber_frame_table_failure(monkeypatch, capsys):
    p0 = SphereSpec(6, 1.0).random_point(np.random.default_rng(12))
    r = propagate_fiber_frame(p0, steps=64).residuals
    monkeypatch.setattr(TOLERANCES, "fiber", 0.0)
    with pytest.raises(PropagationFailure) as info:
        propagate_fiber_frame(p0, steps=64)
    assert (f"{r['fiber_rows']:.3e}/{r['horizontal_rows']:.3e} exceed 0.0e+00"
            in str(info.value))
    assert main(["variation", "--dim", "5", "--samples", "8"]) == 3
    assert ("numerical failure: fiber frame table residuals"
            in capsys.readouterr().err)


@pytest.mark.parametrize("ambient", [4, 6, 8, 16])
def test_fiber_frame_at_e0_is_orthonormal_and_j_paired(ambient):
    """At p0 = e_0, where e_0 and e_1 span the fiber's plane, the seed is a
    later basis vector: at every node the propagated pair is orthonormal,
    orthogonal to the point and to the fiber direction, and J-paired
    (e_2 = -J e_1)."""
    J = complex_structure(ambient)
    p0 = SphereSpec(ambient, 1.0).point(np.eye(ambient)[0])
    fiber = propagate_fiber_frame(p0, steps=MIN_FIBER_STEPS)
    F = fiber.frames
    assert np.max(np.abs(F @ F.transpose(0, 2, 1) - np.eye(2))) < 1e-8
    assert np.max(np.abs(np.vecdot(F, fiber.points[:, None]))) < 1e-8
    assert np.max(np.abs(np.vecdot(F, fiber.e0s[:, None]))) < 1e-8
    assert np.max(np.abs(F[:, 1] + F[:, 0] @ J.T)) < 1e-8


@pytest.mark.parametrize("name", ["orthonormality", "closure"])
def test_fiber_frame_failure_names_its_residual(monkeypatch, name):
    """A pair whose table rows pass is still refused when it is not
    orthonormal or does not close, and the message names that residual."""
    p0 = SphereSpec(6, 1.0).random_point(np.random.default_rng(12))
    real = variation._fiber_residuals

    def spoiled(*args):
        return {**real(*args), name: 1.0}

    monkeypatch.setattr(variation, "_fiber_residuals", spoiled)
    with pytest.raises(PropagationFailure, match=(
            rf"^fiber frame {name} residual 1\.000e\+00 exceeds 1\.0e-04$")):
        propagate_fiber_frame(p0, steps=64)


def test_fiber_frame_nan_row_fails(monkeypatch):
    """A NaN in one propagated frame row reaches every per-node residual it
    enters and fails the propagation, where a running Python max kept the
    finite values."""
    p0 = SphereSpec(6, 1.0).random_point(np.random.default_rng(12))
    fiber = propagate_fiber_frame(p0, steps=64)
    frames = fiber.frames.copy()
    frames[5, 1] = np.nan
    J = complex_structure(6)
    r = variation._fiber_residuals(J, fiber.ts, fiber.points, frames)
    assert np.isnan(r["orthonormality"]) and np.isnan(r["fiber_rows"])
    assert np.isnan(r["horizontal_rows"]) and np.isfinite(r["closure"])

    real = variation._fiber_residuals

    def poisoned(J, ts, points, frames):
        frames = frames.copy()
        frames[5, 1] = np.nan
        return real(J, ts, points, frames)

    monkeypatch.setattr(variation, "_fiber_residuals", poisoned)
    with pytest.raises(PropagationFailure):
        propagate_fiber_frame(p0, steps=64)


def test_destabilizing_field_constant_on_fiber():
    """eta restricted to its seed fiber has constant norm and no fiber
    derivative; this is what makes the sign argument pointwise."""
    sphere = SphereSpec(6, 1.0)
    p0 = sphere.random_point(np.random.default_rng(14))
    fiber = propagate_fiber_frame(p0, steps=64)
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
    q = np.array([xi.sphere.random_point(rng).coords for _ in range(16)])
    assert np.max(np.abs(fn(q) - target)) < 1e-10


def test_destabilizing_ratio_positive_on_s3():
    # (5 - 2n)/2 = +0.5 at n = 2: no instability witness on S^3
    xi = hopf_field(1, 1.0)
    fn = destabilizing_integrand(xi)
    q = xi.sphere.random_point(np.random.default_rng(16)).coords
    assert abs(fn(q[None])[0] - 0.5) < 1e-10


# -- verdicts ---------------------------------------------------------------------


def test_stability_verdict_s3(monkeypatch):
    monkeypatch.setattr(variation, "FAMILY_FIELDS", 5)
    rep = stability_verdict(dim=3, samples=20, fiber_steps=64, seed=0)
    assert rep.verdict == "stable"
    assert rep.ok


def test_family_size_is_a_constant(capsys):
    """The S^3 family holds FAMILY_FIELDS fields, the figure ``variation
    --help`` states; no keyword sets its size."""
    with pytest.raises(TypeError):
        stability_verdict(3, field_count=5, samples=2, fiber_steps=64, seed=0)
    rep = stability_verdict(3, samples=2, fiber_steps=64, seed=0)
    assert rep.parameters["field_count"] == variation.FAMILY_FIELDS == 100
    assert rep.samples == 200
    assert main(["variation", "--help"]) == 0
    summary = " ".join(capsys.readouterr().out.split())
    assert f"on S^3, --samples points on each of {variation.FAMILY_FIELDS} fields" in summary


def test_stability_verdict_s5_s7(capsys):
    for dim in (5, 7):
        rep = stability_verdict(dim=dim, samples=100, fiber_steps=64, seed=0)
        assert rep.verdict == "unstable"
        assert rep.max_residual < 1e-3
    # the library run carries the CLI report's Monte Carlo magnitude
    rep = stability_verdict(dim=5, samples=8, fiber_steps=64, seed=0)
    assert main(["variation", "--dim", "5", "--samples", "8"]) == 0
    cli_rep = json.loads(capsys.readouterr().out)[0]
    assert rep.notes[-1].startswith("Monte Carlo second-variation magnitude")
    assert rep.notes[-1] == cli_rep["notes"][-1]


@pytest.mark.parametrize("dim", [5, 7, 9, 15, 31])
def test_instability_ratio_is_exact_to_rounding(dim):
    """The witness ratio equals (5 - 2n)/2 at every fiber node to rounding,
    far inside TOLERANCES.verdict: a target off by 5e-4 fails here."""
    for seed in (0, 1, 7):
        rep = stability_verdict(dim, samples=4, fiber_steps=64, seed=seed)
        assert rep.verdict == "unstable"
        assert rep.max_residual <= 1e-12


def test_stability_verdict_validation():
    with pytest.raises(DegenerateInputError):
        stability_verdict(dim=4, samples=100, fiber_steps=64, seed=0)


@pytest.mark.parametrize("dim", [3, 5])
def test_stability_verdict_refuses_no_samples_before_any_work(dim, monkeypatch):
    """samples < 1 is refused at entry, as an even dim is: neither the S^3
    family nor the fiber frame is built."""
    drawn = []
    for name in ("_family_stack", "propagate_fiber_frame"):
        monkeypatch.setattr(variation, name,
                            lambda *args, _n=name, **kw: drawn.append(_n))
    for samples in (0, -1):
        with pytest.raises(DegenerateInputError, match="at least one sample"):
            stability_verdict(dim, samples=samples, fiber_steps=64, seed=0)
    assert drawn == []
