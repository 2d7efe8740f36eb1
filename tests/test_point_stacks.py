"""Stacks of sample points through the singular frames and both
second-form routes.

The singular decomposition takes an (N, ambient) stack of points and each
route the stack with its singular data; row k of each has the bits of the
one-row stack of point k and of its one-point reference. The totally-geodesic
and obstruction suites make one frame call and one call per route for each
chunk of samples, and a row failure inside a stacked call names its sample.
"""

import numpy as np
import pytest

import tgeo.cli as cli
import tgeo.fields as fields
import tgeo.manifold as manifold
import tgeo.sasaki as sasaki
from tgeo import (
    DecompositionFailure,
    DegenerateInputError,
    PreconditionError,
    SingularLocusError,
    UnitVectorField,
    half_curvature,
    hopf_field,
    meridian_field,
    second_form_direct,
    second_form_lemma,
    singular_decomposition,
)
from tgeo.manifold import _require_rows
from conftest import (assert_identical, point_stack, ref_gram_schmidt,
                      ref_second_form_direct, ref_second_form_lemma,
                      seeded_points)
from test_direction_stacks import (ref_is_geodesic, ref_is_killing,
                                   ref_is_normal, ref_is_strongly_normal,
                                   ref_jacobi_relation_residual,
                                   ref_sasakian_identity_residual)

CASES = ([hopf_field(m, r) for m in (1, 2, 3, 7) for r in (1.0, 2.0, 0.01, 1e3)]
         + [meridian_field(np.eye(d + 1)[0], r) for d in (3, 5, 7, 15)
            for r in (1.0, 0.01, 1e3)])
CASE_IDS = [f"{xi.name}-s{xi.sphere.dim}-r{xi.sphere.radius:g}" for xi in CASES]
ROUTES = [second_form_lemma, second_form_direct]


def one_row_decompositions(xi, points):
    """The singular data of each point from its own one-row stack."""
    return [singular_decomposition(xi, p.coords[None])[0] for p in points]


def stack(xi, count, seed):
    points = seeded_points(xi, count, seed=seed)
    return (points, point_stack(points),
            one_row_decompositions(xi, points))


@pytest.mark.parametrize("xi", CASES, ids=CASE_IDS)
def test_stacked_routes_match_per_point_references(xi):
    points, coords, sds = stack(xi, 2 if xi.sphere.dim > 7 else 4, seed=40)
    lemma = second_form_lemma(xi, coords, sds)
    direct = second_form_direct(xi, coords, sds)
    n1 = xi.sphere.dim
    assert lemma.shape == direct.shape == (len(points), n1 - 1, n1, n1)
    assert not lemma.flags.writeable and not direct.flags.writeable
    for k, (p, sd) in enumerate(zip(points, sds)):
        one_row = (coords[k:k + 1], sds[k:k + 1])
        assert_identical(lemma[k], second_form_lemma(xi, *one_row)[0])
        assert_identical(direct[k], second_form_direct(xi, *one_row)[0])
        assert_identical(lemma[k], ref_second_form_lemma(xi, p, sd))
        assert_identical(direct[k], ref_second_form_direct(xi, p, sd))


def assert_same_decomposition(got, want):
    assert_identical(got.lambdas, want.lambdas)
    assert_identical(got.right_frame.matrix, want.right_frame.matrix)
    assert_identical(got.left_frame.matrix, want.left_frame.matrix)


@pytest.mark.parametrize("xi", CASES, ids=CASE_IDS)
def test_stacked_decomposition_matches_per_point_calls(xi):
    points = seeded_points(xi, 4, seed=44)
    if xi.name == "meridian":
        # an equator point in the middle: lambda = 0, every left slot pending
        coords = np.zeros(xi.sphere.ambient_dim)
        coords[1] = xi.sphere.radius
        points.insert(2, xi.sphere.point(coords))
    sds = singular_decomposition(xi, point_stack(points))
    assert isinstance(sds, tuple) and len(sds) == len(points)
    for sd, want in zip(sds, one_row_decompositions(xi, points)):
        assert_same_decomposition(sd, want)


def test_stacked_decomposition_names_the_failing_row(monkeypatch):
    xi = CASES[0]
    monkeypatch.setattr(fields, "ASSEMBLY_TOL", 0.0)
    with pytest.raises(DecompositionFailure,
                       match=r"^singular frame assembly residual \S+ exceeds "
                             r"0\.0e\+00 \(row 0\)$") as info:
        singular_decomposition(xi, point_stack(seeded_points(xi, 3, seed=46)))
    assert info.value.row == 0


def test_stacked_completion_names_the_failing_row(monkeypatch):
    """The pending slots of an equator point, completed inside a stack."""
    xi = meridian_field(np.eye(4)[0], 1.0)
    points = seeded_points(xi, 3, seed=47)
    points.insert(1, xi.sphere.point([0.0, 1.0, 0.0, 0.0]))

    def rank_deficient(assigned, candidates, total):
        raise DecompositionFailure("frame completion is rank deficient")

    monkeypatch.setattr(fields, "_complete_frame", rank_deficient)
    with pytest.raises(DecompositionFailure) as info:
        singular_decomposition(xi, point_stack(points))
    assert info.value.row == 1


def test_stacked_decomposition_checks_its_coordinates_first():
    """A row off the sphere is refused as a point, naming its row, before
    the frames or the shape matrix are built from it."""
    xi = CASES[0]
    coords = point_stack(seeded_points(xi, 3, seed=49))
    coords[1] *= 2.0
    with pytest.raises(DegenerateInputError,
                       match=r"^coordinates do not lie on the sphere "
                             r"\(row 1\)$") as info:
        singular_decomposition(xi, coords)
    assert info.value.row == 1


# -- a failing row names its point ---------------------------------------------


def near_cap_stack(xi, h):
    """Three seeded points with, as row 2, a point whose displaced point
    along the meridian, at step ``h``, falls inside the polar cap."""
    points, _, _ = stack(xi, 3, seed=42)
    theta = h + 5e-5
    coords = np.zeros(xi.sphere.ambient_dim)
    coords[0], coords[1] = np.cos(theta), np.sin(theta)
    points.insert(2, xi.sphere.point(coords))
    return (points, point_stack(points),
            one_row_decompositions(xi, points))


@pytest.mark.parametrize("route", ROUTES, ids=["lemma", "direct"])
@pytest.mark.parametrize("dim", [3, 5])
def test_route_names_the_point_of_a_displaced_cap_row(route, dim, monkeypatch):
    xi = meridian_field(np.eye(dim + 1)[0], 1.0)
    _, coords, sds = near_cap_stack(xi, 0.05)
    monkeypatch.setattr(manifold, "FD_STEP_FACTOR", 0.05)  # step 0.05 at r = 1
    with pytest.raises(SingularLocusError) as info:
        route(xi, coords, sds)
    assert info.value.row == 2
    with pytest.raises(SingularLocusError) as info:
        route(xi, coords[2:3], sds[2:3])
    assert info.value.row == 0


def test_direct_route_names_the_point_of_a_pivot_failure(monkeypatch):
    """Row r of the displaced stack belongs to point r // (2 n1)."""
    xi = hopf_field(1, 1.0)
    _, coords, sds = stack(xi, 5, seed=43)
    n1 = xi.sphere.dim
    real = sasaki._gram_schmidt_stack

    def failing(mats, **kwargs):
        out = real(mats, **kwargs)
        ok = np.ones(len(mats), dtype=bool)
        ok[3 * 2 * n1 + 5] = False
        _require_rows(ok, DegenerateInputError, "gram_schmidt pivot below tolerance")
        return out

    monkeypatch.setattr(sasaki, "_gram_schmidt_stack", failing)
    with pytest.raises(DegenerateInputError) as info:
        second_form_direct(xi, coords, sds)
    assert info.value.row == 3
    assert f"(row {3 * 2 * n1 + 5}) of the displaced points" in str(info.value)


def swap_in_draw(monkeypatch, idx, coords):
    """Make the first draw of the suites' sample ``idx``, in its chunk's
    stacked draw, the given coordinates; the other draws are as usual."""
    real = manifold.stream_normals

    def draw(seed, first, out):
        real(seed, first, out)
        if first <= idx < first + len(out):
            out[idx - first, 0] = coords
        return out

    monkeypatch.setattr(manifold, "stream_normals", draw)


@pytest.mark.parametrize("suite,route", [
    ("totally-geodesic", "second_form_lemma"),
    ("totally-geodesic", "second_form_direct"),
    ("obstruction", "second_form_lemma"),
], ids=["tg-lemma", "tg-direct", "obstruction-lemma"])
def test_suite_names_the_sample_of_a_failing_row(suite, route, monkeypatch,
                                                  capsys):
    """A cap row inside the second chunk's stacked call names its sample.
    The swapped-in point lies outside the sampler's polar caps, at polar
    angle 0.4, and the route's step, 0.4 during its call only, reaches the
    field's cap from it; so tg-direct fails in the direct route."""
    xi = meridian_field(np.eye(4)[0], 1.0)
    points, _, _ = near_cap_stack(xi, 0.4)
    idx = cli._SAMPLE_CHUNK + 2
    swap_in_draw(monkeypatch, idx, points[2].coords)
    real = getattr(sasaki, route)

    def at_step(*args):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(manifold, "FD_STEP_FACTOR", 0.4)  # step 0.4 at r = 1
            return real(*args)

    monkeypatch.setattr(cli, route, at_step)
    assert cli.main(["verify", suite, "--field", "meridian", "--samples",
                     str(cli._SAMPLE_CHUNK + 5), "--seed", "7"]) == 3
    err = capsys.readouterr().err
    assert "polar cap" in err
    assert f"sample {idx}, seed tuple (7, {idx})" in err


# -- the suites: one call per route per chunk --------------------------------


def captured_maxima(monkeypatch, argv):
    """Run the CLI and return what its sample loop returned."""
    seen = []
    real = cli._sample_maxima

    def keep(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, "_sample_maxima", keep)
    cli.main(argv)
    assert len(seen) == 1
    return seen[0]


def ref_sample_loop(xi, seed, samples, measure):
    """The suites' running maxima one sample at a time: ``measure(p, rng)``
    gets each sample point and its stream, past the draws of the point."""
    worst = {}
    for idx in range(samples):
        rng = np.random.default_rng((seed, idx))
        p = cli._sample_point(xi, rng)
        for name, value in measure(p, rng).items():
            worst[name] = max(worst.get(name, 0.0), value)
    return worst


@pytest.mark.parametrize("field", ["hopf", "meridian"])
def test_totally_geodesic_maxima_cross_a_chunk(field, monkeypatch, capsys):
    samples = cli._SAMPLE_CHUNK + 1
    worst = captured_maxima(monkeypatch, [
        "verify", "totally-geodesic", "--field", field, "--samples",
        str(samples), "--seed", "3"])
    capsys.readouterr()
    xi = cli.build_field(cli.RunConfig(command="verify", field=field))

    def measure(p, rng):
        sd = singular_decomposition(xi, p.coords[None])[0]
        om_l = ref_second_form_lemma(xi, p, sd)
        om_d = ref_second_form_direct(xi, p, sd)
        return {"lemma": float(np.max(np.abs(om_l))),
                "direct": float(np.max(np.abs(om_d))),
                "asym": float(np.max(np.abs(om_d - np.transpose(om_d, (0, 2, 1)))))}

    assert worst == ref_sample_loop(xi, 3, samples, measure)


def test_obstruction_maxima_cross_a_chunk(monkeypatch, capsys):
    samples = cli._SAMPLE_CHUNK + 1
    worst = captured_maxima(monkeypatch, [
        "verify", "obstruction", "--field", "meridian", "--samples",
        str(samples), "--seed", "3"])
    capsys.readouterr()
    xi = cli.build_field(cli.RunConfig(command="verify", field="meridian"))

    def measure(p, rng):
        sds = singular_decomposition(xi, p.coords[None])
        obs = sasaki.geodesic_field_obstruction(xi, p.coords[None], sds)[0]
        om = ref_second_form_lemma(xi, p, sds[0])
        closed = sasaki.meridian_obstruction(sds, p.coords[:1])[0]
        return {"consistency": float(np.max(np.abs(obs - om[:, 1:, 0]))),
                "magnitude": float(np.max(np.abs(obs))),
                "closed form": float(np.max(np.abs(obs - closed)))}

    assert worst == ref_sample_loop(xi, 3, samples, measure)


@pytest.mark.parametrize("field", ["hopf", "meridian"])
def test_predicates_maxima_cross_a_chunk(field, monkeypatch, capsys):
    samples = cli._SAMPLE_CHUNK + 1
    worst = captured_maxima(monkeypatch, [
        "verify", "predicates", "--field", field, "--samples", str(samples),
        "--seed", "0"])
    capsys.readouterr()
    xi = cli.build_field(cli.RunConfig(command="verify", field=field))

    def measure(p, rng):
        return {"geodesic": ref_is_geodesic(xi, p),
                "killing": ref_is_killing(xi, p),
                "normal": ref_is_normal(xi, p),
                "strongly-normal": ref_is_strongly_normal(xi, p),
                "sasakian": ref_sasakian_identity_residual(xi, p)}

    assert worst == ref_sample_loop(xi, 0, samples, measure)


@pytest.mark.parametrize("dim", [3, 7])
def test_codazzi_maxima_cross_a_chunk(dim, monkeypatch, capsys):
    samples = cli._SAMPLE_CHUNK + 1
    worst = captured_maxima(monkeypatch, [
        "verify", "codazzi", "--dim", str(dim), "--samples", str(samples),
        "--seed", "3"])
    capsys.readouterr()
    xi = cli.build_field(cli.RunConfig(command="verify", dim=dim))
    sphere = xi.sphere

    def measure(p, rng):
        raw = rng.standard_normal((sphere.dim, sphere.ambient_dim))
        x, y = ref_gram_schmidt(sphere.project_array(p.coords, raw))[:2]
        r_xy, r_yx = half_curvature(xi, p.coords, np.array([x, y]),
                                    np.array([y, x]))
        rhs = sphere.curvature_array(x, y, xi.value_array(p.coords))
        return {"codazzi": float(np.linalg.norm(r_xy - r_yx - rhs))}

    assert worst == ref_sample_loop(xi, 3, samples, measure)


def test_jacobi_maxima_cross_a_chunk(monkeypatch, capsys):
    samples = cli._SAMPLE_CHUNK + 1
    worst = captured_maxima(monkeypatch, [
        "verify", "jacobi", "--dim", "5", "--samples", str(samples),
        "--seed", "3"])
    capsys.readouterr()
    xi = cli.build_field(cli.RunConfig(command="verify", dim=5))
    assert worst == ref_sample_loop(
        xi, 3, samples,
        lambda p, rng: {"jacobi": ref_jacobi_relation_residual(xi, p)})


def test_non_killing_point_refuses_the_field():
    """One non-Killing point in a stack fails the whole field: no ``.row``,
    so the CLI names no sample, and the message gives that point's
    residual. A NaN skewness is refused too."""
    hopf = hopf_field(2, 1.0)
    S = np.random.default_rng(23).standard_normal((6, 6))
    S = S + S.T
    # Hopf's Jacobian, plus a symmetric part where the first coordinate is
    # positive: points 2 and 3 of the stack
    bent = UnitVectorField(hopf.sphere, hopf.value_fn, lambda q: (
        fields.complex_structure(6) + S * (q[..., 0] > 0.0)[..., None, None]))
    coords = np.array([p.coords for p in seeded_points(hopf, 4, seed=48)])
    coords[:, 0] = np.array([-1.0, -1.0, 1.0, 1.0]) * np.abs(coords[:, 0])
    resid = fields.is_killing(bent, coords)
    assert np.all(resid[:2] <= fields.TOL_ANALYTIC)
    assert np.all(resid[2:] > fields.TOL_ANALYTIC)
    with pytest.raises(PreconditionError) as info:
        fields.jacobi_relation_residual(bent, coords)
    assert not hasattr(info.value, "row")
    assert str(info.value) == ("Jacobi relation needs a Killing field: "
                               f"skewness residual {resid[2]:.3e}")
    skew = np.array([fields.complex_structure(4), fields.complex_structure(4)])
    skew[1, 0, 1] = np.inf  # an SVD of infinite entries gives NaN
    with pytest.raises(PreconditionError, match="skewness residual nan$"):
        fields._require_killing(1.0, skew, "Jacobi relation")


@pytest.fixture
def counts(monkeypatch):
    """Counts of the frame, route, half-curvature and Jacobian calls the CLI
    makes."""
    counts = {"singular_decomposition": 0, "second_form_lemma": 0,
              "second_form_direct": 0, "half_curvature": 0, "jacobian": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("second_form_lemma", "second_form_direct"):
        monkeypatch.setattr(cli, name, counted(name, getattr(sasaki, name)))
    monkeypatch.setattr(cli, "singular_decomposition",
                        counted("singular_decomposition", singular_decomposition))
    monkeypatch.setattr(sasaki, "half_curvature",
                        counted("half_curvature", half_curvature))
    monkeypatch.setattr(UnitVectorField, "jacobian_array",
                        counted("jacobian", UnitVectorField.jacobian_array))
    return counts


def test_totally_geodesic_makes_one_call_per_route(counts, capsys):
    assert cli.main(["verify", "totally-geodesic", "--samples", "10"]) == 0
    capsys.readouterr()
    # two per route and one for the frames, for the whole stack
    assert counts == {"singular_decomposition": 1, "second_form_lemma": 1,
                      "second_form_direct": 1, "half_curvature": 1,
                      "jacobian": 2 + 2 + 1}


def test_obstruction_makes_one_lemma_call(counts, capsys):
    assert cli.main(["verify", "obstruction", "--samples", "10"]) == 0
    capsys.readouterr()
    assert counts["singular_decomposition"] == 1
    assert counts["second_form_lemma"] == 1
    assert counts["second_form_direct"] == 0
    assert counts["half_curvature"] == 1


@pytest.mark.parametrize("argv,jacobians", [
    (["predicates", "--field", "meridian", "--samples", "30"], 7),
    (["obstruction", "--field", "meridian", "--samples", "60"], 6),
    (["codazzi", "--samples", "30"], 2),
    (["jacobi", "--samples", "30"], 1),
], ids=["predicates", "obstruction", "codazzi", "jacobi"])
def test_suites_evaluate_the_jacobian_per_chunk(argv, jacobians, counts, capsys):
    """A fixed few Jacobian evaluations per chunk of samples, none per
    sample."""
    assert cli.main(["verify", *argv]) == 0
    capsys.readouterr()
    assert counts["jacobian"] == jacobians
