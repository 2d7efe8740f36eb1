"""Stacks of sample points through the singular frames and both
second-form routes.

The singular decomposition takes an (N, ambient) stack of points and each
route the stack with its singular data; row k of each has the bits of the
one-row stack of point k and of its one-point reference (rows of the stack
table). The totally-geodesic and obstruction suites make one frame call and
one call per route for each run of samples, and a row failure inside a
stacked call names its sample (rows of the bad-row table).
"""

import contextlib
import io
import tracemalloc
from functools import partial

import numpy as np
import pytest

import tgeo.cli as cli
import tgeo.fields as fields
import tgeo.sasaki as sasaki
from tgeo import (PreconditionError, UnitVectorField, half_curvature, hopf_field,
                  is_geodesic, is_killing, is_normal, is_strongly_normal,
                  jacobi_relation_residual, sasakian_identity_residual,
                  second_form_direct, singular_decomposition)
import bad_rows
import stack_table
from conftest import (Check, on_triples, printed_tests, ref_gram_schmidt,
                      ref_second_form_direct, ref_second_form_lemma, run_lengths,
                      seeded_points, set_run)
from stack_table import route_stack


def test_direct_route_memory_is_bounded_by_its_displaced_frames():
    """On a 64-point S^15 stack the route's tracemalloc peak stays under 4.5
    times the bytes of its displaced frames, N 2 n1 n1 amb doubles (4.2 as
    written). Keeping those frames alive while the connection formulas build
    new (N, n1, n1, amb) terms, instead of accumulating in place, reaches
    5.2."""
    s = route_stack("hopf-s15-r1", 64, 49)
    xi, coords, sd = s.xi, s.coords, s.sd
    n1, amb = xi.sphere.dim, xi.sphere.ambient_dim
    frames_bytes = len(coords) * 2 * n1 * n1 * amb * 8
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        second_form_direct(xi, coords, sd)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * frames_bytes


# -- the suites' running maxima cross a chunk ----------------------------------
#
# Each suite measures run + 1 samples in two stacked runs, the budget set to
# runs of 64 samples. Its running maxima must be those of the loop that
# measures one sample at a time: the routes by their one-point references,
# the predicates and the Jacobi relation by their one-row calls, which the
# stack table holds to their per-direction references.


def sample_loop(xi, seed, samples, measure):
    """The running maxima one sample at a time: ``measure(xi, p, rng)`` gets
    each sample point and its stream, past the draws of the point."""
    worst = {}
    for idx in range(samples):
        rng = np.random.default_rng((seed, idx))
        p = cli._sample_point(xi, rng)
        for name, value in measure(xi, p, rng).items():
            worst[name] = max(worst.get(name, 0.0), value)
    return worst


def maxima_cross_a_chunk(suite, seed, measure, field="hopf", dim=3):
    xi = cli.build_field(cli.RunConfig(command="verify", field=field, dim=dim))
    seen = []
    real = cli._sample_maxima
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        run = set_run(mp, 64, cli._sample_row_bytes(suite, xi.sphere))
        runs = run_lengths(mp)
        mp.setattr(cli, "_sample_maxima", lambda *args, **kwargs: seen.append(
            real(*args, **kwargs)) or seen[-1])
        cli.main(["verify", suite, "--field", field, "--dim", str(dim), "--samples",
                  str(run + 1), "--seed", str(seed)])
    assert runs == [run, 1]
    assert seen == [sample_loop(xi, seed, run + 1, measure)]


def max_abs(a):
    return float(np.max(np.abs(a)))


def routes(xi, p, rng):
    sd = singular_decomposition(xi, p.coords[None])
    om_l, om_d = ref_second_form_lemma(xi, p, sd), ref_second_form_direct(xi, p, sd)
    return {"lemma": max_abs(om_l), "direct": max_abs(om_d),
            "asym": max_abs(om_d - np.transpose(om_d, (0, 2, 1)))}


def obstruction(xi, p, rng):
    sd = singular_decomposition(xi, p.coords[None])
    obs = sasaki.geodesic_field_obstruction(xi, p.coords[None], sd)[0]
    om = ref_second_form_lemma(xi, p, sd)
    closed = sasaki.meridian_obstruction(sd, p.coords[:1])[0]
    return {"consistency": max_abs(obs - om[:, 1:, 0]), "magnitude": max_abs(obs),
            "closed form": max_abs(obs - closed)}


def predicates(xi, p, rng):
    return {name: fn(xi, p.coords[None])[0] for name, fn in [
        ("geodesic", is_geodesic), ("killing", is_killing),
        ("normal", on_triples(is_normal)),
        ("strongly-normal", on_triples(is_strongly_normal)),
        ("sasakian", sasakian_identity_residual)]}


def codazzi(xi, p, rng):
    sphere = xi.sphere
    raw = rng.standard_normal((sphere.dim, sphere.ambient_dim))
    x, y = ref_gram_schmidt(sphere.project_array(p.coords, raw))[:2]
    r_xy, r_yx = half_curvature(xi, p.coords, np.array([x, y]), np.array([y, x]))
    rhs = sphere.curvature_array(x, y, xi.value_array(p.coords))
    return {"codazzi": float(np.linalg.norm(r_xy - r_yx - rhs))}


chunk = "test_point_stacks::test_{}_maxima_cross_a_chunk"
MAXIMA = [Check(chunk.format("totally_geodesic") + f"[{field}]",
                partial(maxima_cross_a_chunk, "totally-geodesic", 3, routes, field))
          for field in ("hopf", "meridian")]
MAXIMA += [Check(chunk.format("predicates") + f"[{field}]",
                 partial(maxima_cross_a_chunk, "predicates", 0, predicates, field))
           for field in ("hopf", "meridian")]
MAXIMA += [Check(chunk.format("codazzi") + f"[{dim}]",
                 partial(maxima_cross_a_chunk, "codazzi", 3, codazzi, dim=dim))
           for dim in (3, 7)]
MAXIMA += [Check(chunk.format("obstruction"),
                 partial(maxima_cross_a_chunk, "obstruction", 3, obstruction,
                         "meridian")),
           Check(chunk.format("jacobi"), partial(
               maxima_cross_a_chunk, "jacobi", 3,
               lambda xi, p, rng: {"jacobi": jacobi_relation_residual(
                   xi, p.coords[None])[0]},
               dim=5))]
globals().update(printed_tests(__name__, stack_table.ROWS + bad_rows.ROWS + MAXIMA))


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
    assert np.all(resid[:2] <= fields.TOLERANCES.analytic)
    assert np.all(resid[2:] > fields.TOLERANCES.analytic)
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
    """A fixed few Jacobian evaluations per run of samples, none per
    sample."""
    assert cli.main(["verify", *argv]) == 0
    capsys.readouterr()
    assert counts["jacobian"] == jacobians
