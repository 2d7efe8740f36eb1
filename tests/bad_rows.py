"""The bad-row table: each row check, with the input or patch that makes one
row bad, the error it must raise and a fragment of its message.

A check states the condition every row must meet (``value <= bound``
through ``_require_rows``), so a NaN, for which every comparison is False,
fails it, and the failure names its row in ``.row``. Through the CLI a row
failure exits 3 naming its sample, plane or field and the seed tuple of its
stream; a failure with no row is a usage error. Warnings are errors: a bad
row is refused before any RuntimeWarning. Each row is printed under the test
that names its case; a new case is one row.
"""

import contextlib
import io
import re
import warnings

import numpy as np
import pytest

import tgeo.cli as cli
import tgeo.fields as fields
import tgeo.manifold as manifold
import tgeo.sasaki as sasaki
import tgeo.variation as variation
from tgeo import (BasePointMismatchError, DecompositionFailure,
                  DegenerateInputError, DegeneratePlaneError, Frame, PreconditionError,
                  PropagationFailure, SingularLocusError, SpherePoint, SphereSpec,
                  TangentVector, UnitVectorField, VariationField, complex_structure,
                  covariant_normality_residual, duschek_integrand_general,
                  hopf_field, horizontal_extension_field, integrate_over_sphere,
                  killing_canonical_frames, meridian_field, propagate_fiber_frame,
                  reduced_integrand, second_form_direct, second_form_lemma,
                  singular_decomposition)
from tgeo.fields import MIN_FIBER_STEPS
from tgeo.manifold import (GS_PIVOT_TOL, _check_frames_stack, _check_points_stack,
                           _check_same_base, _check_tangent_stack,
                           _gram_schmidt_stack, _require_rows, unit_rows)
from tgeo.sasaki import (BundleVector, bundle_sectional_curvature,
                         bundle_sectional_curvature_array, horizontal_lift,
                         submanifold_plane_curvature,
                         submanifold_plane_curvature_array, tangential_lift,
                         xi_tangential_lift)

from conftest import (point_stack, random_frame, random_tangent, record_row,
                      run_lengths, seeded_points, set_run)
from stack_table import bundle_planes, frame_planes, unit_points


class Bad:
    """A bad-row-table row: ``call()``, after ``patch(mp)``, raises ``error``
    with a message that ``match`` searches (``row``, if given, is the
    exception's ``.row``); or, when ``error`` is an exit code, ``call()``
    returns it and ``match`` searches what it wrote to stderr. Warnings are
    errors unless ``warn`` says otherwise. A row that is bad past the first
    stacked run gives ``runs``, the number of runs that must have been
    drawn."""

    def __init__(self, test, call, error, match, row=None, patch=None,
                 warn="error", runs=None):
        self.test, self.call, self.error, self.match = test, call, error, match
        self.row, self.patch, self.warn, self.runs = row, patch, warn, runs

    def check(self):
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter(self.warn)
            if self.patch:
                self.patch(mp)
            drawn = run_lengths(mp)
            if isinstance(self.error, int):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    assert self.call() == self.error
                assert re.search(self.match, err.getvalue(), re.S), err.getvalue()
            else:
                with pytest.raises(self.error, match=self.match) as info:
                    self.call()
        if self.runs is not None:
            assert len(drawn) == self.runs, drawn
        if self.row is not None:
            assert info.value.row == self.row


NAN, INF = np.nan, np.inf
E = np.eye(4)
ROWS = []


def with_row_1(good, bad):
    """A three-row stack of ``good`` with ``bad`` as row 1."""
    stack = np.array([good, good, good], dtype=float)
    stack[1] = bad
    return stack


def at_row(text, row):
    return rf"{text}.*\(row {row}\)"


def main(*argv):
    return lambda: cli.main(list(argv))


def patches(*fns):
    """One patch that applies each of ``fns`` in order."""
    return lambda mp: [fn(mp) for fn in fns]


def runs_of(rows, row_bytes):
    """A patch: stacked runs of ``rows`` rows of ``row_bytes`` each."""
    return lambda mp: set_run(mp, rows, row_bytes)


# Runs of 64 verify samples on S^3 and of 256 scan planes: a row past the
# first run is reached within a few rows of it.
VERIFY_RUN, SCAN_RUN = 64, 256
S3 = SphereSpec(4)
verify_runs = runs_of(VERIFY_RUN, cli._sample_row_bytes("totally-geodesic", S3))


# -- row checks refuse NaN and inf ---------------------------------------------------


def bundle_rows(u1=E[2], x1=E[1], y1=E[3]):
    """Three bundle planes at e_0 with anchor e_2: horizontal parts e_1 and
    e_3, no vertical parts; row 1 takes the given anchor and parts."""
    zero = np.zeros((3, 4))
    return (SphereSpec(4), np.tile(E[0], (3, 1)), with_row_1(E[2], u1),
            with_row_1(E[1], x1), zero, with_row_1(E[3], y1), zero)


def without_tangent_check(mp):
    """The tangent check, which runs first, would refuse a NaN anchor or part
    too; it is switched off so that the check after it is the one tested."""
    mp.setattr(sasaki, "_check_tangent_stack", lambda *args: None)


nf = "test_non_finite_rows::test_"
at_half = SpherePoint(SphereSpec(4), [0.5] * 4)
at_e1 = SphereSpec(4).point(E[1])
ROWS += [
    Bad(nf + "points_check_refuses_nan",
        lambda: SpherePoint(SphereSpec(4), [NAN, 0.0, 0.0, 0.0]),
        DegenerateInputError, "do not lie on the sphere"),
    Bad(nf + "points_check_refuses_nan",
        lambda: _check_points_stack(1.0, with_row_1(E[0], [NAN, 0.0, 0.0, 0.0])),
        DegenerateInputError, at_row("do not lie on the sphere", 1), 1),
    Bad(nf + "tangent_check_refuses_nan",
        lambda: TangentVector(SpherePoint(SphereSpec(4), E[0]), [0.0, NAN, 0.0, 0.0]),
        DegenerateInputError, "not tangent"),
    Bad(nf + "tangent_check_refuses_nan",
        lambda: _check_tangent_stack(1.0, np.tile(E[0], (3, 1)),
                                     with_row_1(E[1], [0.0, NAN, 0.0, 0.0])),
        DegenerateInputError, at_row("not tangent", 1), 1),
    # an infinite vector's dot product with the point is inf, as is its norm
    Bad(nf + "tangent_check_refuses_inf",
        lambda: TangentVector(at_half, [INF, 0.0, 0.0, 0.0]),
        DegenerateInputError, "not tangent"),
    Bad(nf + "tangent_check_refuses_inf",
        lambda: _check_tangent_stack(1.0, np.tile(at_half.coords, (3, 1)), with_row_1(
            [0.5, -0.5, 0.5, -0.5], [INF, 0.0, 0.0, 0.0])),
        DegenerateInputError, at_row("not tangent", 1), 1),
    # against a zero coordinate of the point, inf * 0 is NaN
    Bad(nf + "tangent_check_refuses_inf_at_a_zero_coordinate[inf]",
        lambda: TangentVector(at_e1, [INF, 0.0, 0.0, 0.0]),
        DegenerateInputError, "not tangent"),
    Bad(nf + "tangent_check_refuses_inf_at_a_zero_coordinate[inf]",
        lambda: _check_tangent_stack(1.0, np.tile(E[1], (3, 1)),
                                     with_row_1(E[0], [INF, 0.0, 0.0, 0.0])),
        DegenerateInputError, at_row("not tangent", 1), 1),
    Bad(nf + "tangent_check_refuses_inf_at_a_zero_coordinate[inf-minus-inf]",
        lambda: TangentVector(at_e1, [INF, -INF, 0.0, 0.0]),
        DegenerateInputError, "not tangent"),
    # a normal vector whose squared norm overflows: scaled by its largest
    # entry, it is e_0 (or e_0 + e_1) at e_0, not tangent
    Bad(nf + "tangent_check_refuses_a_normal_vector_past_overflow[1e200]",
        lambda: TangentVector(SphereSpec(4).point(E[0]), 1e200 * E[0]),
        DegenerateInputError, r"^vector is not tangent to the sphere$"),
    Bad(nf + "tangent_check_refuses_a_normal_vector_past_overflow[1e200]",
        lambda: _check_tangent_stack(1.0, np.tile(E[0], (3, 1)),
                                     with_row_1(E[1], 1e200 * E[0])),
        DegenerateInputError, at_row("not tangent", 1), 1),
    Bad(nf + "tangent_check_refuses_a_normal_vector_past_overflow[1e160-1e160]",
        lambda: TangentVector(SphereSpec(4).point(E[0]), [1e160, 1e160, 0.0, 0.0]),
        DegenerateInputError, r"^vector is not tangent to the sphere$"),
    # the raising mode, which frames_at and the direct route use, refuses a
    # NaN pivot with the pivot message; it does not hand on a NaN row
    Bad(nf + "gram_schmidt_refuses_a_nan_pivot",
        lambda: _gram_schmidt_stack(nan_pivot(), pivot_tol=GS_PIVOT_TOL, drop=False),
        DegenerateInputError, at_row("gram_schmidt pivot nan below", 1), 1),
    Bad(nf + "gram_schmidt_refuses_a_nan_pivot",
        lambda: SphereSpec(4).frames_at(np.tile(E[0], (3, 1)), nan_pivot()),
        DegenerateInputError, at_row("gram_schmidt pivot nan below", 1), 1),
    Bad(nf + "frames_check_refuses_nan",
        lambda: _check_frames_stack(nan_pivot()[:, :2]), DegenerateInputError,
        at_row("not orthonormal", 1), 1),
    Bad(nf + "base_check_refuses_nan",
        lambda: _check_same_base(np.array([NAN, 0.0, 0.0, 0.0]), E[0]),
        BasePointMismatchError, None),
    Bad(nf + "normalizing_refuses_nan",
        lambda: SphereSpec(4).stacked_points(with_row_1(E[0], [NAN, 1.0, 0.0, 0.0])),
        DegenerateInputError, at_row("cannot normalize", 1), 1),
    # an inf row has an inf norm, so it normalizes to NaN coordinates
    Bad(nf + "stacked_points_refuse_inf",
        lambda: SphereSpec(4).stacked_points(with_row_1(E[0], [INF, 0.0, 0.0, 0.0])),
        DegenerateInputError, at_row("do not lie on the sphere", 1), 1),
    Bad(nf + "unit_rows_refuse_nan",
        lambda: unit_rows(with_row_1(E[1], [0.0, NAN, 0.0, 0.0])),
        DegenerateInputError, at_row("cannot normalize", 1), 1),
    Bad(nf + "bundle_anchor_check_refuses_nan",
        lambda: bundle_sectional_curvature_array(*bundle_rows(u1=[0.0, 0.0, NAN, 0.0])),
        DegenerateInputError, at_row("anchor must be a unit vector", 1), 1,
        without_tangent_check),
    # two equal parts of 1e200 pass the tangent check (scaled by its largest
    # entry each is e_1, tangent at e_0), and their Gram determinant is inf - inf
    Bad(nf + "bundle_gram_check_refuses_nan",
        lambda: bundle_sectional_curvature_array(*bundle_rows(x1=1e200 * E[1],
                                                              y1=1e200 * E[1])),
        DegeneratePlaneError, at_row("do not span a 2-plane", 1), 1, warn="ignore"),
    Bad(nf + "plane_orthonormality_check_refuses_nan",
        lambda: submanifold_plane_curvature_array(
            hopf_field(1), np.tile(E[0], (3, 1)),
            with_row_1(E[2], [0.0, 0.0, NAN, 0.0]), np.tile(E[3], (3, 1))),
        DegenerateInputError, at_row("must be orthonormal", 1), 1,
        without_tangent_check),
    Bad(nf + "meridian_cap_check_refuses_a_nan_point",
        lambda: meridian_field(3).value_array(
            with_row_1(E[1], [NAN, 1.0, 0.0, 0.0])),
        SingularLocusError, at_row("polar cap", 1), 1),
    # a variation field with a NaN value at one point is refused there
    Bad(nf + "variation_orthogonality_check_refuses_nan",
        lambda: reduced_integrand(hopf_field(1), horizontal_extension_field(
            SphereSpec(4), with_row_1(E[2], [0.0, 0.0, NAN, 0.0])),
            np.tile(E[0], (3, 1))),
        PreconditionError, at_row("orthogonal", 1), 1),
]


def nan_pivot():
    raw = np.tile(E[1:4], (3, 1, 1))
    raw[1, 1, 2] = NAN
    return raw


# -- the frames and the routes name the point of a failing row ----------------------


def framed_stack(xi, points):
    """The points' coordinates and their singular data."""
    coords = point_stack(points)
    return coords, singular_decomposition(xi, coords)


def cap_point(dim, h):
    """A point whose displaced point along the meridian, at step ``h``, falls
    inside the polar cap of the meridian field on S^dim."""
    theta = h + 5e-5
    coords = np.zeros(dim + 1)
    coords[0], coords[1] = np.cos(theta), np.sin(theta)
    return coords


def near_cap_stack(dim):
    """Three seeded points with, as row 2, a point near the polar cap."""
    xi = meridian_field(dim, 1.0)
    points = seeded_points(xi, 3, seed=42)
    points.insert(2, xi.sphere.point(cap_point(dim, 0.05)))
    return (xi, *framed_stack(xi, points))


def cap_row_only(dim):
    xi, coords, sd = near_cap_stack(dim)
    return xi, coords[2:3], record_row(sd, 2)


def equator_stack():
    xi = meridian_field(3, 1.0)
    points = seeded_points(xi, 3, seed=47)
    points.insert(1, xi.sphere.point([0.0, 1.0, 0.0, 0.0]))
    return point_stack(points)


def off_sphere_row_1():
    coords = point_stack(seeded_points(hopf_field(1, 1.0), 3, seed=49))
    coords[1] *= 2.0
    return coords


def raising(exc):
    """A stand-in for a function: it raises ``exc``."""
    def fail(*args):
        raise exc
    return fail


def pivot_failure(mp):
    """Row r of the displaced stack belongs to point r // (2 n1): fail row
    3 * 2 * 3 + 5 of the S^3 stack."""
    real = sasaki._gram_schmidt_stack

    def failing(mats, **kwargs):
        out = real(mats, **kwargs)
        ok = np.ones(len(mats), dtype=bool)
        ok[3 * 2 * 3 + 5] = False
        _require_rows(ok, DegenerateInputError, "gram_schmidt pivot below tolerance")
        return out

    mp.setattr(sasaki, "_gram_schmidt_stack", failing)


def draw_at(idx, value, *part):
    """Make part ``part`` of the stream draws of sample ``idx``, in its
    run's stacked draw, ``value``; the other draws are as usual."""
    def patch(mp):
        real = manifold.stream_normals

        def draw(seed, first, out):
            real(seed, first, out)
            if first <= idx < first + len(out):
                out[(idx - first, *part)] = value
            return out

        mp.setattr(manifold, "stream_normals", draw)
    return patch


def route_at_cap_step(route):
    """A cap row inside the second run's stacked call: sample VERIFY_RUN +
    2's first draw is a point outside the sampler's polar caps, at polar
    angle 0.4, and the route's step, 0.4 during its call only, reaches the
    field's cap from it; so tg-direct fails in the direct route."""
    def patch(mp):
        verify_runs(mp)
        draw_at(VERIFY_RUN + 2, cap_point(3, 0.4), 0)(mp)
        real = getattr(sasaki, route)

        def at_step(*args):
            with pytest.MonkeyPatch.context() as step:
                step.setattr(manifold, "FD_STEP_FACTOR", 0.4)  # step 0.4 at r = 1
                return real(*args)

        mp.setattr(cli, route, at_step)
    return patch


ps = "test_point_stacks::test_"
hopf3 = hopf_field(1, 1.0)
ROWS += [
    Bad(ps + "stacked_decomposition_names_the_failing_row",
        lambda: singular_decomposition(hopf3, point_stack(
            seeded_points(hopf3, 3, seed=46))),
        DecompositionFailure,
        r"^singular frame assembly residual \S+ exceeds 0\.0e\+00 \(row 0\)$", 0,
        lambda mp: mp.setattr(fields.TOLERANCES, "assembly", 0.0)),
    # the pending slots of an equator point, completed inside a stack
    Bad(ps + "stacked_completion_names_the_failing_row",
        lambda: singular_decomposition(meridian_field(3, 1.0), equator_stack()),
        DecompositionFailure, None, 1, lambda mp: mp.setattr(
            fields, "_complete_frame",
            raising(DecompositionFailure("frame completion is rank deficient")))),
    # a row off the sphere is refused as a point before the frames are built
    Bad(ps + "stacked_decomposition_checks_its_coordinates_first",
        lambda: singular_decomposition(hopf3, off_sphere_row_1()), DegenerateInputError,
        r"^coordinates do not lie on the sphere \(row 1\)$", 1),
    Bad(ps + "direct_route_names_the_point_of_a_pivot_failure",
        lambda: second_form_direct(hopf3, *framed_stack(hopf3, seeded_points(
            hopf3, 5, seed=43))),
        DegenerateInputError, r"\(row 23\) of the displaced points", 3, pivot_failure),
]
# a stack of points where one point is meant is refused by its shape, from
# one check, before any arithmetic could broadcast over it
for case, call in [
        ("killing_canonical_frames", lambda p: killing_canonical_frames(hopf3, p)),
        ("covariant_normality_residual",
         lambda p: covariant_normality_residual(hopf3, p)),
        ("propagate_fiber_frame", lambda p: propagate_fiber_frame(p, MIN_FIBER_STEPS)),
        ("duschek_integrand_general", lambda p: duschek_integrand_general(
            hopf3, horizontal_extension_field(hopf3.sphere, E[2]), p))]:
    ROWS.append(Bad(
        f"{ps}one_point_kernels_refuse_a_stack[{case}]",
        lambda call=call: call(SpherePoint(hopf3.sphere, point_stack(
            seeded_points(hopf3, 2, seed=50)))),
        DegenerateInputError, r"^point has shape \(2, 4\), expected one point \(4,\)$"))
for dim in (3, 5):
    for name, route in (("lemma", second_form_lemma), ("direct", second_form_direct)):
        step = lambda mp: mp.setattr(manifold, "FD_STEP_FACTOR", 0.05)  # 0.05 at r = 1
        test = f"{ps}route_names_the_point_of_a_displaced_cap_row[{dim}-{name}]"
        ROWS += [Bad(test, lambda dim=dim, route=route: route(*near_cap_stack(dim)),
                     SingularLocusError, None, 2, step),
                 Bad(test, lambda dim=dim, route=route: route(*cap_row_only(dim)),
                     SingularLocusError, None, 0, step)]
for case, suite, route in [("tg-lemma", "totally-geodesic", "second_form_lemma"),
                           ("tg-direct", "totally-geodesic", "second_form_direct"),
                           ("obstruction-lemma", "obstruction", "second_form_lemma")]:
    ROWS.append(Bad(f"{ps}suite_names_the_sample_of_a_failing_row[{case}]",
                    main("verify", suite, "--field", "meridian", "--samples",
                         str(VERIFY_RUN + 5), "--seed", "7"),
                    3, r"polar cap.*sample {0}, seed tuple \(7, {0}\)".format(
                        VERIFY_RUN + 2),
                    patch=route_at_cap_step(route), runs=2))
# a frame is its base and one matrix, checked as it is built: a row normal
# at its own point, a matrix not shaped for its base, one non-orthonormal
# frame of a stack, no rows, more rows than the dimension
at_e0 = SpherePoint(SphereSpec(4), E[0])
e0_stack = SpherePoint(SphereSpec(4), np.tile(E[0], (3, 1)))
ROWS += [
    Bad(ps + "frame_refuses[normal-row]", lambda: Frame(at_e0, [E[1], E[0]]),
        DegenerateInputError, r"^vector is not tangent to the sphere$", 0),
    Bad(ps + "frame_refuses[normal-row]",
        lambda: Frame(e0_stack, with_row_1([E[1], E[2]], [E[1], E[0]])),
        DegenerateInputError, r"^vector is not tangent to the sphere \(row 1\)$", 1),
    Bad(ps + "frame_refuses[one-point-rows-at-two-points]",
        lambda: Frame(SpherePoint(SphereSpec(4), E[:2]), [E[2]]),
        DegenerateInputError, r"^frame has shape \(1, 4\) at base shape \(2, 4\)$"),
    Bad(ps + "frame_refuses[non-orthonormal-frame-of-a-stack]",
        lambda: Frame(e0_stack, with_row_1([E[1], E[2]], [E[1], E[1]])),
        DegenerateInputError, r"^frame is not orthonormal \(row 1\)$", 1),
    Bad(ps + "frame_refuses[no-rows]", lambda: Frame(at_e0, np.zeros((0, 4))),
        DegenerateInputError, r"^frame has 0 vectors, expected 1 to 3$"),
    Bad(ps + "frame_refuses[more-rows-than-dim]", lambda: Frame(at_e0, E),
        DegenerateInputError, r"^frame has 4 vectors, expected 1 to 3$"),
]

for key, dim, r in [("meridian-s2", 2, 1.0), ("meridian-s3", 3, 1.0),
                    ("meridian-s5-r3", 5, 3.0)]:
    for attr in ("value_array", "jacobian_array"):
        def cap_row_2(dim=dim, r=r, attr=attr):
            xi = meridian_field(dim, r)
            pts = point_stack(seeded_points(xi, 4, seed=31))
            pts[2] = -r * np.eye(dim + 1)[0]
            return getattr(xi, attr)(pts)
        ROWS.append(Bad(
            f"test_direction_stacks::test_meridian_stack_names_the_cap_row[{key}]",
            cap_row_2, SingularLocusError, r"polar cap \(row 2\)", 2))


# -- the curvature kernels and the scans ---------------------------------------------


def planes3(row, **parts):
    """Six bundle planes on S^3, with ``parts`` (name -> function of the
    row's part and of the whole stack) applied to one row."""
    rows = bundle_planes(hopf_field(1).sphere, 6, seed=3)
    names = ["p", "u", "x1", "x2", "y1", "y2"]
    cols = {name: col.copy() for name, col in zip(names, rows)}
    for name, fn in parts.items():
        cols[name][row] = fn(cols, row)
    return (hopf_field(1).sphere, *(cols[name] for name in names))


def bent_plane_y():
    q, X, Y = frame_planes(hopf_field(1), 4, seed=9)
    Y[1] += 1e-3 * q[1]
    return hopf_field(1), q, X, Y


def wrapper_planes():
    """A plane and a bundle plane through the one-plane wrappers, each with
    its two vectors equal."""
    rng = np.random.default_rng(0)
    p = hopf_field(1).sphere.random_point(rng)
    X = random_frame(p, rng)[0]
    u = random_tangent(p, rng, unit=True)
    return X, BundleVector(u, X, hopf_field(1).sphere.zero_tangent(p))


def collapse_row_7(mp):
    real = cli._bundle_curvature_rows

    def collapse(sphere, u, x1, x2, y1, y2, stacklevel):
        y1, y2 = y1.copy(), y2.copy()
        y1[7], y2[7] = x1[7], x2[7]
        return real(sphere, u, x1, x2, y1, y2, stacklevel)

    mp.setattr(cli, "_bundle_curvature_rows", collapse)


sb = "test_scan_batches::test_"
ROWS += [
    Bad(sb + "bundle_kernel_rejects_non_unit_anchor",
        lambda: bundle_sectional_curvature_array(
            *planes3(2, u=lambda c, i: 2.0 * c["u"][i])),
        DegenerateInputError, "unit vector.*row 2", 2),
    Bad(sb + "bundle_kernel_names_degenerate_row",
        lambda: bundle_sectional_curvature_array(*planes3(
            3, y1=lambda c, i: 2.0 * c["x1"][i], y2=lambda c, i: 2.0 * c["x2"][i])),
        DegeneratePlaneError, "row 3", 3),
    Bad(sb + "kernels_reject_non_tangent_row",
        lambda: bundle_sectional_curvature_array(*planes3(
            5, x1=lambda c, i: c["x1"][i] + 1e-3 * c["p"][i])),
        DegenerateInputError, "not tangent.*row 5", 5),
    Bad(sb + "kernels_reject_non_tangent_row",
        lambda: submanifold_plane_curvature_array(*bent_plane_y()),
        DegenerateInputError, "not tangent.*row 1", 1),
    Bad(sb + "scan_degenerate_plane_exits_three_naming_plane",
        main("scan-curvature", "--mode", "bundle", "--planes", "20", "--seed", "4"), 3,
        r"numerical failure: bundle vectors do not span a 2-plane.*"
        r"bundle plane 7, seed tuple \(4, 1000000007\)", patch=collapse_row_7),
    Bad(sb + "one_plane_wrappers_keep_their_messages",
        lambda: submanifold_plane_curvature(hopf_field(1), wrapper_planes()[0],
                                            wrapper_planes()[0]),
        DegenerateInputError, "^X, Y must be orthonormal$"),
    Bad(sb + "one_plane_wrappers_keep_their_messages",
        lambda: bundle_sectional_curvature(wrapper_planes()[1], wrapper_planes()[1]),
        DegeneratePlaneError, "^bundle vectors do not span a 2-plane$"),
]


def stacked_vectors():
    """Two frame rows as one TangentVector at one point, and one vector per
    point at a stack of two points, with a unit anchor for each."""
    fr = Frame(at_e0, E[1:])
    two = SpherePoint(SphereSpec(4), E[:2])
    return {"rows": (fr[:2], fr[1:3], fr[2]),
            "stack": (TangentVector(two, E[2:4]), TangentVector(two, E[[3, 2]]),
                      TangentVector(two, E[[3, 3]]))}


# a one-plane or one-vector wrapper takes one vector at one point: rows per
# point or a stack of points is refused, naming the shape
for case in ("rows", "stack"):
    shape = r"^tangent vector has shape \(2, 4\) at base shape \((2, 4|4,)\), expected"
    for wrapper, call in [
            ("submanifold", lambda X, Y, u: submanifold_plane_curvature(
                hopf_field(1), X, Y)),
            ("xi-lift", lambda X, Y, u: xi_tangential_lift(hopf_field(1), X)),
            ("lift", lambda X, Y, u: tangential_lift(X, u)),
            ("horizontal", lambda X, Y, u: horizontal_lift(X, u)),
            ("bundle", lambda X, Y, u: bundle_sectional_curvature(
                BundleVector(u, X, u), BundleVector(u, Y, u)))]:
        ROWS.append(Bad(
            f"{sb}one_plane_wrappers_refuse_stacked_vectors[{wrapper}-{case}]",
            lambda call=call, case=case: call(*stacked_vectors()[case]),
            DegenerateInputError, shape))


# -- the quadrature and the variation kernels ----------------------------------------


def nan_at(idx):
    """An integrand with a NaN value at quadrature sample ``idx``."""
    seen = []

    def fn(q):
        vals = np.ones(len(q))
        if sum(seen) <= idx < sum(seen) + len(q):
            vals[idx - sum(seen)] = np.nan
        seen.append(len(q))
        return vals

    return fn


def first_draw_over(seed, samples, ambient, bound):
    """The first quadrature sample whose normalized first coordinate is over
    ``bound``; it is not sample 0."""
    draws = np.array([np.random.default_rng((seed, i)).standard_normal(ambient)
                      for i in range(samples)])
    idx = int(np.flatnonzero(draws[:, 0] / np.linalg.norm(draws, axis=1) > bound)[0])
    assert idx > 0
    return idx


def tilted_field(sphere):
    """Horizontal, except where q_0 > 0.5: there it leans along the Hopf
    field."""
    J = complex_structure(sphere.ambient_dim)
    base = horizontal_extension_field(sphere, np.eye(sphere.ambient_dim)[1])

    def value(q):
        lean = (q[..., 0] > 0.5)[..., None] * np.matmul(J, q[..., None])[..., 0]
        return base.value_fn(q) + lean

    return VariationField(sphere, value, base.jacobian_fn, name="tilted")


def tilted_integrand(xi):
    eta = tilted_field(xi.sphere)
    return lambda q: reduced_integrand(xi, eta, xi.sphere.stacked_points(q))


def integrand(fn):
    return lambda mp: mp.setattr(variation, "destabilizing_integrand", fn)


hopf5 = hopf_field(2)
tilted_pts = unit_points(6, 20, 50)
tilted_row = int(np.flatnonzero(tilted_pts[:, 0] > 0.5)[0])
tilted_sample = first_draw_over(4, 64, 6, 0.5)
vb = "test_variation_batches::test_"
ROWS += [
    # a NaN value in a later run names its sample, not a value the mean drops
    Bad(vb + "nan_integrand_names_its_sample",
        lambda: integrate_over_sphere(nan_at(263), hopf5.sphere, 300, 4),
        FloatingPointError,
        r"non-finite integrand: quadrature sample 263, seed tuple \(4, 263\)", 263,
        runs_of(256, variation._integrand_row_bytes(hopf5.sphere)), runs=2),
    Bad(vb + "nan_integrand_names_its_sample",
        main("variation", "--dim", "5", "--samples", "300"), 3,
        r"numerical failure: non-finite integrand: quadrature sample {0}, seed tuple "
        r"\(0, {0}\)".format(first_draw_over(0, 300, 6, 0.9)),
        patch=integrand(lambda xi: lambda q: np.where(q[:, 0] > 0.9, np.nan, 1.0))),
    Bad(vb + "non_orthogonal_variation_names_row_and_sample",
        lambda: reduced_integrand(hopf5, tilted_field(hopf5.sphere), tilted_pts),
        PreconditionError, at_row("orthogonal", tilted_row), tilted_row),
    Bad(vb + "non_orthogonal_variation_names_row_and_sample",
        lambda: integrate_over_sphere(tilted_integrand(hopf5), hopf5.sphere, 64, 4),
        PreconditionError,
        rf"quadrature sample {tilted_sample}, seed tuple \(4, {tilted_sample}\)",
        tilted_sample),
    # a draw that cannot be normalized onto the sphere
    Bad(vb + "zero_quadrature_draw_names_its_sample",
        lambda: integrate_over_sphere(lambda q: q[:, 0], hopf5.sphere, 64, 4),
        DegenerateInputError, r"quadrature sample 5, seed tuple \(4, 5\)", 5,
        draw_at(5, 0.0)),
    Bad(vb + "zero_quadrature_draw_names_its_sample",
        main("variation", "--dim", "5", "--samples", "64"), 3,
        r"quadrature sample 5, seed tuple \(0, 5\)", patch=draw_at(5, 0.0)),
    Bad(vb + "cli_names_the_failing_quadrature_sample",
        main("variation", "--dim", "5", "--samples", "64"), 3,
        r"orthogonal.*seed tuple \(0, ", patch=integrand(tilted_integrand)),
]


# -- the verify suites' sample loop --------------------------------------------------


for field in ("hopf", "meridian"):
    for case, idx, samples, runs in [
            ("first-chunk", 2, VERIFY_RUN + 6, 1),
            ("second-chunk", VERIFY_RUN + 2, VERIFY_RUN + 6, 2),
            ("one-row-chunk", VERIFY_RUN, VERIFY_RUN + 1, 2)]:
        # a zero first draw in a stacked pass fails as the one-sample draw
        # did, with its message, and no row of the pass
        test = f"test_sample_streams::test_zero_draw_names_its_sample[{field}-{case}]"
        ROWS += [Bad(test, main("verify", "totally-geodesic", "--field", field,
                                "--samples", str(samples), "--seed", "7"), 3,
                     rf"^numerical failure: cannot normalize a near-zero vector: "
                     rf"sample {idx}, seed tuple \(7, {idx}\)\n$",
                     patch=patches(verify_runs, draw_at(idx, 0.0, 0)), runs=runs),
                 Bad(test, lambda: SphereSpec(4).point(np.zeros(4)),
                     DegenerateInputError, "^cannot normalize a near-zero vector$")]


# -- a row failure through the CLI names its sample, plane or field -----------------


def failing_at_sample_3(make, row=3):
    """Make the verify suites' stacked singular decomposition raise
    ``make()`` for the first run, at its fourth sample: ``.row`` is set to 3
    unless ``row`` is None (a failure that names no sample)."""
    def patch(mp):
        def decompose(xi, points):
            assert len(points) == 6  # one call for the whole run
            exc = make()
            if row is not None:
                exc.row = row
            raise exc

        mp.setattr(cli, "singular_decomposition", decompose)
    return patch


def poison(name, row, when, value=np.nan, owner=cli):
    """Make ``owner.<name>`` put ``value`` in ``row`` of its result on the
    calls where ``when(result, call number)`` holds."""
    def patch(mp):
        real = getattr(owner, name)
        calls = []

        def poisoned(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append(out)
            if when(out, len(calls)):
                out = out.copy()
                out[row] = value
            return out

        mp.setattr(owner, name, poisoned)
    return patch


def bent_last_plane_batch(mp):
    """Plane 3 of the last, partial run of SCAN_RUN submanifold planes gets
    a frame row that is not tangent, which the check of ``frames_at``, the
    scan's one check of its frames, refuses: its projected draws, (4, 3,
    ambient) on S^3, are bent before their Gram-Schmidt."""
    set_run(mp, SCAN_RUN, cli._submanifold_row_bytes(S3))
    real = SphereSpec.project_array

    def bend(self, p, vec):
        out = real(self, p, vec)
        if out.shape[:2] == (4, S3.dim):
            out = out.copy()
            out[3, 1] += 1e-3 * p[3]
        return out

    mp.setattr(SphereSpec, "project_array", bend)


def nan_shape_matrix_at_row_2(mp):
    real = cli.build_field

    def build(config):
        xi = real(config)

        def jacobian(q):
            jac = np.array(np.broadcast_to(xi.jacobian_fn(q), q.shape + q.shape[-1:]))
            if q.ndim == 2:
                jac[2] = np.nan
            return jac

        return UnitVectorField(xi.sphere, xi.value_fn, jacobian, name=xi.name)

    mp.setattr(cli, "build_field", build)


tc = "test_cli::test_"
ROWS += [
    Bad(tc + "numerical_failure_exit_three", main("variation", "--dim", "5"), 3,
        "synthetic failure", patch=lambda mp: mp.setitem(cli._COMMANDS, "variation", (
            raising(PropagationFailure("synthetic failure"))))),
    Bad(tc + "failing_check_on_sampled_plane_exits_three",
        main("scan-curvature", "--planes", str(SCAN_RUN + 4)), 3,
        r"numerical failure: vector is not tangent to the sphere.*submanifold plane "
        r"{0}, seed tuple \(0, {0}\)".format(SCAN_RUN + 3),
        patch=bent_last_plane_batch, runs=2),
    Bad(tc + "verify_names_the_failing_sample",
        main("verify", "totally-geodesic", "--samples", "6", "--seed", "7"), 3,
        r"numerical failure: frames drifted: sample 3, seed tuple \(7, 3\)",
        patch=failing_at_sample_3(lambda: DecompositionFailure("frames drifted"))),
    Bad(tc + "verify_names_the_failing_sample",
        main("verify", "obstruction", "--samples", "6"), 3,
        r"sphere: sample 3, seed tuple \(0, 3\)", patch=failing_at_sample_3(
            lambda: DegenerateInputError("vector is not tangent to the sphere"))),
    Bad(tc + "verify_precondition_without_row_still_exits_two",
        main("verify", "obstruction", "--samples", "6"), 2,
        "^error: needs a geodesic field\n$", patch=failing_at_sample_3(
            lambda: PreconditionError("needs a geodesic field"), row=None)),
    # a NaN in one sample's Omega names that sample, not a residual max() drops
    Bad(tc + "verify_non_finite_residual_exits_three[first-chunk]",
        main("verify", "totally-geodesic", "--dim", "3", "--samples", "4"), 3,
        r"non-finite lemma residual.*sample 1, seed tuple \(0, 1\)",
        patch=poison("second_form_lemma", (1, 0, 1, 0), lambda out, n: n == 1)),
    Bad(tc + "verify_non_finite_residual_exits_three[second-chunk]",
        main("verify", "totally-geodesic", "--dim", "3", "--samples",
             str(VERIFY_RUN + 3)),
        3, rf"non-finite lemma residual.*sample {VERIFY_RUN + 1}, "
           rf"seed tuple \(0, {VERIFY_RUN + 1}\)",
        patch=patches(verify_runs, poison("second_form_lemma", (1, 0, 1, 0),
                                          lambda out, n: n == 2)), runs=2),
    Bad(tc + "verify_non_finite_per_sample_residual_exits_three",
        main("verify", "jacobi", "--samples", "5"), 3,
        r"non-finite jacobi residual.*sample 2, seed tuple \(0, 2\)",
        patch=poison("jacobi_relation_residual", 2, lambda out, n: True, np.inf)),
    # not an SVD that fails to converge
    Bad(tc + "verify_non_finite_shape_matrix_exits_three",
        main("verify", "jacobi", "--samples", "5"), 3,
        r"non-finite shape matrix.*sample 2, seed tuple \(0, 2\)",
        patch=nan_shape_matrix_at_row_2),
    # a NaN in one field's integrand names the field, the sample and the seed
    # tuple, where min and max would have dropped it
    Bad(tc + "variation_s3_non_finite_integrand_exits_three",
        main("variation", "--dim", "3", "--samples", "6"), 3,
        r"numerical failure: non-finite second-variation integrand: field 2, "
        r"sample 4, seed tuple \(0, 2\)",
        patch=poison("reduced_integrand", 2 * 6 + 4,
                     lambda out, n: n == 1 and len(out) == 100 * 6, owner=variation)),
]
# a NaN curvature, or a NaN on the cross-checking route, names the plane, not
# a value that min() and max() drop; plane 5 of the last run of 8 planes
k = SCAN_RUN + 5
for case, mode, name, message, plane in [
        ("submanifold", "submanifold", "_plane_curvature_rows",
         "non-finite curvature", rf"submanifold plane {k}, seed tuple \(0, {k}\)"),
        ("cross-check", "submanifold", "_bundle_curvature_rows",
         "non-finite bundle-route curvature",
         rf"submanifold plane {k}, seed tuple \(0, {k}\)"),
        ("bundle", "bundle", "_bundle_curvature_rows", "non-finite curvature",
         rf"bundle plane {k}, seed tuple \(0, {10 ** 9 + k}\)")]:
    row_bytes = getattr(cli, f"_{mode}_row_bytes")(S3)
    ROWS.append(Bad(f"{tc}scan_non_finite_curvature_exits_three[{case}]",
                    main("scan-curvature", "--mode", mode, "--planes", str(k + 3)), 3,
                    f"{message}.*{plane}",
                    patch=patches(runs_of(SCAN_RUN, row_bytes),
                                  poison(name, 5, lambda out, n: len(out) == 8)),
                    runs=2))
