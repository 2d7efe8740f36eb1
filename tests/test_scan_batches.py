"""Batched curvature kernels against a one-plane reference.

The reference functions below are the one-plane formulas the scan used
before it was batched, written with ``@``, ``np.linalg.norm`` and scalar
``** 2``. The batched kernels promise the same bits under the interpreter
and numpy the benchmark digests were recorded with, and a last-bit margin
elsewhere.
"""

import json
import warnings

import numpy as np
import pytest

import tgeo.cli as cli
from tgeo import DegenerateInputError, DegeneratePlaneError, TangentVector, hopf_field
from tgeo.sasaki import (
    BundleVector,
    bundle_sectional_curvature,
    bundle_sectional_curvature_array,
    submanifold_plane_curvature,
    submanifold_plane_curvature_array,
    xi_tangential_lift_array,
)

from conftest import (EXACT, assert_identical, random_frame, random_tangent,
                      ref_gram_schmidt)


# -- one-plane reference -------------------------------------------------------


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


# -- seeded inputs ---------------------------------------------------------------


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
    t = draws[1:] - np.sum(draws[1:] * p, axis=-1, keepdims=True) * p / sphere.radius ** 2
    u = unit(t[0])
    vx, vy = (v - np.sum(v * u, axis=-1, keepdims=True) * u for v in (t[2], t[4]))
    return [p, u, t[1], vx, t[3], vy]


# -- identity ----------------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 3, 7])  # S^3, S^7, S^15
def test_plane_kernels_match_reference(m):
    xi = hopf_field(m)
    J = xi.jacobian_array(np.zeros(2 * m + 2))
    p, X, Y = frame_planes(xi, 300, seed=11 + m)
    K = submanifold_plane_curvature_array(xi, p, X, Y)
    assert_identical(K, [ref_plane_curvature(J, *row) for row in zip(p, X, Y)])

    u, x1, x2 = xi_tangential_lift_array(xi, p, X)
    _, y1, y2 = xi_tangential_lift_array(xi, p, Y)
    Kq = bundle_sectional_curvature_array(xi.sphere, p, u, x1, x2, y1, y2)
    assert_identical(Kq, [ref_lifted_curvature(J, *row) for row in zip(p, X, Y)])
    assert np.max(np.abs(K - Kq)) < 1e-10


@pytest.mark.parametrize("m, radius", [(1, 1.0), (2, 0.01), (3, 300.0), (7, 1.0)])
def test_bundle_kernel_matches_reference(m, radius):
    sphere = hopf_field(m, radius).sphere
    rows = bundle_planes(sphere, 4000, seed=7)
    K = bundle_sectional_curvature_array(sphere, *rows)
    k = sphere.curvature_constant
    assert_identical(K, [ref_bundle_curvature(k, *row[1:]) for row in zip(*rows)])


def test_stacked_samplers_match_typed_sampler():
    sphere = hopf_field(3, 2.0).sphere
    draws = np.empty((40, 1 + sphere.dim, sphere.ambient_dim))
    for idx, out in enumerate(draws):
        np.random.default_rng((2, idx)).standard_normal(out=out)
    p, frames = sphere.stacked_frames(draws)
    q, t = sphere.stacked_tangents(draws[:, :6])
    for idx in range(len(draws)):
        rng = np.random.default_rng((2, idx))
        point = sphere.random_point(rng)
        assert_identical(p[idx], point.coords)
        raw = rng.standard_normal((sphere.dim, sphere.ambient_dim))
        assert_identical(frames[idx], ref_gram_schmidt(
            sphere.project_array(point.coords, raw)))
        rng = np.random.default_rng((2, idx))
        point = sphere.random_point(rng)
        assert_identical(q[idx], point.coords)
        assert_identical(t[idx], [random_tangent(point, rng).vec
                                  for _ in range(5)])


def test_scan_matches_reference_across_batches(capsys):
    """1300 planes: whole and partial batches, and the 500-plane cut of the
    closed-form cross-check, against the one-plane reference."""
    planes = 1300
    argv = ["scan-curvature", "--mode", "both", "--dim", "3",
            "--planes", str(planes), "--seed", "5"]
    assert cli.main(argv + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    got = {(kind, pid): float(K) for pid, kind, K in
           (line.split(",") for line in lines[1:])}
    assert cli.main(argv) == 0
    notes = json.loads(capsys.readouterr().out)[0]["notes"]

    xi = hopf_field(1)
    J = xi.jacobian_array(np.zeros(4))
    p, X, Y = frame_planes(xi, planes, seed=5)
    want = [ref_plane_curvature(J, *row) for row in zip(p, X, Y)]
    assert_identical([got["submanifold", str(i)] for i in range(planes)], want)
    gap = max(abs(want[i] - ref_lifted_curvature(J, p[i], X[i], Y[i]))
              for i in range(500))
    if EXACT:
        assert notes[2] == (f"closed form vs bundle curvature route: max gap "
                            f"{gap:.3e} on 500 planes")

    sphere = xi.sphere
    rows = []
    for idx in range(planes):
        rng = np.random.default_rng((5, 10 ** 9 + idx))
        q = sphere.random_point(rng)
        u = random_tangent(q, rng, unit=True).vec
        hx, vx, hy, vy = (random_tangent(q, rng).vec for _ in range(4))
        rows.append(ref_bundle_curvature(1.0, u, hx, vx - (vx @ u) * u,
                                         hy, vy - (vy @ u) * u))
    assert_identical([got["bundle", str(i)] for i in range(planes)], rows)


def test_scan_seeds_each_batch_in_one_call(capsys, monkeypatch):
    """600 planes per scan are three batches: one default_rng call each (the
    helper's check of the batch's first stream), plus the designated
    section's point."""
    real = np.random.default_rng
    calls = []

    def counted(seed):
        calls.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    assert cli.main(["scan-curvature", "--mode", "both", "--planes", "600",
                     "--seed", "6"]) == 0
    capsys.readouterr()
    assert calls == [(6, 0), (6, 256), (6, 512), (6, 600),
                     (6, 10 ** 9), (6, 10 ** 9 + 256), (6, 10 ** 9 + 512)]


# -- checks on the array kernels -------------------------------------------------


@pytest.fixture
def planes3():
    sphere = hopf_field(1).sphere
    return sphere, bundle_planes(sphere, 6, seed=3)


def test_bundle_kernel_rejects_non_unit_anchor(planes3):
    sphere, (p, u, x1, x2, y1, y2) = planes3
    u = u.copy()
    u[2] *= 2.0
    with pytest.raises(DegenerateInputError, match=r"unit vector.*row 2") as info:
        bundle_sectional_curvature_array(sphere, p, u, x1, x2, y1, y2)
    assert info.value.row == 2


def test_bundle_kernel_names_degenerate_row(planes3):
    sphere, (p, u, x1, x2, y1, y2) = planes3
    y1, y2 = y1.copy(), y2.copy()
    y1[3], y2[3] = 2.0 * x1[3], 2.0 * x2[3]
    with pytest.raises(DegeneratePlaneError, match=r"row 3") as info:
        bundle_sectional_curvature_array(sphere, p, u, x1, x2, y1, y2)
    assert info.value.row == 3


def test_bundle_kernel_warns_once_per_stray_row(planes3):
    sphere, (p, u, x1, x2, y1, y2) = planes3
    x2, y2 = x2.copy(), y2.copy()
    x2[1] += 1e-3 * u[1]
    x2[4] += 2e-3 * u[4]
    y2[4] += 3e-3 * u[4]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        K = bundle_sectional_curvature_array(sphere, p, u, x1, x2, y1, y2)
    texts = sorted(str(w.message) for w in caught)
    expected = sorted(f"projecting vertical part: anchor component {c:.3e}"
                      for c in (x2[1] @ u[1], x2[4] @ u[4], y2[4] @ u[4]))
    assert texts == expected
    assert np.all(np.isfinite(K))


def test_kernels_reject_non_tangent_row(planes3):
    sphere, (p, u, x1, x2, y1, y2) = planes3
    bent = x1.copy()
    bent[5] += 1e-3 * p[5]
    with pytest.raises(DegenerateInputError, match=r"not tangent.*row 5"):
        bundle_sectional_curvature_array(sphere, p, u, bent, x2, y1, y2)

    xi = hopf_field(1)
    q, X, Y = frame_planes(xi, 4, seed=9)
    Y = Y.copy()
    Y[1] += 1e-3 * q[1]
    with pytest.raises(DegenerateInputError, match=r"not tangent.*row 1"):
        submanifold_plane_curvature_array(xi, q, X, Y)


def test_scan_degenerate_plane_exits_three_naming_plane(capsys, monkeypatch):
    real = cli.bundle_sectional_curvature_array

    def collapse_row_7(sphere, p, u, x1, x2, y1, y2):
        y1, y2 = y1.copy(), y2.copy()
        y1[7], y2[7] = x1[7], x2[7]
        return real(sphere, p, u, x1, x2, y1, y2)

    monkeypatch.setattr(cli, "bundle_sectional_curvature_array", collapse_row_7)
    assert cli.main(["scan-curvature", "--mode", "bundle", "--planes", "20",
                     "--seed", "4"]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: bundle vectors do not span a 2-plane" in err
    assert "bundle plane 7, seed tuple (4, 1000000007)" in err


# -- the one-plane wrappers --------------------------------------------------------


def test_one_plane_wrappers_keep_their_messages():
    xi = hopf_field(1)
    sphere = xi.sphere
    rng = np.random.default_rng(0)
    p = sphere.random_point(rng)
    X = random_frame(p, rng)[0]
    with pytest.raises(DegenerateInputError) as info:
        submanifold_plane_curvature(xi, X, X)
    assert str(info.value) == "X, Y must be orthonormal"

    u = random_tangent(p, rng, unit=True)
    zero = sphere.zero_tangent(p)
    Xb = BundleVector(u, X, zero)
    with pytest.raises(DegeneratePlaneError) as info:
        bundle_sectional_curvature(Xb, Xb)
    assert str(info.value) == "bundle vectors do not span a 2-plane"


def test_one_plane_warning_points_at_the_caller():
    xi = hopf_field(1)
    sphere = xi.sphere
    rng = np.random.default_rng(1)
    p = sphere.random_point(rng)
    X, Y = random_frame(p, rng)[:2]
    u = random_tangent(p, rng, unit=True)
    stray = TangentVector(p, Y.vec + 1e-3 * u.vec)
    Xb = BundleVector(u, X, sphere.zero_tangent(p))
    Yb = BundleVector(u, sphere.zero_tangent(p), stray)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bundle_sectional_curvature(Xb, Yb)
    assert [w.filename for w in caught] == [__file__]
    assert str(caught[0].message).startswith("projecting vertical part")
