"""Batched curvature kernels against a one-plane reference.

The one-plane references in stack_table.py are the formulas the scan used
before it was batched, written with ``@``, ``np.linalg.norm`` and scalar
``** 2``; the batched kernels, rows of the stack table, promise their bits.
A failing row of a kernel or of a scan is named by a row of the bad-row
table.
"""

import json
import warnings

import numpy as np

import tgeo.cli as cli
from tgeo import TangentVector, hopf_field
from tgeo.sasaki import (BundleVector, bundle_sectional_curvature,
                         bundle_sectional_curvature_array)

import bad_rows
import stack_table
from conftest import (EXACT, assert_identical, printed_tests, random_frame,
                      random_tangent)
from stack_table import (bundle_planes, frame_planes, ref_bundle_curvature,
                         ref_lifted_curvature, ref_plane_curvature)

globals().update(printed_tests(__name__, stack_table.ROWS + bad_rows.ROWS))


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


def test_bundle_kernel_warns_once_per_stray_row():
    sphere = hopf_field(1).sphere
    p, u, x1, x2, y1, y2 = bundle_planes(sphere, 6, seed=3)
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


def test_one_plane_warning_points_at_the_caller():
    xi = hopf_field(1)
    sphere = xi.sphere
    rng = np.random.default_rng(1)
    p = sphere.random_point(rng)
    fr = random_frame(p, rng)
    X, Y = fr[0], fr[1]
    u = random_tangent(p, rng, unit=True)
    stray = TangentVector(p, Y.vec + 1e-3 * u.vec)
    Xb = BundleVector(u, X, sphere.zero_tangent(p))
    Yb = BundleVector(u, sphere.zero_tangent(p), stray)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bundle_sectional_curvature(Xb, Yb)
    assert [w.filename for w in caught] == [__file__]
    assert str(caught[0].message).startswith("projecting vertical part")
