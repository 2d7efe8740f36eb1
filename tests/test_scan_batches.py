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
import tgeo.manifold as manifold
import tgeo.sasaki as sasaki
from tgeo import TangentVector, hopf_field
from tgeo.sasaki import (BundleVector, bundle_sectional_curvature,
                         bundle_sectional_curvature_array)

import bad_rows
import stack_table
from conftest import (EXACT, assert_identical, printed_tests, random_frame,
                      random_tangent, run_lengths, set_run)
from stack_table import (bundle_planes, frame_planes, ref_bundle_curvature,
                         ref_lifted_curvature, ref_plane_curvature)

globals().update(printed_tests(__name__, stack_table.ROWS + bad_rows.ROWS))


def scan_runs(mp):
    """Runs of 256 submanifold planes on S^3 (the budget set to 256 of their
    rows) and the bundle planes' runs under that budget."""
    sphere = hopf_field(1).sphere
    run = set_run(mp, 256, cli._submanifold_row_bytes(sphere))
    return run, manifold.run_rows(cli._bundle_row_bytes(sphere))


def test_scan_matches_reference_across_batches(capsys, monkeypatch):
    """1300 planes: whole and partial runs, and the 500-plane cut of the
    closed-form cross-check, against the one-plane reference."""
    planes = 1300
    sub_run, bundle_run = scan_runs(monkeypatch)
    runs = run_lengths(monkeypatch)
    argv = ["scan-curvature", "--mode", "both", "--dim", "3",
            "--planes", str(planes), "--seed", "5"]
    assert cli.main(argv + ["--format", "csv"]) == 0
    assert runs == [min(run, planes - start) for run in (sub_run, bundle_run)
                    for start in range(0, planes, run)]
    assert sub_run < 500 < planes and bundle_run < planes
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
    """600 planes per scan are several runs: one default_rng call each (the
    helper's check of the run's first stream), plus the designated
    section's point."""
    sub_run, bundle_run = scan_runs(monkeypatch)
    real = np.random.default_rng
    calls = []

    def counted(seed):
        calls.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    assert cli.main(["scan-curvature", "--mode", "both", "--planes", "600",
                     "--seed", "6"]) == 0
    capsys.readouterr()
    assert calls == ([(6, start) for start in range(0, 600, sub_run)] + [(6, 600)]
                     + [(6, 10 ** 9 + start) for start in range(0, 600, bundle_run)])
    assert sub_run < 600 and bundle_run < 600  # two runs at least, each scan


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


def count_checks(monkeypatch, name):
    """The calls of ``manifold.<name>`` in each module that imports it."""
    real = getattr(manifold, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (manifold, sasaki, cli):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_bundle_scan_checks_each_run_once(capsys, monkeypatch):
    """A bundle scan checks its five tangent rows once per run, itself,
    before the unchecked bundle kernel: the sampler steps add no check of
    their own."""
    calls = count_checks(monkeypatch, "_check_tangent_stack")
    assert cli.main(["scan-curvature", "--mode", "bundle", "--planes", "20"]) == 0
    capsys.readouterr()
    assert [vecs.shape for _, _, vecs in calls] == [(20, 5, 4)]


def test_bundle_scan_checks_its_points_once(capsys, monkeypatch):
    """A bundle scan's points are checked once per run, by
    ``stacked_points``, and not again by the kernel."""
    calls = count_checks(monkeypatch, "_check_points_stack")
    assert cli.main(["scan-curvature", "--mode", "bundle", "--planes", "20"]) == 0
    capsys.readouterr()
    assert [coords.shape for _, coords in calls] == [(20, 4)]


def test_submanifold_scan_checks_each_run_once(capsys, monkeypatch):
    """A submanifold scan's frames are checked once per run, by
    ``frames_at``: the curvature kernel reads them unchecked. The
    cross-check checks only the rows its lifts make, the anchor and the two
    vertical parts, and the designated sections, which no sampler made, are
    checked as their two planes."""
    calls = count_checks(monkeypatch, "_check_tangent_stack")
    assert cli.main(["scan-curvature", "--mode", "submanifold", "--planes", "20"]) == 0
    capsys.readouterr()
    assert [vecs.shape for _, _, vecs in calls] == [(20, 3, 4), (20, 3, 4), (2, 2, 4)]
