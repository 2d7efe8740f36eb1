"""Stacked variation kernels against a one-point reference.

The one-point references in stack_table.py are the formulas the variation
layer used before it took stacks, written with ``@``, ``np.outer`` and
``np.linalg.norm``, and the one-matrix ``ref_gram_schmidt``; the stacked
fields and kernels, rows of the stack table, promise their bits. A failing
quadrature sample or variation row is named by a row of the bad-row table.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import tgeo.manifold as manifold
import tgeo.variation as variation
from tgeo import (SphereSpec, complex_structure, destabilizing_integrand,
                  hopf_field, integrate_over_sphere, random_hopf_combination,
                  reduced_integrand, sphere_volume, stability_verdict)
from tgeo.variation import _fiber_residuals, _horizontal_seed

import bad_rows
import stack_table
from conftest import assert_identical, printed_tests, set_run
from stack_table import ref_fiber_residuals

globals().update(printed_tests(__name__, stack_table.ROWS + bad_rows.ROWS))


@pytest.mark.parametrize("rows,fields", [(None, [7]), (1, [1] * 7), (12, [2, 2, 2, 1])],
                         ids=["default", "one-field", "two-fields"])
def test_stable_run_is_independent_of_the_chunk(monkeypatch, rows, fields):
    """A run holds whole fields, at least one: 7 fields of 5 samples in one
    run, one per run (a budget of one row) or two per run (a budget of 12
    rows) and one left over give the same report."""
    monkeypatch.setattr(variation, "FAMILY_FIELDS", 7)
    want = dataclasses.asdict(stability_verdict(
        3, samples=5, fiber_steps=64, seed=2))
    if rows is not None:
        set_run(monkeypatch, rows, variation._integrand_row_bytes(SphereSpec(4)))
    seen = []
    real = variation._family_stack

    def counted(sphere, seed, run, samples):
        seen.append(len(run))
        return real(sphere, seed, run, samples)

    monkeypatch.setattr(variation, "_family_stack", counted)
    got = dataclasses.asdict(stability_verdict(
        3, samples=5, fiber_steps=64, seed=2))
    assert seen == fields
    for rep in (want, got):
        rep.pop("wall_time_s")
    assert got == want


def closed_form_fiber(m, steps):
    """The fiber's J, node times, points and closed-form frame pair on
    S^(2m+1): no RK4 loop, so any step count is cheap."""
    J = complex_structure(2 * m + 2)
    p0 = SphereSpec(2 * m + 2, 1.0).random_point(np.random.default_rng((52, m)))
    ts = np.linspace(0.0, 2.0 * np.pi, steps + 1)
    cos, sin = np.cos(ts)[:, None], np.sin(ts)[:, None]
    v = _horizontal_seed(p0.coords[None], J)[0]
    frames = np.stack([cos * v + sin * (J @ v), -cos * (J @ v) + sin * v], axis=1)
    return J, ts, cos * p0.coords + sin * (J @ p0.coords), frames


@pytest.mark.parametrize("node", [0, 1, 2, 62, 63, 64, 65, 127, 128, 197, 198,
                                  199, 200])
@pytest.mark.parametrize("m", [1, 7])
def test_fiber_residuals_across_node_blocks(m, node):
    """200 steps are four node blocks, the last one partial; a kink at a node
    near a block edge or the periodic seam sets every residual, and each
    must be the per-node reference's, so the halo of the 5-point stencil
    reaches across each edge and around the seam."""
    J, ts, points, frames = closed_form_fiber(m, 200)
    frames = frames.copy()
    frames[node] += 1e-3 * np.random.default_rng((53, node)).standard_normal(
        frames[node].shape)
    want = ref_fiber_residuals(J, ts, points, frames)
    got = _fiber_residuals(J, ts, points, frames)
    assert list(got) == list(want)
    assert_identical(list(got.values()), list(want.values()))
    # the kink sets them; node 200 is node 0 again, outside the periodic table
    assert got["orthonormality"] > 1e-4
    assert (got["fiber_rows"] > 1e-2) == (node < 200)


def test_fiber_residuals_memory_is_bounded_by_node_blocks():
    """At 20,000 steps on S^15 the residuals hold one node block at a time:
    tracemalloc's peak stays below 1 MB above entry (all nodes at once: 34
    MB), and the residuals are the per-node reference's."""
    J, ts, points, frames = closed_form_fiber(7, 20000)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        got = _fiber_residuals(J, ts, points, frames)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    want = ref_fiber_residuals(J, ts, points, frames)
    assert_identical(list(got.values()), list(want.values()))


def test_integrate_stack_equals_per_sample_calls(monkeypatch):
    """The estimate from runs is the mean of one-point integrand calls at the
    per-index samples; 1,000 samples in runs of 256 cross three run ends."""
    xi = hopf_field(1)
    sphere = xi.sphere
    run = set_run(monkeypatch, 256, variation._integrand_row_bytes(sphere))
    eta = random_hopf_combination(np.random.default_rng(3))
    calls = []

    def stacked(q):
        calls.append(len(q))
        return reduced_integrand(xi, eta, sphere.stacked_points(q))

    res = integrate_over_sphere(stacked, sphere, 1000, 5)
    assert calls == [run, run, run, 1000 - 3 * run]
    vals = []
    for idx in range(1000):
        vec = np.random.default_rng((5, idx)).standard_normal(4)
        q = vec * (1.0 / np.linalg.norm(vec))
        vals.append(reduced_integrand(xi, eta, sphere.stacked_points(q[None]))[0])
    vol = sphere_volume(sphere)
    assert_identical([res.value, res.std_error],
                     [vol * float(np.mean(vals)),
                      vol * float(np.std(vals, ddof=1)) / np.sqrt(len(vals))])


def test_quadrature_memory_does_not_grow_with_samples():
    """The quadrature holds one run of samples at a time: on S^15 its
    tracemalloc peak over four runs is one run's (about 10 MB) plus the
    values kept, 8 bytes a sample."""
    xi = hopf_field(7)
    fn = destabilizing_integrand(xi)
    integrate_over_sphere(fn, xi.sphere, 8, 0)  # first-call allocations
    run = manifold.run_rows(variation._integrand_row_bytes(xi.sphere))
    peaks = []
    for samples in (run, 4 * run):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            integrate_over_sphere(fn, xi.sphere, samples, 0)
            peaks.append(tracemalloc.get_traced_memory()[1] - entry)
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 32_768, peaks
