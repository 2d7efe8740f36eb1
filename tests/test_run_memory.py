"""The byte budget of a stacked run, against tracemalloc.

A stacked run (a verify suite's samples, a scan's planes, the quadrature's
points, the S^3 family's fields) takes as many rows as ``manifold._RUN_BYTES``
holds at its caller's bytes per row, a formula in the dimension, and at most
``manifold._RUN_ROWS``. Each formula must bound the bytes a row is traced
to take, by no more than three times; a whole command then peaks at about
one run's worth, however many rows it has.
"""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

import tgeo.cli as cli
import tgeo.manifold as manifold
import tgeo.variation as variation
from tgeo import SphereSpec, hopf_field

from conftest import run_lengths


def traced_peak(call):
    """tracemalloc's peak above its level on entry while ``call()`` runs."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


def quiet_main(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) in (0, 1)


def verify(suite, dim):
    return lambda n: quiet_main("verify", suite, "--dim", str(dim), "--samples", str(n))


def verify_row(suite, dim, rows):
    return (f"{suite}-s{dim}", verify(suite, dim), rows,
            cli._sample_row_bytes(suite, SphereSpec(dim + 1)))


def scan(mode, dim):
    return lambda n: quiet_main("scan-curvature", "--mode", mode, "--dim", str(dim),
                                "--planes", str(n))


def quadrature(dim):
    xi = hopf_field((dim - 1) // 2)
    if dim == 3:
        eta = variation.random_hopf_combination(np.random.default_rng((0, 0)))
        fn = lambda q: variation.reduced_integrand(xi, eta, xi.sphere.stacked_points(q))
    else:
        fn = variation.destabilizing_integrand(xi)
    return lambda n: variation.integrate_over_sphere(fn, xi.sphere, n, 0)


def s3_family(n):
    """The S^3 stable family: ten fields of n // 10 samples."""
    variation._stable_s3_run(hopf_field(1), 10, n // 10, 0)


# (name, run of n rows, rows per run, row bytes)
integrand = variation._integrand_row_bytes
ROWS = [
    *(verify_row("totally-geodesic", dim, rows)
      for dim, rows in [(3, 32), (7, 32), (15, 8), (31, 2)]),
    verify_row("obstruction", 3, 32), verify_row("obstruction", 15, 8),
    verify_row("predicates", 3, 32), verify_row("predicates", 15, 8),
    verify_row("codazzi", 7, 32), verify_row("codazzi", 31, 8),
    verify_row("jacobi", 7, 32), verify_row("jacobi", 31, 8),
    ("submanifold-s3", scan("submanifold", 3), 1000,
     cli._submanifold_row_bytes(SphereSpec(4))),
    ("submanifold-s15", scan("submanifold", 15), 500,
     cli._submanifold_row_bytes(SphereSpec(16))),
    ("bundle-s3", scan("bundle", 3), 1000, cli._bundle_row_bytes(SphereSpec(4))),
    ("bundle-s15", scan("bundle", 15), 1000, cli._bundle_row_bytes(SphereSpec(16))),
    ("quadrature-s3", quadrature(3), 1000, integrand(SphereSpec(4))),
    ("quadrature-s15", quadrature(15), 500, integrand(SphereSpec(16))),
    ("s3-family", s3_family, 1000, integrand(SphereSpec(4))),
]


@pytest.mark.parametrize("run,rows,row_bytes", [r[1:] for r in ROWS],
                         ids=[r[0] for r in ROWS])
def test_row_bytes_bound_the_traced_bytes(monkeypatch, run, rows, row_bytes):
    """A row's traced bytes (the peak of one run of 2 ``rows`` less that of
    one run of ``rows``, divided by ``rows``) are at most the formula's, and
    at least a third of it."""
    monkeypatch.setattr(manifold, "_RUN_BYTES", 1 << 40)
    monkeypatch.setattr(manifold, "_RUN_ROWS", 1 << 40)
    run(rows)  # first-call allocations
    per_row = (traced_peak(lambda: run(2 * rows)) - traced_peak(lambda: run(rows))) / rows
    assert row_bytes / 3 <= per_row <= row_bytes


def test_verify_run_stays_in_the_budget(monkeypatch):
    """16 S^31 samples are several runs, each within the budget: the
    command's traced peak stays within 1.25 runs' bytes (16 samples in one
    run, about 36 MB, do not)."""
    runs = run_lengths(monkeypatch)
    verify("totally-geodesic", 31)(2)  # first-call allocations
    runs.clear()
    peak = traced_peak(lambda: verify("totally-geodesic", 31)(16))
    assert len(runs) >= 2
    assert peak <= 1.25 * manifold._RUN_BYTES


def test_bundle_scan_run_stays_in_the_budget(monkeypatch):
    """Two full runs and one plane of S^15 bundle planes: the command's
    traced peak stays within 1.25 runs' bytes."""
    run = manifold.run_rows(cli._bundle_row_bytes(SphereSpec(16)))
    runs = run_lengths(monkeypatch)
    scan("bundle", 15)(8)  # first-call allocations
    runs.clear()
    peak = traced_peak(lambda: scan("bundle", 15)(2 * run + 1))
    assert runs == [run, run, 1]
    assert peak <= 1.25 * manifold._RUN_BYTES


def test_long_scan_stays_at_one_run_of_rows(monkeypatch):
    """Cheap rows are capped by count: 10,000 S^3 planes of both scans are
    ten runs of each, and the command's traced peak stays within 1 MB of
    that of 800 planes, one run, with the curvature columns kept (10,000
    planes in one run, about 10 MB, do not)."""
    runs = run_lengths(monkeypatch)
    scan("both", 3)(20)  # first-call allocations
    runs.clear()
    peaks = [traced_peak(lambda: scan("both", 3)(n)) for n in (800, 10_000)]
    assert runs == [800, 800] + 2 * ([manifold._RUN_ROWS] * 9 + [784])
    assert peaks[1] - peaks[0] < 1 << 20, peaks
