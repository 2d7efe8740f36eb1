"""Stacks of directions at one point against one-direction calls.

One finite difference serves a whole stack of directions. The stacked
meridian field, ``fd_derivative_array`` and ``half_curvature`` on rows, and
the sampled predicates built on them give, row by row, the bits of the
one-vector calls and of the per-direction loops they replace. The
predicates, the Jacobi relation and the obstruction pair take a stack of
points, row k the bits of the one-row stack of point k and of its one-point
reference. Those are rows of the stack table; a meridian stack's cap row is
a row of the bad-row table.
"""

import numpy as np
import pytest

import tgeo.cli as cli
import tgeo.fields as fields
from tgeo import (SphereSpec, UnitVectorField, is_strongly_normal, meridian_field,
                  sasakian_identity_residual, second_form_direct,
                  singular_decomposition)
import bad_rows
import stack_table
from conftest import on_triples, printed_tests, run_lengths, seeded_points, set_run
from stack_table import FIELDS

globals().update(printed_tests(__name__, stack_table.ROWS + bad_rows.ROWS))


def test_seed_zero_sample_is_the_predicates_first_draw():
    xi = FIELDS["hopf-s3"]
    p = cli._sample_point(xi, np.random.default_rng((0, 0)))
    first = np.random.default_rng(0).standard_normal(xi.sphere.ambient_dim)
    assert np.linalg.norm(xi.sphere.project_array(p.coords, first)) < 1e-6


# -- one finite difference per point -------------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """A meridian S^3 field whose Jacobian evaluations are counted, and the
    counts, which also take ``fd_derivative_array`` calls."""
    xi = meridian_field(3, 1.0)
    counts = {"fd": 0, "jacobian": 0}

    def jacobian(q, _jac=xi.jacobian_fn):
        counts["jacobian"] += 1
        return _jac(q)

    def fd(self, *args, _fd=SphereSpec.fd_derivative_array, **kwargs):
        counts["fd"] += 1
        return _fd(self, *args, **kwargs)

    monkeypatch.setattr(SphereSpec, "fd_derivative_array", fd)
    return UnitVectorField(xi.sphere, xi.value_fn, jacobian, xi.name), counts


def test_predicates_differentiate_once_per_point(counted):
    xi, counts = counted
    P = seeded_points(xi, 1, seed=35)[0].coords[None]
    on_triples(is_strongly_normal)(xi, P)
    assert counts == {"fd": 1, "jacobian": 2}
    counts.update(fd=0, jacobian=0)
    sasakian_identity_residual(xi, P)
    assert counts == {"fd": 2, "jacobian": 3}


def test_predicates_suite_draws_its_triples_once(monkeypatch, capsys):
    """One run of the predicates suite draws its direction triples once, for
    both normality checks: one ``_perp_triples`` call, and one tangent check
    of its (N, 96, ambient) rows."""
    real_triples, real_check = fields._perp_triples, fields._check_tangent_stack
    drawn, checked = [], []

    def triples(xi, P):
        drawn.append(len(P))
        return real_triples(xi, P)

    def check(radius, coords, vecs):
        checked.append(vecs.shape)
        return real_check(radius, coords, vecs)

    monkeypatch.setattr(fields, "_perp_triples", triples)
    monkeypatch.setattr(cli, "_perp_triples", triples, raising=False)
    monkeypatch.setattr(fields, "_check_tangent_stack", check)
    assert cli.main(["verify", "predicates", "--field", "meridian",
                     "--samples", "30"]) == 0
    capsys.readouterr()
    assert drawn == [30]
    assert checked.count((30, 3 * fields.PREDICATE_SAMPLES, 4)) == 1


def test_direct_route_evaluates_the_jacobian_once_per_side(counted):
    """One evaluation at p and one for the stack of displaced points."""
    xi, counts = counted
    P = seeded_points(xi, 1, seed=36)[0].coords[None]
    sd = singular_decomposition(xi, P)
    counts.update(fd=0, jacobian=0)
    second_form_direct(xi, P, sd)
    assert counts == {"fd": 0, "jacobian": 2}


def test_codazzi_suite_differentiates_once_per_sample(counted, monkeypatch, capsys):
    """One finite difference for each run of samples: two runs, the budget
    set to runs of 64 samples."""
    xi, counts = counted
    run = set_run(monkeypatch, 64, cli._sample_row_bytes("codazzi", xi.sphere))
    runs = run_lengths(monkeypatch)
    assert cli.main(["verify", "codazzi", "--dim", "3", "--samples",
                     str(run + 1)]) == 0
    capsys.readouterr()
    assert runs == [run, 1]
    assert counts["fd"] == 2
