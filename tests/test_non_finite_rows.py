"""Row checks refuse NaN and inf.

Each check states the condition every row must meet (``value <= bound``
through ``_require_rows``), so a NaN, for which every comparison is False,
fails it. Each test puts one bad row in a three-row stack and asserts that
the check names that row.
"""

import numpy as np
import pytest

import tgeo.sasaki as sasaki
from tgeo import (BasePointMismatchError, DegenerateInputError,
                  DegeneratePlaneError, PreconditionError, SingularLocusError,
                  SpherePoint, SphereSpec, TangentVector, hopf_field,
                  horizontal_extension_field, meridian_field, reduced_integrand)
from tgeo.manifold import (GS_PIVOT_TOL, _check_frames_stack, _check_points_stack,
                           _check_same_base, _check_tangent_stack,
                           _gram_schmidt_stack, unit_rows)
from tgeo.sasaki import (bundle_sectional_curvature_array,
                         submanifold_plane_curvature_array)

NAN = np.nan
E = np.eye(4)


def with_row_1(good, bad):
    """A three-row stack of ``good`` with ``bad`` as row 1."""
    stack = np.array([good, good, good], dtype=float)
    stack[1] = bad
    return stack


def refuses_row_1(error, text, call, *args):
    """``call(*args)`` raises ``error`` with ``text``, naming row 1."""
    with pytest.raises(error, match=rf"{text}.*\(row 1\)") as err:
        call(*args)
    assert err.value.row == 1


def test_points_check_refuses_nan():
    with pytest.raises(DegenerateInputError, match="do not lie on the sphere"):
        SpherePoint(SphereSpec(4), [NAN, 0.0, 0.0, 0.0])
    refuses_row_1(DegenerateInputError, "do not lie on the sphere",
                  _check_points_stack, 1.0, with_row_1(E[0], [NAN, 0.0, 0.0, 0.0]))


def test_tangent_check_refuses_nan():
    p = SpherePoint(SphereSpec(4), E[0])
    with pytest.raises(DegenerateInputError, match="not tangent"):
        TangentVector(p, [0.0, NAN, 0.0, 0.0])
    refuses_row_1(DegenerateInputError, "not tangent", _check_tangent_stack, 1.0,
                  np.tile(E[0], (3, 1)), with_row_1(E[1], [0.0, NAN, 0.0, 0.0]))


@pytest.mark.filterwarnings("error")
def test_tangent_check_refuses_inf():
    """An infinite vector's dot product with the point is inf, as is its
    norm; the check divides the one by the other, and inf / inf is NaN,
    with no RuntimeWarning."""
    p = SpherePoint(SphereSpec(4), [0.5] * 4)
    with pytest.raises(DegenerateInputError, match="not tangent"):
        TangentVector(p, [np.inf, 0.0, 0.0, 0.0])
    refuses_row_1(DegenerateInputError, "not tangent", _check_tangent_stack, 1.0,
                  np.tile(p.coords, (3, 1)),
                  with_row_1([0.5, -0.5, 0.5, -0.5], [np.inf, 0.0, 0.0, 0.0]))


def test_gram_schmidt_refuses_a_nan_pivot():
    """The raising mode, which ``frames_at`` and the direct route use,
    refuses a NaN pivot with the pivot message; it does not hand on a NaN
    row."""
    raw = np.tile(E[1:4], (3, 1, 1))
    raw[1, 1, 2] = NAN
    refuses_row_1(DegenerateInputError, "gram_schmidt pivot nan below",
                  lambda mats: _gram_schmidt_stack(mats, pivot_tol=GS_PIVOT_TOL,
                                                   drop=False), raw)
    refuses_row_1(DegenerateInputError, "gram_schmidt pivot nan below",
                  SphereSpec(4).frames_at, np.tile(E[0], (3, 1)), raw)


def test_frames_check_refuses_nan():
    frames = np.tile(E[1:3], (3, 1, 1))
    frames[1, 1, 2] = NAN
    refuses_row_1(DegenerateInputError, "not orthonormal", _check_frames_stack,
                  frames)


def test_base_check_refuses_nan():
    with pytest.raises(BasePointMismatchError):
        _check_same_base(np.array([NAN, 0.0, 0.0, 0.0]), E[0])


def test_normalizing_refuses_nan():
    refuses_row_1(DegenerateInputError, "cannot normalize",
                  SphereSpec(4).stacked_points,
                  with_row_1(E[0], [NAN, 1.0, 0.0, 0.0]))


@pytest.mark.filterwarnings("error")
def test_stacked_points_refuse_inf():
    """An inf row has an inf norm, so it normalizes to NaN coordinates,
    with no RuntimeWarning, which the points check refuses."""
    refuses_row_1(DegenerateInputError, "do not lie on the sphere",
                  SphereSpec(4).stacked_points,
                  with_row_1(E[0], [np.inf, 0.0, 0.0, 0.0]))


def test_unit_rows_refuse_nan():
    refuses_row_1(DegenerateInputError, "cannot normalize", unit_rows,
                  with_row_1(E[1], [0.0, NAN, 0.0, 0.0]))


def bundle_planes(u1=E[2], x1=E[1], y1=E[3]):
    """Three bundle planes at e_0 with anchor e_2: horizontal parts e_1 and
    e_3, no vertical parts; row 1 takes the given anchor and parts."""
    p = np.tile(E[0], (3, 1))
    zero = np.zeros((3, 4))
    return (SphereSpec(4), p, with_row_1(E[2], u1), with_row_1(E[1], x1), zero,
            with_row_1(E[3], y1), zero)


def test_bundle_anchor_check_refuses_nan(monkeypatch):
    """The tangent check, which runs first, would refuse the NaN anchor too;
    it is switched off so that the anchor check is the one tested."""
    monkeypatch.setattr(sasaki, "_check_tangent_stack", lambda *args: None)
    refuses_row_1(DegenerateInputError, "anchor must be a unit vector",
                  bundle_sectional_curvature_array,
                  *bundle_planes(u1=[0.0, 0.0, NAN, 0.0]))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_bundle_gram_check_refuses_nan():
    """Two equal parts of 1e200 pass the tangent check (their dot product
    0 over their norm, here inf, is 0), and their Gram determinant is
    inf - inf."""
    big = 1e200 * E[1]
    refuses_row_1(DegeneratePlaneError, "do not span a 2-plane",
                  bundle_sectional_curvature_array, *bundle_planes(x1=big, y1=big))


def test_plane_orthonormality_check_refuses_nan(monkeypatch):
    """As for the anchor, the tangent check is switched off."""
    monkeypatch.setattr(sasaki, "_check_tangent_stack", lambda *args: None)
    refuses_row_1(DegenerateInputError, "must be orthonormal",
                  submanifold_plane_curvature_array, hopf_field(1),
                  np.tile(E[0], (3, 1)), with_row_1(E[2], [0.0, 0.0, NAN, 0.0]),
                  np.tile(E[3], (3, 1)))


def test_meridian_axis_check_refuses_nan():
    with pytest.raises(DegenerateInputError, match="unit ambient vector"):
        meridian_field([NAN, 0.0, 0.0, 0.0])


def test_meridian_cap_check_refuses_a_nan_point():
    refuses_row_1(SingularLocusError, "polar cap", meridian_field(E[0]).value_array,
                  with_row_1(E[1], [NAN, 1.0, 0.0, 0.0]))


def test_variation_orthogonality_check_refuses_nan():
    """A variation field with a NaN value at one point is refused there,
    not integrated as a NaN."""
    xi = hopf_field(1)
    eta = horizontal_extension_field(xi.sphere,
                                     with_row_1(E[2], [0.0, 0.0, NAN, 0.0]))
    refuses_row_1(PreconditionError, "orthogonal", reduced_integrand, xi, eta,
                  np.tile(E[0], (3, 1)))
