"""Row checks refuse NaN and inf, and the tangent check a normal vector
whose squared norm overflows.

Each check states the condition every row must meet (``value <= bound``
through ``_require_rows``), so a NaN, for which every comparison is False,
fails it. Each case, a row of the bad-row table (bad_rows.py), puts one bad
row in a three-row stack and asserts that the check names that row, with
warnings as errors.
"""

import warnings

import numpy as np

import bad_rows
from conftest import printed_tests
from tgeo import SphereSpec, TangentVector
from tgeo.manifold import _check_tangent_stack

globals().update(printed_tests(__name__, bad_rows.ROWS))


def test_tangent_check_accepts_a_tangent_vector_past_overflow():
    """A tangent vector whose squared norm overflows is accepted, with no
    overflow warning."""
    E = np.eye(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = TangentVector(SphereSpec(4).point(E[0]), 1e200 * E[1])
        _check_tangent_stack(1.0, np.tile(E[0], (3, 1)), 1e200 * E[1:])
    assert v.vec[1] == 1e200
