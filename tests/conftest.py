import sys

import numpy as np
import pytest

from tgeo import DegenerateInputError, hopf_field, meridian_field

# The interpreter and numpy the benchmark digests were recorded with: the
# stacked kernels promise the bits of their one-point references there, and
# a last-bit margin elsewhere.
EXACT = sys.version_info[:3] == (3, 11, 7) and np.__version__ == "2.4.6"


def assert_identical(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    if EXACT:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_array_max_ulp(got, want, maxulp=2)


def ref_gram_schmidt(mat, *, pivot_tol=1e-10, drop=False):
    """The reference for ``gram_schmidt_rows``: modified Gram-Schmidt on the
    rows of one matrix, one row at a time with ``@`` and ``np.linalg.norm``."""
    rows = []
    for raw in np.asarray(mat, dtype=float):
        v = raw.copy()
        for b in rows:
            v -= (v @ b) * b
        # second pass for numerical orthogonality
        for b in rows:
            v -= (v @ b) * b
        norm = np.linalg.norm(v)
        if norm < pivot_tol:
            if drop:
                continue
            raise DegenerateInputError(
                f"gram_schmidt pivot {norm:.3e} below {pivot_tol:.1e}")
        rows.append(v / norm)
    return np.array(rows)


@pytest.fixture(scope="session")
def hopf3():
    return hopf_field(1, 1.0)


@pytest.fixture(scope="session")
def hopf5():
    return hopf_field(2, 1.0)


@pytest.fixture(scope="session")
def hopf7():
    return hopf_field(3, 1.0)


@pytest.fixture(scope="session")
def hopf3_r2():
    return hopf_field(1, 2.0)


@pytest.fixture(scope="session")
def meridian2():
    # unit 2-sphere, axis along the first coordinate
    return meridian_field(np.array([1.0, 0.0, 0.0]), 1.0)


@pytest.fixture(scope="session")
def meridian3():
    return meridian_field(np.array([1.0, 0.0, 0.0, 0.0]), 1.0)


def seeded_points(xi, count, seed=0, pole_cut=0.95):
    """Deterministic sample points, kept away from meridian poles."""
    sphere = xi.sphere
    out = []
    idx = 0
    while len(out) < count:
        rng = np.random.default_rng((seed, idx))
        idx += 1
        p = sphere.random_point(rng)
        if xi.name == "meridian" and abs(p.coords[0]) / sphere.radius > pole_cut:
            continue
        out.append(p)
    return out
