import sys

import numpy as np
import pytest

from tgeo import (DegenerateInputError, Frame, SingularData, SpherePoint,
                  TangentVector, hopf_field, meridian_field, shape_apply_array)
from tgeo.manifold import unit_rows

# the tables' asserts report their operands as the tests' own do
pytest.register_assert_rewrite("stack_table", "bad_rows", "cli_cases")

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


def assert_same(got, want):
    """``assert_identical`` through tuples, lists and dicts (keys in order)."""
    if isinstance(want, dict):
        assert list(got) == list(want)
        got, want = list(got.values()), list(want.values())
    if isinstance(want, (tuple, list)) and not np.isscalar(want[0]):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    else:
        assert_identical(got, want)


# -- tables -------------------------------------------------------------------
#
# A table row (a ``Stack`` of stack_table.py, a ``Bad`` of bad_rows.py, a
# ``Case`` of cli_cases.py or a ``Check``) knows the test it is printed under,
# "<module>::<name>[<case>]", and checks itself. ``printed_tests`` turns the
# rows of one module into its test functions, so each case keeps the name it
# has always been reported under: the rows of one case run together, in
# table order.


class Check:
    """A table row that is a plain check: ``fn()`` asserts."""

    def __init__(self, test, fn):
        self.test, self.check = test, fn


def printed_tests(module, rows):
    """The test functions, by name, that print the ``rows`` tagged with
    ``module``: each is parametrized over its cases, unless its only case
    has no id."""
    cases = {}
    for row in rows:
        where, _, name = row.test.partition("::")
        if where == module:
            name, _, case = name.partition("[")
            cases.setdefault(name, {}).setdefault(case.rstrip("]"), []).append(row)
    return {name: _printed(name, by_case) for name, by_case in cases.items()}


def _printed(name, by_case):
    if list(by_case) == [""]:
        def test():
            for row in by_case[""]:
                row.check()
    else:
        @pytest.mark.parametrize("case", list(by_case), ids=list(by_case))
        def test(case):
            for row in by_case[case]:
                row.check()
    test.__name__ = name
    return test


def random_tangent(p, rng, *, unit=False):
    """A tangent vector at the point ``p``: one draw of ambient standard
    normals from ``rng``, projected onto the tangent space, and with
    ``unit`` scaled to unit length."""
    sphere = p.sphere
    v = sphere.project_array(p.coords, rng.standard_normal(sphere.ambient_dim))
    return TangentVector(p, unit_rows(v[None])[0] if unit else v)


def random_frame(p, rng):
    """An orthonormal frame at the point ``p``: one (dim, ambient) draw of
    standard normals from ``rng`` through ``SphereSpec.frames_at``."""
    sphere = p.sphere
    raw = rng.standard_normal((1, sphere.dim, sphere.ambient_dim))
    return Frame(p, sphere.frames_at(p.coords[None], raw)[0])


def record_row(sd, k):
    """Point k of the ``SingularData`` ``sd`` as its own one-row record."""
    base = sd.right_frame.base
    p = SpherePoint(base.sphere, base.coords[k:k + 1])
    return SingularData(sd.lambdas[k:k + 1], Frame(p, sd.right_frame.matrix[k:k + 1]),
                        Frame(p, sd.left_frame.matrix[k:k + 1]))


def frame_rows(sd, k=0):
    """(lambdas, right frame rows, left frame rows) at point k of ``sd``."""
    return sd.lambdas[k], sd.right_frame.matrix[k], sd.left_frame.matrix[k]


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


def ref_second_form_direct(xi, p, sd):
    """``second_form_direct`` one displaced point at a time, at the point of
    a one-row ``sd``: each transported frame from the one-matrix
    Gram-Schmidt and each projection written out."""
    sphere = xi.sphere
    r2 = sphere.radius ** 2
    lam, e, f = frame_rows(sd)
    n1 = len(lam)
    u = f[0]
    k = sphere.curvature_constant
    scale = np.sqrt(1.0 + lam ** 2)
    h = sphere.fd_step

    def project(q, rows):
        return rows - np.outer(rows @ q, q) / r2

    V0 = -shape_apply_array(xi, p.coords, e)
    a = e @ u
    omega = np.zeros((n1 - 1, n1, n1))
    for i in range(n1):
        x1 = e[i] / scale[i]
        x2 = -lam[i] * f[i] / scale[i]
        qp = sphere._geodesic_coords(p.coords, e[i], h)
        qm = sphere._geodesic_coords(p.coords, e[i], -h)
        Ep = ref_gram_schmidt(project(qp, e))
        Em = ref_gram_schmidt(project(qm, e))
        Vp = -shape_apply_array(xi, qp, Ep)
        Vm = -shape_apply_array(xi, qm, Em)
        speed = 1.0 / scale[i]
        dH = project(p.coords, (Ep - Em) * (speed / (2.0 * h)))
        dV = project(p.coords, (Vp - Vm) * (speed / (2.0 * h)))
        horiz = (dH
                 + 0.5 * k * (np.outer(V0 @ x1, u) - (u @ x1) * V0)
                 + 0.5 * k * (np.outer(e @ x2, u) - np.outer(a, x2)))
        vert = (dV
                - 0.5 * k * (np.outer(a, x1) - (x1 @ u) * e)
                - np.outer(V0 @ u, x2))
        vert = vert - np.outer(vert @ u, u)
        omega[:, i, :] = (lam[1:, None] * (e[1:] @ horiz.T) + f[1:] @ vert.T) \
            / scale[1:, None] / scale[None, :]
    return omega


def ref_half_curvature(xi, p_coords, x, y):
    """``half_curvature`` for one vector ``y``, written out with the 1-d
    projection and the 1-d shape operator, at the step ``sphere.fd_step``."""
    sphere = xi.sphere

    def a_ytilde(q):
        return shape_apply_array(xi, q, sphere.project_array(q, y))

    return -sphere.fd_derivative_array(a_ytilde, p_coords, x)


def ref_second_form_lemma(xi, p, sd):
    """``second_form_lemma`` with one half-curvature call per (e_i, e_j)
    pair, n1^2 finite differences per point, at the point of a one-row
    ``sd``."""
    lam, e, f = frame_rows(sd)
    n1 = len(lam)
    k = xi.sphere.curvature_constant
    r_vals = np.zeros((n1, n1, xi.sphere.ambient_dim))
    for i in range(n1):
        for j in range(n1):
            r_vals[i, j] = ref_half_curvature(xi, p.coords, e[i], e[j])
    sym = r_vals + np.transpose(r_vals, (1, 0, 2))
    a = e @ f[0]
    G = e @ f.T
    T = k * (a[None, :, None] * G[:, None, :] - a[:, None, None] * G[None, :, :])
    first = np.einsum("ijc,sc->sij", sym, f)
    second = lam[:, None, None] * (lam[None, None, :] * T
                                   + lam[None, :, None] * np.transpose(T, (0, 2, 1)))
    scale = 1.0 / np.sqrt(1.0 + lam ** 2)
    Lam = scale[:, None, None] * scale[None, :, None] * scale[None, None, :]
    return (0.5 * Lam * (first + second))[1:]


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


def point_stack(points):
    """The (N, ambient) stack of the coordinates of sphere points."""
    return np.array([p.coords for p in points])


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
