import numpy as np
import pytest

from tgeo import (
    BasePointMismatchError,
    DegenerateInputError,
    Frame,
    SpherePoint,
    SphereSpec,
    TangentVector,
    gram_schmidt_rows,
)
import tgeo.manifold as manifold
from tgeo.manifold import (GS_PIVOT_TOL, _check_same_base, _gram_schmidt_stack,
                           _require_rows, stream_chunks, stream_normals, unit_rows)

from conftest import (assert_identical, random_frame, random_tangent,
                      ref_gram_schmidt)

E3 = np.eye(3)


def test_sphere_spec_basics():
    sphere = SphereSpec(4, 2.0)
    assert sphere.dim == 3
    assert sphere.curvature_constant == 0.25
    p = sphere.point([2.0, 0.0, 0.0, 0.0])
    assert np.allclose(p.coords, [2.0, 0.0, 0.0, 0.0])


def test_point_normalizes_onto_sphere():
    sphere = SphereSpec(3, 1.0)
    p = sphere.point([3.0, 4.0, 0.0])
    assert np.isclose(np.linalg.norm(p.coords), 1.0)


def test_point_rejects_zero():
    sphere = SphereSpec(3, 1.0)
    with pytest.raises(DegenerateInputError):
        sphere.point([0.0, 0.0, 0.0])


def test_tangent_projection_is_tangent():
    sphere = SphereSpec(5, 1.5)
    rng = np.random.default_rng(0)
    p = sphere.random_point(rng)
    v = random_tangent(p, rng)
    assert abs(float(v.vec @ p.coords)) < 1e-12


def test_tangent_rejects_non_tangent_vector():
    sphere = SphereSpec(3, 1.0)
    p = sphere.point([1.0, 0.0, 0.0])
    with pytest.raises(DegenerateInputError) as info:
        TangentVector(p, np.array([1.0, 0.0, 0.0]))
    assert str(info.value) == "vector is not tangent to the sphere"
    with pytest.raises(DegenerateInputError) as info:
        unit_rows(np.array([[0.0, 1e-11, 0.0]]))
    assert str(info.value) == "cannot normalize a near-zero tangent vector"


@pytest.mark.parametrize("radius, offset, tangent", [(1e3, 1e-11, True),
                                                     (1e-3, 1e-7, False)])
def test_tangent_bound_scales_with_the_radius(radius, offset, tangent):
    """A unit tangent vector plus offset * p / r has <v, p> = offset * r
    against the bound 1e-9 r: within it at radius 1e3 (an absolute 1e-9
    would refuse 1e-8), past it at radius 1e-3 (an absolute 1e-9 would accept
    1e-10). Checked in a stack, with the offset in row 1, and at one point."""
    sphere = SphereSpec(4, radius)
    draws = np.random.default_rng(51).standard_normal((3, 2, 4))
    P = sphere.stacked_points(draws[:, 0])
    vecs = unit_rows(sphere.project_array(P, draws[:, 1]))
    vecs[1] += offset * P[1] / radius
    for p, v in [(SpherePoint(sphere, P), vecs), (SpherePoint(sphere, P[1]), vecs[1])]:
        if tangent:
            TangentVector(p, v)
            continue
        with pytest.raises(DegenerateInputError, match="not tangent") as info:
            TangentVector(p, v)
        assert info.value.row == (1 if v.ndim == 2 else 0)


def test_typed_objects_take_a_point_axis():
    """A SpherePoint, TangentVector or Frame over a stack of points checks
    every row and names the failing point, as at one point."""
    sphere = SphereSpec(3, 1.0)
    P = np.array([E3[2], E3[0], E3[1]])
    p = SpherePoint(sphere, P)
    cols = [TangentVector(p, np.roll(P, k, axis=1)) for k in (1, 2)]
    frame = Frame(p, np.stack([cols[0].vec, cols[1].vec], axis=1))
    assert frame.matrix.shape == (3, 2, 3)
    assert_identical(frame.matrix[1], [cols[0].vec[1], cols[1].vec[1]])
    # row 1 of each made bad: off the sphere, not tangent, a repeated vector
    off, normal, twice = P.copy(), cols[0].vec.copy(), cols[1].vec.copy()
    off[1] *= 1.0 + 1e-6
    normal[1] += 1e-3 * P[1]
    twice[1] = cols[0].vec[1]
    for make, message in [
            (lambda: SpherePoint(sphere, off), "do not lie on the sphere"),
            (lambda: TangentVector(p, normal), "not tangent"),
            (lambda: Frame(p, np.stack([cols[0].vec, twice], axis=1)), "not orthonormal")]:
        with pytest.raises(DegenerateInputError, match=rf"{message}.* \(row 1\)$") as info:
            make()
        assert info.value.row == 1
    with pytest.raises(DegenerateInputError, match=r"expected \(3,\) or \(N, 3\)"):
        SpherePoint(sphere, P[None])


def test_point_rejects_off_sphere_coordinates():
    sphere = SphereSpec(3, 2.0)
    with pytest.raises(DegenerateInputError) as info:
        SpherePoint(sphere, [2.0 + 1e-6, 0.0, 0.0])
    assert str(info.value) == "coordinates do not lie on the sphere"


def test_metric_and_curvature_constant():
    """R(X,Y)Z = k(<Y,Z>X - <X,Z>Y) with k = 1/r^2."""
    sphere = SphereSpec(4, 2.0)
    rng = np.random.default_rng(1)
    p = sphere.random_point(rng)
    x = random_tangent(p, rng).vec
    y = random_tangent(p, rng).vec
    z = random_tangent(p, rng).vec
    r_val = sphere.curvature_array(x, y, z)
    expected = 0.25 * ((y @ z) * x - (x @ z) * y)
    assert np.allclose(r_val, expected, atol=1e-14)


def raising_rows(mat):
    """The raising Gram-Schmidt mode on one matrix."""
    return _gram_schmidt_stack(mat[None], pivot_tol=GS_PIVOT_TOL, drop=False)[0]


def test_gram_schmidt_rows_orthonormalizes():
    rng = np.random.default_rng(6)
    mat = rng.standard_normal((4, 6))
    rows = gram_schmidt_rows(mat, pivot_tol=GS_PIVOT_TOL)
    gram = rows @ rows.T
    assert np.allclose(gram, np.eye(4), atol=1e-12)


def test_gram_schmidt_rows_drops_dependent_rows():
    mat = np.array([[1.0, 0.0, 0.0],
                    [2.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0]])
    rows = gram_schmidt_rows(mat, pivot_tol=GS_PIVOT_TOL)
    assert rows.shape == (2, 3)


@pytest.mark.parametrize("shape", [(1, 4), (3, 4), (4, 4), (5, 8), (15, 16)])
def test_gram_schmidt_rows_matches_reference(shape):
    """The dropping one-matrix call and the raising stack mode, on one
    matrix, against the reference."""
    for seed in range(5):
        mat = np.random.default_rng((7, seed)).standard_normal(shape)
        assert_identical(raising_rows(mat), ref_gram_schmidt(mat))
        assert_identical(gram_schmidt_rows(mat, pivot_tol=GS_PIVOT_TOL),
                         ref_gram_schmidt(mat, drop=True))


def test_gram_schmidt_rows_drop_matches_reference():
    rng = np.random.default_rng(8)
    a, b = rng.standard_normal((2, 6))
    one_dropped = np.array([a, 2.0 * a, b])
    want = ref_gram_schmidt(one_dropped, drop=True)
    assert want.shape == (2, 6)
    assert_identical(gram_schmidt_rows(one_dropped, pivot_tol=GS_PIVOT_TOL), want)
    # the projected ambient basis at a point loses one candidate
    sphere = SphereSpec(6, 2.0)
    p = sphere.random_point(rng).coords
    candidates = np.vstack([p / 2.0, sphere.project_array(p, np.eye(6))])
    assert_identical(gram_schmidt_rows(candidates, pivot_tol=1e-6),
                     ref_gram_schmidt(candidates, pivot_tol=1e-6, drop=True))
    # every row below the pivot: no rows, with the matrix's row length
    tiny = 1e-12 * rng.standard_normal((3, 5))
    assert ref_gram_schmidt(tiny, drop=True).size == 0
    assert gram_schmidt_rows(tiny, pivot_tol=GS_PIVOT_TOL).shape == (0, 5)


def test_gram_schmidt_stack_matches_reference_with_dropped_row():
    """A (64, 31, 32) stack whose row 5 is a combination of rows 1 and 3: the
    stack drops it in every matrix and keeps the reference's bits."""
    mats = np.random.default_rng(12).standard_normal((64, 31, 32))
    mats[:, 5] = 0.5 * mats[:, 1] - 2.0 * mats[:, 3]
    got = _gram_schmidt_stack(mats, pivot_tol=GS_PIVOT_TOL, drop=True)
    assert not np.any(got[:, 5])
    for mat, rows in zip(mats, got):
        want = ref_gram_schmidt(mat, drop=True)
        assert want.shape == (30, 32)
        assert_identical(np.delete(rows, 5, axis=0), want)


def test_gram_schmidt_rows_pivot_failure_matches_reference():
    """The raising mode, which ``frames_at`` and the direct route use."""
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((2, 5))
    for mat in (np.array([a, b, a + b]), np.array([a, 3.0 * a]),
                np.zeros((2, 5))):
        with pytest.raises(DegenerateInputError) as want:
            ref_gram_schmidt(mat)
        with pytest.raises(DegenerateInputError) as got:
            raising_rows(mat)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("gram_schmidt pivot ")


def test_frame_validation():
    sphere = SphereSpec(3, 1.0)
    p = sphere.point([0.0, 0.0, 1.0])
    good = Frame(p, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert len(good) == 2
    with pytest.raises(DegenerateInputError) as info:
        Frame(p, [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert str(info.value) == "frame is not orthonormal"


def test_standard_frame_spans_tangent_space():
    sphere = SphereSpec(6, 1.0)
    rng = np.random.default_rng(7)
    p = sphere.random_point(rng)
    rows = sphere.standard_frame_rows(p.coords[None])
    assert rows.shape == (1, 5, 6)
    assert np.allclose(rows[0] @ p.coords, 0.0, atol=1e-12)


def test_covariant_derivative_matches_analytic():
    """nabla of the linear field q -> P_q(Aq) against its hand Jacobian."""
    sphere = SphereSpec(4, 1.0)
    A = np.array([[0.0, -1.0, 0.0, 0.0],
                  [1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, -1.0],
                  [0.0, 0.0, 1.0, 0.0]])

    def raw(q):
        w = A @ q
        return w - (w @ q) * q

    rng = np.random.default_rng(9)
    p = sphere.random_point(rng)
    X = random_tangent(p, rng)
    fd = sphere.fd_derivative_array(raw, p.coords, X.vec)
    # exact: project the ambient directional derivative of the extension
    h = 1e-7
    amb = (raw(p.coords + h * X.vec) - raw(p.coords - h * X.vec)) / (2 * h)
    exact = sphere.project_array(p.coords, amb)
    assert np.linalg.norm(fd - exact) < 1e-6


def test_base_point_guard():
    sphere = SphereSpec(3, 1.0)
    p = sphere.point([1.0, 0.0, 0.0])
    q = sphere.point([0.0, 1.0, 0.0])
    a = TangentVector(p, [0.0, 1.0, 0.0])
    b = TangentVector(p, [0.0, 0.0, 2.0])
    c = TangentVector(q, [1.0, 0.0, 0.0])
    _check_same_base(a.base.coords, b.base.coords)
    with pytest.raises(BasePointMismatchError):
        _check_same_base(a.base.coords, c.base.coords)


def test_random_frame_is_orthonormal():
    sphere = SphereSpec(8, 1.0)
    p = sphere.random_point(np.random.default_rng(10))
    frame = random_frame(p, np.random.default_rng(11))
    mat = frame.matrix
    assert np.allclose(mat @ mat.T, np.eye(7), atol=1e-10)
    assert np.allclose(mat @ p.coords, 0.0, atol=1e-10)


def test_frame_matrix_is_the_checked_read_only_stack():
    sphere = SphereSpec(8, 1.0)
    p = sphere.random_point(np.random.default_rng(12))
    frame = random_frame(p, np.random.default_rng(13))
    mat = frame.matrix
    assert not mat.flags.writeable
    assert frame.matrix is mat
    assert_identical(mat, np.array([v.vec for v in frame]))
    with pytest.raises(ValueError):
        mat[0, 0] = 1.0


# -- per-index random streams ---------------------------------------------------


def ref_stream_normals(seed, first, rows, shape):
    return np.array([np.random.default_rng((seed, first + j)).standard_normal(shape)
                     for j in range(rows)])


# seeds of one, two and seven words (the last seeds a SeedSequence longer
# than its pool); index blocks of one word, past 2**30, and across 2**32
@pytest.mark.parametrize("seed", [0, 7, 2 ** 40 + 3, 2 ** 200 + 5])
@pytest.mark.parametrize("first", [0, 10 ** 9, 2 ** 32 - 3])
@pytest.mark.parametrize("rows, shape", [(1, (4, 4)), (5, (4, 4)),
                                         (6, (6, 8)), (5, (16, 16))])
def test_stream_normals_match_default_rng(seed, first, rows, shape):
    out = np.empty((rows,) + shape)
    assert stream_normals(seed, first, out) is out
    assert np.array_equal(out, ref_stream_normals(seed, first, rows, shape))


def test_stream_normals_refuses_a_seeding_that_differs(monkeypatch):
    monkeypatch.setattr(manifold, "_SEED_MIX_L", manifold._SEED_MIX_L ^ 1)
    with pytest.raises(RuntimeError, match=f"numpy {np.__version__} seeds"):
        stream_normals(3, 0, np.empty((2, 4)))


def pcg64_words(entropy):
    """numpy's own seeding of ``entropy``: the state lo, state hi, inc lo
    and inc hi words of PCG64(SeedSequence(entropy))."""
    pcg = np.random.PCG64(np.random.SeedSequence(entropy)).state["state"]
    return [w >> shift & (2 ** 64 - 1) for w in (pcg["state"], pcg["inc"])
            for shift in (0, 64)]


# the seeds and index blocks of test_stream_normals_match_default_rng; the
# block across 2**32 is two tables, as stream_normals seeds it in two passes
@pytest.mark.parametrize("seed", [0, 7, 2 ** 40 + 3, 2 ** 200 + 5])
@pytest.mark.parametrize("first, rows", [(0, 6), (10 ** 9, 6), (2 ** 32 - 3, 3),
                                         (2 ** 32, 3)])
def test_pcg64_states_match_numpy_seeding(seed, first, rows):
    entropy = np.array([manifold._words(seed) + manifold._words(first + j)
                        for j in range(rows)], np.uint32)
    table = manifold._pcg64_states(entropy)
    assert table.dtype == np.uint64 and table.shape == (rows, 4)
    assert table.tolist() == [pcg64_words(row) for row in entropy]


@pytest.mark.parametrize("word", range(4))
@pytest.mark.parametrize("bit", [0, 63])
def test_stream_normals_refuse_a_wrong_row_0_before_writing(monkeypatch, word, bit):
    """A table whose row 0 differs from the fresh generator's state in one
    bit is refused before any state is written or any row drawn."""
    real = manifold._pcg64_states

    def flipped(entropy):
        table = real(entropy)
        table[0, word] ^= np.uint64(1 << bit)
        return table

    monkeypatch.setattr(manifold, "_pcg64_states", flipped)
    out = np.full((3, 2, 4), np.nan)
    with pytest.raises(RuntimeError, match=f"numpy {np.__version__} seeds"):
        stream_normals(3, 0, out)
    assert np.isnan(out).all()


def test_state_order_takes_either_word_order_and_refuses_others():
    """A native __uint128_t lays out each 128-bit word low half first,
    numpy's emulated pcg128_t high half first; state words in any other
    order are refused."""
    row0 = manifold._pcg64_states(np.array([[3, 0]], np.uint32))[0]
    low_first = row0.copy()
    high_first = row0[[1, 0, 3, 2]].copy()
    assert manifold._state_order(low_first, row0) == [0, 1, 2, 3]
    assert manifold._state_order(high_first, row0) == [1, 0, 3, 2]
    for fresh in (row0[[0, 1, 3, 2]], row0[[2, 3, 0, 1]], row0[[1, 0, 2, 3]]):
        with pytest.raises(RuntimeError, match=f"numpy {np.__version__} seeds"):
            manifold._state_order(fresh, row0)


def test_stream_chunks_hand_out_runs_and_name_a_failing_index():
    """Each run gets the draws of its streams (seed, stream0 + idx), the
    named values are collected over the runs, and a row failure, a non-finite
    value among them, is renamed by its index and the seed tuple that
    replays it; a value of the wrong shape names no row."""
    runs = []
    three = manifold._RUN_BYTES // 3  # row bytes that make runs of three
    assert manifold.run_rows(three) == 3
    assert manifold.run_rows(manifold._RUN_BYTES + 1) == 1

    def keep(start, draws):
        runs.append(draws.copy())
        return {"x": draws[:, 0], "start": np.full(len(draws), start)}

    cols = stream_chunks(3, 10, 7, three, (2,), "item", keep)
    assert [len(d) for d in runs] == [3, 3, 1]
    assert np.array_equal(np.concatenate(runs), ref_stream_normals(3, 10, 7, (2,)))
    assert list(cols) == ["x", "start"]
    assert np.array_equal(cols["x"], np.concatenate(runs)[:, 0])
    assert np.array_equal(cols["start"], [0, 0, 0, 3, 3, 3, 6])

    def failing(start, draws):
        _require_rows(np.arange(len(draws)) + start != 4, DegenerateInputError,
                      "bad draw")
        return {"x": draws[:, 0]}

    with pytest.raises(DegenerateInputError,
                       match=r"^bad draw: item 4, seed tuple \(3, 14\)$") as err:
        stream_chunks(3, 10, 7, three, (2,), "item", failing)
    assert err.value.row == 4

    for k in range(7):
        def nan_at_k(start, draws, k=k):
            x = draws[:, 0].copy()
            x[np.arange(len(draws)) + start == k] = np.nan
            return {"y": np.zeros(len(draws)), "x": x}

        with pytest.raises(FloatingPointError, match=rf"^non-finite x: item {k}, "
                           rf"seed tuple \(3, {10 + k}\)$") as err:
            stream_chunks(3, 10, 7, three, (2,), "item", nan_at_k)
        assert err.value.row == k

    with pytest.raises(DegenerateInputError, match="^x gave shape") as err:
        stream_chunks(3, 10, 7, three, (2,), "item",
                      lambda start, draws: {"x": draws})
    assert not hasattr(err.value, "row")
