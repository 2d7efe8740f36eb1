"""Unit vector fields on round spheres and their differential invariants.

Provides the built-in Hopf and meridian fields, the shape operator A = -grad
of the field, the singular-value decomposition of A into paired orthonormal
frames, the half curvature tensor, and the structural predicates (geodesic,
Killing, normal, strongly normal, Sasakian identities).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .manifold import (
    DegenerateInputError,
    Frame,
    SphereSpec,
    SpherePoint,
    _as_readonly,
    _check_tangent_stack,
    _matvec_rows,
    _one_point,
    _require_rows,
    _row_norms,
    gram_schmidt_rows,
)

# Every bound that decides a verdict, is a report's ``tolerance`` or refuses a
# run's own residual, read at call time. Per entry: what it judges; its scaling.
TOLERANCES = SimpleNamespace(
    analytic=1e-6,  # analytic Jacobian; Killing bound / r, svd's x max(1, lambda_max)
    assembly=1e-6,  # singular frame assembly (exit 3); x max(1, 1/r, lambda_max)
    fd=1e-4,        # FD residuals (default --tol) and the Hopf pattern match; absolute
    scan=1e-6,      # the scans' curvature bounds [1/4, 5/4] and [0, 5/4]; absolute
    section=1e-10,  # the designated sections' curvatures 1/4 and 5/4; absolute
    cross=1e-8,     # closed-form scan curvature against the bundle route; absolute
    fiber=1e-4,     # fiber frame residuals (exit 3), the witness ceilings; absolute
    verdict=1e-3,   # the S^3 stability margin and the witness ratio; absolute
)

PREDICATE_SAMPLES = 32


class SingularLocusError(ValueError):
    """The field is evaluated too close to a point where it is undefined."""


class PreconditionError(ValueError):
    """A documented mathematical precondition of the operation fails."""


class DecompositionFailure(RuntimeError):
    """Assembled singular frames do not reproduce the operator within tolerance."""


# Fiber propagation's failure and step floor live here, beside the frames'
# failure, so that the CLI can catch and validate them without loading
# tgeo.variation, whose quadrature raises FloatingPointError on a NaN value.
class PropagationFailure(RuntimeError):
    """Fiber frame propagation drifted beyond the table residual ceiling."""


# Fewest fiber steps propagate_fiber_frame takes, and the CLI's floor for
# --fiber-steps: on S^5 the derivative table's 5-point residual exceeds
# TOLERANCES.fiber at every count from 8 to 26, so a run there could only fail.
MIN_FIBER_STEPS = 64


@dataclass(frozen=True, eq=False)
class UnitVectorField:
    """A tangent vector field given by closed-form evaluation.

    ``value_fn`` maps ambient point coordinates to the ambient components of
    the field vector, and ``jacobian_fn`` returns the ambient Jacobian matrix
    of that map. Every derivative of the field is taken from the Jacobian;
    finite differences are taken only of derived quantities (``half_curvature``
    and the second-form routes) and, as a check of the Jacobian itself, in
    ``sasakian_identity_residual``.

    Every built-in field (Hopf, meridian and the variation fields of
    ``tgeo.variation``) also takes a stack of points: ``(N, ambient)``
    coordinates give ``(N, ambient)`` values and ``(N, ambient, ambient)``
    Jacobians, each row equal to its one-point call.

    Unit norm is a contract only for the field passed as ``xi``, and nothing
    checks it; variation directions eta (``tgeo.variation.VariationField`` is
    this class) need not be unit.
    """

    sphere: SphereSpec
    value_fn: Callable[[np.ndarray], np.ndarray]
    jacobian_fn: Callable[[np.ndarray], np.ndarray]
    name: str = "field"

    def value_array(self, coords: np.ndarray) -> np.ndarray:
        return np.asarray(self.value_fn(coords), dtype=float)

    def jacobian_array(self, coords: np.ndarray) -> np.ndarray:
        return np.asarray(self.jacobian_fn(coords), dtype=float)

    def covariant_derivative_array(self, p_coords: np.ndarray,
                                   direction: np.ndarray) -> np.ndarray:
        # jacobian_fn, not jacobian_array: the benchmark traces both methods
        # under one span name, so each evaluation counts once
        jac = np.asarray(self.jacobian_fn(p_coords), dtype=float)
        return self.sphere.project_array(p_coords, jac @ direction)


def complex_structure(ambient_dim: int) -> np.ndarray:
    """The standard complex structure J pairing coordinates (x1,y1,x2,y2,...)."""
    if ambient_dim % 2 != 0:
        raise DegenerateInputError("complex structure needs even ambient dimension")
    J = np.zeros((ambient_dim, ambient_dim))
    for i in range(0, ambient_dim, 2):
        J[i, i + 1] = -1.0
        J[i + 1, i] = 1.0
    return J


def hopf_field(m: int, radius: float = 1.0) -> UnitVectorField:
    """The Hopf field xi(p) = J p / r on S^{2m+1}(r)."""
    if m < 1:
        raise DegenerateInputError("hopf_field needs m >= 1")
    sphere = SphereSpec(2 * m + 2, radius)
    J = complex_structure(sphere.ambient_dim)
    jac = J / radius
    jac.flags.writeable = False

    def jacobian(p):
        # a read-only view of the constant matrix per row of a stack
        return np.broadcast_to(jac, p.shape[:-1] + jac.shape)

    return UnitVectorField(sphere, lambda p, _J=J, _r=radius: _matvec_rows(_J, p) / _r,
                           jacobian, name="hopf")


def meridian_field(dim: int, radius: float = 1.0) -> UnitVectorField:
    """Unit tangents to the meridian great circles of S^dim(r) through +/- r e_0.

    Geodesic and holonomic but not Killing; undefined within a polar cap of
    angular radius 1e-4 around either pole. Takes one point or a stack of
    points; a stack is evaluated row by row with the arithmetic of the
    one-point call, and a point in a cap raises ``SingularLocusError`` naming
    the first such row.
    """
    sphere = SphereSpec(dim + 1, radius)
    eye = np.eye(dim + 1)
    axis, r2 = eye[0], radius ** 2

    def check_caps(s_sq):
        # polar angle at least 1e-4; a NaN point is refused too
        _require_rows(np.atleast_1d(s_sq >= 1e-8), SingularLocusError,
                      "meridian field evaluated inside a polar cap")

    def value(p, a=axis):
        ap = np.vecdot(p, a)
        c = ap / r2
        s_sq = 1.0 - c * ap
        check_caps(s_sq)
        u = a - c[..., None] * p
        return u / np.sqrt(s_sq)[..., None]

    def jacobian(p, a=axis):
        ap = np.vecdot(p, a)
        s_sq = 1.0 - ap * ap / r2
        check_caps(s_sq)
        u = a - (ap / r2)[..., None] * p
        ap, s = ap[..., None, None], np.sqrt(s_sq)[..., None, None]
        # float_power, not ** 3: on an array ** takes a vectorized pow that
        # rounds differently from the scalar one
        return (-(p[..., :, None] * a + ap * eye) / (r2 * s)
                + (ap / (r2 * np.float_power(s, 3))) * (u[..., :, None] * u[..., None, :]))

    return UnitVectorField(sphere, value, jacobian, name="meridian")


# -- shape operator ------------------------------------------------------


def shape_apply_array(xi: UnitVectorField, p_coords: np.ndarray,
                      vecs: np.ndarray) -> np.ndarray:
    """A_xi applied to tangent vector(s) at p: A v = -nabla_v xi.

    ``p_coords`` may be a stack of points ``(N, ambient)``, with ``vecs``
    ``(N, k, ambient)``: rows of vectors per point."""
    jac = xi.jacobian_array(p_coords)
    return -xi.sphere.project_array(p_coords,
                                    np.matmul(vecs, np.swapaxes(jac, -1, -2)))


def shape_matrix(xi: UnitVectorField, p_coords: np.ndarray,
                 frame_rows: np.ndarray) -> np.ndarray:
    """Matrix M with M[i, j] = <b_i, A b_j> for orthonormal rows b_i.

    ``p_coords`` may be a stack of points ``(N, ambient)``, with
    ``frame_rows`` ``(N, k, ambient)``, giving ``(N, k, k)``."""
    applied = shape_apply_array(xi, p_coords, frame_rows)  # row j = A b_j
    return np.matmul(frame_rows, np.swapaxes(applied, -1, -2))


def _framed_shape_matrix(xi: UnitVectorField, P: np.ndarray) -> tuple:
    """The standard frame rows and the shape matrix in them at each point
    of the (N, ambient) stack ``P``. A non-finite matrix raises naming its
    row, before an SVD of it could fail to converge."""
    rows = xi.sphere.standard_frame_rows(P)
    M = shape_matrix(xi, P, rows)
    _require_rows(np.isfinite(M.reshape(-1, M.shape[-1] ** 2)), FloatingPointError,
                  "non-finite shape matrix")
    return rows, M


# -- singular decomposition ----------------------------------------------


@dataclass(frozen=True, eq=False)
class SingularData:
    """Paired singular frames of the shape operator at a stack of N points.

    ``lambdas`` is (N, n1) and each frame matrix (N, n1, ambient); at each
    point ``lambdas[:, 0] == 0`` with ``left_frame[0]`` equal to the field
    vector, and A e_i = lambda_i f_i and A* f_i = lambda_i e_i for all i.
    """

    lambdas: np.ndarray
    right_frame: Frame  # e_0 .. e_n
    left_frame: Frame   # f_0 .. f_n

    def __post_init__(self):
        object.__setattr__(self, "lambdas", _as_readonly(self.lambdas))


def _complete_frame(assigned, candidates: np.ndarray, total: int) -> list:
    """The ``total - len(assigned)`` orthonormal rows that complete the
    orthonormal rows ``assigned`` to ``total``, from candidate directions."""
    stack = np.vstack([np.array(assigned), candidates])
    rows = gram_schmidt_rows(stack, pivot_tol=1e-8)
    if len(rows) < total:
        raise DecompositionFailure("frame completion is rank deficient")
    return [rows[k] for k in range(len(assigned), total)]


def _assemble_frames(base: SpherePoint, rows: np.ndarray, M: np.ndarray,
                     lambdas: np.ndarray, e_comps: np.ndarray,
                     f_comps: np.ndarray, xiv: np.ndarray, label: str, *,
                     pin_e0: bool = False) -> SingularData:
    """Check A e_i = lambda_i f_i and A* f_i = lambda_i e_i in frame
    components to ``TOLERANCES.assembly * max(1, 1/r, lambda_max)`` at each point
    (1/r for the singular values the canonical frames take as zero), then
    build the ambient frames with f_0 (and, with ``pin_e0``, e_0) set
    exactly to the field vector ``xiv``.

    Every array has a leading axis over the points of the stack ``base``; a
    point that fails a check raises naming its row. Returns one
    ``SingularData`` for them all, each frame one ``Frame`` over ``base``."""
    tol = TOLERANCES.assembly * np.maximum(max(1.0, 1 / base.sphere.radius), lambdas.max(1))
    resid = np.maximum(
        np.max(np.linalg.norm(np.matmul(e_comps, np.swapaxes(M, 1, 2))
                              - lambdas[..., None] * f_comps, axis=2), axis=1),
        np.max(np.linalg.norm(np.matmul(f_comps, M)
                              - lambdas[..., None] * e_comps, axis=2), axis=1))
    _require_rows(resid <= tol, DecompositionFailure,
                  lambda k: f"{label} residual {resid[k]:.3e} exceeds {tol[k]:.1e}")

    e_amb = np.matmul(e_comps, rows)
    f_amb = np.matmul(f_comps, rows)
    f_amb[:, 0] = xiv  # exact, not reprojected
    if pin_e0:
        e_amb[:, 0] = xiv
    return SingularData(lambdas, Frame(base, e_amb), Frame(base, f_amb))


def singular_decomposition(xi: UnitVectorField, P: np.ndarray) -> SingularData:
    """SVD of A_xi with the zero singular value pinned first and f_0 = xi.

    Right/left frames satisfy A e_i = lambda_i f_i with lambda_1 >= ... >=
    lambda_n >= 0 = lambda_0. Left vectors for singular values above the
    Killing bound ``_killing_tol(r)`` are taken as A e_i / lambda_i, which
    keeps the pairing exact under degenerate singular values; the remaining
    left slots are completed by Gram-Schmidt.

    ``P`` is an (N, ambient) stack of point coordinates; the result is one
    ``SingularData`` over its N points. A point that fails a check (its
    coordinates, frame assembly, frame completion, a polar cap) raises
    naming its row in ``.row``.
    """
    N, n1 = len(P), xi.sphere.dim
    base = SpherePoint(xi.sphere, P)
    P = base.coords
    rows, M = _framed_shape_matrix(xi, P)
    U, s, Vt = np.linalg.svd(M)

    # A* xi = 0 always, so 0 is a singular value; pin it to slot 0.
    lambdas = np.concatenate([np.zeros((N, 1)), s[:, :-1]], axis=1)
    e_comps = np.concatenate([Vt[:, -1:], Vt[:, :-1]], axis=1)

    xiv = xi.value_array(P)
    xi_comps = _matvec_rows(rows, xiv)
    # deterministic sign: align the kernel slot with the field direction
    flip = np.vecdot(e_comps[:, 0], xi_comps) < 0.0
    e_comps[flip, 0] = -e_comps[flip, 0]
    positive = lambdas > _killing_tol(xi.sphere.radius)
    f_comps = _matvec_rows(M[:, None], e_comps) \
        / np.where(positive, lambdas, 1.0)[..., None]
    f_comps[:, 0] = xi_comps
    pending = ~positive
    pending[:, 0] = False
    for k in np.flatnonzero(pending.any(axis=1)):
        try:
            f_comps[k, pending[k]] = _complete_frame(
                f_comps[k, ~pending[k]], np.vstack([U[k].T, np.eye(n1)]), n1)
        except DecompositionFailure as exc:
            exc.row = int(k)
            raise
    return _assemble_frames(base, rows, M, lambdas, e_comps, f_comps, xiv,
                            "singular frame assembly")


def killing_canonical_frames(xi: UnitVectorField, p: SpherePoint) -> SingularData:
    """Canonically paired singular frames for a unit Killing field.

    Arranges e = (xi, v_1..v_m, w_1..w_m, kernel...) with w_a = A v_a /
    lambda, so that A e_a = lambda e_{m+a}, A e_{m+a} = -lambda e_a, f_a =
    e_{m+a} and f_{m+a} = -e_a, with lambda the mean of the nonzero
    singular values: the lambda vector is (0, lambda..lambda, 0...). A
    Killing field that is not unit has distinct nonzero values, which one
    block cannot pair: ``DecompositionFailure``. ``p`` is one point; the
    result is its one-row ``SingularData``.
    """
    n1 = xi.sphere.dim
    P = _one_point(p)[None]
    rows_stack, M_stack = _framed_shape_matrix(xi, P)
    _require_killing(xi.sphere.radius, M_stack, "canonical pairing")
    rows, M = rows_stack[0], M_stack[0]

    # A unit Killing field is x -> Kx/r with K orthogonal and skew, so its
    # nonzero singular values are all 1/r: one block, paired jointly
    _, s, Vt = np.linalg.svd(M)
    pos = s > _killing_tol(xi.sphere.radius)  # zero as the Killing check sees it
    lam = float(np.mean(s[pos])) if pos.any() else 0.0
    pair_v, pair_w, basis = [], [], Vt[pos]
    while len(basis):
        v = basis[0]
        w = M @ v / lam
        pair_v.append(v)
        pair_w.append(w)
        rest = basis[1:]
        rest = rest - np.outer(rest @ v, v) - np.outer(rest @ w, w)
        basis = gram_schmidt_rows(rest, pivot_tol=1e-6)

    xiv = xi.value_array(P[0])
    kernel = [rows @ xiv]
    if 2 * len(pair_v) + 1 < n1:
        # the kernel rows beside xi, orthogonal to the paired block
        kernel += _complete_frame(kernel + pair_v + pair_w,
                                  np.vstack([Vt[~pos], np.eye(n1)]), n1)

    e_comps = np.array(kernel[:1] + pair_v + pair_w + kernel[1:])
    f_comps = np.array(kernel[:1] + pair_w + [-v for v in pair_v] + kernel[1:])
    lambdas = np.array([0.0] + [lam] * (2 * len(pair_v)) + [0.0] * (len(kernel) - 1))
    if e_comps.shape != (n1, n1):
        raise DecompositionFailure("canonical pairing produced a wrong frame count")
    return _assemble_frames(SpherePoint(xi.sphere, P), rows_stack, M_stack,
                            lambdas[None], e_comps[None], f_comps[None], xiv[None],
                            "canonical frame", pin_e0=True)


# -- half curvature tensor -------------------------------------------------


def half_curvature(xi: UnitVectorField, p_coords: np.ndarray, x: np.ndarray,
                   y: np.ndarray) -> np.ndarray:
    """r(X,Y)xi = nabla_X nabla_Y xi - nabla_{nabla_X Y} xi = -(nabla_X A) Y.

    Array kernel on ambient vectors tangent at the point ``p_coords``,
    checked where they were made. ``x`` is one vector ``(ambient,)`` or rows
    ``(k, ambient)``. ``y`` has either the shape of ``x``, paired with it row
    by row (row i is r(x_i, y_i)xi), or one more axis, rows of Y for each X:
    ``(m, ambient)`` for one ``x``, ``(k, m, ambient)`` for rows of ``x``.
    The result has the shape of ``y``. ``p_coords`` may also be a stack of
    points ``(N, ambient)``; ``x`` and ``y`` then carry the same leading
    axis (the lemma route's grid is ``(N, k, ambient)`` with
    ``(N, k, m, ambient)``), and row n is the one-point call at point n.

    Y is extended off the base point by tangential projection of its ambient
    vector; that extension has vanishing covariant derivative at the base
    point, so the whole tensor reduces to one derivative of A Y-tilde along
    X: one finite difference for all of ``x`` and ``y``, with two stacked
    Jacobian evaluations. The result is tensorial in both slots, so the
    extension choice is immaterial (asserted by tests, not assumed).

    Each row gives the bits of its one-vector call: the rows are projected
    one vector per point and A is one matrix-vector product per row (a
    matrix of rows would round differently).
    """
    sphere = xi.sphere
    grid = y.ndim > x.ndim

    def a_ytilde(q: np.ndarray) -> np.ndarray:
        # q (the shape of x) carries one axis fewer than a grid y: the
        # inserted axis projects each row of y as one vector at its point
        at = q[..., None, :] if grid else q
        jac = xi.jacobian_array(q)
        ay = _matvec_rows(jac[..., None, :, :] if grid else jac,
                          sphere.project_array(at, y))
        return -sphere.project_array(at, ay)

    return -sphere.fd_derivative_array(a_ytilde, p_coords, x)


# -- predicates --------------------------------------------------------------
#
# Each predicate takes an (N, ambient) stack of point coordinates and returns
# the (N,) residuals; the caller owns the tolerance.


def _skewness(M: np.ndarray) -> np.ndarray:
    """Spectral norm of A + A* for each shape matrix of a stack."""
    return np.linalg.norm(M + np.swapaxes(M, 1, 2), 2, axis=(1, 2))


def _killing_tol(radius: float) -> float:
    """The Killing bound on the skewness of A + A*: A scales as 1/r."""
    return TOLERANCES.analytic / radius


def _require_killing(radius: float, M: np.ndarray, what: str) -> None:
    """Refuse, as a whole (no ``.row``), a field not Killing at some point
    of the stack ``M`` (a NaN too), naming the first such residual."""
    resid = _skewness(M)
    bad = ~(resid <= _killing_tol(radius))
    if bad.any():
        raise PreconditionError(f"{what} needs a Killing field: skewness "
                                f"residual {resid[np.argmax(bad)]:.3e}")


def is_geodesic(xi: UnitVectorField, P: np.ndarray) -> np.ndarray:
    """Residual |A_xi xi| = |nabla_xi xi|, projected as one vector per point
    (shape_apply_array projects its rows as a matrix, which rounds
    differently)."""
    jac = xi.jacobian_array(P)
    nabla = np.matmul(xi.value_array(P)[:, None], np.swapaxes(jac, 1, 2))[:, 0]
    return _row_norms(xi.sphere.project_array(P, nabla))


def is_killing(xi: UnitVectorField, P: np.ndarray) -> np.ndarray:
    """Spectral-norm residual of A + A* in an orthonormal frame."""
    return _skewness(_framed_shape_matrix(xi, P)[1])


def _perp_triples(xi, P):
    """The normality predicates' ``triples``: PREDICATE_SAMPLES random unit
    tangent X, Y, Z orthogonal to the field at each point of the stack P, as
    three checked (N, PREDICATE_SAMPLES, ambient) arrays. Every point reads
    the same ``default_rng(0)`` stream and keeps, in order, the first rows
    not too close to the field: the same vectors as one draw at a time."""
    sphere = xi.sphere
    N, count = len(P), 3 * PREDICATE_SAMPLES
    xiv = xi.value_array(P)[:, None]
    rng = np.random.default_rng(0)
    missing, raw = count, np.empty((0, sphere.ambient_dim))
    while missing > 0:
        raw = np.concatenate([raw, rng.standard_normal((missing, sphere.ambient_dim))])
        v = sphere.project_array(P[:, None], np.broadcast_to(raw, (N,) + raw.shape))
        v -= np.vecdot(v, xiv)[..., None] * xiv
        norm = _row_norms(v)
        missing = count - np.min(np.count_nonzero(norm > 1e-6, axis=1))
    first = np.argsort(norm <= 1e-6, axis=1, kind="stable")[:, :count]
    vecs = (np.take_along_axis(v, first[..., None], axis=1)
            / np.take_along_axis(norm, first, axis=1)[..., None])
    _check_tangent_stack(sphere.radius, P, vecs)
    return vecs[:, 0::3], vecs[:, 1::3], vecs[:, 2::3]


def is_normal(xi: UnitVectorField, P: np.ndarray, triples) -> np.ndarray:
    """max |<R(X,Y)Z, xi>| over the ``_perp_triples(xi, P)`` X, Y, Z.

    Identically zero on constant-curvature spaces; the closed-form curvature
    makes the tolerance analytic (1e-10).
    """
    x, y, z = triples
    vals = np.vecdot(xi.sphere.curvature_array(x, y, z), xi.value_array(P)[:, None])
    return np.max(np.abs(vals), axis=1)


def is_strongly_normal(xi: UnitVectorField, P: np.ndarray, triples) -> np.ndarray:
    """max |<(nabla_X A) Y, Z>| over the ``_perp_triples(xi, P)`` X, Y, Z;
    one finite difference for the whole stack."""
    x, y, z = triples
    vals = np.vecdot(half_curvature(xi, P, x, y), z)
    return np.max(np.abs(vals), axis=1)


def sasakian_identity_residual(xi: UnitVectorField, P: np.ndarray) -> np.ndarray:
    """Residual of the Sasakian structure identities with phi = nabla xi.

    Two parts, maximized over random unit tangent pairs: the gap between the
    finite-difference nabla_X xi and the analytic phi X, and
    || r(X,Y)xi - (<xi,Y> X - <X,Y> xi) ||, which is the covariant derivative
    identity for phi. On a sphere of radius r the second part scales like
    |1 - 1/r^2|, so it vanishes only at r = 1. Every point reads the same
    ``default_rng(0)`` pairs; a pair with a near-zero draw at a point is
    skipped there, as two zero vectors whose residuals are zero.
    """
    sphere = xi.sphere
    N, amb = P.shape
    raw = np.random.default_rng(0).standard_normal((PREDICATE_SAMPLES, 2, amb))
    # each (2, ambient) pair projected as a matrix of rows at its point
    raw = sphere.project_array(P[:, None], np.broadcast_to(raw, (N,) + raw.shape))
    norms = np.linalg.norm(raw, axis=-1)
    keep = (np.min(norms, axis=-1) >= 1e-6)[..., None]
    units = np.where(keep[..., None], raw / np.where(keep, norms, 1.0)[..., None], 0.0)
    _check_tangent_stack(sphere.radius, P, units.reshape(N, -1, amb))
    x, y = units[:, :, 0], units[:, :, 1]
    xiv = xi.value_array(P)[:, None]
    fd = sphere.fd_derivative_array(xi.value_array, P, x)
    analytic = sphere.project_array(P[:, None],
                                    _matvec_rows(xi.jacobian_array(P)[:, None], x))
    r_vals = half_curvature(xi, P, x, y)
    target = np.vecdot(y, xiv)[..., None] * x - np.vecdot(x, y)[..., None] * xiv
    return np.maximum(np.max(_row_norms(fd - analytic), axis=1),
                      np.max(_row_norms(r_vals - target), axis=1))


def jacobi_relation_residual(xi: UnitVectorField, P: np.ndarray) -> np.ndarray:
    """max_X || A* A X - R(X, xi) xi || over an orthonormal frame (Killing
    xi): A* A e_i is column i of A* A."""
    rows, M = _framed_shape_matrix(xi, P)
    _require_killing(xi.sphere.radius, M, "Jacobi relation")
    xic = _matvec_rows(rows, xi.value_array(P))
    lhs = np.swapaxes(np.matmul(np.swapaxes(M, 1, 2), M), 1, 2)
    rhs = xi.sphere.curvature_constant * (
        np.eye(rows.shape[1]) - xic[:, :, None] * xic[:, None, :])
    return np.max(_row_norms(lhs - rhs), axis=1)


def covariant_normality_residual(xi: UnitVectorField, p: SpherePoint) -> float:
    """|| A A* - A* A || in an orthonormal frame (commutation residual)."""
    M = _framed_shape_matrix(xi, _one_point(p)[None])[1][0]
    return float(np.linalg.norm(M @ M.T - M.T @ M, 2))
