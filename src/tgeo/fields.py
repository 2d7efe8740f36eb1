"""Unit vector fields on round spheres and their differential invariants.

Provides the built-in Hopf and meridian fields, the shape operator A = -grad
of the field, its conjugate (adjoint), the singular-value decomposition of A
into paired orthonormal frames, the half curvature tensor, and the structural
predicates (geodesic, Killing, normal, strongly normal, Sasakian identities).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .manifold import (
    DegenerateInputError,
    Frame,
    SphereSpec,
    SpherePoint,
    TangentVector,
    _check_same_base,
    gram_schmidt_rows,
)

# Singular values below this are treated as rank deficiency.
SV_ZERO_TOL = 1e-7

# Frame assembly must reproduce A e_i = lambda_i f_i this well or we refuse.
ASSEMBLY_TOL = 1e-6

# Residual tolerance of the checks built on the analytic Jacobian.
TOL_ANALYTIC = 1e-6

PREDICATE_SAMPLES = 32


class SingularLocusError(ValueError):
    """The field is evaluated too close to a point where it is undefined."""


class PreconditionError(ValueError):
    """A documented mathematical precondition of the operation fails."""


class DecompositionFailure(RuntimeError):
    """Assembled singular frames do not reproduce the operator within tolerance."""


@dataclass(frozen=True, eq=False)
class UnitVectorField:
    """A tangent vector field given by closed-form evaluation.

    ``value_fn`` maps ambient point coordinates to the ambient components of
    the field vector, and ``jacobian_fn`` returns the ambient Jacobian matrix
    of that map. Every derivative of the field is taken from the Jacobian;
    finite differences are taken only of derived quantities (``half_curvature``
    and the second-form routes) and, as a check of the Jacobian itself, in
    ``sasakian_identity_residual``.

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

    def value(self, p: SpherePoint) -> TangentVector:
        return TangentVector(p, self.value_array(p.coords))

    def __call__(self, p: SpherePoint) -> TangentVector:
        return self.value(p)

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
    return UnitVectorField(
        sphere,
        value_fn=lambda p, _J=J, _r=radius: (_J @ p) / _r,
        jacobian_fn=lambda p, _jac=jac: _jac,
        name="hopf",
    )


def meridian_field(m_axis, radius: float = 1.0) -> UnitVectorField:
    """Unit tangents to the meridian great circles through +/- r*m_axis.

    Geodesic and holonomic but not Killing; undefined within a polar cap of
    angular radius 1e-4 around either pole.
    """
    axis = np.asarray(m_axis, dtype=float)
    if abs(np.linalg.norm(axis) - 1.0) > 1e-9:
        raise DegenerateInputError("meridian axis must be a unit ambient vector")
    sphere = SphereSpec(len(axis), radius)
    r2 = radius ** 2

    def value(p, a=axis):
        c = (a @ p) / r2
        s_sq = 1.0 - c * (a @ p)
        if s_sq < 1e-8:  # polar angle below 1e-4
            raise SingularLocusError("meridian field evaluated inside a polar cap")
        u = a - c * p
        return u / np.sqrt(s_sq)

    def jacobian(p, a=axis):
        ap = a @ p
        s_sq = 1.0 - ap * ap / r2
        if s_sq < 1e-8:
            raise SingularLocusError("meridian field evaluated inside a polar cap")
        s = np.sqrt(s_sq)
        u = a - (ap / r2) * p
        return (-(np.outer(p, a) + ap * np.eye(len(a))) / (r2 * s)
                + (ap / (r2 * s ** 3)) * np.outer(u, u))

    return UnitVectorField(sphere, value, jacobian, name="meridian")


# -- shape operator ------------------------------------------------------


def shape_apply_array(xi: UnitVectorField, p_coords: np.ndarray,
                      vecs: np.ndarray) -> np.ndarray:
    """A_xi applied to tangent vector(s) at p: A v = -nabla_v xi."""
    return -xi.sphere.project_array(p_coords, vecs @ xi.jacobian_array(p_coords).T)


def shape_operator(xi: UnitVectorField, X: TangentVector) -> TangentVector:
    """A_xi X = -nabla_X xi."""
    return TangentVector(X.base, shape_apply_array(xi, X.base.coords, X.vec))


def shape_matrix(xi: UnitVectorField, p_coords: np.ndarray,
                 frame_rows: np.ndarray) -> np.ndarray:
    """Matrix M with M[i, j] = <b_i, A b_j> for orthonormal rows b_i."""
    applied = shape_apply_array(xi, p_coords, frame_rows)  # row j = A b_j
    return frame_rows @ applied.T


def conjugate_shape_operator(xi: UnitVectorField, Y: TangentVector) -> TangentVector:
    """A*_xi Y, defined by <A* Y, X> = <Y, A X>; transpose in any orthonormal frame."""
    p = Y.base
    rows = xi.sphere.standard_frame_rows(p.coords)
    mat = shape_matrix(xi, p.coords, rows)
    comps = mat.T @ (rows @ Y.vec)
    return TangentVector(p, comps @ rows)


# -- singular decomposition ----------------------------------------------


@dataclass(frozen=True, eq=False)
class SingularData:
    """Paired singular frames of the shape operator.

    ``lambdas[0] == 0`` with ``left_frame[0]`` equal to the field vector;
    A e_i = lambda_i f_i and A* f_i = lambda_i e_i for all i.
    """

    lambdas: np.ndarray
    right_frame: Frame  # e_0 .. e_n
    left_frame: Frame   # f_0 .. f_n

    def __post_init__(self):
        arr = np.array(self.lambdas, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "lambdas", arr)

    @property
    def base(self) -> SpherePoint:
        return self.right_frame.base


def _complete_left_frame(assigned: list, candidates: np.ndarray,
                         total: int) -> list:
    """Fill missing left-frame rows from candidate directions."""
    stack = np.vstack([np.array(assigned), candidates])
    rows = gram_schmidt_rows(stack, pivot_tol=1e-8, drop=True)
    if len(rows) < total:
        raise DecompositionFailure("left frame completion is rank deficient")
    return [rows[k] for k in range(len(assigned), total)]


def _assemble_frames(p: SpherePoint, rows: np.ndarray, M: np.ndarray,
                     lambdas: np.ndarray, e_comps: np.ndarray,
                     f_comps: np.ndarray, xiv: np.ndarray, assembly_tol: float,
                     label: str, *, pin_e0: bool = False) -> SingularData:
    """Check A e_i = lambda_i f_i and A* f_i = lambda_i e_i in frame
    components, then build the ambient frames with f_0 (and, with
    ``pin_e0``, e_0) set exactly to the field vector ``xiv``."""
    resid = max(
        float(np.max(np.linalg.norm(e_comps @ M.T - lambdas[:, None] * f_comps,
                                    axis=1))),
        float(np.max(np.linalg.norm(f_comps @ M - lambdas[:, None] * e_comps,
                                    axis=1))),
    )
    if resid > assembly_tol:
        raise DecompositionFailure(
            f"{label} residual {resid:.3e} exceeds {assembly_tol:.1e}")

    e_amb = e_comps @ rows
    f_amb = f_comps @ rows
    f_amb[0] = xiv  # exact, not reprojected
    if pin_e0:
        e_amb[0] = xiv
    right = Frame(p, tuple(TangentVector(p, v) for v in e_amb))
    left = Frame(p, tuple(TangentVector(p, v) for v in f_amb))
    return SingularData(lambdas, right, left)


def singular_decomposition(xi: UnitVectorField, p: SpherePoint, *,
                           assembly_tol: float = ASSEMBLY_TOL) -> SingularData:
    """SVD of A_xi with the zero singular value pinned first and f_0 = xi.

    Right/left frames satisfy A e_i = lambda_i f_i with lambda_1 >= ... >=
    lambda_n >= 0 = lambda_0. Left vectors for genuinely positive singular
    values are taken as A e_i / lambda_i, which keeps the pairing exact under
    degenerate singular values; the remaining left slots are completed by
    Gram-Schmidt.
    """
    sphere = xi.sphere
    n1 = sphere.dim
    rows = sphere.standard_frame_rows(p.coords)
    M = shape_matrix(xi, p.coords, rows)
    U, s, Vt = np.linalg.svd(M)

    # A* xi = 0 always, so 0 is a singular value; pin it to slot 0.
    lambdas = np.concatenate([[0.0], s[:-1]])
    e_comps = np.vstack([Vt[-1], Vt[:-1]])

    xiv = xi.value_array(p.coords)
    xi_comps = rows @ xiv
    # deterministic sign: align the kernel slot with the field direction
    if float(e_comps[0] @ xi_comps) < 0.0:
        e_comps[0] = -e_comps[0]
    f_list: list = [xi_comps]
    pending: list[int] = []
    for i in range(1, n1):
        if lambdas[i] > SV_ZERO_TOL:
            f_list.append(M @ e_comps[i] / lambdas[i])
        else:
            f_list.append(None)
            pending.append(i)
    if pending:
        assigned = [f for f in f_list if f is not None]
        fills = _complete_left_frame(assigned, np.vstack([U.T, np.eye(n1)]), n1)
        for slot, vec in zip(pending, fills):
            f_list[slot] = vec
    f_comps = np.array(f_list)
    return _assemble_frames(p, rows, M, lambdas, e_comps, f_comps, xiv,
                            assembly_tol, "singular frame assembly")


def killing_canonical_frames(xi: UnitVectorField, p: SpherePoint, *,
                             assembly_tol: float = ASSEMBLY_TOL) -> SingularData:
    """Canonically paired singular frames for a Killing field.

    Arranges e = (xi, v_1..v_m, w_1..w_m, kernel...) with w_a = A v_a /
    lambda_a, so that A e_a = lambda_a e_{m+a}, A e_{m+a} = -lambda_a e_a,
    f_a = e_{m+a} and f_{m+a} = -e_a. The lambda vector repeats each paired
    value, (0, l_1..l_m, l_1..l_m, 0...), so it is not globally sorted.
    """
    sphere = xi.sphere
    n1 = sphere.dim
    rows = sphere.standard_frame_rows(p.coords)
    M = shape_matrix(xi, p.coords, rows)
    killing = _killing_result(M)
    if not killing.passed:
        raise PreconditionError(
            f"field is not Killing here: skewness residual {killing.residual:.3e}")

    U, s, Vt = np.linalg.svd(M)
    pos_idx = [i for i in range(n1) if s[i] > SV_ZERO_TOL]
    null_rows = [Vt[i] for i in range(n1) if s[i] <= SV_ZERO_TOL]

    # group equal singular values (degenerate blocks must be paired jointly)
    groups: list[list[int]] = []
    for i in pos_idx:
        if groups and abs(s[groups[-1][0]] - s[i]) <= 1e-6 * (1.0 + s[i]):
            groups[-1].append(i)
        else:
            groups.append([i])

    pair_l: list[float] = []
    pair_v: list[np.ndarray] = []
    pair_w: list[np.ndarray] = []
    for grp in groups:
        basis = np.array([Vt[i] for i in grp])
        lam = float(np.mean(s[grp]))
        while len(basis):
            v = basis[0]
            w = M @ v / lam
            pair_l.append(lam)
            pair_v.append(v)
            pair_w.append(w)
            rest = basis[1:]
            rest = rest - np.outer(rest @ v, v) - np.outer(rest @ w, w)
            basis = gram_schmidt_rows(rest, pivot_tol=1e-6, drop=True) \
                if len(rest) else rest

    m = len(pair_l)
    xiv = xi.value_array(p.coords)
    xi_comps = rows @ xiv
    kernel = [xi_comps]
    if 2 * m + 1 < n1:
        stack = np.vstack([xi_comps] + null_rows + [np.eye(n1)])
        filled = gram_schmidt_rows(stack, pivot_tol=1e-8, drop=True)
        # keep only directions orthogonal to the paired blocks
        block = np.array(pair_v + pair_w)
        extra = []
        for row in filled[1:]:
            res = row - block.T @ (block @ row)
            if np.linalg.norm(res) > 0.5:
                extra.append(res / np.linalg.norm(res))
            if 1 + len(extra) + 2 * m == n1:
                break
        kernel += extra

    e_comps = np.array(kernel[:1] + pair_v + pair_w + kernel[1:])
    f_comps = np.array(kernel[:1] + pair_w + [-v for v in pair_v] + kernel[1:])
    lambdas = np.array([0.0] + pair_l + pair_l + [0.0] * (len(kernel) - 1))
    if e_comps.shape != (n1, n1):
        raise DecompositionFailure("canonical pairing produced a wrong frame count")
    return _assemble_frames(p, rows, M, lambdas, e_comps, f_comps, xiv,
                            assembly_tol, "canonical frame", pin_e0=True)


# -- half curvature tensor -------------------------------------------------


def half_curvature(xi: UnitVectorField, X: TangentVector, Y: TangentVector, *,
                   step: float | None = None) -> TangentVector:
    """r(X,Y)xi = nabla_X nabla_Y xi - nabla_{nabla_X Y} xi = -(nabla_X A) Y.

    Y is extended off the base point by tangential projection of its ambient
    vector; that extension has vanishing covariant derivative at the base
    point, so the whole tensor reduces to one derivative of A Y-tilde along
    X. The result is tensorial in both slots, so the extension choice is
    immaterial (asserted by tests, not assumed).
    """
    _check_same_base(X, Y)
    sphere = xi.sphere
    p = X.base
    yvec = np.array(Y.vec)

    def a_ytilde(q: np.ndarray) -> np.ndarray:
        yt = sphere.project_array(q, yvec)
        return shape_apply_array(xi, q, yt)

    deriv = sphere.fd_derivative_array(a_ytilde, p.coords, X.vec, step)
    return TangentVector(p, -deriv)


# -- predicates --------------------------------------------------------------


@dataclass(frozen=True)
class PredicateResult:
    name: str
    residual: float
    tolerance: float
    passed: bool


def _result(name: str, residual: float, tol: float) -> PredicateResult:
    return PredicateResult(name, float(residual), float(tol), bool(residual <= tol))


def _killing_result(M: np.ndarray) -> PredicateResult:
    """The Killing check shared by the predicate and the operations that
    need a Killing field: spectral norm of A + A* in an orthonormal frame."""
    return _result("killing", np.linalg.norm(M + M.T, 2), TOL_ANALYTIC)


def _unit_perp_samples(xi, p, rng, count):
    """Random unit tangent vectors orthogonal to the field at p."""
    sphere = xi.sphere
    xiv = xi.value_array(p.coords)
    out = []
    while len(out) < count:
        v = sphere.project_array(p.coords, rng.standard_normal(sphere.ambient_dim))
        v -= (v @ xiv) * xiv
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            out.append(v / norm)
    return out


def is_geodesic(xi: UnitVectorField, p: SpherePoint) -> PredicateResult:
    """Residual |A_xi xi| = |nabla_xi xi|."""
    resid = np.linalg.norm(shape_apply_array(xi, p.coords, xi.value_array(p.coords)))
    return _result("geodesic", resid, TOL_ANALYTIC)


def is_killing(xi: UnitVectorField, p: SpherePoint) -> PredicateResult:
    """Spectral-norm residual of A + A* in an orthonormal frame."""
    rows = xi.sphere.standard_frame_rows(p.coords)
    return _killing_result(shape_matrix(xi, p.coords, rows))


def is_normal(xi: UnitVectorField, p: SpherePoint) -> PredicateResult:
    """max |<R(X,Y)Z, xi>| over sampled X,Y,Z orthogonal to xi.

    Identically zero on constant-curvature spaces; the closed-form curvature
    makes the tolerance analytic (1e-10).
    """
    sphere = xi.sphere
    rng = np.random.default_rng(0)
    xiv = xi.value_array(p.coords)
    vecs = _unit_perp_samples(xi, p, rng, 3 * PREDICATE_SAMPLES)
    resid = 0.0
    for k in range(PREDICATE_SAMPLES):
        x, y, z = vecs[3 * k], vecs[3 * k + 1], vecs[3 * k + 2]
        resid = max(resid, abs(float(sphere.curvature_array(x, y, z) @ xiv)))
    return _result("normal", resid, 1e-10)


def is_strongly_normal(xi: UnitVectorField, p: SpherePoint) -> PredicateResult:
    """max |<(nabla_X A) Y, Z>| over sampled X,Y,Z orthogonal to xi."""
    rng = np.random.default_rng(0)
    vecs = _unit_perp_samples(xi, p, rng, 3 * PREDICATE_SAMPLES)
    resid = 0.0
    for k in range(PREDICATE_SAMPLES):
        x, y, z = vecs[3 * k], vecs[3 * k + 1], vecs[3 * k + 2]
        r_val = half_curvature(xi, TangentVector(p, x), TangentVector(p, y))
        resid = max(resid, abs(float(r_val.vec @ z)))
    return _result("strongly_normal", resid, TOL_ANALYTIC)


def sasakian_identity_residual(xi: UnitVectorField, p: SpherePoint) -> float:
    """Residual of the Sasakian structure identities with phi = nabla xi.

    Two parts, maximized over random unit tangent pairs: the gap between the
    finite-difference nabla_X xi and the analytic phi X, and
    || r(X,Y)xi - (<xi,Y> X - <X,Y> xi) ||, which is the covariant derivative
    identity for phi. On a sphere of radius r the second part scales like
    |1 - 1/r^2|, so it vanishes only at r = 1.
    """
    sphere = xi.sphere
    rng = np.random.default_rng(0)
    xiv = xi.value_array(p.coords)
    resid = 0.0
    for _ in range(PREDICATE_SAMPLES):
        raw = sphere.project_array(p.coords,
                                   rng.standard_normal((2, sphere.ambient_dim)))
        norms = np.linalg.norm(raw, axis=1)
        if np.min(norms) < 1e-6:
            continue
        x, y = raw[0] / norms[0], raw[1] / norms[1]
        fd = sphere.fd_derivative_array(xi.value_array, p.coords, x)
        resid = max(resid, float(np.linalg.norm(
            fd - xi.covariant_derivative_array(p.coords, x))))
        r_val = half_curvature(xi, TangentVector(p, x), TangentVector(p, y)).vec
        target = (xiv @ y) * x - (x @ y) * xiv
        resid = max(resid, float(np.linalg.norm(r_val - target)))
    return resid


def jacobi_relation_residual(xi: UnitVectorField, p: SpherePoint) -> float:
    """max_X || A* A X - R(X, xi) xi || over an orthonormal frame (Killing xi)."""
    sphere = xi.sphere
    rows = sphere.standard_frame_rows(p.coords)
    M = shape_matrix(xi, p.coords, rows)
    killing = _killing_result(M)
    if not killing.passed:
        raise PreconditionError(
            f"Jacobi relation needs a Killing field; skewness {killing.residual:.3e}")
    xic = rows @ xi.value_array(p.coords)
    k = sphere.curvature_constant
    gram = M.T @ M
    resid = 0.0
    for x in np.eye(len(rows)):
        lhs = gram @ x
        rhs = k * (x - (x @ xic) * xic)
        resid = max(resid, float(np.linalg.norm(lhs - rhs)))
    return resid


def covariant_normality_residual(xi: UnitVectorField, p: SpherePoint) -> float:
    """|| A A* - A* A || in an orthonormal frame (commutation residual)."""
    rows = xi.sphere.standard_frame_rows(p.coords)
    M = shape_matrix(xi, p.coords, rows)
    return float(np.linalg.norm(M @ M.T - M.T @ M, 2))
