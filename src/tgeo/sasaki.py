"""Sasaki geometry of the unit tangent bundle and of the section xi(M).

Bundle tangent vectors are stored as (horizontal, vertical) pairs of base
tangent vectors at an anchor point (p, u) of T1M. The Levi-Civita connection
of the Sasaki metric enters through its four standard component formulas for
lifted fields, specialized to constant curvature; curvature of T1M enters
through a closed quadrilinear form whose nabla-R terms vanish identically on
a round sphere.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .manifold import (
    GS_PIVOT_TOL,
    DegenerateInputError,
    DegeneratePlaneError,
    SphereSpec,
    TangentVector,
    _check_points_stack,
    _check_same_base,
    _check_tangent_stack,
    _gram_schmidt_stack,
    _require_rows,
    _row_norms,
)
from .fields import (
    TOLERANCES,
    PreconditionError,
    SingularData,
    SingularLocusError,
    UnitVectorField,
    half_curvature,
    is_geodesic,
    shape_apply_array,
)

@dataclass(frozen=True, eq=False)
class BundleVector:
    """A tangent vector of TM at the bundle point (p, u), split h + v.

    ``anchor`` is u as a tangent vector at p. For vectors tangent to T1M the
    vertical part is orthogonal to the anchor; general vertical parts are
    allowed (plain vertical lifts live in TM).
    """

    anchor: TangentVector
    horiz: TangentVector
    vert: TangentVector

    def __post_init__(self):
        for part in (self.horiz, self.vert):
            _check_same_base(part.base.coords, self.anchor.base.coords,
                             "bundle vector parts at different points")


# -- lifts -------------------------------------------------------------------


def _one_vector(*vectors: TangentVector) -> list:
    """The ``vec`` of each of ``vectors``, which must each be one vector at
    one point: the one-plane and one-vector wrappers take no stacks."""
    for X in vectors:
        amb = X.base.sphere.ambient_dim
        if X.vec.shape != (amb,):
            raise DegenerateInputError(
                f"tangent vector has shape {X.vec.shape} at base shape "
                f"{X.base.coords.shape}, expected one vector ({amb},) at one point")
    return [X.vec for X in vectors]


def horizontal_lift(X: TangentVector, anchor: TangentVector) -> BundleVector:
    _one_vector(X, anchor)
    return BundleVector(anchor, X, X.base.sphere.zero_tangent(X.base))


def tangential_lift(X: TangentVector, anchor: TangentVector) -> BundleVector:
    """X^t = X^v - <X,u> u^v, the vertical direction tangent to T1M: the
    one-row ``tangential_lift_array``."""
    x, u = _one_vector(X, anchor)
    vert = tangential_lift_array(x[None], u[None])[0]
    return BundleVector(anchor, X.base.sphere.zero_tangent(X.base),
                        TangentVector(X.base, vert))


def xi_tangential_lift(xi: UnitVectorField, X: TangentVector) -> BundleVector:
    """X^tau = X^h - (A X)^t, tangent to xi(M) at (p, xi(p)): the one-row
    ``xi_tangential_lift_array``."""
    p, (x,) = X.base, _one_vector(X)
    anchor, _, vert = xi_tangential_lift_array(xi, p.coords[None], x[None])
    return BundleVector(TangentVector(p, anchor[0]), X, TangentVector(p, vert[0]))


# -- frames on xi(M) ----------------------------------------------------------


def _xi_frame_rows(sd: SingularData) -> tuple:
    """Sasaki-orthonormal (horizontal, vertical) rows at the point of a
    one-row ``sd``: tangent to xi(M), (e_i^h - l_i f_i^v) / sqrt(1 + l_i^2)
    for i = 0..n; normal to it, (l_s e_s^h + f_s^v) / sqrt(1 + l_s^2) for
    s = 1..n."""
    lam = sd.lambdas[0, :, None]
    e, f = sd.right_frame.matrix[0], sd.left_frame.matrix[0]
    scale = np.sqrt(1.0 + lam ** 2)
    return (e / scale, -lam * f / scale), ((lam * e / scale)[1:], (f / scale)[1:])


def _singular_stack(sd: SingularData) -> tuple:
    """(lambdas, E, F) of ``sd``: the lambdas and the right and left frame
    rows, each with its leading point axis."""
    return sd.lambdas, sd.right_frame.matrix, sd.left_frame.matrix


# -- second fundamental form: route 1 (half-curvature formula) ---------------


def second_form_lemma(xi: UnitVectorField, P: np.ndarray, sd) -> np.ndarray:
    """Second fundamental form of xi(M) from the half curvature tensor, as the
    read-only (N, n, n+1, n+1) array of Omega_{sigma|ij} at each point of
    the (N, ambient) stack ``P``, with its ``SingularData`` ``sd``; row
    [k, s] is sigma = s + 1 at point k.

    Omega_{s|ij} = (Lambda_{sij}/2) { <r(e_i,e_j)xi + r(e_j,e_i)xi, f_s>
        + l_s [ l_j <R(e_s,e_i)xi, f_j> + l_i <R(e_s,e_j)xi, f_i> ] }
    with Lambda_{sij} = [(1+l_s^2)(1+l_i^2)(1+l_j^2)]^{-1/2}.

    One half-curvature call differentiates along every frame direction of
    every point. Its displaced points keep their (N, n+1) leading axes, so a
    row check that fails on them (a meridian polar cap) names its point in
    ``.row``.
    """
    lam, E, F = _singular_stack(sd)
    N, n1 = lam.shape
    k = xi.sphere.curvature_constant

    # r_vals[:, i, j] = r(e_i, e_j) xi: one derivative along all e_i at once
    grid = np.broadcast_to(E[:, None], (N, n1) + E.shape[1:])  # every e_j per e_i
    r_vals = half_curvature(xi, P, E, grid)
    sym = r_vals + np.swapaxes(r_vals, 1, 2)

    a = np.matmul(E, F[:, 0, :, None])[..., 0]   # a_i = <e_i, xi>
    G = np.matmul(E, np.swapaxes(F, 1, 2))       # G[i, j] = <e_i, f_j>
    # T[s,i,j] = <R(e_s, e_i) xi, f_j>
    T = k * (a[:, None, :, None] * G[:, :, None, :]
             - a[:, :, None, None] * G[:, None, :, :])

    first = np.einsum("nijc,nsc->nsij", sym, F)
    second = lam[:, :, None, None] * (lam[:, None, None, :] * T
                                      + lam[:, None, :, None] * np.swapaxes(T, 2, 3))
    scale = 1.0 / np.sqrt(1.0 + lam ** 2)
    Lam = (scale[:, :, None, None] * scale[:, None, :, None]
           * scale[:, None, None, :])
    omega = (0.5 * Lam * (first + second))[:, 1:]
    omega.flags.writeable = False
    return omega


# -- second fundamental form: route 2 (bundle connection table) --------------


def second_form_direct(xi: UnitVectorField, P: np.ndarray, sd) -> np.ndarray:
    """Second fundamental form computed from the bundle connection itself, in
    the read-only (N, n, n+1, n+1) layout of ``second_form_lemma``.

    Independent of the half-curvature route: the tangent frame field
    E_j^h + (nabla_{E_j} xi)^t is extended by projection transport of the
    singular frame, differentiated along each tangent frame direction with
    the four connection formulas, and paired against the normal frame; the
    formulas run for every direction at once, on an axis of their own. The
    result is not symmetrized; symmetry in (i, j) is a property to test.

    The 2 N (n+1) displaced points are one stack, row r belonging to point
    r // (2 (n+1)); a row check that fails on it (a Gram-Schmidt pivot, a
    meridian polar cap) has its ``.row`` set to that point.
    """
    lam, E, F = _singular_stack(sd)
    N, n1 = lam.shape
    sphere = xi.sphere
    amb = sphere.ambient_dim
    U = F[:, 0]
    k = sphere.curvature_constant
    scale = np.sqrt(1.0 + lam ** 2)
    h = sphere.fd_step

    # M @ v for each stacked matrix and vector, written out: _matvec_rows
    # is the lemma route's
    def gemv(M, v):
        return np.matmul(M, v[..., None])[..., 0]

    V0 = -shape_apply_array(xi, P, E)            # row j: nabla_{e_j} xi
    a = gemv(E, U)                               # <e_j, xi>
    V0u = gemv(V0, U)                            # <V_j(p), xi>

    # per point, the displaced points p(+h e_i), p(-h e_i) as rows 2i, 2i+1;
    # at each, the frame H transported by projection and V = nabla_H xi
    q = np.stack([sphere._geodesic_coords(P[:, None], E, t) for t in (h, -h)],
                 axis=2).reshape(N, 2 * n1, amb)
    try:
        H = _gram_schmidt_stack(
            sphere.project_array(q, E[:, None]).reshape(-1, n1, amb),
            pivot_tol=GS_PIVOT_TOL, drop=False)
        q = q.reshape(-1, amb)
        jac = xi.jacobian_array(q)
    except (DegenerateInputError, SingularLocusError) as exc:
        if hasattr(exc, "row"):
            exc.args = (f"{exc} of the displaced points",)
            exc.row //= 2 * n1
        raise
    V = sphere.project_array(q, np.matmul(H, np.swapaxes(jac, 1, 2)))
    H = H.reshape(N, n1, 2, n1, amb)
    V = V.reshape(N, n1, 2, n1, amb)

    # axis 1 is the direction e_i of the derivative, axis 2 the frame row j
    x1 = E / scale[:, :, None]
    x2 = -lam[:, :, None] * F / scale[:, :, None]
    c = ((1.0 / scale) / (2.0 * h))[:, :, None, None]
    dH = sphere.project_array(P[:, None], (H[:, :, 0] - H[:, :, 1]) * c)
    dV = sphere.project_array(P[:, None], (V[:, :, 0] - V[:, :, 1]) * c)
    del H, V, q, jac
    Ub = U[:, None, None, :]

    # horizontal: dH + R(u, V_j(p)) x1 / 2 + R(u, x2) H_j(p) / 2
    horiz = dH
    horiz += 0.5 * k * (gemv(V0[:, None], x1)[..., None] * Ub
                        - np.vecdot(U[:, None], x1)[:, :, None, None] * V0[:, None])
    horiz += 0.5 * k * (gemv(E[:, None], x2)[..., None] * Ub
                        - a[:, None, :, None] * x2[:, :, None, :])
    # vertical: dV - R(x1, H_j(p)) u / 2 - <V_j(p), u> x2, then t-project
    vert = dV
    vert -= 0.5 * k * (a[:, None, :, None] * x1[:, :, None, :]
                       - np.vecdot(x1, U[:, None])[:, :, None, None] * E[:, None])
    vert -= V0u[:, None, :, None] * x2[:, :, None, :]
    vert -= gemv(vert, U[:, None])[..., None] * Ub

    # pair against normal frame, undo the |E_j| normalization at p
    omega = np.swapaxes(
        (lam[:, None, 1:, None]
         * np.matmul(E[:, None, 1:], np.swapaxes(horiz, 2, 3))
         + np.matmul(F[:, None, 1:], np.swapaxes(vert, 2, 3)))
        / scale[:, None, 1:, None] / scale[:, None, None, :], 1, 2)
    omega.flags.writeable = False
    return omega


# -- the totally-geodesic obstruction and the closed forms of the oracles ----


def geodesic_field_obstruction(xi: UnitVectorField, P: np.ndarray,
                               sd) -> np.ndarray:
    """First-order totally-geodesic obstruction for a geodesic field, r = 1.

    Returns M[k, s, a] = -(1/2) Lambda_{sa0} <A^2 e_a + e_a, f_s> for sigma,
    alpha in 1..n at each point k of the (N, ambient) stack ``P``, in the
    frames of its ``SingularData`` ``sd``; the zero array is equivalent
    to the vanishing of the (sigma | alpha, 0) block of the second
    fundamental form. A field not geodesic at some point is refused as a
    whole (no ``.row``).
    """
    lam, E, F = _singular_stack(sd)
    if not xi.sphere.is_unit:
        raise PreconditionError("obstruction form is derived for unit radius")
    if np.any(is_geodesic(xi, P) > TOLERANCES.analytic):
        raise PreconditionError("obstruction form needs a geodesic field")
    ae = shape_apply_array(xi, P, E[:, 1:])
    a2e = shape_apply_array(xi, P, ae)
    # [s, a] = <f_s, A^2 e_a + e_a>
    inner = np.matmul(F[:, 1:], np.swapaxes(a2e + E[:, 1:], 1, 2))
    scale = 1.0 / np.sqrt(1.0 + lam[:, 1:] ** 2)
    obs = -0.5 * (scale[:, :, None] * scale[:, None, :]) * inner
    return obs


def meridian_obstruction(sd, cos_theta: np.ndarray) -> np.ndarray:
    """``geodesic_field_obstruction`` of the meridian field in closed form:
    -(1/2) Lambda_{sa0} (cot^2(theta) + 1) <e_a, f_s>, at polar angles
    theta from the field's axis on the unit sphere: the (N,) ``cos_theta``
    with the frames of the N points of ``sd``, giving (N, n, n)."""
    lam, E, F = _singular_stack(sd)
    ct = cos_theta[:, None, None]
    factor = ct * ct / np.maximum(1.0 - ct * ct, 1e-300) + 1.0
    scale = 1.0 / np.sqrt(1.0 + lam[:, 1:] ** 2)
    obs = (-0.5 * (scale[:, :, None] * scale[:, None, :]) * factor
           * np.matmul(F[:, 1:], np.swapaxes(E[:, 1:], 1, 2)))
    return obs


def hopf_pattern_peak(K: float) -> float:
    """(1/2) K (1-K) / (1+K): on a sphere of curvature K, the magnitude of the
    Hopf field's second form in its (s | m+s, 0) slots, in Killing canonical
    frames; zero only at K = 1."""
    return 0.5 * K * (1.0 - K) / (1.0 + K)


def hopf_pattern_split(omega: np.ndarray) -> tuple:
    """(max |Omega| in the (s | m+s, 0) slots, max |Omega| off them) of a
    second form on S^(2m+1) in Killing canonical frames."""
    m = omega.shape[0] // 2
    mask = np.zeros(omega.shape, dtype=bool)
    for a in range(1, m + 1):
        mask[a - 1, m + a, 0] = mask[a - 1, 0, m + a] = True
        mask[m + a - 1, a, 0] = mask[m + a - 1, 0, a] = True
    return (float(np.max(np.abs(omega[mask]))),
            float(np.max(np.abs(np.where(mask, 0.0, omega)))))


# -- curvature of T1M and of xi(M) planes -------------------------------------


def bundle_sectional_curvature(Xb: BundleVector, Yb: BundleVector) -> float:
    """Sectional curvature of T1M along the plane spanned by Xb, Yb.

    The pair is orthonormalized in the Sasaki metric first. Vertical parts
    must lie in the anchor's orthogonal complement (tangency to T1M); stray
    anchor components are projected away with a warning. The two curvature-
    gradient terms of the general formula vanish identically on a constant
    curvature base and are omitted exactly. One-plane form of
    ``bundle_sectional_curvature_array``.
    """
    p = Xb.anchor.base
    parts = _one_vector(Xb.anchor, Xb.horiz, Xb.vert, Yb.anchor, Yb.horiz, Yb.vert)
    _check_same_base(np.stack((p.coords, parts[0])),
                     np.stack((Yb.anchor.base.coords, parts[3])),
                     "bundle vectors anchored at different points")
    rows = [v[None] for v in parts[:3] + parts[4:]]
    K = bundle_sectional_curvature_array(p.sphere, p.coords[None], *rows,
                                         _stacklevel=3)
    return float(K[0])


def bundle_sectional_curvature_array(sphere: SphereSpec, p: np.ndarray,
                                     u: np.ndarray, x1: np.ndarray,
                                     x2: np.ndarray, y1: np.ndarray,
                                     y2: np.ndarray, *,
                                     _stacklevel: int = 2) -> np.ndarray:
    """``bundle_sectional_curvature`` row by row on stacked (N, ambient) arrays.

    Row i is the plane spanned by x1[i]^h + x2[i]^v and y1[i]^h + y2[i]^v at
    the bundle point (p[i], u[i]). Every part must be tangent at p[i] and
    every u[i] a unit vector; a failing row is named in the error. Each
    vertical part with a stray anchor component warns once, as in the
    one-plane function; ``_stacklevel`` lets that function point the warning
    at its own caller.
    """
    _check_points_stack(sphere.radius, p)
    _check_tangent_stack(sphere.radius, p, np.stack((u, x1, x2, y1, y2), axis=1))
    return _bundle_curvature_rows(sphere, u, x1, x2, y1, y2, _stacklevel + 1)


def _bundle_curvature_rows(sphere, u, x1, x2, y1, y2, stacklevel) -> np.ndarray:
    """``bundle_sectional_curvature_array`` past its point and tangent checks."""
    _require_rows(np.abs(_row_norms(u) - 1.0) <= 1e-9, DegenerateInputError,
                  "anchor must be a unit vector (a point of T1M)")
    parts = []
    for h, v in ((x1, x2), (y1, y2)):
        c = np.vecdot(v, u)
        stray = np.abs(c) > 1e-8 * np.maximum(1.0, _row_norms(v))
        for row in np.flatnonzero(stray):
            warnings.warn(f"projecting vertical part: anchor component {c[row]:.3e}",
                          stacklevel=stacklevel)
        parts.append((h, v - c[:, None] * u))

    # A numpy scalar's ** 2 is libm pow, which float_power keeps on arrays;
    # an array's ** 2 is x * x and differs in the last bit on some inputs.
    (x1, x2), (y1, y2) = parts
    nx_sq = np.vecdot(x1, x1) + np.vecdot(x2, x2)
    ny_sq = np.vecdot(y1, y1) + np.vecdot(y2, y2)
    cross = np.vecdot(x1, y1) + np.vecdot(x2, y2)
    gram = nx_sq * ny_sq - np.float_power(cross, 2.0)
    _require_rows(gram >= 1e-14 * np.maximum(nx_sq * ny_sq, 1e-300),
                  DegeneratePlaneError, "bundle vectors do not span a 2-plane")
    nx = np.sqrt(nx_sq)[:, None]
    x1, x2 = x1 / nx, x2 / nx
    c = (np.vecdot(x1, y1) + np.vecdot(x2, y2))[:, None]
    y1, y2 = y1 - c * x1, y2 - c * x2
    ny = np.sqrt(np.vecdot(y1, y1) + np.vecdot(y2, y2))[:, None]
    y1, y2 = y1 / ny, y2 / ny

    R = sphere.curvature_array
    t1 = np.vecdot(R(x1, y1, y1), x1)
    rxyu = R(x1, y1, u)
    t2 = -0.75 * np.vecdot(rxyu, rxyu)
    w = R(u, y2, x1) + R(u, x2, y1)
    t3 = 0.25 * np.vecdot(w, w)
    t4 = (np.vecdot(x2, x2) * np.vecdot(y2, y2)
          - np.float_power(np.vecdot(x2, y2), 2.0))
    t5 = 3.0 * np.vecdot(R(x1, y1, y2), x2)
    t6 = -np.vecdot(R(u, x2, x1), R(u, y2, y1))
    return t1 + t2 + t3 + t4 + t5 + t6


def submanifold_plane_curvature(xi: UnitVectorField, X: TangentVector,
                                Y: TangentVector) -> float:
    """Closed-form curvature of the xi(M) plane spanned by lifted X, Y.

    Valid for the Hopf field on the unit sphere; X, Y must be orthonormal.
    Equals the bundle sectional curvature of the lifted plane (after
    normalizing by the bivector norm), which tests assert at closed-form
    accuracy. One-plane form of ``submanifold_plane_curvature_array``.
    """
    x, y = _one_vector(X, Y)
    _check_same_base(X.base.coords, Y.base.coords)
    K = submanifold_plane_curvature_array(xi, X.base.coords[None], x[None], y[None])
    return float(K[0])


def submanifold_plane_curvature_array(xi: UnitVectorField, p: np.ndarray,
                                      x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``submanifold_plane_curvature`` row by row: row i is the plane of the
    orthonormal tangent pair x[i], y[i] at p[i]; a failing row is named."""
    _require_unit_hopf(xi, "submanifold_plane_curvature")
    r = xi.sphere.radius
    _check_points_stack(r, p)
    _check_tangent_stack(r, p, np.stack((x, y), axis=1))
    _require_rows((np.abs(_row_norms(x) - 1.0) <= 1e-9)
                  & (np.abs(_row_norms(y) - 1.0) <= 1e-9)
                  & (np.abs(np.vecdot(x, y)) <= 1e-9),
                  DegenerateInputError, "X, Y must be orthonormal")
    return _plane_curvature_rows(xi, p, x, y)


def _plane_curvature_rows(xi, p, x, y) -> np.ndarray:
    """``submanifold_plane_curvature_array`` without its checks, for rows
    checked where they were made (``stacked_points``, ``frames_at``)."""
    xiv = xi.value_array(p)
    ax = shape_apply_array(xi, p, x[:, None])[:, 0]  # A x[i] at p[i]
    a = np.vecdot(xiv, x)
    b = np.vecdot(xiv, y)
    c = np.vecdot(ax, y)
    denom = 2.0 - (a * a + b * b)
    return (1.0 - 0.75 * (a * a + b * b) + 1.5 * c * c) / denom


def xi_tangential_lift_array(xi: UnitVectorField, p: np.ndarray,
                             x: np.ndarray):
    """``xi_tangential_lift`` row by row: row i lifts x[i] at p[i].

    Returns the (anchor, horizontal, vertical) rows of X^tau = X^h - (A X)^t,
    the parts ``bundle_sectional_curvature_array`` takes.
    """
    anchor = xi.value_array(p)
    ax = shape_apply_array(xi, p, x[:, None])[:, 0]  # A x[i] at p[i]
    return anchor, x, -tangential_lift_array(ax, anchor)


def xi_normal_lift_array(xi: UnitVectorField, p: np.ndarray, y: np.ndarray):
    """Y^nu = (A* Y)^h + Y^t, normal to xi(M), for rows ``y`` at one point
    ``p`` or one row per point of a stack; A* Y = -P(J^T Y) with J the
    field's Jacobian. Returns (anchor, horizontal, vertical) rows."""
    anchor = xi.value_array(p)
    w = np.matmul(y[..., None, :], xi.jacobian_array(p))[..., 0, :]
    return anchor, -xi.sphere.project_array(p, w), tangential_lift_array(y, anchor)


def tangential_lift_array(v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The vertical part v - <v,u> u of ``tangential_lift``, row by row."""
    return v - np.vecdot(v, u)[:, None] * u


def _require_unit_hopf(xi: UnitVectorField, what: str) -> None:
    if xi.name != "hopf" or not xi.sphere.is_unit:
        raise PreconditionError(f"{what} is specific to the Hopf field at unit radius")
