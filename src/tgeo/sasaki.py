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
    BasePointMismatchError,
    DegenerateInputError,
    DegeneratePlaneError,
    SpherePoint,
    SphereSpec,
    TangentVector,
    _check_points_stack,
    _check_same_base,
    _check_tangent_stack,
    _gram_schmidt_stack,
    _reject_rows,
    _row_norms,
)
from .fields import (
    TOL_ANALYTIC,
    PreconditionError,
    SingularData,
    UnitVectorField,
    conjugate_shape_operator,
    half_curvature,
    shape_apply_array,
    singular_decomposition,
)

_ANCHOR_TOL = 1e-9


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
        pc = self.anchor.base.coords
        for part in (self.horiz, self.vert):
            if np.max(np.abs(part.base.coords - pc)) > _ANCHOR_TOL:
                raise BasePointMismatchError("bundle vector parts at different points")

    @property
    def base(self) -> SpherePoint:
        return self.anchor.base

    def norm_sq(self) -> float:
        return float(self.horiz.vec @ self.horiz.vec + self.vert.vec @ self.vert.vec)

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))

    def __add__(self, other: "BundleVector") -> "BundleVector":
        _check_same_anchor(self, other)
        return BundleVector(self.anchor, self.horiz + other.horiz,
                            self.vert + other.vert)

    def __sub__(self, other: "BundleVector") -> "BundleVector":
        _check_same_anchor(self, other)
        return BundleVector(self.anchor, self.horiz - other.horiz,
                            self.vert - other.vert)

    def __mul__(self, scalar: float) -> "BundleVector":
        return BundleVector(self.anchor, self.horiz * scalar, self.vert * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "BundleVector":
        return self * -1.0


def _check_same_anchor(a: BundleVector, b: BundleVector) -> None:
    if np.max(np.abs(a.anchor.base.coords - b.anchor.base.coords)) > _ANCHOR_TOL \
            or np.max(np.abs(a.anchor.vec - b.anchor.vec)) > _ANCHOR_TOL:
        raise BasePointMismatchError("bundle vectors anchored at different points")


def sasaki_inner(X: BundleVector, Y: BundleVector) -> float:
    """<<X, Y>> = <horiz, horiz> + <vert, vert>."""
    _check_same_anchor(X, Y)
    return float(X.horiz.vec @ Y.horiz.vec + X.vert.vec @ Y.vert.vec)


# -- lifts -------------------------------------------------------------------


def horizontal_lift(X: TangentVector, anchor: TangentVector) -> BundleVector:
    zero = X.base.sphere.zero_tangent(X.base)
    return BundleVector(anchor, X, zero)


def tangential_lift(X: TangentVector, anchor: TangentVector) -> BundleVector:
    """X^t = X^v - <X,u> u^v, the vertical direction tangent to T1M."""
    u = anchor.vec
    vert = TangentVector(X.base, X.vec - (X.vec @ u) * u)
    zero = X.base.sphere.zero_tangent(X.base)
    return BundleVector(anchor, zero, vert)


def xi_tangential_lift(xi: UnitVectorField, X: TangentVector) -> BundleVector:
    """X^tau = X^h - (A X)^t, tangent to xi(M) at (p, xi(p))."""
    p = X.base
    anchor = xi.value(p)
    ax = shape_apply_array(xi, p.coords, X.vec)
    ax = ax - (ax @ anchor.vec) * anchor.vec
    return BundleVector(anchor, X, TangentVector(p, -ax))


def xi_normal_lift(xi: UnitVectorField, Y: TangentVector) -> BundleVector:
    """Y^nu = (A* Y)^h + Y^t, normal to xi(M); depends only on Y - <Y,xi> xi."""
    p = Y.base
    anchor = xi.value(p)
    astar = conjugate_shape_operator(xi, Y)
    vert = TangentVector(p, Y.vec - (Y.vec @ anchor.vec) * anchor.vec)
    return BundleVector(anchor, astar, vert)


# -- frames on xi(M) ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SubmanifoldFrames:
    """Sasaki-orthonormal frames for T(xi(M)) and its normal space.

    ``tangent[i]`` is (e_i^h - l_i f_i^v) / sqrt(1 + l_i^2) for i = 0..n;
    ``normal[s]`` is (l_s e_s^h + f_s^v) / sqrt(1 + l_s^2) for the singular
    index sigma = s + 1 (the sigma = 0 slot is not normal to anything: it
    would be the vertical direction along xi itself, which T1M removes).
    """

    singular: SingularData
    tangent: tuple
    normal: tuple

    @property
    def lambdas(self) -> np.ndarray:
        return self.singular.lambdas


def submanifold_frames(xi: UnitVectorField, p: SpherePoint) -> SubmanifoldFrames:
    sd = singular_decomposition(xi, p)
    lam = sd.lambdas
    e = sd.right_frame
    f = sd.left_frame
    anchor = f[0]  # equals xi(p) exactly
    scale = np.sqrt(1.0 + lam ** 2)
    tangent = []
    for i in range(len(e)):
        horiz = TangentVector(p, e[i].vec / scale[i])
        vert = TangentVector(p, -lam[i] / scale[i] * f[i].vec)
        tangent.append(BundleVector(anchor, horiz, vert))
    normal = []
    for s in range(1, len(e)):
        horiz = TangentVector(p, lam[s] / scale[s] * e[s].vec)
        vert = TangentVector(p, f[s].vec / scale[s])
        normal.append(BundleVector(anchor, horiz, vert))
    return SubmanifoldFrames(sd, tuple(tangent), tuple(normal))


# -- second fundamental form: route 1 (half-curvature formula) ---------------


def second_form_lemma(xi: UnitVectorField, p: SpherePoint, sd: SingularData,
                      *, step: float | None = None) -> np.ndarray:
    """Second fundamental form of xi(M) from the half curvature tensor, as the
    read-only (n, n+1, n+1) array of Omega_{sigma|ij}; row s is sigma = s + 1.

    Omega_{s|ij} = (Lambda_{sij}/2) { <r(e_i,e_j)xi + r(e_j,e_i)xi, f_s>
        + l_s [ l_j <R(e_s,e_i)xi, f_j> + l_i <R(e_s,e_j)xi, f_i> ] }
    with Lambda_{sij} = [(1+l_s^2)(1+l_i^2)(1+l_j^2)]^{-1/2}.
    """
    sphere = xi.sphere
    lam = sd.lambdas
    e = sd.right_frame.matrix
    f = sd.left_frame.matrix
    n1 = len(lam)
    xiv = f[0]
    k = sphere.curvature_constant

    # r_vals[i, j] = r(e_i, e_j) xi: one derivative along all e_i at once
    r_vals = half_curvature(xi, p.coords, e, np.broadcast_to(e, (n1,) + e.shape),
                            step=step)
    sym = r_vals + np.transpose(r_vals, (1, 0, 2))

    a = e @ xiv                   # a_i = <e_i, xi>
    G = e @ f.T                   # G[i, j] = <e_i, f_j>
    # T[s,i,j] = <R(e_s, e_i) xi, f_j>
    T = k * (a[None, :, None] * G[:, None, :] - a[:, None, None] * G[None, :, :])

    first = np.einsum("ijc,sc->sij", sym, f)
    second = lam[:, None, None] * (lam[None, None, :] * T
                                   + lam[None, :, None] * np.transpose(T, (0, 2, 1)))
    scale = 1.0 / np.sqrt(1.0 + lam ** 2)
    Lam = scale[:, None, None] * scale[None, :, None] * scale[None, None, :]
    omega = (0.5 * Lam * (first + second))[1:]
    omega.flags.writeable = False
    return omega


# -- second fundamental form: route 2 (bundle connection table) --------------


def second_form_direct(xi: UnitVectorField, p: SpherePoint, sd: SingularData,
                       *, step: float | None = None) -> np.ndarray:
    """Second fundamental form computed from the bundle connection itself, in
    the read-only array layout of ``second_form_lemma``.

    Independent of the half-curvature route: the tangent frame field
    E_j^h + (nabla_{E_j} xi)^t is extended by projection transport of the
    singular frame, differentiated along each tangent frame direction with
    the four connection formulas, and paired against the normal frame. The
    result is not symmetrized; symmetry in (i, j) is a property to test.
    """
    sphere = xi.sphere
    lam = sd.lambdas
    e = sd.right_frame.matrix
    f = sd.left_frame.matrix
    n1 = len(lam)
    u = f[0]
    k = sphere.curvature_constant
    scale = np.sqrt(1.0 + lam ** 2)
    h = sphere.fd_step if step is None else step

    V0 = -shape_apply_array(xi, p.coords, e)    # row j: nabla_{e_j} xi
    a = e @ u                                    # <e_j, xi>

    # the displaced points p(+h e_i), p(-h e_i) as rows 2i, 2i+1; at each,
    # the frame H transported by projection and V = nabla_H xi
    q = np.array([sphere._geodesic_coords(p.coords, e[i], t)
                  for i in range(n1) for t in (h, -h)])
    H = _gram_schmidt_stack(sphere.project_array(q, e[None]),
                            pivot_tol=GS_PIVOT_TOL, drop=False)
    jac = xi.jacobian_array(q)
    V = sphere.project_array(q, np.matmul(H, np.swapaxes(jac, 1, 2)))

    omega = np.zeros((n1 - 1, n1, n1))
    for i in range(n1):
        x1 = e[i] / scale[i]
        x2 = -lam[i] * f[i] / scale[i]
        c = (1.0 / scale[i]) / (2.0 * h)
        dH = sphere.project_array(p.coords, (H[2 * i] - H[2 * i + 1]) * c)
        dV = sphere.project_array(p.coords, (V[2 * i] - V[2 * i + 1]) * c)

        # horizontal: dH + R(u, V_j(p)) x1 / 2 + R(u, x2) H_j(p) / 2
        horiz = (dH
                 + 0.5 * k * (np.outer(V0 @ x1, u) - (u @ x1) * V0)
                 + 0.5 * k * (np.outer(e @ x2, u) - np.outer(a, x2)))
        # vertical: dV - R(x1, H_j(p)) u / 2 - <V_j(p), u> x2, then t-project
        vert = (dV
                - 0.5 * k * (np.outer(a, x1) - (x1 @ u) * e)
                - np.outer(V0 @ u, x2))
        vert = vert - np.outer(vert @ u, u)

        # pair against normal frame, undo the |E_j| normalization at p
        omega[:, i, :] = (lam[1:, None] * (e[1:] @ horiz.T) + f[1:] @ vert.T) \
            / scale[1:, None] / scale[None, :]
    omega.flags.writeable = False
    return omega


# -- the totally-geodesic obstruction and the closed forms of the oracles ----


def geodesic_field_obstruction(xi: UnitVectorField, p: SpherePoint,
                               sd: SingularData) -> np.ndarray:
    """First-order totally-geodesic obstruction for a geodesic field, r = 1.

    Returns M[s, a] = -(1/2) Lambda_{sa0} <A^2 e_a + e_a, f_s> for sigma,
    alpha in 1..n; the zero array is equivalent to the vanishing of the
    (sigma | alpha, 0) block of the second fundamental form.
    """
    if not xi.sphere.is_unit:
        raise PreconditionError("obstruction form is derived for unit radius")
    xiv = xi.value_array(p.coords)
    if np.linalg.norm(shape_apply_array(xi, p.coords, xiv)) > TOL_ANALYTIC:
        raise PreconditionError("obstruction form needs a geodesic field")
    lam = sd.lambdas
    e = sd.right_frame.matrix
    f = sd.left_frame.matrix
    ae = shape_apply_array(xi, p.coords, e[1:])
    a2e = shape_apply_array(xi, p.coords, ae)
    inner = f[1:] @ (a2e + e[1:]).T          # [s, a] = <f_s, A^2 e_a + e_a>
    scale = 1.0 / np.sqrt(1.0 + lam[1:] ** 2)
    return -0.5 * np.outer(scale, scale) * inner


def meridian_obstruction(sd: SingularData, cos_theta: float) -> np.ndarray:
    """``geodesic_field_obstruction`` of the meridian field in closed form:
    -(1/2) Lambda_{sa0} (cot^2(theta) + 1) <e_a, f_s>, at polar angle theta
    from the field's axis on the unit sphere, in the frames of ``sd``."""
    ct = cos_theta
    factor = ct * ct / max(1.0 - ct * ct, 1e-300) + 1.0
    lam = sd.lambdas
    e = sd.right_frame.matrix
    f = sd.left_frame.matrix
    scale = 1.0 / np.sqrt(1.0 + lam[1:] ** 2)
    return -0.5 * np.outer(scale, scale) * factor * (f[1:] @ e[1:].T)


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
    _check_same_anchor(Xb, Yb)
    rows = [W.vec[None] for W in (Xb.anchor, Xb.horiz, Xb.vert, Yb.horiz, Yb.vert)]
    K = bundle_sectional_curvature_array(Xb.base.sphere, Xb.base.coords[None],
                                         *rows, _stacklevel=3)
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
    r = sphere.radius
    _check_points_stack(r, p)
    _check_tangent_stack(r, p, np.stack((u, x1, x2, y1, y2), axis=1))
    _reject_rows(np.abs(_row_norms(u) - 1.0) > 1e-9, DegenerateInputError,
                 "anchor must be a unit vector (a point of T1M)")

    parts = []
    for h, v in ((x1, x2), (y1, y2)):
        c = np.vecdot(v, u)
        stray = np.abs(c) > 1e-8 * np.maximum(1.0, _row_norms(v))
        for row in np.flatnonzero(stray):
            warnings.warn(f"projecting vertical part: anchor component {c[row]:.3e}",
                          stacklevel=_stacklevel)
        parts.append((h, v - c[:, None] * u))

    # A numpy scalar's ** 2 is libm pow, which float_power keeps on arrays;
    # an array's ** 2 is x * x and differs in the last bit on some inputs.
    (x1, x2), (y1, y2) = parts
    nx_sq = np.vecdot(x1, x1) + np.vecdot(x2, x2)
    ny_sq = np.vecdot(y1, y1) + np.vecdot(y2, y2)
    cross = np.vecdot(x1, y1) + np.vecdot(x2, y2)
    gram = nx_sq * ny_sq - np.float_power(cross, 2.0)
    _reject_rows(gram < 1e-14 * np.maximum(nx_sq * ny_sq, 1e-300),
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
    _check_same_base(X, Y)
    K = submanifold_plane_curvature_array(xi, X.base.coords[None], X.vec[None],
                                          Y.vec[None])
    return float(K[0])


def submanifold_plane_curvature_array(xi: UnitVectorField, p: np.ndarray,
                                      x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``submanifold_plane_curvature`` row by row: row i is the plane of the
    orthonormal tangent pair x[i], y[i] at p[i]; a failing row is named."""
    _require_unit_hopf(xi, "submanifold_plane_curvature")
    r = xi.sphere.radius
    _check_points_stack(r, p)
    _check_tangent_stack(r, p, np.stack((x, y), axis=1))
    _reject_rows((np.abs(_row_norms(x) - 1.0) > 1e-9)
                 | (np.abs(_row_norms(y) - 1.0) > 1e-9)
                 | (np.abs(np.vecdot(x, y)) > 1e-9),
                 DegenerateInputError, "X, Y must be orthonormal")
    xiv, ax = _unit_hopf_rows(xi, p, x)
    a = np.vecdot(xiv, x)
    b = np.vecdot(xiv, y)
    c = np.vecdot(ax, y)
    denom = 2.0 - (a * a + b * b)
    return (1.0 - 0.75 * (a * a + b * b) + 1.5 * c * c) / denom


def xi_tangential_lift_array(xi: UnitVectorField, p: np.ndarray,
                             x: np.ndarray):
    """``xi_tangential_lift`` row by row for the unit Hopf field.

    Returns the (anchor, horizontal, vertical) rows of X^tau = X^h - (A X)^t,
    the parts ``bundle_sectional_curvature_array`` takes.
    """
    _require_unit_hopf(xi, "xi_tangential_lift_array")
    anchor, ax = _unit_hopf_rows(xi, p, x)
    return anchor, x, -tangential_lift_array(ax, anchor)


def tangential_lift_array(v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The vertical part v - <v,u> u of ``tangential_lift``, row by row."""
    return v - np.vecdot(v, u)[:, None] * u


def _unit_hopf_rows(xi: UnitVectorField, p: np.ndarray, x: np.ndarray):
    """xi(p) and A x row by row for the unit Hopf field; A x from its
    constant Jacobian J, with the floating-point operations of
    ``shape_apply_array``."""
    J = xi.jacobian_array(p[0])
    xiv = xi.value_array(p)
    w = np.matmul(x[:, None, :], J.T)[:, 0, :]
    return xiv, -xi.sphere.project_array(p, w)


def _require_unit_hopf(xi: UnitVectorField, what: str) -> None:
    if xi.name != "hopf" or not xi.sphere.is_unit:
        raise PreconditionError(f"{what} is specific to the Hopf field at unit radius")
